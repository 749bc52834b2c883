//! # bcp-sim — deterministic discrete-event simulation engine
//!
//! The foundation of the BCP reproduction: a virtual clock with nanosecond
//! resolution, a totally-ordered event queue, a platform-stable PRNG, and the
//! statistics collectors the experiment harness needs (Welford mean/variance,
//! Student-t 95% confidence intervals, histograms, time-weighted averages).
//!
//! Determinism is the design constraint that shapes everything here:
//!
//! * every model schedules on one queue type, [`keyed::ShardQueue`] (one
//!   per shard), ordered by a key derived from the model (time, causal
//!   depth, a [`keyed::Keyed`] discriminant), so a run replays identically
//!   however it is sharded; equal keys in one queue pop in insertion
//!   order,
//! * randomness comes from an in-crate xoshiro256★★ ([`rng::Rng`]) whose
//!   stream is bit-stable across platforms and releases,
//! * time is integer nanoseconds ([`time::SimTime`]), so no float drift.
//!
//! For multi-core single-run scaling, [`conservative`] executes a
//! partitioned model under conservative-lookahead windows with results
//! bit-identical to the sequential key order for any shard or thread
//! count; [`threads::worker_count`] sizes every worker pool in the
//! process (override with `BCP_THREADS`).
//!
//! Checkpoints are written by [`persist::Persist`] impls that sit beside
//! each persisted type, on the LEB128 encoder and bounded decoder in
//! [`persist`].
//!
//! # Examples
//!
//! A tiny Poisson arrival loop:
//!
//! ```
//! use bcp_sim::prelude::*;
//!
//! struct Arrival;
//! impl Keyed for Arrival { fn ord(&self) -> u128 { 0 } }
//!
//! let mut q = ShardQueue::new();
//! let mut rng = Rng::new(42);
//! let horizon = SimTime::from_secs(60);
//! q.schedule(SimTime::ZERO, Arrival);
//! let mut arrivals = 0u32;
//! while let Some((_, Arrival)) = q.pop_due(horizon) {
//!     arrivals += 1;
//!     let gap = SimDuration::from_secs_f64(rng.exponential(1.0));
//!     q.schedule(q.now() + gap, Arrival);
//! }
//! assert!(arrivals > 30 && arrivals < 120);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conservative;
pub mod json;
pub mod keyed;
pub mod persist;
pub mod rng;
pub mod stats;
pub mod threads;
pub mod time;
pub mod trace;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::keyed::{Keyed, ShardQueue};
    pub use crate::rng::Rng;
    pub use crate::stats::{mean_ci95, Series, Welford};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::Trace;
}

pub use rng::Rng;
pub use time::{SimDuration, SimTime};
