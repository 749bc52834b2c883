//! # bcp — Bulk Transmission over High-Power Radios in Sensor Networks
//!
//! A from-scratch Rust reproduction of *"Improving Energy Conservation
//! Using Bulk Transmission over High-Power Radios in Sensor Networks"*
//! (Sengul, Bakht, Harris, Abdelzaher, Kravets — ICDCS 2008).
//!
//! The paper's idea: a sensor node carrying both a low-power radio
//! (MicaZ-class, cheap to listen, expensive per bit) and a high-power
//! 802.11 radio (expensive to idle, cheap per bit) should **buffer data
//! until a break-even size `s*`**, then wake the 802.11 radio via a
//! low-radio handshake, burst everything, and shut it down — the **Bulk
//! Communication Protocol (BCP)**.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | crate | role |
//! |-------|------|
//! | [`sim`] | deterministic discrete-event engine, PRNG, statistics |
//! | [`radio`] | radio profiles (the paper's Table 1), energy ledgers, device state machine |
//! | [`analysis`] | Equations (1)–(5): break-even sizes, feasibility sweeps (Figs. 1–4) |
//! | [`net`] | topologies, loss models, routing trees, address mapping |
//! | [`power`] | finite batteries, depletion tracking, network lifetime |
//! | [`mac`] | sans-IO 802.11 DCF and sensor CSMA state machines |
//! | [`traffic`] | CBR / Poisson / bursty-audio workloads |
//! | [`core`] | **BCP itself**: buffers, wake-up handshake, burst transfer |
//! | [`simnet`] | the assembled dual-radio network simulator (Figs. 5–10) |
//! | [`testbed`] | the two-node prototype emulation (Figs. 11–12) |
//! | [`experiments`] | the `repro` harness regenerating every table/figure |
//!
//! # Quickstart
//!
//! ```
//! use bcp::analysis::DualRadioLink;
//! use bcp::radio::profile::{lucent_11m, micaz};
//! use bcp::sim::time::SimDuration;
//! use bcp::simnet::{ModelKind, ScenarioBuilder};
//!
//! // 1. Is the high-power radio worth it, and from what burst size?
//! let link = DualRadioLink::new(micaz(), lucent_11m());
//! let s_star = link.break_even_bytes().expect("feasible pairing");
//! assert!(s_star < 1024.0); // the paper: "typically low (below 1KB)"
//!
//! // 2. Simulate BCP on the paper's grid against the sensor baseline.
//! let dual = ScenarioBuilder::single_hop(ModelKind::DualRadio, 5, 500, 1)
//!     .duration(SimDuration::from_secs(300))
//!     .build()
//!     .expect("valid scenario")
//!     .run();
//! assert!(dual.goodput > 0.5);
//! ```

#![warn(missing_docs)]

pub use bcp_analysis as analysis;
pub use bcp_core as core;
pub use bcp_experiments as experiments;
pub use bcp_mac as mac;
pub use bcp_net as net;
pub use bcp_power as power;
pub use bcp_radio as radio;
pub use bcp_sim as sim;
pub use bcp_simnet as simnet;
pub use bcp_snapshot as snapshot;
pub use bcp_testbed as testbed;
pub use bcp_traffic as traffic;
