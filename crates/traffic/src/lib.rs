//! # bcp-traffic — deterministic workload generators
//!
//! The paper's senders produce constant-bit-rate readings ("We have
//! evaluated performance under two different rates: 0.2 and 2 Kbps");
//! its motivation section also cites bursty audio collection (EnviroMic).
//! This crate provides those workloads plus Poisson arrivals, all
//! deterministic given a seed.
//!
//! A [`Workload`] is a stateful arrival stream: each call to
//! [`next_arrival`](Workload::next_arrival) returns the next `(time,
//! bytes)` pair, monotonically increasing in time.
//!
//! # Examples
//!
//! ```
//! use bcp_traffic::Workload;
//!
//! // The paper's 2 Kbps sender with 32 B packets: one packet per 128 ms.
//! let mut w = Workload::cbr_bps(2_000.0, 32);
//! let (t0, b0) = w.next_arrival().unwrap();
//! let (t1, _) = w.next_arrival().unwrap();
//! assert_eq!(b0, 32);
//! assert_eq!((t1 - t0).as_millis_f64(), 128.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use bcp_net::addr::NodeId;
use bcp_sim::persist::{bad, Dec, Enc, Persist, Res};
use bcp_sim::rng::Rng;
use bcp_sim::time::{SimDuration, SimTime};

/// Seed the gossip pair draw defaults to when a scenario does not pick
/// one. Like [`TrafficPattern::gossip_flows`]' shuffle itself, it is
/// deliberately *not* the master simulation seed: the flow **set** is
/// part of the scenario, so seed sweeps compare the same flows.
pub const GOSSIP_DEFAULT_SEED: u64 = 0x6055;

/// The direction of a scenario's application traffic: who generates data
/// and for whom.
///
/// The paper's evaluation is pure convergecast — every sender streams to
/// one sink ([`TrafficPattern::Converge`]). The bulk-over-high-radio
/// trade-off applies just as much to the dual problems: sink-to-all
/// *dissemination* (Lipiński's maximum-lifetime broadcasting) and
/// many-to-many *gossip* flows, where radio-energy modelling choices bite
/// hardest (Khabbazian). Both directions reuse the same arrival-stream
/// [`Workload`]s; the pattern only decides the destinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every configured sender streams to the single sink (the paper's
    /// workload, and the default).
    Converge,
    /// One source floods every other live node: over the low radio the
    /// flood relays hop by hop down the dissemination tree; under BCP the
    /// same tree moves the data in bulk bursts over the high radio.
    Broadcast {
        /// The disseminating node (typically the sink).
        source: NodeId,
    },
    /// `pairs` deterministic unicast flows between distinct sources and
    /// per-source destinations, drawn by [`gossip_flows`]
    /// (TrafficPattern::gossip_flows) from `seed`.
    Gossip {
        /// Number of (source, destination) flows.
        pairs: usize,
        /// Seed of the pair draw (independent of the run's master seed so
        /// seed sweeps keep the same flows).
        seed: u64,
    },
}

impl TrafficPattern {
    /// `true` for the paper's convergecast default.
    pub fn is_converge(&self) -> bool {
        matches!(self, TrafficPattern::Converge)
    }

    /// Resolves the deterministic gossip flow list for a deployment of
    /// `nodes` nodes: `pairs` distinct non-`sink` sources (shuffled by
    /// `seed`, then sorted so the list is stable), each paired with a
    /// destination drawn from every other node (the sink may receive).
    /// The same `(nodes, sink, pairs, seed)` always yields the same
    /// flows.
    ///
    /// # Panics
    ///
    /// Panics when `pairs` exceeds the available non-sink sources or when
    /// a source would have no possible destination (`nodes < 2`). Build
    /// scenarios through `ScenarioBuilder` for a typed error instead.
    pub fn gossip_flows(
        nodes: usize,
        sink: NodeId,
        pairs: usize,
        seed: u64,
    ) -> Vec<(NodeId, NodeId)> {
        assert!(nodes >= 2, "gossip needs at least two nodes");
        let mut srcs: Vec<NodeId> = (0..nodes as u32)
            .map(NodeId)
            .filter(|&n| n != sink)
            .collect();
        assert!(
            pairs <= srcs.len(),
            "cannot draw {pairs} gossip sources from {} non-sink nodes",
            srcs.len()
        );
        let mut rng = Rng::new(seed);
        rng.shuffle(&mut srcs);
        srcs.truncate(pairs);
        srcs.sort();
        // Destinations draw after the sort so the flow list is a pure
        // function of the inputs, not of the discarded shuffle tail.
        srcs.into_iter()
            .map(|src| {
                let dst = loop {
                    let d = NodeId(rng.index(nodes) as u32);
                    if d != src {
                        break d;
                    }
                };
                (src, dst)
            })
            .collect()
    }
}

/// A deterministic application traffic source.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Fixed-size packets at fixed intervals.
    Cbr {
        /// Packet payload size in bytes.
        packet_bytes: usize,
        /// Gap between packets.
        interval: SimDuration,
        /// Time of the next arrival.
        next_at: SimTime,
    },
    /// Fixed-size packets with exponentially distributed gaps.
    Poisson {
        /// Packet payload size in bytes.
        packet_bytes: usize,
        /// Mean gap between packets.
        mean_interval: SimDuration,
        /// Time of the next arrival.
        next_at: SimTime,
        /// Gap sampler state.
        rng: Rng,
    },
    /// Alternating ON (CBR at `packet_bytes`/`interval`) and OFF periods
    /// with exponentially distributed durations — an EnviroMic-style audio
    /// capture source.
    OnOffBursty {
        /// Packet payload size in bytes.
        packet_bytes: usize,
        /// Gap between packets while ON.
        interval: SimDuration,
        /// Mean ON duration.
        mean_on: SimDuration,
        /// Mean OFF duration.
        mean_off: SimDuration,
        /// Time of the next arrival.
        next_at: SimTime,
        /// End of the current ON period.
        on_until: SimTime,
        /// Duration sampler state.
        rng: Rng,
    },
}

impl Workload {
    /// CBR with an explicit packet size and interval.
    ///
    /// # Panics
    ///
    /// Panics if `packet_bytes == 0` or the interval is zero.
    pub fn cbr(packet_bytes: usize, interval: SimDuration) -> Self {
        assert!(packet_bytes > 0, "packets must carry data");
        assert!(!interval.is_zero(), "interval must be positive");
        Workload::Cbr {
            packet_bytes,
            interval,
            next_at: SimTime::ZERO + interval,
        }
    }

    /// CBR expressed as a bit rate, the paper's parameterisation
    /// (`0.2 Kbps` → `cbr_bps(200.0, 32)`).
    ///
    /// # Panics
    ///
    /// Panics if the rate or packet size is not positive.
    pub fn cbr_bps(rate_bps: f64, packet_bytes: usize) -> Self {
        assert!(rate_bps > 0.0 && rate_bps.is_finite(), "invalid rate");
        let interval = SimDuration::from_secs_f64(packet_bytes as f64 * 8.0 / rate_bps);
        Self::cbr(packet_bytes, interval)
    }

    /// Poisson arrivals with the given mean rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate or packet size is not positive.
    pub fn poisson_bps(rate_bps: f64, packet_bytes: usize, seed: u64) -> Self {
        assert!(rate_bps > 0.0 && rate_bps.is_finite(), "invalid rate");
        assert!(packet_bytes > 0, "packets must carry data");
        let mean_interval = SimDuration::from_secs_f64(packet_bytes as f64 * 8.0 / rate_bps);
        let mut rng = Rng::new(seed);
        let first = SimDuration::from_secs_f64(rng.exponential(mean_interval.as_secs_f64()));
        Workload::Poisson {
            packet_bytes,
            mean_interval,
            next_at: SimTime::ZERO + first,
            rng,
        }
    }

    /// Bursty ON/OFF audio-style source.
    ///
    /// # Panics
    ///
    /// Panics on zero packet size, interval or mean durations.
    pub fn on_off_bursty(
        packet_bytes: usize,
        interval: SimDuration,
        mean_on: SimDuration,
        mean_off: SimDuration,
        seed: u64,
    ) -> Self {
        assert!(packet_bytes > 0, "packets must carry data");
        assert!(
            !interval.is_zero() && !mean_on.is_zero() && !mean_off.is_zero(),
            "durations must be positive"
        );
        let mut rng = Rng::new(seed);
        let on = SimDuration::from_secs_f64(rng.exponential(mean_on.as_secs_f64()));
        Workload::OnOffBursty {
            packet_bytes,
            interval,
            mean_on,
            mean_off,
            next_at: SimTime::ZERO + interval,
            on_until: SimTime::ZERO + on,
            rng,
        }
    }

    /// Delays the first arrival by `phase` (used to desynchronise senders).
    pub fn with_phase(mut self, phase: SimDuration) -> Self {
        match &mut self {
            Workload::Cbr { next_at, .. } | Workload::Poisson { next_at, .. } => {
                *next_at += phase;
            }
            Workload::OnOffBursty {
                next_at, on_until, ..
            } => {
                *next_at += phase;
                *on_until += phase;
            }
        }
        self
    }

    /// The mean offered load in bits per second.
    pub fn mean_rate_bps(&self) -> f64 {
        match self {
            Workload::Cbr {
                packet_bytes,
                interval,
                ..
            } => *packet_bytes as f64 * 8.0 / interval.as_secs_f64(),
            Workload::Poisson {
                packet_bytes,
                mean_interval,
                ..
            } => *packet_bytes as f64 * 8.0 / mean_interval.as_secs_f64(),
            Workload::OnOffBursty {
                packet_bytes,
                interval,
                mean_on,
                mean_off,
                ..
            } => {
                let duty = mean_on.as_secs_f64() / (mean_on.as_secs_f64() + mean_off.as_secs_f64());
                *packet_bytes as f64 * 8.0 / interval.as_secs_f64() * duty
            }
        }
    }

    /// Produces the next `(arrival time, payload bytes)`; times are strictly
    /// increasing. Sources are unbounded (`None` is never returned today;
    /// the option leaves room for finite trace replay).
    pub fn next_arrival(&mut self) -> Option<(SimTime, usize)> {
        match self {
            Workload::Cbr {
                packet_bytes,
                interval,
                next_at,
            } => {
                let t = *next_at;
                *next_at = t + *interval;
                Some((t, *packet_bytes))
            }
            Workload::Poisson {
                packet_bytes,
                mean_interval,
                next_at,
                rng,
            } => {
                let t = *next_at;
                let gap = SimDuration::from_secs_f64(
                    rng.exponential(mean_interval.as_secs_f64()).max(1e-9),
                );
                *next_at = t + gap;
                Some((t, *packet_bytes))
            }
            Workload::OnOffBursty {
                packet_bytes,
                interval,
                mean_on,
                mean_off,
                next_at,
                on_until,
                rng,
            } => {
                // Skip OFF periods: if the next tick lands beyond the ON
                // window, jump to the start of the next ON window.
                while *next_at > *on_until {
                    let off = SimDuration::from_secs_f64(
                        rng.exponential(mean_off.as_secs_f64()).max(1e-9),
                    );
                    let on = SimDuration::from_secs_f64(
                        rng.exponential(mean_on.as_secs_f64()).max(1e-9),
                    );
                    let next_on_start = *on_until + off;
                    *next_at = next_on_start + *interval;
                    *on_until = next_on_start + on;
                }
                let t = *next_at;
                *next_at = t + *interval;
                Some((t, *packet_bytes))
            }
        }
    }
}

/// The whole source, configuration included. `Ctx` is the source the
/// scenario builds, whose configuration a load must reproduce.
impl Persist for Workload {
    type Ctx = Workload;
    fn save(&self, e: &mut Enc) {
        match self {
            Workload::Cbr {
                packet_bytes,
                interval,
                next_at,
            } => {
                e.u8(0);
                e.put(packet_bytes);
                e.put(interval);
                e.put(next_at);
            }
            Workload::Poisson {
                packet_bytes,
                mean_interval,
                next_at,
                rng,
            } => {
                e.u8(1);
                e.put(packet_bytes);
                e.put(mean_interval);
                e.put(next_at);
                e.put(rng);
            }
            Workload::OnOffBursty {
                packet_bytes,
                interval,
                mean_on,
                mean_off,
                next_at,
                on_until,
                rng,
            } => {
                e.u8(2);
                e.put(packet_bytes);
                e.put(interval);
                e.put(mean_on);
                e.put(mean_off);
                e.put(next_at);
                e.put(on_until);
                e.put(rng);
            }
        }
    }
    fn load(d: &mut Dec<'_>, blank: Workload) -> Res<Self> {
        let w = match d.tag(&[0, 1, 2], "workload tag")? {
            0 => Workload::Cbr {
                packet_bytes: d.get()?,
                interval: d.get()?,
                next_at: d.get()?,
            },
            1 => Workload::Poisson {
                packet_bytes: d.get()?,
                mean_interval: d.get()?,
                next_at: d.get()?,
                rng: d.get()?,
            },
            _ => Workload::OnOffBursty {
                packet_bytes: d.get()?,
                interval: d.get()?,
                mean_on: d.get()?,
                mean_off: d.get()?,
                next_at: d.get()?,
                on_until: d.get()?,
                rng: d.get()?,
            },
        };
        // Given the scenario's arrival registers, the stored source must
        // be the scenario's: same kind, size and intervals.
        let mut config = w.clone();
        match (&mut config, &blank) {
            (Workload::Cbr { next_at, .. }, Workload::Cbr { next_at: n, .. }) => *next_at = *n,
            (
                Workload::Poisson { next_at, rng, .. },
                Workload::Poisson {
                    next_at: n, rng: r, ..
                },
            ) => (*next_at, *rng) = (*n, r.clone()),
            (
                Workload::OnOffBursty {
                    next_at,
                    on_until,
                    rng,
                    ..
                },
                Workload::OnOffBursty {
                    next_at: n,
                    on_until: u,
                    rng: r,
                    ..
                },
            ) => (*next_at, *on_until, *rng) = (*n, *u, r.clone()),
            _ => {}
        }
        if config != blank {
            return Err(bad("workload disagrees with the scenario"));
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_is_periodic() {
        let mut w = Workload::cbr(32, SimDuration::from_millis(128));
        let times: Vec<SimTime> = (0..5).map(|_| w.next_arrival().unwrap().0).collect();
        for (i, t) in times.iter().enumerate() {
            assert_eq!(t.as_nanos(), 128_000_000 * (i as u64 + 1));
        }
    }

    #[test]
    fn cbr_bps_matches_paper_rates() {
        // 2 Kbps at 32 B = 7.8125 pkt/s.
        let w = Workload::cbr_bps(2_000.0, 32);
        assert!((w.mean_rate_bps() - 2_000.0).abs() < 1e-9);
        // 0.2 Kbps: one packet every 1.28 s.
        let mut w = Workload::cbr_bps(200.0, 32);
        let (t, _) = w.next_arrival().unwrap();
        assert!((t.as_secs_f64() - 1.28).abs() < 1e-9);
    }

    #[test]
    fn poisson_mean_rate() {
        let mut w = Workload::poisson_bps(2_000.0, 32, 42);
        let n = 20_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            let (t, b) = w.next_arrival().unwrap();
            assert!(t > last, "strictly increasing");
            assert_eq!(b, 32);
            last = t;
        }
        let rate = n as f64 * 32.0 * 8.0 / last.as_secs_f64();
        assert!((rate - 2_000.0).abs() < 60.0, "measured {rate} bps");
    }

    #[test]
    fn bursty_duty_cycle() {
        let mut w = Workload::on_off_bursty(
            32,
            SimDuration::from_millis(10),
            SimDuration::from_secs(2),
            SimDuration::from_secs(6),
            7,
        );
        let n = 50_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            let (t, _) = w.next_arrival().unwrap();
            assert!(t > last);
            last = t;
        }
        let measured = n as f64 * 32.0 * 8.0 / last.as_secs_f64();
        let expected = w.mean_rate_bps(); // 25.6 kbps · 0.25 duty = 6.4 kbps
        assert!(
            (measured / expected - 1.0).abs() < 0.15,
            "measured {measured} vs expected {expected}"
        );
    }

    #[test]
    fn bursty_has_long_gaps() {
        let mut w = Workload::on_off_bursty(
            32,
            SimDuration::from_millis(10),
            SimDuration::from_secs(1),
            SimDuration::from_secs(10),
            9,
        );
        let mut gaps = Vec::new();
        let mut last = SimTime::ZERO;
        for _ in 0..5_000 {
            let (t, _) = w.next_arrival().unwrap();
            gaps.push(t.saturating_duration_since(last));
            last = t;
        }
        let long = gaps
            .iter()
            .filter(|g| **g > SimDuration::from_secs(1))
            .count();
        assert!(long > 10, "expected OFF gaps, saw {long}");
    }

    #[test]
    fn phase_shifts_first_arrival() {
        let base = Workload::cbr(32, SimDuration::from_millis(100));
        let mut shifted = base.clone().with_phase(SimDuration::from_millis(37));
        let mut base = base;
        let t0 = base.next_arrival().unwrap().0;
        let t1 = shifted.next_arrival().unwrap().0;
        assert_eq!(t1.duration_since(t0), SimDuration::from_millis(37));
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = Workload::poisson_bps(1000.0, 32, 5);
        let mut b = Workload::poisson_bps(1000.0, 32, 5);
        for _ in 0..100 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }

    #[test]
    #[should_panic(expected = "carry data")]
    fn zero_packet_rejected() {
        let _ = Workload::cbr(0, SimDuration::from_millis(1));
    }

    #[test]
    fn gossip_flows_are_deterministic_and_valid() {
        let sink = NodeId(14);
        let a = TrafficPattern::gossip_flows(36, sink, 8, 7);
        let b = TrafficPattern::gossip_flows(36, sink, 8, 7);
        assert_eq!(a, b, "same inputs, same flows");
        assert_eq!(a.len(), 8);
        let mut srcs: Vec<NodeId> = a.iter().map(|(s, _)| *s).collect();
        let sorted = srcs.clone();
        srcs.sort();
        srcs.dedup();
        assert_eq!(srcs.len(), 8, "sources are distinct");
        assert_eq!(srcs, sorted, "flow list is sorted by source");
        for (s, d) in &a {
            assert_ne!(s, d, "no self-flows");
            assert_ne!(*s, sink, "the sink never sources gossip");
            assert!(s.0 < 36 && d.0 < 36, "ids in range");
        }
        let c = TrafficPattern::gossip_flows(36, sink, 8, 8);
        assert_ne!(a, c, "a different seed draws different flows");
    }

    #[test]
    fn gossip_flows_can_saturate_the_deployment() {
        // Every non-sink node sources a flow; destinations may repeat and
        // may include the sink.
        let flows = TrafficPattern::gossip_flows(6, NodeId(0), 5, 1);
        assert_eq!(flows.len(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn too_many_gossip_pairs_panics() {
        let _ = TrafficPattern::gossip_flows(4, NodeId(0), 4, 1);
    }

    #[test]
    fn pattern_predicates() {
        assert!(TrafficPattern::Converge.is_converge());
        assert!(!TrafficPattern::Broadcast { source: NodeId(0) }.is_converge());
    }
}
