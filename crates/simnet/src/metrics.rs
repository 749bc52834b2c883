//! Run-level metrics: the paper's three performance measures plus
//! diagnostics.
//!
//! Section 4: "(1) Goodput, which is the ratio of the number of data bits
//! (excluding overhead) received by the sink to the number of bits
//! transmitted by the senders. (2) Normalized energy (J/bit), the ratio of
//! the total energy consumed by all nodes in the network to the number of
//! bits received by the sink. (3) Delay (s), the difference in time a
//! packet is generated at the sender and received by the sink, including
//! buffering delays."

use bcp_core::msg::AppPacket;
use bcp_net::addr::NodeId;
use bcp_radio::units::Energy;
use bcp_sim::stats::Welford;
use bcp_sim::time::SimTime;
use std::collections::BTreeMap;

/// Per-flow delivery accounting: one entry per `(origin, destination)`
/// pair that generated or received data.
///
/// A flow's deliveries all happen at its destination — on exactly one
/// shard — so the delay stream below is accumulated by a single shard in
/// event order and the cross-shard [`Metrics::merge`] only ever combines
/// a populated stream with empty ones. That is what keeps every derived
/// quantity bit-identical for any shard count, and makes the merge
/// commutative (any permutation of per-shard metrics folds to the same
/// result).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowStats {
    /// Packets generated for this flow. Under a broadcast pattern the
    /// source generates one *copy* per intended recipient, so each
    /// `(source, recipient)` flow counts its own.
    pub generated_packets: u64,
    /// Payload bits likewise.
    pub generated_bits: u64,
    /// Packets this flow's destination received.
    pub delivered_packets: u64,
    /// Payload bits likewise.
    pub delivered_bits: u64,
    /// Per-packet delays (generation → this destination).
    pub delay: Welford,
}

impl FlowStats {
    /// Folds another shard's view of the same flow into this one.
    pub fn merge(&mut self, other: &FlowStats) {
        self.generated_packets += other.generated_packets;
        self.generated_bits += other.generated_bits;
        self.delivered_packets += other.delivered_packets;
        self.delivered_bits += other.delivered_bits;
        self.delay.merge(&other.delay);
    }

    /// Fraction of this flow's generated packets that arrived.
    pub fn reach(&self) -> f64 {
        if self.generated_packets == 0 {
            0.0
        } else {
            self.delivered_packets as f64 / self.generated_packets as f64
        }
    }
}

/// Counters accumulated during one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Application packets generated at senders (for broadcast patterns:
    /// per-recipient copies, so goodput stays a `[0, 1]` reach fraction).
    pub generated_packets: u64,
    /// Application payload bits generated.
    pub generated_bits: u64,
    /// Packets received at their flow's destination.
    pub delivered_packets: u64,
    /// Payload bits received at their flow's destination.
    pub delivered_bits: u64,
    /// Per-flow accounting, keyed `(origin, destination)`. The global
    /// delay statistics derive from these streams (merged in key order),
    /// never from a shard-order fold — see [`FlowStats`].
    pub flows: BTreeMap<(NodeId, NodeId), FlowStats>,
    /// Packets lost to BCP buffer overflow.
    pub drops_buffer: u64,
    /// Packets lost to MAC retry exhaustion or MAC queue overflow. A MAC
    /// "failure" whose frame actually arrived (lost ACK) is *not* counted:
    /// fates are reconciled per packet at the end of the run.
    pub drops_mac: u64,
    /// Packets still buffered or in flight when the run ended. Under a
    /// broadcast pattern this also covers copies stranded by an upstream
    /// tree-edge loss (only the failed edge's own copy is marked as a
    /// drop; the subtree behind it was simply never served).
    pub residual_packets: u64,
    /// Wake-up handshakes begun.
    pub handshakes: u64,
    /// High-radio power-up transitions.
    pub radio_wakeups: u64,
    /// Collisions observed at receivers (both classes).
    pub collisions: u64,
    /// Nodes whose battery emptied during the run.
    pub node_deaths: u64,
    /// When the first node died, if any did.
    pub first_death: Option<SimTime>,
    /// When the sink first became unreachable from some data source: a
    /// sender died, a sender's every route crossed corpses, or the sink
    /// itself died. `None` while every sender lives and routes.
    pub partition: Option<SimTime>,
    /// Sink deliveries that happened before the first death — the paper's
    /// goodput restricted to the all-nodes-alive prefix of the run.
    pub delivered_before_first_death: u64,
    /// Packets generated before the first death (the matching denominator).
    pub generated_before_first_death: u64,
}

impl Metrics {
    /// Records a generated packet. `alive_prefix` says whether the whole
    /// network is still intact (no death announced yet) — in the sharded
    /// world that flag lives in the coordinator-published snapshot, not
    /// in any one shard's counters.
    pub fn on_generated(&mut self, pkt: &AppPacket, alive_prefix: bool) {
        let bits = pkt.bytes as u64 * 8;
        self.generated_packets += 1;
        self.generated_bits += bits;
        if alive_prefix {
            self.generated_before_first_death += 1;
        }
        let f = self.flows.entry((pkt.origin, pkt.dest)).or_default();
        f.generated_packets += 1;
        f.generated_bits += bits;
    }

    /// Records a delivery at the flow's destination at time `now` (see
    /// [`on_generated`](Self::on_generated) for `alive_prefix`).
    pub fn on_delivered(&mut self, pkt: &AppPacket, now: SimTime, alive_prefix: bool) {
        let bits = pkt.bytes as u64 * 8;
        self.delivered_packets += 1;
        self.delivered_bits += bits;
        if alive_prefix {
            self.delivered_before_first_death += 1;
        }
        let f = self.flows.entry((pkt.origin, pkt.dest)).or_default();
        f.delivered_packets += 1;
        f.delivered_bits += bits;
        f.delay
            .push(now.saturating_duration_since(pkt.created).as_secs_f64());
    }

    /// Records a node death at time `now`.
    pub fn on_node_died(&mut self, now: SimTime) {
        self.node_deaths += 1;
        if self.first_death.is_none() {
            self.first_death = Some(now);
        }
    }

    /// Folds another shard's counters into this one. A flow's deliveries
    /// (and its delay stream) happen on exactly one shard — the
    /// destination's — so the per-flow Welford merge never mixes two
    /// non-trivial streams; everything else is a plain sum or an
    /// earliest-instant fold. The whole merge is therefore commutative:
    /// folding per-shard metrics in any permutation yields the same
    /// result as the single-shard run.
    pub fn merge(&mut self, other: &Metrics) {
        self.generated_packets += other.generated_packets;
        self.generated_bits += other.generated_bits;
        self.delivered_packets += other.delivered_packets;
        self.delivered_bits += other.delivered_bits;
        for (key, f) in &other.flows {
            self.flows.entry(*key).or_default().merge(f);
        }
        self.drops_buffer += other.drops_buffer;
        self.drops_mac += other.drops_mac;
        self.residual_packets += other.residual_packets;
        self.handshakes += other.handshakes;
        self.radio_wakeups += other.radio_wakeups;
        self.collisions += other.collisions;
        self.node_deaths += other.node_deaths;
        self.first_death = match (self.first_death, other.first_death) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.partition = match (self.partition, other.partition) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.delivered_before_first_death += other.delivered_before_first_death;
        self.generated_before_first_death += other.generated_before_first_death;
    }

    /// Records the first sink disconnection at time `now` (later calls are
    /// ignored — a network partitions once).
    pub fn on_partition(&mut self, now: SimTime) {
        if self.partition.is_none() {
            self.partition = Some(now);
        }
    }

    /// Goodput: delivered bits / generated bits (0 when nothing generated).
    pub fn goodput(&self) -> f64 {
        if self.generated_bits == 0 {
            0.0
        } else {
            self.delivered_bits as f64 / self.generated_bits as f64
        }
    }

    /// The whole run's delay statistics: every flow's stream merged in
    /// `(origin, destination)` key order. The fold order is a property of
    /// the flow set, never of the sharding, so the result is bit-identical
    /// for any shard count.
    pub fn delay(&self) -> Welford {
        let mut w = Welford::new();
        for f in self.flows.values() {
            w.merge(&f.delay);
        }
        w
    }

    /// Mean per-packet delay in seconds (0 when nothing delivered).
    pub fn mean_delay_s(&self) -> f64 {
        self.delay().mean()
    }

    /// Packet-level reach: delivered / generated packets (0 when nothing
    /// generated). For a broadcast run — where generation counts one copy
    /// per intended recipient — this is the mean fraction of live nodes
    /// each disseminated packet arrived at.
    pub fn packet_reach(&self) -> f64 {
        if self.generated_packets == 0 {
            0.0
        } else {
            self.delivered_packets as f64 / self.generated_packets as f64
        }
    }
}

/// Engine-level diagnostics for one run: how the conservative engine
/// spent its time, not what the simulated network did.
///
/// The virtual-time fields (`windows`, `serial_steps`, `mean_window_s`,
/// `per_shard_events`, `per_shard_max_queue`) are deterministic for a
/// given shard count and sampling interval. The wall-clock fields
/// (`wall_s`, `barrier_wait_s`, `events_per_sec`) are **not**
/// reproducible and must be excluded from bit-identity comparisons.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Shard count the run was partitioned into.
    pub shards: usize,
    /// Worker threads the engine ran with.
    pub threads: usize,
    /// Conservative windows drained (several per synchronization round
    /// when the engine batches sub-windows).
    pub windows: u64,
    /// Cross-shard synchronization points taken (round releases plus
    /// batched sub-window exchanges). `barriers - windows` is the round
    /// count; a healthy batched run keeps it far below `windows`.
    pub barriers: u64,
    /// Serial coordinator steps taken for global events.
    pub serial_steps: u64,
    /// Mean conservative-window width in simulated seconds (0 when no
    /// window ran).
    pub mean_window_s: f64,
    /// Coordinator wall-clock seconds spent waiting at window barriers
    /// (zero on the single-threaded path).
    pub barrier_wait_s: f64,
    /// Wall-clock seconds inside the engine.
    pub wall_s: f64,
    /// Logical events per wall-clock second (0 when the run took no
    /// measurable time).
    pub events_per_sec: f64,
    /// Events processed per shard, in shard-index order (counts the
    /// per-shard halves of cross-shard fan-outs, so the sum exceeds the
    /// logical `events` figure).
    pub per_shard_events: Vec<u64>,
    /// Maximum pending live-event count observed per shard at window
    /// boundaries, in shard-index order.
    pub per_shard_max_queue: Vec<usize>,
}

/// One window of the per-run time series: **deltas** over the sampling
/// interval ending at `t_s` (cumulative totals are the running sum, and
/// the deltas across a whole run telescope exactly to the end-of-run
/// [`RunStats`] globals). Produced by
/// [`RunOptions::series_every`](crate::world::RunOptions).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSample {
    /// The sample instant (the end of this window), in seconds.
    pub t_s: f64,
    /// Packets generated during the window.
    pub generated_packets: u64,
    /// Payload bits generated during the window.
    pub generated_bits: u64,
    /// Packets delivered during the window.
    pub delivered_packets: u64,
    /// Payload bits delivered during the window.
    pub delivered_bits: u64,
    /// Model-accounted energy spent during the window (J), same
    /// accounting as [`RunStats::energy_j`].
    pub energy_j: f64,
    /// Low-radio idle-listening energy spent during the window (J).
    pub energy_low_idle_j: f64,
    /// Low-radio doze energy spent during the window (J).
    pub energy_low_sleep_j: f64,
    /// Nodes alive at the sample instant.
    pub live_nodes: u64,
    /// Pending live events per shard at the sample instant, in
    /// shard-index order (all zeros for samples emitted after the event
    /// queues drained).
    pub queue_depth: Vec<usize>,
}

impl SeriesSample {
    /// Serialises the sample as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        use bcp_sim::json::num;
        let depths = self
            .queue_depth
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"t_s\":{},\"generated_packets\":{},\"generated_bits\":{},\
             \"delivered_packets\":{},\"delivered_bits\":{},\"energy_j\":{},\
             \"energy_low_idle_j\":{},\"energy_low_sleep_j\":{},\
             \"live_nodes\":{},\"queue_depth\":[{}]}}",
            num(self.t_s),
            self.generated_packets,
            self.generated_bits,
            self.delivered_packets,
            self.delivered_bits,
            num(self.energy_j),
            num(self.energy_low_idle_j),
            num(self.energy_low_sleep_j),
            self.live_nodes,
            depths,
        )
    }
}

/// The finished summary of one simulation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Goodput ∈ [0, 1].
    pub goodput: f64,
    /// Total network energy under the model's accounting (J).
    pub energy_j: f64,
    /// Normalized energy in J per **Kbit** delivered (the unit of the
    /// paper's Figs. 6, 7, 9, 10); ∞ when nothing was delivered.
    pub j_per_kbit: f64,
    /// Mean packet delay (s).
    pub mean_delay_s: f64,
    /// For the sensor model: energy under the *header-overhearing* variant
    /// ("Sensor-header"), J. Equal to `energy_j` for other models.
    pub energy_header_j: f64,
    /// `energy_header_j` normalized, J/Kbit.
    pub j_per_kbit_header: f64,
    /// Energy with *full-frame* overhearing charged on the low radio (an
    /// ablation beyond the paper's header-only variant), J.
    pub energy_overhear_full_j: f64,
    /// `energy_overhear_full_j` normalized, J/Kbit.
    pub j_per_kbit_overhear_full: f64,
    /// Raw counters.
    pub metrics: Metrics,
    /// Events processed (diagnostics).
    pub events: u64,
    /// Seconds until the first node death; `None` when every node outlived
    /// the run (always the case without batteries).
    pub time_to_first_death_s: Option<f64>,
    /// Seconds until the sink first became unreachable from some data
    /// source — a sender (or the sink) died, or a sender's every route
    /// crossed corpses; `None` when all senders stayed alive and
    /// sink-connected.
    pub time_to_partition_s: Option<f64>,
    /// Sink deliveries before the first death (= `delivered_packets` when
    /// nothing died).
    pub delivered_before_first_death: u64,
    /// Network-wide energy the low radios spent *listening to nothing*
    /// (the `Idle` bucket, J). This is the idle tax low-power listening
    /// exists to shrink; always-on runs put the whole listening floor
    /// here.
    pub energy_low_idle_j: f64,
    /// Network-wide energy the low radios spent dozing (the `Sleep`
    /// bucket, J); the `p_sleep` floor the idle tax collapses toward as
    /// the LPL duty cycle shrinks.
    pub energy_low_sleep_j: f64,
    /// For broadcast runs: the fraction of per-recipient copies that
    /// arrived (`delivered / generated` packets — the mean share of live
    /// nodes each disseminated packet reached). `None` for convergecast
    /// and gossip runs.
    pub broadcast_reach: Option<f64>,
    /// Per-node supply/meter accounting (one entry per node, in id order).
    pub per_node: Vec<NodePowerReport>,
    /// Engine-level diagnostics (window counts, wall clock, queue
    /// depths). Deliberately excluded from bit-identity comparisons: its
    /// wall-clock fields vary run to run.
    pub engine: EngineStats,
}

/// One node's energy bookkeeping at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePowerReport {
    /// The node.
    pub node: NodeId,
    /// Total energy metered by the node's radio ledgers (J).
    pub ledger_j: f64,
    /// Energy the battery actually supplied (J); equals `ledger_j` up to
    /// depletion clamping. `None` for mains-powered nodes.
    pub drawn_j: Option<f64>,
    /// Usable capacity the node started with (J); `None` for mains power.
    pub capacity_j: Option<f64>,
    /// Charge left (J); `None` for mains power.
    pub residual_j: Option<f64>,
    /// When the node died, in seconds; `None` if it survived the run.
    pub died_at_s: Option<f64>,
}

impl RunStats {
    /// Builds the summary given the model-accounted energies.
    pub fn new(metrics: Metrics, energy: Energy, energy_header: Energy, events: u64) -> Self {
        Self::with_overhear_full(metrics, energy, energy_header, energy_header, events)
    }

    /// Like [`new`](Self::new) with an explicit full-overhearing total.
    pub fn with_overhear_full(
        metrics: Metrics,
        energy: Energy,
        energy_header: Energy,
        energy_overhear_full: Energy,
        events: u64,
    ) -> Self {
        let kbits = metrics.delivered_bits as f64 / 1000.0;
        let norm = |e: Energy| {
            if kbits == 0.0 {
                f64::INFINITY
            } else {
                e.as_joules() / kbits
            }
        };
        RunStats {
            goodput: metrics.goodput(),
            energy_j: energy.as_joules(),
            j_per_kbit: norm(energy),
            mean_delay_s: metrics.mean_delay_s(),
            energy_header_j: energy_header.as_joules(),
            j_per_kbit_header: norm(energy_header),
            energy_overhear_full_j: energy_overhear_full.as_joules(),
            j_per_kbit_overhear_full: norm(energy_overhear_full),
            events,
            time_to_first_death_s: metrics.first_death.map(|t| t.as_secs_f64()),
            time_to_partition_s: metrics.partition.map(|t| t.as_secs_f64()),
            delivered_before_first_death: metrics.delivered_before_first_death,
            energy_low_idle_j: 0.0,
            energy_low_sleep_j: 0.0,
            broadcast_reach: None,
            per_node: Vec::new(),
            engine: EngineStats::default(),
            metrics,
        }
    }

    /// Attaches the engine-level diagnostics (builder style).
    pub fn with_engine(mut self, engine: EngineStats) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches the per-node supply accounting (builder style).
    pub fn with_per_node(mut self, per_node: Vec<NodePowerReport>) -> Self {
        self.per_node = per_node;
        self
    }

    /// Marks the run as a broadcast dissemination, recording its reach
    /// fraction (builder style).
    pub fn with_broadcast_reach(mut self, reach: f64) -> Self {
        self.broadcast_reach = Some(reach);
        self
    }

    /// Attaches the low radios' listening-floor breakdown (builder style).
    pub fn with_low_radio_floor(mut self, idle: Energy, sleep: Energy) -> Self {
        self.energy_low_idle_j = idle.as_joules();
        self.energy_low_sleep_j = sleep.as_joules();
        self
    }

    /// Serialises the whole summary as a JSON object (hand-rolled, no
    /// dependencies): the paper's three measures, the lifetime measures,
    /// every raw counter, and the per-node power accounting. Non-finite
    /// values (e.g. `j_per_kbit` of a run that delivered nothing) become
    /// `null`.
    pub fn to_json(&self) -> String {
        use bcp_sim::json::{num, opt_num};
        let m = &self.metrics;
        let per_node = self
            .per_node
            .iter()
            .map(|n| {
                format!(
                    "{{\"node\":{},\"ledger_j\":{},\"drawn_j\":{},\"capacity_j\":{},\
                     \"residual_j\":{},\"died_at_s\":{}}}",
                    n.node.0,
                    num(n.ledger_j),
                    opt_num(n.drawn_j),
                    opt_num(n.capacity_j),
                    opt_num(n.residual_j),
                    opt_num(n.died_at_s),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let flows = m
            .flows
            .iter()
            .map(|((src, dst), f)| {
                format!(
                    "{{\"src\":{},\"dst\":{},\"generated_packets\":{},\
                     \"delivered_packets\":{},\"delivered_bits\":{},\"mean_delay_s\":{}}}",
                    src.0,
                    dst.0,
                    f.generated_packets,
                    f.delivered_packets,
                    f.delivered_bits,
                    num(f.delay.mean()),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let e = &self.engine;
        let ints = |v: &[u64]| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let engine = format!(
            "{{\"shards\":{},\"threads\":{},\"windows\":{},\"barriers\":{},\
             \"serial_steps\":{},\
             \"mean_window_s\":{},\"barrier_wait_s\":{},\"wall_s\":{},\
             \"events_per_sec\":{},\"per_shard_events\":[{}],\
             \"per_shard_max_queue\":[{}]}}",
            e.shards,
            e.threads,
            e.windows,
            e.barriers,
            e.serial_steps,
            num(e.mean_window_s),
            num(e.barrier_wait_s),
            num(e.wall_s),
            num(e.events_per_sec),
            ints(&e.per_shard_events),
            ints(
                &e.per_shard_max_queue
                    .iter()
                    .map(|&d| d as u64)
                    .collect::<Vec<_>>()
            ),
        );
        format!(
            "{{\"goodput\":{},\"energy_j\":{},\"j_per_kbit\":{},\"mean_delay_s\":{},\
             \"energy_header_j\":{},\"j_per_kbit_header\":{},\
             \"energy_overhear_full_j\":{},\"j_per_kbit_overhear_full\":{},\
             \"events\":{},\"engine\":{},\
             \"time_to_first_death_s\":{},\"time_to_partition_s\":{},\
             \"delivered_before_first_death\":{},\
             \"energy_low_idle_j\":{},\"energy_low_sleep_j\":{},\
             \"broadcast_reach\":{},\"metrics\":{{\
             \"generated_packets\":{},\"generated_bits\":{},\"delivered_packets\":{},\
             \"delivered_bits\":{},\"drops_buffer\":{},\"drops_mac\":{},\
             \"residual_packets\":{},\"handshakes\":{},\"radio_wakeups\":{},\
             \"collisions\":{},\"node_deaths\":{}}},\"flows\":[{}],\"per_node\":[{}]}}",
            num(self.goodput),
            num(self.energy_j),
            num(self.j_per_kbit),
            num(self.mean_delay_s),
            num(self.energy_header_j),
            num(self.j_per_kbit_header),
            num(self.energy_overhear_full_j),
            num(self.j_per_kbit_overhear_full),
            self.events,
            engine,
            opt_num(self.time_to_first_death_s),
            opt_num(self.time_to_partition_s),
            self.delivered_before_first_death,
            num(self.energy_low_idle_j),
            num(self.energy_low_sleep_j),
            opt_num(self.broadcast_reach),
            m.generated_packets,
            m.generated_bits,
            m.delivered_packets,
            m.delivered_bits,
            m.drops_buffer,
            m.drops_mac,
            m.residual_packets,
            m.handshakes,
            m.radio_wakeups,
            m.collisions,
            m.node_deaths,
            flows,
            per_node,
        )
    }

    /// Fraction of the packets generated before the first death that also
    /// reached the sink before it — packet goodput restricted to the
    /// all-alive prefix of the run (equals plain packet goodput when
    /// nothing died).
    pub fn goodput_before_first_death(&self) -> f64 {
        if self.metrics.generated_before_first_death == 0 {
            0.0
        } else {
            self.delivered_before_first_death as f64
                / self.metrics.generated_before_first_death as f64
        }
    }
}

bcp_sim::persist!(FlowStats {
    generated_packets,
    generated_bits,
    delivered_packets,
    delivered_bits,
    delay
});

bcp_sim::persist!(Metrics {
    generated_packets,
    generated_bits,
    delivered_packets,
    delivered_bits,
    flows,
    drops_buffer,
    drops_mac,
    residual_packets,
    handshakes,
    radio_wakeups,
    collisions,
    node_deaths,
    first_death,
    partition,
    delivered_before_first_death,
    generated_before_first_death
});

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_net::addr::NodeId;

    fn pkt(seq: u64, created_s: u64) -> AppPacket {
        AppPacket::new(NodeId(1), NodeId(0), seq, SimTime::from_secs(created_s), 32)
    }

    #[test]
    fn goodput_ratio() {
        let mut m = Metrics::default();
        for i in 0..10 {
            m.on_generated(&pkt(i, 0), true);
        }
        for i in 0..4 {
            m.on_delivered(&pkt(i, 0), SimTime::from_secs(5), true);
        }
        assert!((m.goodput() - 0.4).abs() < 1e-12);
        assert_eq!(m.delivered_bits, 4 * 256);
    }

    #[test]
    fn delay_includes_buffering() {
        let mut m = Metrics::default();
        let p = pkt(0, 10);
        m.on_generated(&p, true);
        m.on_delivered(&p, SimTime::from_secs(25), true);
        assert!((m.mean_delay_s() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn merge_folds_counters_and_instants() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        for i in 0..4 {
            a.on_generated(&pkt(i, 0), true);
        }
        for i in 0..3 {
            b.on_generated(&pkt(100 + i, 0), false);
            b.on_delivered(&pkt(100 + i, 0), SimTime::from_secs(9), false);
        }
        b.on_node_died(SimTime::from_secs(5));
        a.merge(&b);
        assert_eq!(a.generated_packets, 7);
        assert_eq!(a.generated_before_first_death, 4);
        assert_eq!(a.delivered_packets, 3);
        assert_eq!(a.node_deaths, 1);
        assert_eq!(a.first_death, Some(SimTime::from_secs(5)));
        assert!((a.mean_delay_s() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn flow_ledger_sums_to_globals_and_reach() {
        let mut m = Metrics::default();
        // Two flows from different origins; flow (1,0) delivers 2 of 3,
        // flow (2,9) delivers 1 of 1.
        for seq in 0..3 {
            m.on_generated(&pkt(seq, 0), true);
        }
        let other = AppPacket::new(NodeId(2), NodeId(9), 0, SimTime::ZERO, 32);
        m.on_generated(&other, true);
        for seq in 0..2 {
            m.on_delivered(&pkt(seq, 0), SimTime::from_secs(3), true);
        }
        m.on_delivered(&other, SimTime::from_secs(5), true);
        assert_eq!(m.flows.len(), 2);
        let f10 = &m.flows[&(NodeId(1), NodeId(0))];
        assert_eq!(f10.generated_packets, 3);
        assert_eq!(f10.delivered_packets, 2);
        assert!((f10.reach() - 2.0 / 3.0).abs() < 1e-12);
        let sum_gen: u64 = m.flows.values().map(|f| f.generated_packets).sum();
        let sum_del: u64 = m.flows.values().map(|f| f.delivered_packets).sum();
        assert_eq!(sum_gen, m.generated_packets);
        assert_eq!(sum_del, m.delivered_packets);
        // The global delay derives from the flows: 3 samples, mean of
        // {3, 3, 5} seconds.
        assert_eq!(m.delay().count(), 3);
        assert!((m.mean_delay_s() - 11.0 / 3.0).abs() < 1e-12);
        assert!((m.packet_reach() - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn flow_merge_with_empty_side_is_exact() {
        // The sharded world's guarantee: one shard carries a flow's
        // deliveries (delay stream), others only its generation counts —
        // merging in either order is bitwise exact.
        let mut src_shard = Metrics::default();
        let mut dst_shard = Metrics::default();
        for seq in 0..5 {
            src_shard.on_generated(&pkt(seq, 0), true);
            dst_shard.on_delivered(&pkt(seq, 0), SimTime::from_secs(seq + 2), true);
        }
        let mut ab = src_shard.clone();
        ab.merge(&dst_shard);
        let mut ba = dst_shard.clone();
        ba.merge(&src_shard);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.mean_delay_s(), ba.mean_delay_s());
        assert_eq!(
            ab.flows[&(NodeId(1), NodeId(0))].delay,
            dst_shard.flows[&(NodeId(1), NodeId(0))].delay,
            "the populated stream passes through untouched"
        );
    }

    #[test]
    fn runstats_normalization_in_j_per_kbit() {
        let mut m = Metrics::default();
        for i in 0..100 {
            let p = pkt(i, 0);
            m.on_generated(&p, true);
            m.on_delivered(&p, SimTime::from_secs(1), true);
        }
        // 100 × 256 bits = 25.6 Kbit; 2.56 J -> 0.1 J/Kbit.
        let rs = RunStats::new(m, Energy::from_joules(2.56), Energy::from_joules(5.12), 0);
        assert!((rs.j_per_kbit - 0.1).abs() < 1e-12);
        assert!((rs.j_per_kbit_header - 0.2).abs() < 1e-12);
    }

    #[test]
    fn to_json_is_wellformed_and_nulls_nonfinite() {
        let mut m = Metrics::default();
        let p = pkt(0, 0);
        m.on_generated(&p, true);
        let rs = RunStats::new(m, Energy::from_joules(1.0), Energy::ZERO, 42).with_per_node(vec![
            NodePowerReport {
                node: NodeId(0),
                ledger_j: 0.5,
                drawn_j: Some(0.5),
                capacity_j: Some(2.0),
                residual_j: Some(1.5),
                died_at_s: None,
            },
        ]);
        let j = rs.to_json();
        // Nothing delivered: J/Kbit is ∞ → null in JSON.
        assert!(j.contains("\"j_per_kbit\":null"), "{j}");
        // Convergecast: no reach; the flow ledger still serialises.
        assert!(j.contains("\"broadcast_reach\":null"), "{j}");
        assert!(
            j.contains("\"flows\":[{\"src\":1,\"dst\":0,"),
            "per-flow ledger in JSON: {j}"
        );
        assert!(j.contains("\"generated_packets\":1"));
        assert!(j.contains("\"events\":42"));
        assert!(j.contains("\"died_at_s\":null"));
        assert!(j.contains("\"capacity_j\":2.0"));
        // Balanced braces/brackets, no trailing commas before closers.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains(",}") && !j.contains(",]"), "{j}");
    }

    #[test]
    fn empty_run_is_infinite_energy_per_bit() {
        let rs = RunStats::new(
            Metrics::default(),
            Energy::from_joules(1.0),
            Energy::ZERO,
            0,
        );
        assert!(rs.j_per_kbit.is_infinite());
        assert_eq!(rs.goodput, 0.0);
    }
}
