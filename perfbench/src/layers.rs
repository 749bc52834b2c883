//! Per-layer metrics: times from the benchmark's spans, counts from the
//! counters the program exports (`RunStats`, `EngineStats`) and from the
//! flight-recorder trace. Every workload reports every metric; a layer a
//! workload does not exercise reads 0.

use crate::gate::Facts;
use crate::report::{ratio, Outcome};
use crate::spans::{self_times, Span};
use crate::stats::median;
use bcp_sim::trace::{TraceClass, TraceEvent, TraceRecord, TraceRx};
use std::collections::BTreeMap;

/// Every span name the benchmark records, each with the metric that
/// reports its inclusive time (`None` for the per-cell root, whose time
/// is the end-to-end cell latency).
pub const SPANS: [(&str, Option<&str>); 14] = [
    ("cell", None),
    ("spec.parse", Some("spec.parse_s")),
    ("spec.emit", Some("spec.emit_s")),
    ("cache.key", Some("cache.key_s")),
    ("cache.lookup", Some("cache.lookup_s")),
    ("world.build", Some("world.build_s")),
    ("engine.run_to", Some("engine.run_s")),
    ("series.drain", Some("series.drain_s")),
    ("snapshot.capture", Some("snapshot.capture_s")),
    ("snapshot.encode", Some("snapshot.encode_s")),
    ("snapshot.write", Some("snapshot.write_s")),
    ("world.finish", Some("world.finish_s")),
    ("world.to_json", Some("world.to_json_s")),
    ("cache.insert", Some("cache.insert_s")),
];

/// Per-cell totals of one span name: `(inclusive, self)` seconds for
/// each cell that made the call.
pub fn per_cell(spans: &[Span], name: &str) -> Vec<(f64, f64)> {
    let selfs = self_times(spans);
    let mut by_cell: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        if s.name == name {
            let e = by_cell.entry(s.cell).or_default();
            e.0 += s.dur();
            e.1 += own;
        }
    }
    by_cell.into_values().collect()
}

/// Span-time metrics: for each span name, the median over cells of the
/// cell's total time in that call (`<layer>.<op>_s`) and of its self
/// time (`self.<name>_s`), over the cells that made the call.
pub fn span_metrics(out: &mut Outcome, spans: &[Span]) {
    for (name, metric) in SPANS {
        let cells = per_cell(spans, name);
        if let Some(metric) = metric {
            let incl: Vec<f64> = cells.iter().map(|c| c.0).collect();
            out.put(metric, median(&incl), "s");
        }
        let own: Vec<f64> = cells.iter().map(|c| c.1).collect();
        out.put(format!("self.{name}_s"), median(&own), "s");
    }
}

/// Counts read from the flight-recorder trace.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceCounts {
    pub records: u64,
    pub contend: u64,
    pub tx_low: u64,
    pub tx_high: u64,
    pub ack_ok: u64,
    pub acks: u64,
    pub rx_start: u64,
    pub rx_intact: u64,
    pub burst_frames: u64,
    pub burst_bytes: u64,
    pub state_changes: u64,
    pub power_steps: u64,
    pub repairs: u64,
    pub refreshes: u64,
}

impl TraceCounts {
    /// Adds one run's merged trace.
    pub fn add(&mut self, trace: &[TraceRecord]) {
        for r in trace {
            self.records += 1;
            match &r.ev {
                TraceEvent::MacContend { .. } => self.contend += 1,
                TraceEvent::TxStart { class, bytes, .. } => match class {
                    TraceClass::Low => self.tx_low += 1,
                    TraceClass::High => {
                        self.tx_high += 1;
                        // High-radio frames with a payload are burst
                        // data (acknowledgements carry none).
                        if *bytes > 0 {
                            self.burst_frames += 1;
                            self.burst_bytes += u64::from(*bytes);
                        }
                    }
                },
                TraceEvent::AckOutcome { ok, .. } => {
                    self.acks += 1;
                    self.ack_ok += u64::from(*ok);
                }
                TraceEvent::RxStart { .. } => self.rx_start += 1,
                TraceEvent::RxEnd { outcome, .. } => {
                    if matches!(outcome, TraceRx::Delivered | TraceRx::Overheard) {
                        self.rx_intact += 1;
                    }
                }
                TraceEvent::RadioState { .. } => self.state_changes += 1,
                TraceEvent::PowerStep { .. } => self.power_steps += 1,
                TraceEvent::RouteRepair { .. } => self.repairs += 1,
                TraceEvent::RouteRefresh => self.refreshes += 1,
                _ => {}
            }
        }
    }
}

/// Engine, partition, MAC, channel, BCP, radio, power and route metrics
/// for one pass: `facts` are the pass's runs, `trace` the recorder counts
/// over the same runs (all zero where no recorder ran).
pub fn count_metrics(out: &mut Outcome, facts: &[Facts], trace: &TraceCounts) {
    let sum = |f: fn(&Facts) -> u64| facts.iter().map(f).sum::<u64>() as f64;
    let events = sum(|f| f.events);
    let windows = sum(|f| f.windows);
    let engine_wall: f64 = facts.iter().map(|f| f.engine_wall_s).sum();
    let wait: f64 = facts.iter().map(|f| f.barrier_wait_s).sum();
    out.put("engine.windows", windows, "count");
    out.put("engine.windows_per_event", ratio(windows, events), "ratio");
    out.put("engine.events_per_window", ratio(events, windows), "ratio");
    out.put("engine.rounds", sum(|f| f.barriers) - windows, "count");
    out.put("engine.serial_steps", sum(|f| f.serial_steps), "count");
    out.put("engine.barrier_wait_s", wait, "s");
    out.put(
        "engine.barrier_wait_share",
        ratio(wait, engine_wall),
        "ratio",
    );
    let max_queue = facts.iter().map(|f| f.max_queue).max().unwrap_or(0);
    out.put("engine.max_queue", max_queue as f64, "count");

    // Partition: the worst run's shard imbalance, and the fan-out
    // duplication over all runs.
    let imbalance = facts
        .iter()
        .map(|f| {
            let n = f.per_shard_events.len().max(1) as f64;
            let total: u64 = f.per_shard_events.iter().sum();
            let max = f.per_shard_events.iter().copied().max().unwrap_or(0);
            ratio(max as f64, total as f64 / n)
        })
        .fold(0.0, f64::max);
    let shard_sum: u64 = facts.iter().flat_map(|f| &f.per_shard_events).sum();
    out.put("partition.imbalance", imbalance, "ratio");
    out.put(
        "partition.fanout_dup",
        ratio(shard_sum as f64, events) - 1.0,
        "ratio",
    );

    out.put("mac.contend", trace.contend as f64, "count");
    out.put("mac.tx_low", trace.tx_low as f64, "count");
    out.put("mac.tx_high", trace.tx_high as f64, "count");
    out.put(
        "mac.ack_ok_ratio",
        ratio(trace.ack_ok as f64, trace.acks as f64),
        "ratio",
    );
    out.put("mac.drops", sum(|f| f.drops_mac), "count");

    out.put("channel.rx_start", trace.rx_start as f64, "count");
    let decode = ratio(trace.rx_intact as f64, trace.rx_start as f64);
    out.put("channel.decode_ratio", decode, "ratio");
    out.put("channel.collisions", sum(|f| f.collisions), "count");

    let wakeups = sum(|f| f.radio_wakeups);
    out.put("core.handshakes", sum(|f| f.handshakes), "count");
    out.put("core.burst_frames", trace.burst_frames as f64, "count");
    out.put("core.radio_wakeups", wakeups, "count");
    out.put(
        "core.bytes_per_wakeup",
        ratio(trace.burst_bytes as f64, wakeups),
        "B",
    );
    out.put("core.drops_buffer", sum(|f| f.drops_buffer), "count");

    out.put("radio.state_changes", trace.state_changes as f64, "count");
    out.put("power.steps", trace.power_steps as f64, "count");
    out.put("power.deaths", sum(|f| f.node_deaths), "count");
    out.put("routes.repairs", trace.repairs as f64, "count");
    out.put("routes.refreshes", trace.refreshes as f64, "count");
    out.put("trace.records", trace.records as f64, "count");
}

/// The snapshot, cache and serve metrics, all 0: for the single-run
/// workloads, which touch none of those layers.
pub fn serve_zeros(out: &mut Outcome) {
    for (name, unit) in [
        ("snapshot.count", "count"),
        ("snapshot.bytes_per_node", "B"),
        ("snapshot.share", "ratio"),
        ("cache.hit_ratio", "ratio"),
        ("serve.queue_wait_s", "s"),
        ("serve.done_lag_s", "s"),
        ("serve.worker_busy_share", "ratio"),
        ("serve.overhead_s", "s"),
    ] {
        out.put(name, 0.0, unit);
    }
}
