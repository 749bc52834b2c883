//! The `scale` experiment: single-run multi-core scaling.
//!
//! Sweeps node count × shard count on large sensor-model grids and
//! reports wall-clock events/sec plus the speedup over the unsharded
//! run. The sensor model is the scaling showcase on purpose: its only
//! radio is the short-range MicaZ, so a strip partition cuts few links
//! and the conservative lookahead is the low radio's link turnaround
//! latency — wide enough windows to batch useful work per barrier.
//!
//! Results are bit-identical across shard counts (the sweep asserts the
//! delivered-packet counts agree), so the table is purely about speed.
//! Speedup requires actual cores: under `BCP_THREADS=1` (or on a
//! single-core machine) every row degenerates to the sequential path.

use crate::output::Output;
use crate::registry::RunCtx;
use crate::suite::Quality;
use bcp_net::addr::NodeId;
use bcp_net::topo::Topology;
use bcp_sim::time::SimDuration;
use bcp_simnet::{ModelKind, Scenario, ScenarioBuilder};
use std::time::Instant;

/// A large sensor-model convergecast: `side`×`side` grid at the paper's
/// 40 m pitch, sink at the grid centre, one node in ten sending.
pub fn sensor_scale(side: usize, seed: u64) -> Scenario {
    let topo = Topology::grid(side, 40.0);
    let n = topo.len();
    let sink = NodeId((side / 2 * side + side / 2) as u32);
    ScenarioBuilder::single_hop(ModelKind::Sensor, 1, 10, seed)
        .topology(topo)
        .sink(sink)
        .senders_auto((n / 10).max(1))
        .build()
        .expect("the scale grid is valid")
}

/// The node×shard sweep at quality `q`: grid sides (nodes = side²), shard
/// counts (1 is the sequential baseline) and simulated seconds per cell.
fn sweep(q: Quality) -> (&'static [usize], &'static [usize], u64) {
    match q {
        Quality::Test => (&[16], &[1, 2, 4], 5),
        Quality::Quick => (&[24, 32], &[1, 2, 4, 8], 20),
        Quality::PaperLite | Quality::Paper => (&[32, 45], &[1, 2, 4, 8], 60),
    }
}

/// The registered `scale` experiment.
pub fn scale(ctx: &RunCtx) -> Output {
    let (sides, shard_counts, duration_s) = sweep(ctx.quality);
    let mut rows = Vec::new();
    for &side in sides {
        let mut baseline_eps: Option<f64> = None;
        let mut baseline_delivered: Option<u64> = None;
        for &shards in shard_counts {
            let mut scen = sensor_scale(side, 1);
            scen.duration = SimDuration::from_secs(duration_s);
            scen.shards = shards;
            let t = Instant::now();
            let stats = scen.run();
            let wall = t.elapsed().as_secs_f64().max(1e-9);
            let eps = stats.events as f64 / wall;
            let speedup = match baseline_eps {
                None => {
                    baseline_eps = Some(eps);
                    1.0
                }
                Some(base) => eps / base,
            };
            // Sharding must never change physics: same deliveries.
            match baseline_delivered {
                None => baseline_delivered = Some(stats.metrics.delivered_packets),
                Some(d) => assert_eq!(
                    d, stats.metrics.delivered_packets,
                    "sharded run diverged from the sequential baseline"
                ),
            }
            rows.push(vec![
                format!("{}", side * side),
                format!("{shards}"),
                format!("{}", stats.events),
                format!("{:.2}", wall),
                format!("{:.0}", eps),
                format!("{speedup:.2}x"),
                format!("{}", stats.metrics.delivered_packets),
            ]);
        }
    }
    Output::Table {
        headers: [
            "nodes",
            "shards",
            "events",
            "wall_s",
            "events/s",
            "speedup",
            "delivered",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        notes: vec![
            format!("sensor-model convergecast, {duration_s} s simulated, n/10 senders at 2 Kbps"),
            format!(
                "worker pool: {} threads (override with BCP_THREADS); speedup needs real cores",
                bcp_sim::threads::worker_count(usize::MAX)
            ),
            "identical seeds give bit-identical results at every shard count".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_scenario_is_well_formed() {
        let s = sensor_scale(16, 1);
        assert_eq!(s.topo.len(), 256);
        assert_eq!(s.senders.len(), 25);
        assert!(!s.senders.contains(&s.sink));
        assert_eq!(s.model, ModelKind::Sensor);
    }

    #[test]
    fn sweep_tiers_keep_their_shapes() {
        let (sides, shards, secs) = sweep(Quality::Test);
        assert_eq!(
            (sides, shards, secs),
            (&[16usize][..], &[1usize, 2, 4][..], 5)
        );
        let (sides, _, _) = sweep(Quality::Paper);
        assert!(sides.contains(&45), "paper tier reaches 2025 nodes");
        assert_eq!(sweep(Quality::PaperLite), sweep(Quality::Paper));
    }

    #[test]
    fn scale_experiment_renders_and_agrees() {
        // Runs the Test-quality sweep (asserting internally that sharded
        // runs match the sequential baseline) and checks the table shape.
        let out = scale(&RunCtx::new(Quality::Test));
        let text = out.render("scale");
        assert!(text.contains("events/s"));
        assert!(text.contains("speedup"));
        // 1 side × 3 shard counts.
        assert_eq!(text.lines().filter(|l| l.contains('x')).count(), 3);
    }
}
