//! Forked battery sweeps: one battery-independent warm prefix shared by
//! every cell of a capacity grid.
//!
//! A lifetime sweep re-simulates the same opening seconds once per
//! battery capacity; under shortest-hop routing those prefixes are
//! physically identical — the battery only matters once something can
//! die. [`battery_sweep`] runs the prefix once on mains power, snapshots
//! it, and [`bcp_simnet::fork_with_power`]s one branch per capacity.
//! Cells the fork guards reject (energy-aware routing, or a prefix whose
//! metered spend already exceeds the cell's battery) fall back to cold
//! runs — results are identical either way, only the wall clock differs.

use bcp_power::{Battery, PowerConfig};
use bcp_sim::time::{SimDuration, SimTime};
use bcp_simnet::{fork_with_power, LiveWorld, RunOptions, RunStats, Scenario, World};

/// One capacity grid evaluated against a shared warm prefix.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One result per capacity, in input order.
    pub stats: Vec<RunStats>,
    /// How many cells actually branched from the shared prefix; the rest
    /// ran cold from `t = 0`.
    pub forked_cells: usize,
}

/// Evaluates `caps` (ideal-battery joules per node, mains-powered sink)
/// against `base` — which must be unpowered — sharing the first `warm`
/// of simulated time across every cell.
///
/// A `warm` of zero (or one reaching the horizon) skips the prefix and
/// runs every cell cold; so does any cell the fork guards reject. The
/// sweep's results never depend on which path a cell took.
pub fn battery_sweep(base: &Scenario, warm: SimDuration, caps: &[f64]) -> SweepOutcome {
    let opts = RunOptions::default();
    let snap = (warm > SimDuration::ZERO && warm < base.duration).then(|| {
        let mut lw = World::build(base, &opts);
        lw.run_to(SimTime::ZERO + warm);
        lw.snapshot()
    });
    let mut stats = Vec::with_capacity(caps.len());
    let mut forked_cells = 0usize;
    for &cap in caps {
        let power = PowerConfig::with_battery(Battery::ideal_joules(cap));
        let branch = snap
            .as_ref()
            .and_then(|s| fork_with_power(s, power.clone()).ok());
        match branch {
            Some(state) => {
                forked_cells += 1;
                stats.push(LiveWorld::restore(&state, &opts).finish().stats);
            }
            None => {
                let mut cold = base.clone();
                cold.power = power;
                stats.push(cold.run());
            }
        }
    }
    SweepOutcome {
        stats,
        forked_cells,
    }
}

/// [`battery_sweep`] for a batch of base scenarios (typically one per
/// seed), fanned across the worker pool, results in input order.
pub fn battery_sweeps(bases: &[Scenario], warm: SimDuration, caps: &[f64]) -> Vec<SweepOutcome> {
    let n_workers = bcp_sim::threads::worker_count(bases.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<SweepOutcome>>> =
        bases.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= bases.len() {
                    break;
                }
                let outcome = battery_sweep(&bases[i], warm, caps);
                *results[i].lock().expect("result lock") = Some(outcome);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("lock").expect("sweep ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_simnet::ModelKind;

    fn base(model: ModelKind) -> Scenario {
        let mut s = Scenario::single_hop(model, 5, 10, 3);
        s.duration = SimDuration::from_secs(60);
        s
    }

    fn cold(base: &Scenario, cap: f64) -> RunStats {
        let mut s = base.clone();
        s.power = PowerConfig::with_battery(Battery::ideal_joules(cap));
        s.run()
    }

    fn assert_same(a: &RunStats, b: &RunStats, what: &str) {
        assert_eq!(
            a.metrics.node_deaths, b.metrics.node_deaths,
            "{what}: deaths"
        );
        assert_eq!(
            a.delivered_before_first_death, b.delivered_before_first_death,
            "{what}: deliveries before death"
        );
        assert_eq!(
            a.metrics.delivered_packets, b.metrics.delivered_packets,
            "{what}: deliveries"
        );
        // Death instants accumulate battery draw along different float
        // summation orders on the two paths; anything beyond summation
        // noise is a real divergence.
        match (a.time_to_first_death_s, b.time_to_first_death_s) {
            (None, None) => {}
            (Some(x), Some(y)) => assert!((x - y).abs() < 1e-6, "{what}: ttfd {x} vs {y}"),
            (x, y) => panic!("{what}: ttfd {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn forked_cells_match_cold_runs() {
        // Capacities as fractions of the idle budget, the lifetime
        // experiment's axis: deaths land inside the run, and the 6 s
        // prefix spends well under the smallest cell.
        let idle_w = bcp_radio::profile::micaz().p_idle.as_watts();
        let caps: Vec<f64> = [0.3, 0.6].iter().map(|f| f * idle_w * 60.0).collect();
        let b = base(ModelKind::Sensor);
        let out = battery_sweep(&b, SimDuration::from_secs(6), &caps);
        assert_eq!(out.forked_cells, caps.len(), "every cell is fork-eligible");
        for (i, &cap) in caps.iter().enumerate() {
            let reference = cold(&b, cap);
            assert_same(&out.stats[i], &reference, "cell");
            assert!(
                out.stats[i].metrics.node_deaths > 0,
                "the grid exercises death"
            );
        }
    }

    #[test]
    fn starved_cells_fall_back_to_cold() {
        // 802.11 idles at ~0.83 W: a 6 s prefix outspends a sensor-sized
        // battery many times over, so every cell trips the
        // `PrefixExceedsBattery` guard — and must still match cold runs.
        let idle_w = bcp_radio::profile::micaz().p_idle.as_watts();
        let caps: Vec<f64> = [0.3, 0.6].iter().map(|f| f * idle_w * 60.0).collect();
        let b = base(ModelKind::Dot11);
        let out = battery_sweep(&b, SimDuration::from_secs(6), &caps);
        assert_eq!(out.forked_cells, 0, "every cell outspent its battery");
        for (i, &cap) in caps.iter().enumerate() {
            assert_same(&out.stats[i], &cold(&b, cap), "fallback cell");
        }
    }

    #[test]
    fn batch_sweep_preserves_order() {
        let idle_w = bcp_radio::profile::micaz().p_idle.as_watts();
        let caps = [0.4 * idle_w * 60.0];
        let bases = vec![base(ModelKind::Sensor), base(ModelKind::Dot11)];
        let outs = battery_sweeps(&bases, SimDuration::from_secs(6), &caps);
        assert_eq!(outs.len(), 2);
        for (b, out) in bases.iter().zip(&outs) {
            assert_same(&out.stats[0], &cold(b, caps[0]), "batched cell");
        }
    }
}
