//! The simulation sweeps behind Figures 5–10 (Section 4.1).
//!
//! A sweep is **data**: a [`SweepSpec`] names its axes (model/burst cells ×
//! sender counts × seeds at a rate and duration) and expands to concrete
//! jobs, each built through the validating
//! [`ScenarioBuilder`](bcp_simnet::ScenarioBuilder). [`sweep`] instantiates
//! the paper's grid and runs it across the worker pool; figure pairs that
//! share sweeps (5+6, 8+9) reuse the same data via a process-wide memo, so
//! `repro all` pays for each sweep once.

use bcp_sim::stats::{mean_ci95, Series};
use bcp_sim::time::SimDuration;
use bcp_simnet::{ModelKind, RunStats, Scenario, ScenarioBuilder, SpecError};
use std::collections::HashMap;
use std::sync::Mutex;

/// Sweep fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Quality {
    /// Unit-test scale: tiny durations, one run — shape checks only.
    Test,
    /// Minutes-scale: 600 s runs, 3 seeds, 4 sender counts.
    #[default]
    Quick,
    /// Full 5000 s steady-state runs, but 5 seeds and 4 sender counts —
    /// paper-faithful shapes at a fraction of the compute.
    PaperLite,
    /// The paper's scale: 5000 s runs, 20 seeds, 7 sender counts.
    Paper,
}

impl Quality {
    /// Simulated duration per run.
    pub fn duration(self) -> SimDuration {
        match self {
            Quality::Test => SimDuration::from_secs(400),
            Quality::Quick => SimDuration::from_secs(600),
            Quality::PaperLite | Quality::Paper => SimDuration::from_secs(5_000),
        }
    }

    /// Seeded repetitions per cell (the paper averages 20 runs).
    pub fn runs(self) -> usize {
        match self {
            Quality::Test => 1,
            Quality::Quick => 3,
            Quality::PaperLite => 5,
            Quality::Paper => 20,
        }
    }

    /// The sender-count axis (the paper sweeps 5–35).
    pub fn sender_counts(self) -> Vec<usize> {
        match self {
            Quality::Test => vec![5, 20],
            Quality::Quick | Quality::PaperLite => vec![5, 15, 25, 35],
            Quality::Paper => vec![5, 10, 15, 20, 25, 30, 35],
        }
    }
}

/// The paper's burst-size axis (packets of 32 B).
pub const BURSTS: [usize; 5] = [10, 100, 500, 1000, 2500];

/// Which of the two radio geometries a sweep uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hop {
    /// Lucent 11 Mbps at sensor range: no hop advantage (Figs. 5–7).
    Single,
    /// Cabletron reaching the sink in one hop (Figs. 8–10).
    Multi,
}

/// One sweep cell: model and burst size (bursts only matter to DualRadio).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cell {
    /// The pure sensor network.
    Sensor,
    /// The pure 802.11 network.
    Dot11,
    /// BCP with the given burst size in packets.
    Dual(usize),
}

impl Cell {
    fn label(&self) -> String {
        match self {
            Cell::Sensor => "Sensor".into(),
            Cell::Dot11 => "802.11".into(),
            Cell::Dual(b) => format!("DualRadio-{b}"),
        }
    }
}

/// Averaged statistics of one sweep cell.
#[derive(Debug, Clone)]
pub struct CellStats {
    /// Mean goodput and CI half-width.
    pub goodput: (f64, f64),
    /// Mean normalized energy (J/Kbit) and CI.
    pub j_per_kbit: (f64, f64),
    /// Sensor-header-accounted normalized energy and CI.
    pub j_per_kbit_header: (f64, f64),
    /// Mean delay (s) and CI.
    pub delay_s: (f64, f64),
}

fn summarize(runs: &[RunStats]) -> CellStats {
    let pick = |f: &dyn Fn(&RunStats) -> f64, delivered_only: bool| {
        let vals: Vec<f64> = runs
            .iter()
            .filter(|r| !delivered_only || r.metrics.delivered_packets > 0)
            .map(f)
            .filter(|v| v.is_finite())
            .collect();
        mean_ci95(&vals)
    };
    CellStats {
        goodput: pick(&|r| r.goodput, false),
        // Energy per bit and delay are only defined over runs that
        // delivered something (short runs with huge bursts may not).
        j_per_kbit: pick(&|r| r.j_per_kbit, true),
        j_per_kbit_header: pick(&|r| r.j_per_kbit_header, true),
        delay_s: pick(&|r| r.mean_delay_s, true),
    }
}

/// Sizes the sweep-level worker pool so that sweep workers × per-run
/// shard threads never oversubscribes the `total` thread budget: the
/// budget is divided by the largest per-job shard count, clamped to
/// `[1, jobs]`. With unsharded jobs (`max_shards == 1`) this is the plain
/// `min(total, jobs)`.
pub fn sweep_worker_budget(total: usize, jobs: usize, max_shards: usize) -> usize {
    (total / max_shards.max(1)).clamp(1, jobs.max(1))
}

/// Runs `jobs` scenarios across the worker pool, preserving order. The
/// pool is sized by [`bcp_sim::threads::worker_count`], so one
/// `BCP_THREADS` variable caps both this sweep-level pool and each run's
/// intra-run shard pool. When jobs carry `shards > 1` the sweep-level
/// budget is divided by the largest shard count
/// ([`sweep_worker_budget`]), so the two layers multiply out to at most
/// the machine's thread budget instead of oversubscribing it.
pub fn run_parallel(jobs: Vec<Scenario>) -> Vec<RunStats> {
    let max_shards = jobs.iter().map(|j| j.shards.max(1)).max().unwrap_or(1);
    // The unclamped machine/BCP_THREADS budget: with sharded jobs, fewer
    // sweep workers than jobs can still saturate it (workers × shards),
    // so the job-count clamp belongs inside sweep_worker_budget, after
    // the division.
    let total = bcp_sim::threads::worker_count(usize::MAX);
    let n_workers = sweep_worker_budget(total, jobs.len(), max_shards);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<Mutex<Option<RunStats>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let stats = jobs[i].run();
                *results[i].lock().expect("result lock") = Some(stats);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("lock").expect("job ran"))
        .collect()
}

/// The full sweep for one geometry: every cell × sender count, averaged.
pub type SweepData = HashMap<(Cell, usize), CellStats>;

/// Memo key → sweep results (one entry per (geometry, rate, quality)).
type SweepMemo = HashMap<(Hop, RateMode, Quality), SweepData>;

/// A declarative sweep grid: the cartesian product of its axes, expanded
/// to jobs and executed through the validating scenario builder.
///
/// # Examples
///
/// ```
/// use bcp_experiments::suite::{Hop, Quality, RateMode, SweepSpec};
///
/// let spec = SweepSpec::paper_grid(Hop::Single, RateMode::High, Quality::Test);
/// let jobs = spec.jobs();
/// // cells × sender counts × seeds, in deterministic order.
/// assert_eq!(jobs.len(), spec.cells.len() * spec.sender_counts.len() * spec.runs);
/// let scenario = spec.scenario(&jobs[0]).expect("grid cells are valid");
/// assert_eq!(scenario.duration, spec.duration);
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Which radio geometry every job uses.
    pub hop: Hop,
    /// Per-sender offered load in bits per second.
    pub rate_bps: f64,
    /// The model/burst axis.
    pub cells: Vec<Cell>,
    /// The sender-count axis.
    pub sender_counts: Vec<usize>,
    /// Seeded repetitions per cell (seeds `1..=runs`).
    pub runs: usize,
    /// Simulated duration per run.
    pub duration: SimDuration,
}

/// One expanded grid point of a [`SweepSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepJob {
    /// The model/burst cell.
    pub cell: Cell,
    /// Number of senders.
    pub senders: usize,
    /// Master seed of the run.
    pub seed: u64,
}

impl SweepSpec {
    /// The paper's Section 4.1 grid at a given quality: Sensor and 802.11
    /// baselines plus one dual-radio cell per burst size in [`BURSTS`].
    pub fn paper_grid(hop: Hop, rate_mode: RateMode, q: Quality) -> Self {
        let mut cells: Vec<Cell> = vec![Cell::Sensor, Cell::Dot11];
        cells.extend(BURSTS.iter().map(|&b| Cell::Dual(b)));
        SweepSpec {
            hop,
            rate_bps: rate_mode.bps(),
            cells,
            sender_counts: q.sender_counts(),
            runs: q.runs(),
            duration: q.duration(),
        }
    }

    /// Expands the grid to jobs in deterministic (cell, senders, seed)
    /// order.
    pub fn jobs(&self) -> Vec<SweepJob> {
        let mut jobs = Vec::with_capacity(self.cells.len() * self.sender_counts.len() * self.runs);
        for &cell in &self.cells {
            for &senders in &self.sender_counts {
                for seed in 1..=self.runs as u64 {
                    jobs.push(SweepJob {
                        cell,
                        senders,
                        seed,
                    });
                }
            }
        }
        jobs
    }

    /// Builds one job's scenario through the validating builder.
    pub fn scenario(&self, job: &SweepJob) -> Result<Scenario, SpecError> {
        let (model, burst) = match job.cell {
            Cell::Sensor => (ModelKind::Sensor, 10),
            Cell::Dot11 => (ModelKind::Dot11, 10),
            Cell::Dual(b) => (ModelKind::DualRadio, b),
        };
        let b = match self.hop {
            Hop::Single => ScenarioBuilder::single_hop(model, job.senders, burst, job.seed),
            Hop::Multi => ScenarioBuilder::multi_hop(model, job.senders, burst, job.seed),
        };
        b.rate_bps(self.rate_bps).duration(self.duration).build()
    }

    /// Expands, builds, runs and summarizes the whole grid. Fails fast if
    /// any grid point is an invalid scenario (before burning any compute).
    pub fn run(&self) -> Result<SweepData, SpecError> {
        let jobs = self.jobs();
        let scenarios = jobs
            .iter()
            .map(|j| self.scenario(j))
            .collect::<Result<Vec<_>, _>>()?;
        let stats = run_parallel(scenarios);
        let mut grouped: HashMap<(Cell, usize), Vec<RunStats>> = HashMap::new();
        for (job, stat) in jobs.into_iter().zip(stats) {
            grouped
                .entry((job.cell, job.senders))
                .or_default()
                .push(stat);
        }
        Ok(grouped
            .into_iter()
            .map(|(k, v)| (k, summarize(&v)))
            .collect())
    }
}

/// Runs (or recalls) the paper-grid sweep for `(hop, rate)` at the given
/// quality.
pub fn sweep(hop: Hop, rate_mode: RateMode, q: Quality) -> SweepData {
    static MEMO: Mutex<Option<SweepMemo>> = Mutex::new(None);
    {
        let memo = MEMO.lock().expect("memo lock");
        if let Some(map) = memo.as_ref() {
            if let Some(data) = map.get(&(hop, rate_mode, q)) {
                return data.clone();
            }
        }
    }
    let data = SweepSpec::paper_grid(hop, rate_mode, q)
        .run()
        .expect("the paper grid is a valid sweep");
    let mut memo = MEMO.lock().expect("memo lock");
    memo.get_or_insert_with(HashMap::new)
        .insert((hop, rate_mode, q), data.clone());
    data
}

/// The largest grid a `.sweep` file may expand to. Hundreds of times any
/// real sweep, and small enough that a hostile `runs` or axis length is
/// refused instead of exhausting memory in [`SweepSpec::jobs`].
const MAX_SWEEP_JOBS: usize = 1 << 20;

/// Parses a `.sweep` file into a [`SweepSpec`].
///
/// The format mirrors `.scn`: one `key = value` per line, `#` comments.
/// Unset keys default to the paper grid at `quick` quality. Keys:
///
/// ```text
/// hop       = single | multi
/// rate      = high | low            # or rate_bps = <f64>
/// cells     = sensor, dot11, dual:100, dual:500
/// senders   = 5, 15, 25
/// runs      = 3
/// duration_s = 600
/// ```
///
/// A grid expands to at most 2^20 jobs (cells × senders × runs).
pub fn parse_sweep(text: &str) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::paper_grid(Hop::Single, RateMode::High, Quality::Quick);
    // The last line that set a grid axis: where an oversized grid is reported.
    let mut axis_line = 0;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let (key, value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| at(format!("expected key = value, got {line:?}")))?;
        match key {
            "hop" => {
                spec.hop = match value {
                    "single" => Hop::Single,
                    "multi" => Hop::Multi,
                    other => return Err(at(format!("hop must be single|multi, got {other:?}"))),
                }
            }
            "rate" => {
                spec.rate_bps = match value {
                    "high" => RateMode::High.bps(),
                    "low" => RateMode::Low.bps(),
                    other => return Err(at(format!("rate must be high|low, got {other:?}"))),
                }
            }
            "rate_bps" => {
                spec.rate_bps = value
                    .parse()
                    .map_err(|e| at(format!("bad rate_bps {value:?}: {e}")))?
            }
            "cells" => {
                spec.cells = value
                    .split(',')
                    .map(|c| match c.trim() {
                        "sensor" => Ok(Cell::Sensor),
                        "dot11" => Ok(Cell::Dot11),
                        other => match other.strip_prefix("dual:") {
                            Some(b) => b
                                .parse()
                                .map(Cell::Dual)
                                .map_err(|e| at(format!("bad burst in {other:?}: {e}"))),
                            None => Err(at(format!(
                                "cell must be sensor|dot11|dual:<burst>, got {other:?}"
                            ))),
                        },
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if spec.cells.is_empty() {
                    return Err(at("cells must not be empty".into()));
                }
            }
            "senders" => {
                spec.sender_counts = value
                    .split(',')
                    .map(|n| {
                        n.trim()
                            .parse()
                            .map_err(|e| at(format!("bad sender count {n:?}: {e}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if spec.sender_counts.is_empty() {
                    return Err(at("senders must not be empty".into()));
                }
            }
            "runs" => {
                spec.runs = value
                    .parse()
                    .map_err(|e| at(format!("bad runs {value:?}: {e}")))?;
                if spec.runs == 0 {
                    return Err(at("runs must be at least 1".into()));
                }
            }
            "duration_s" => {
                let secs: f64 = value
                    .parse()
                    .map_err(|e| at(format!("bad duration_s {value:?}: {e}")))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(at("duration_s must be positive".into()));
                }
                if secs > u64::MAX as f64 / 1e9 {
                    return Err(at(format!("duration_s out of range: {secs} s")));
                }
                spec.duration = SimDuration::from_secs_f64(secs);
            }
            other => return Err(at(format!("unknown key {other:?}"))),
        }
        if matches!(key, "cells" | "senders" | "runs") {
            axis_line = lineno + 1;
        }
    }
    let jobs = spec
        .cells
        .len()
        .checked_mul(spec.sender_counts.len())
        .and_then(|n| n.checked_mul(spec.runs));
    if jobs.map_or(true, |n| n > MAX_SWEEP_JOBS) {
        return Err(format!(
            "line {axis_line}: the grid exceeds the {MAX_SWEEP_JOBS}-job limit \
             (cells × senders × runs)"
        ));
    }
    Ok(spec)
}

/// The two offered loads of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RateMode {
    /// 2 Kbps per sender (Figs. 5, 6, 8, 9).
    High,
    /// 0.2 Kbps per sender (Figs. 7, 10).
    Low,
}

impl RateMode {
    /// The rate in bits per second.
    pub fn bps(self) -> f64 {
        match self {
            RateMode::High => 2_000.0,
            RateMode::Low => 200.0,
        }
    }
}

/// Goodput-vs-senders series (Figs. 5 and 8).
pub fn goodput_series(hop: Hop, q: Quality) -> Vec<Series> {
    let data = sweep(hop, RateMode::High, q);
    let mut out = Vec::new();
    for cell in cells_in_figure_order() {
        let mut s = Series::new(cell.label());
        for &n in &q.sender_counts() {
            if let Some(c) = data.get(&(cell, n)) {
                s.push_with_ci(n as f64, c.goodput.0, c.goodput.1);
            }
        }
        out.push(s);
    }
    out
}

/// Normalized-energy-vs-senders series (Figs. 6 and 9): the dual-radio
/// bursts plus Sensor-ideal and Sensor-header (the 802.11 model is
/// excluded, as in the paper: "very high energy consumption").
pub fn energy_series(hop: Hop, q: Quality) -> Vec<Series> {
    let data = sweep(hop, RateMode::High, q);
    let mut out = Vec::new();
    for &b in &BURSTS {
        let cell = Cell::Dual(b);
        let mut s = Series::new(cell.label());
        for &n in &q.sender_counts() {
            if let Some(c) = data.get(&(cell, n)) {
                s.push_with_ci(n as f64, c.j_per_kbit.0, c.j_per_kbit.1);
            }
        }
        out.push(s);
    }
    let mut ideal = Series::new("Sensor-ideal");
    let mut header = Series::new("Sensor-header");
    for &n in &q.sender_counts() {
        if let Some(c) = data.get(&(Cell::Sensor, n)) {
            ideal.push_with_ci(n as f64, c.j_per_kbit.0, c.j_per_kbit.1);
            header.push_with_ci(n as f64, c.j_per_kbit_header.0, c.j_per_kbit_header.1);
        }
    }
    out.push(ideal);
    out.push(header);
    out
}

/// Energy-vs-delay series at 0.2 Kbps (Figs. 7 and 10): one line per sender
/// count, one point per burst size.
pub fn energy_delay_series(hop: Hop, q: Quality) -> Vec<Series> {
    let data = sweep(hop, RateMode::Low, q);
    let mut out = Vec::new();
    for &n in &q.sender_counts() {
        let mut s = Series::new(format!("0.2Kbps-{n}"));
        for &b in &BURSTS {
            if let Some(c) = data.get(&(Cell::Dual(b), n)) {
                // Cells whose bursts never filled within the run deliver
                // nothing; they have no defined energy/delay point.
                if c.delay_s.0 > 0.0 && c.j_per_kbit.0.is_finite() && c.j_per_kbit.0 > 0.0 {
                    s.push_with_ci(c.delay_s.0, c.j_per_kbit.0, c.j_per_kbit.1);
                }
            }
        }
        out.push(s);
    }
    out
}

fn cells_in_figure_order() -> Vec<Cell> {
    let mut cells: Vec<Cell> = BURSTS.iter().map(|&b| Cell::Dual(b)).collect();
    cells.push(Cell::Sensor);
    cells.push(Cell::Dot11);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_parameters() {
        assert_eq!(Quality::Paper.runs(), 20);
        assert_eq!(Quality::Paper.duration(), SimDuration::from_secs(5000));
        assert_eq!(Quality::Paper.sender_counts().len(), 7);
        assert!(Quality::Quick.runs() < Quality::Paper.runs());
    }

    #[test]
    fn worker_budget_divides_by_shards_instead_of_multiplying() {
        // Unsharded: plain min(total, jobs).
        assert_eq!(sweep_worker_budget(16, 32, 1), 16);
        assert_eq!(sweep_worker_budget(16, 4, 1), 4);
        // Sharded jobs: the sweep pool shrinks so workers × shards ≤ total.
        assert_eq!(sweep_worker_budget(16, 32, 4), 4);
        assert_eq!(sweep_worker_budget(16, 32, 8), 2);
        // More shards than threads: still at least one worker.
        assert_eq!(sweep_worker_budget(4, 32, 16), 1);
        // Degenerate inputs never panic or return zero.
        assert_eq!(sweep_worker_budget(0, 0, 0), 1);
        assert_eq!(sweep_worker_budget(8, 1, 3), 1);
    }

    #[test]
    fn sharded_jobs_shrink_the_sweep_pool_end_to_end() {
        // Two sharded scenarios through run_parallel: budget 16 threads,
        // shards 4 → at most 4 sweep workers each driving a 4-thread shard
        // pool. The observable contract here is order-preserving results
        // that match the sequential runs exactly.
        let mk = |seed| {
            ScenarioBuilder::single_hop(ModelKind::Sensor, 3, 10, seed)
                .duration(SimDuration::from_secs(30))
                .shards(4)
                .build()
                .expect("valid")
        };
        let parallel = run_parallel(vec![mk(1), mk(2)]);
        assert_eq!(parallel.len(), 2);
        for (i, seed) in [1u64, 2].iter().enumerate() {
            let solo = mk(*seed).run();
            assert_eq!(parallel[i].events, solo.events, "seed {seed}");
            assert_eq!(
                parallel[i].metrics.delivered_packets,
                solo.metrics.delivered_packets
            );
        }
    }

    #[test]
    fn sweep_spec_expands_the_full_grid_through_the_builder() {
        let spec = SweepSpec::paper_grid(Hop::Multi, RateMode::Low, Quality::Test);
        let jobs = spec.jobs();
        assert_eq!(
            jobs.len(),
            spec.cells.len() * spec.sender_counts.len() * spec.runs
        );
        // Deterministic order: seeds innermost, starting at 1.
        assert_eq!(jobs[0].seed, 1);
        let s = spec.scenario(&jobs[0]).expect("valid grid point");
        assert_eq!(s.rate_bps, 200.0);
        assert_eq!(s.duration, Quality::Test.duration());
        assert_eq!(s.high_profile.name, "Cabletron");
        // An impossible grid point fails fast instead of panicking.
        let bad = SweepSpec {
            sender_counts: vec![36],
            ..spec
        };
        assert!(bad.scenario(&bad.jobs()[0]).is_err());
    }

    #[test]
    fn sweep_files_parse_with_defaults_and_overrides() {
        // Empty text: the quick-quality paper grid.
        let dflt = parse_sweep("").expect("defaults parse");
        assert_eq!(dflt.hop, Hop::Single);
        assert_eq!(dflt.rate_bps, RateMode::High.bps());
        assert_eq!(dflt.runs, Quality::Quick.runs());
        assert_eq!(dflt.cells.len(), 2 + BURSTS.len());
        // Full override, with comments and spacing noise.
        let spec = parse_sweep(
            "# a small smoke sweep\n\
             hop = multi\n\
             rate = low   # 0.2 Kbps\n\
             cells = sensor, dual:100\n\
             senders = 5, 15\n\
             runs = 2\n\
             duration_s = 120\n",
        )
        .expect("overrides parse");
        assert_eq!(spec.hop, Hop::Multi);
        assert_eq!(spec.rate_bps, 200.0);
        assert_eq!(spec.cells, vec![Cell::Sensor, Cell::Dual(100)]);
        assert_eq!(spec.sender_counts, vec![5, 15]);
        assert_eq!(spec.runs, 2);
        assert_eq!(spec.duration, SimDuration::from_secs(120));
        assert_eq!(spec.jobs().len(), 2 * 2 * 2);
        // Errors carry the offending line number.
        for (bad, needle) in [
            ("hop = sideways\n", "line 1"),
            ("runs = 0\n", "at least 1"),
            ("cells = warp:9\n", "sensor|dot11|dual"),
            ("rate = high\nnonsense\n", "line 2"),
            ("duration_s = -5\n", "positive"),
            ("duration_s = 1e11\n", "line 1: duration_s out of range"),
            ("runs = 99999999\n", "line 1: the grid exceeds"),
            (
                "hop = multi\nruns = 18446744073709551615\n",
                "line 2: the grid exceeds",
            ),
            (
                "cells = sensor\nsenders = 1\nruns = 1048577\n",
                "line 3: the grid exceeds",
            ),
        ] {
            let err = parse_sweep(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn sweep_memoizes() {
        let a = sweep(Hop::Single, RateMode::High, Quality::Test);
        let b = sweep(Hop::Single, RateMode::High, Quality::Test);
        assert_eq!(a.len(), b.len());
        // Same cell stats out of the memo.
        let key = (Cell::Dual(100), 5);
        assert_eq!(a[&key].goodput, b[&key].goodput);
    }

    #[test]
    fn fig5_shape_dual_beats_sensor_at_load() {
        let series = goodput_series(Hop::Single, Quality::Test);
        let get = |label: &str| {
            series
                .iter()
                .find(|s| s.label() == label)
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        // At 20 senders, the sensor model has collapsed well below the
        // moderate-burst dual-radio configurations (paper Fig. 5).
        let sensor = get("Sensor").points().last().unwrap().1;
        let dual100 = get("DualRadio-100").points().last().unwrap().1;
        let dot11 = get("802.11").points().last().unwrap().1;
        assert!(
            dual100 > sensor + 0.1,
            "dual {dual100} should beat sensor {sensor}"
        );
        assert!(dot11 > 0.9, "802.11 stays near 1: {dot11}");
    }

    #[test]
    fn fig6_shape_energy_ordering() {
        let series = energy_series(Hop::Single, Quality::Test);
        let get = |label: &str| series.iter().find(|s| s.label() == label).unwrap();
        let at_max = |s: &Series| s.points().last().unwrap().1;
        // Sensor-header costs more than Sensor-ideal; DualRadio-500 beats
        // both at load (paper Fig. 6).
        let ideal = at_max(get("Sensor-ideal"));
        let header = at_max(get("Sensor-header"));
        // Test-quality runs are too short for the big bursts to amortise;
        // DualRadio-100 reaches steady state quickly.
        let dual100 = at_max(get("DualRadio-100"));
        assert!(header > ideal, "overhearing costs: {header} vs {ideal}");
        assert!(dual100 < header, "dual {dual100} beats header {header}");
    }

    #[test]
    fn fig7_shape_energy_delay_tradeoff() {
        let series = energy_delay_series(Hop::Single, Quality::Test);
        // Each line: delay grows with burst size.
        for s in &series {
            let pts = s.points();
            assert!(pts.len() >= 2, "{} too short", s.label());
            assert!(
                pts.last().unwrap().0 > pts.first().unwrap().0,
                "{}: delay grows along the burst sweep",
                s.label()
            );
        }
    }
}
