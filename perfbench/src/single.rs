//! The single-run workloads (`lifetime_shadowed`, `grid2025_sharded`):
//! each pass runs every scenario of the workload once, in process,
//! through `parse_spec` → `World::build` → `LiveWorld::run_to` →
//! `LiveWorld::finish` → `RunStats::to_json`.

use crate::gate::{self, Facts};
use crate::layers::{count_metrics, span_metrics, TraceCounts};
use crate::report::{ratio, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, tail};
use bcp_sim::time::SimDuration;
use bcp_sim::trace::TraceRecord;
use bcp_simnet::{parse_spec, RunOptions, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A single-run workload.
#[derive(Debug, Clone)]
pub struct Single {
    /// The scenarios one pass runs, in order.
    pub scns: Vec<String>,
    /// How many times set-up (`parse_spec` + `World::build`) is timed.
    pub setup_reps: usize,
}

/// One finished run.
struct CellRun {
    facts: Facts,
    digest: String,
    /// `run_to` + `finish` + `to_json`: the run with stats in hand.
    wall_s: f64,
    /// Scenario text to stats in hand.
    latency_s: f64,
    /// The merged flight-recorder trace (empty unless recorded).
    trace: Vec<TraceRecord>,
    series: u64,
}

/// Runs one scenario through the public calls, inside spans of cell `id`.
fn run_cell(text: &str, opts: &RunOptions, tr: &mut Tracer, id: u64) -> Result<CellRun, String> {
    let t0 = Instant::now();
    tr.begin("cell", id);
    let res = catch_unwind(AssertUnwindSafe(|| {
        let scen = tr
            .time("spec.parse", id, || parse_spec(text))
            .map_err(|e| format!("scenario does not parse: {e}"))?;
        let mut lw = tr.time("world.build", id, || World::build(&scen, opts));
        let t1 = Instant::now();
        let end = lw.end();
        tr.time("engine.run_to", id, || lw.run_to(end));
        let out = tr.time("world.finish", id, || lw.finish());
        let stats = tr.time("world.to_json", id, || out.stats.to_json());
        let wall_s = t1.elapsed().as_secs_f64();
        Ok::<_, String>((stats, wall_s, out.trace, out.series.len() as u64))
    }));
    tr.close_all();
    let (stats, wall_s, trace, series) = match res {
        Ok(r) => r?,
        Err(_) => return Err("the run panicked".into()),
    };
    let latency_s = t0.elapsed().as_secs_f64();
    let facts = gate::check(&stats)?;
    let digest = gate::digest(&stats)?;
    Ok(CellRun {
        facts,
        digest,
        wall_s,
        latency_s,
        trace,
        series,
    })
}

/// Runs passes until the next one would overrun `seconds` (at least
/// one), calling `pass` with the pass index.
fn passes(seconds: f64, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0;
    loop {
        let t = Instant::now();
        pass(n);
        n += 1;
        let took = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + took > seconds {
            break;
        }
    }
}

/// The untraced measurement: end-to-end metrics.
pub fn measure(w: &Single, seconds: f64, out: &mut Outcome) -> Vec<String> {
    let opts = RunOptions::default();
    let mut setup = Vec::with_capacity(w.setup_reps);
    for i in 0..w.setup_reps {
        let t = Instant::now();
        match parse_spec(&w.scns[i % w.scns.len()]) {
            Ok(scen) => drop(World::build(&scen, &opts)),
            Err(e) => out.tally(Some(format!("scenario does not parse: {e}"))),
        }
        setup.push(t.elapsed().as_secs_f64());
    }

    let mut tr = Tracer::new(false);
    let mut first: Vec<Option<String>> = vec![None; w.scns.len()];
    let (mut walls, mut rates, mut cell_rates, mut lat) = (vec![], vec![], vec![], vec![]);
    passes(seconds, |_| {
        let (mut wall, mut events, mut busy, mut done) = (0.0, 0u64, 0.0, 0usize);
        for (i, text) in w.scns.iter().enumerate() {
            let res = run_cell(text, &opts, &mut tr, i as u64).and_then(|r| {
                // Every repetition of a run must reproduce its first.
                match &first[i] {
                    Some(d) if *d != r.digest => Err(format!(
                        "run {i} is not deterministic: {d} then {}",
                        r.digest
                    )),
                    _ => Ok(r),
                }
            });
            match res {
                Ok(r) => {
                    first[i].get_or_insert(r.digest.clone());
                    wall += r.wall_s;
                    events += r.facts.events;
                    busy += r.latency_s;
                    done += 1;
                    out.saw_threads(r.facts.threads);
                    lat.push(r.latency_s);
                    out.tally(None);
                }
                Err(e) => out.tally(Some(format!("run {i}: {e}"))),
            }
        }
        walls.push(wall);
        rates.push(ratio(events as f64, wall));
        cell_rates.push(ratio(done as f64, busy));
    });

    out.put("setup_s", median(&setup), "s");
    out.put("wall_s", median(&walls), "s");
    out.put("events_per_s", median(&rates), "1/s");
    out.put("cells_per_s", median(&cell_rates), "1/s");
    let t = tail(&lat);
    out.put("cell_latency_p50_s", median(&lat), "s");
    out.put("cell_latency_tail_s", t.value, "s");
    out.put(
        "peak_rss_mb",
        crate::host::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
    );
    out.note(format!(
        "passes {} of {} run(s); set-up timed {} times",
        walls.len(),
        w.scns.len(),
        setup.len()
    ));
    out.note(tail_note(&t));
    first.into_iter().flatten().collect()
}

/// The traced pass: per-layer metrics. Each scenario runs twice per
/// pass, once plain and once with the flight recorder and series
/// sampler on; both must give the same physics digest.
pub fn traced(w: &Single, seconds: f64, out: &mut Outcome) -> Tracer {
    let plain_opts = RunOptions::default();
    let mut plain = Tracer::new(true);
    // Span times come from the plain runs only.
    let mut rec = Tracer::new(false);
    let mut facts = Vec::new();
    let mut counts = TraceCounts::default();
    let (mut series, mut plain_s, mut rec_s) = (0u64, 0.0, 0.0);
    passes(seconds, |pass| {
        // Counts come from the last (warmest) complete pass.
        facts.clear();
        counts = TraceCounts::default();
        series = 0;
        for (i, text) in w.scns.iter().enumerate() {
            let id = (pass * w.scns.len() + i) as u64;
            let rec_opts = match parse_spec(text) {
                Ok(s) => RunOptions {
                    trace: true,
                    series_every: Some(SimDuration::from_secs_f64(
                        s.duration.as_secs_f64() / 100.0,
                    )),
                    scalar_lookahead: false,
                },
                Err(e) => return out.tally(Some(format!("run {i}: {e}"))),
            };
            let a = run_cell(text, &plain_opts, &mut plain, id);
            let b = run_cell(text, &rec_opts, &mut rec, id);
            match (a, b) {
                (Ok(a), Ok(b)) if a.digest == b.digest => {
                    plain_s += a.wall_s;
                    rec_s += b.wall_s;
                    out.saw_threads(a.facts.threads);
                    facts.push(a.facts);
                    counts.add(&b.trace);
                    series += b.series;
                    out.tally(None);
                }
                (Ok(a), Ok(b)) => out.tally(Some(format!(
                    "run {i}: traced digest {} differs from untraced {}",
                    b.digest, a.digest
                ))),
                (Err(e), _) | (_, Err(e)) => out.tally(Some(format!("run {i}: {e}"))),
            }
        }
    });
    span_metrics(out, plain.spans());
    count_metrics(out, &facts, &counts);
    out.put(
        "trace.overhead_share",
        ratio(rec_s - plain_s, plain_s),
        "ratio",
    );
    out.put("series.samples", series as f64, "count");
    crate::layers::serve_zeros(out);
    plain
}

/// The context line stating a tail's percentile and sample count.
pub fn tail_note(t: &crate::stats::Tail) -> String {
    if t.qualified {
        format!(
            "cell_latency_tail_s is p{:.1} of {} samples (10 beyond it)",
            t.pct, t.n
        )
    } else {
        format!(
            "cell_latency_tail_s is the maximum of {} samples (fewer than 11: no \
             percentile has 10 beyond it)",
            t.n
        )
    }
}
