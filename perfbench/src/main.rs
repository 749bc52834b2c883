//! The repository benchmark: runs one named workload from a seed, checks
//! the program's outputs, and prints every metric by name and unit, with
//! a JSON result as the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lifetime_shadowed|grid2025_sharded|sweep_serve> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced pass that reports the per-layer metrics and writes
//! its spans under `.bench_out/`. See `perfbench/README.md`.

mod gate;
mod host;
mod layers;
mod report;
mod scn;
mod single;
mod spans;
mod stats;
mod sweep;

use bcp_sim::json::{parse, Value};
use bcp_sim::threads::{worker_count, THREADS_ENV};
use report::{result_line, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The metric list the results must match, name for name and unit for
/// unit.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// The engine threads of `grid2025_sharded` and the sweep server's
/// budget, capped at the host's parallelism (the stamp records both).
const PINNED_THREADS: usize = 2;

/// Where stores, sockets and span files go, relative to the checkout.
const WORK_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <lifetime_shadowed|grid2025_sharded|sweep_serve> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {}", a.seconds));
    }
    Ok(a)
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares for a mode.
fn declared(trace: bool) -> Result<Vec<(String, String)>, String> {
    let v = parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json lacks {key}"))?
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Ok((
                s("name").ok_or("metric without a name")?,
                s("unit").ok_or("metric without a unit")?,
            ))
        })
        .collect()
}

/// Fails unless `out` reports exactly the declared metrics.
fn check_declared(out: &Outcome, trace: bool) -> Result<(), String> {
    let mut want = declared(trace)?;
    let mut got: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    want.sort();
    got.sort();
    if want != got {
        let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
        let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
        return Err(format!(
            "metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
        ));
    }
    Ok(())
}

fn write_spans(work: &Path, stem: &str, tr: &spans::Tracer) -> Result<PathBuf, String> {
    let path = work.join(format!("{stem}.spans.ndjson"));
    std::fs::write(&path, spans::to_ndjson(tr.spans()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn run(a: &Args) -> Result<(), String> {
    let pinned = PINNED_THREADS.min(host::nproc());
    // Pinned before any thread starts: the engine reads it per run, and
    // the sweep server child inherits it.
    let engine_threads = match a.workload.as_str() {
        "lifetime_shadowed" | "sweep_serve" => 1,
        "grid2025_sharded" => pinned,
        other => return Err(format!("unknown workload {other:?}")),
    };
    std::env::set_var(THREADS_ENV, engine_threads.to_string());
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {WORK_DIR}: {e}"))?;
    let stem = format!("{}-{}-trace{}", a.workload, a.seed, u8::from(a.trace));

    let mut out = Outcome::default();
    let mut stamp = host::Stamp::default();
    let digests: Vec<String>;
    if a.workload == "sweep_serve" {
        let (job1, job2) = scn::sweep_jobs(a.seed);
        let w = sweep::Sweep {
            job1,
            job2,
            budget: pinned,
            work: work.clone(),
        };
        stamp.serve_budget = w.budget;
        stamp.store_fs = host::fs_type(&work);
        if a.trace {
            let tr = w.traced(a.seconds, &mut out);
            out.note(format!(
                "spans: {}",
                write_spans(&work, &stem, &tr)?.display()
            ));
            digests = Vec::new();
        } else {
            digests = w.measure(a.seconds, &mut out);
        }
    } else {
        let w = if a.workload == "lifetime_shadowed" {
            single::Single {
                scns: scn::lifetime(a.seed),
                setup_reps: 2 * scn::LIFETIME_STUDY,
            }
        } else {
            single::Single {
                scns: scn::grid(a.seed),
                setup_reps: 9,
            }
        };
        if a.trace {
            let tr = single::traced(&w, a.seconds, &mut out);
            out.note(format!(
                "spans: {}",
                write_spans(&work, &stem, &tr)?.display()
            ));
            digests = Vec::new();
        } else {
            digests = single::measure(&w, a.seconds, &mut out);
        }
    }
    stamp.engine_threads = out.engine_threads;
    stamp.nproc = host::nproc();
    stamp.bcp_threads = worker_count(usize::MAX);

    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!(
        "workload {} seed {} trace {}",
        a.workload,
        a.seed,
        u8::from(a.trace)
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for m in &out.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  failed_frac {} ({} of {} attempted)",
        report::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    if !digests.is_empty() {
        println!("  digest {}", gate::combine(&digests));
    }
    println!("  host {}", stamp.to_json());
    check_declared(&out, a.trace)?;
    println!("{}", result_line(&out)?);
    Ok(())
}

/// The server process `sweep_serve` starts: `serve-child <store> <sock>
/// <grid_s> <budget>`.
fn serve_child(args: &[String]) -> Result<(), String> {
    let [store, sock, grid, budget] = args else {
        return Err("serve-child needs <store> <sock> <grid_s> <budget>".into());
    };
    let cfg = bcp_serve::ServeConfig {
        store_root: PathBuf::from(store),
        socket: PathBuf::from(sock),
        grid: bcp_sim::time::SimDuration::from_secs_f64(
            grid.parse()
                .map_err(|e| format!("bad grid {grid:?}: {e}"))?,
        ),
        budget: budget
            .parse()
            .map_err(|e| format!("bad budget {budget:?}: {e}"))?,
    };
    bcp_serve::run_server(&cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some("serve-child") => serve_child(&args[1..]),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metric_names_are_valid() {
        for trace in [false, true] {
            let names = declared(trace).unwrap();
            assert!(!names.is_empty());
            for (n, _) in names {
                assert!(report::valid_name(&n), "{n}");
            }
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload sweep_serve --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sweep_serve", 7, 3.0, true)
        );
        assert!(parse_args(&v("--trace 2")).is_err());
        assert!(parse_args(&v("--seed")).is_err());
        assert!(parse_args(&v("--bogus 1")).is_err());
        assert!(parse_args(&v("--seconds 0")).is_err());
    }
}
