//! The `sweep_serve` workload: the figure grid submitted to the real
//! sweep server (`bcp_serve::run_server`, in a child process) over its
//! Unix socket, one closed-loop client, then resubmitted with fresh
//! cells. Every round starts a server on a new store and socket and
//! removes both afterwards.
//!
//! The traced pass replays every cell in process through the public
//! calls the server's cell execution makes, at the same grid, inside
//! spans.

use crate::gate::{self, Facts};
use crate::host;
use crate::layers::{count_metrics, span_metrics, TraceCounts};
use crate::report::{ratio, Outcome};
use crate::scn::Cell;
use crate::spans::Tracer;
use crate::stats::{median, tail};
use bcp_serve::client::{request_line, watch};
use bcp_serve::proto::{shutdown_line, status_line, submit_line};
use bcp_serve::CellSpec;
use bcp_sim::json::{parse, Value};
use bcp_sim::time::SimDuration;
use bcp_simnet::{emit_spec, parse_spec, RunOptions, World};
use bcp_snapshot::cache::{write_atomic, CellKey, Store};
use bcp_snapshot::RunMeta;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The server's checkpoint grid: `repro serve`'s default, in sim seconds.
pub const GRID_S: f64 = 10.0;
/// The quality tier cells are submitted at (clamps horizons to 60 s).
const QUALITY: &str = "test";
/// Server starts timed on their own before the measured rounds.
const SETUP_ONLY_STARTS: usize = 15;

/// The sweep workload.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Job 1's cells: `.scn` text and seed.
    pub job1: Vec<Cell>,
    /// Job 2's cells: job 1's in a new order, then fresh ones.
    pub job2: Vec<Cell>,
    /// The server's shard-thread budget.
    pub budget: usize,
    /// Directory for stores and sockets (inside the checkout).
    pub work: PathBuf,
}

/// A directory that is created empty and removed when dropped: one
/// round's store and socket.
struct Scratch(PathBuf);

impl Scratch {
    fn fresh(dir: &Path) -> Result<Scratch, String> {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir.to_path_buf()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A server child process on the store and socket under a directory.
/// Dropping it kills the process if it still runs.
struct Server {
    child: Child,
    sock: PathBuf,
}

impl Server {
    /// Starts a server on the store under `dir` (fresh or left by an
    /// earlier server) and waits until it answers. Returns it with the
    /// start-to-first-answer time.
    fn start(dir: &Path, budget: usize) -> Result<(Server, f64), String> {
        let sock = dir.join("sock");
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let t = Instant::now();
        // The child inherits this process's pinned `BCP_THREADS`, which
        // the host stamp records.
        let child = Command::new(exe)
            .arg("serve-child")
            .arg(dir.join("store"))
            .arg(&sock)
            .arg(GRID_S.to_string())
            .arg(budget.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let mut server = Server { child, sock };
        // Retry the connection without sleeping: start-up takes a few
        // milliseconds, and a sleeping poll would round it to the sleep.
        loop {
            if let Ok(reply) = request_line(&server.sock, &status_line()) {
                if reply.starts_with("{\"ok\":true") {
                    return Ok((server, t.elapsed().as_secs_f64()));
                }
            }
            if let Ok(Some(st)) = server.child.try_wait() {
                return Err(format!("the server exited at start-up: {st}"));
            }
            let waited = t.elapsed();
            if waited > Duration::from_secs(30) {
                return Err("the server did not answer within 30 s".into());
            }
            if waited > Duration::from_secs(1) {
                std::thread::sleep(Duration::from_millis(1));
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Peak resident memory of the server process so far, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        host::peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Asks the server to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        request_line(&self.sock, &shutdown_line())?;
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(st)) = self.child.try_wait() {
                return if st.success() {
                    Ok(())
                } else {
                    Err(format!("the server exited with {st}"))
                };
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("the server did not stop within 30 s".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

/// One settled cell of a job's `done` line.
#[derive(Debug, Clone, PartialEq)]
struct Settled {
    hash: String,
    cached: bool,
    /// The exact stats bytes, or the error of a failed cell.
    stats: Result<String, String>,
}

/// What the client saw of one job.
#[derive(Debug)]
struct JobSeen {
    /// `cached` from the submit reply.
    cached: u64,
    /// Cells in job order.
    cells: Vec<Settled>,
    /// Per cell, submit to its `cell` event or, with none, to `done`.
    latency: Vec<f64>,
    /// From the last `cell` event to the `done` line (none without events).
    done_lag: Option<f64>,
}

/// Submits `cells` as one job and watches it to its `done` line.
fn run_job(sock: &Path, cells: &[Cell]) -> Result<JobSeen, String> {
    let specs: Vec<CellSpec> = cells
        .iter()
        .map(|(scn, seed)| CellSpec {
            scn: scn.clone(),
            quality: QUALITY.into(),
            seed: *seed,
        })
        .collect();
    let t0 = Instant::now();
    let reply = request_line(sock, &submit_line(&specs))?;
    let v = parse(&reply).map_err(|e| format!("bad submit reply {reply}: {e}"))?;
    let job = v
        .get("job")
        .and_then(Value::as_str)
        .ok_or(format!("submit refused: {reply}"))?
        .to_string();
    let cached = v.get("cached").and_then(Value::as_u64).unwrap_or(u64::MAX);
    let mut events: HashMap<String, f64> = HashMap::new();
    let mut last_event = None;
    let mut done: Option<(String, f64)> = None;
    watch(sock, &job, |line| {
        let at = t0.elapsed().as_secs_f64();
        if line.starts_with("{\"event\":\"cell\"") {
            if let Some(h) = parse(line)
                .ok()
                .and_then(|v| Some(v.get("cell")?.as_str()?.to_string()))
            {
                events.entry(h).or_insert(at);
                last_event = Some(at);
            }
        } else if line.starts_with("{\"event\":\"done\"") {
            done = Some((line.to_string(), at));
        }
    })?;
    let (line, makespan) = done.ok_or("the watch stream ended without a done line")?;
    let settled = parse_done(&line)?;
    if settled.len() != cells.len() {
        return Err(format!(
            "done line has {} cells, job {}",
            settled.len(),
            cells.len()
        ));
    }
    let latency = settled
        .iter()
        .map(|c| events.get(&c.hash).copied().unwrap_or(makespan))
        .collect();
    Ok(JobSeen {
        cached,
        cells: settled,
        latency,
        done_lag: last_event.map(|t| makespan - t),
    })
}

/// Splits the cells of a `done` line, keeping each cell's stats bytes
/// exactly as the server sent them.
fn parse_done(line: &str) -> Result<Vec<Settled>, String> {
    let at = line.find("\"cells\":[").ok_or("done line lacks cells")? + "\"cells\":[".len();
    objects(&line[at..])?
        .into_iter()
        .map(|raw| {
            let v = parse(raw).map_err(|e| format!("bad done cell: {e}"))?;
            let hash = v
                .get("cell")
                .and_then(Value::as_str)
                .ok_or("done cell lacks a hash")?
                .to_string();
            let cached = matches!(v.get("cached"), Some(Value::Bool(true)));
            let stats = match raw.find("\"stats\":") {
                // `stats` is the last member of a settled cell.
                Some(i) => Ok(raw[i + "\"stats\":".len()..raw.len() - 1].to_string()),
                None => Err(v
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("failed without an error")
                    .to_string()),
            };
            Ok(Settled {
                hash,
                cached,
                stats,
            })
        })
        .collect()
}

/// The top-level objects of a JSON array body (`{..},{..}]...`), as
/// slices; string contents are skipped when matching braces.
fn objects(body: &str) -> Result<Vec<&str>, String> {
    let b = body.as_bytes();
    let (mut out, mut depth, mut start, mut in_str, mut esc) = (vec![], 0usize, 0, false, false);
    for (i, &c) in b.iter().enumerate() {
        if in_str {
            match c {
                _ if esc => esc = false,
                b'\\' => esc = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            b'"' => in_str = true,
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1).ok_or("unbalanced braces")?;
                if depth == 0 {
                    out.push(&body[start..=i]);
                }
            }
            b']' if depth == 0 => return Ok(out),
            _ => {}
        }
    }
    Err("unterminated cells array".into())
}

/// One measured round: a server on a fresh store runs job 1 and shuts
/// down; a second server on the same store runs job 2.
#[derive(Debug)]
struct Round {
    setup_s: f64,
    /// Start-to-first-answer of the second server, which recovers job 1.
    restart_s: f64,
    wall_s: f64,
    settled: usize,
    events: u64,
    latency: Vec<f64>,
    done_lag: Vec<f64>,
    peak_rss_mb: f64,
    /// Executed cells: hash → (stats digest, facts, latency).
    executed: HashMap<String, (String, Facts, f64)>,
}

impl Sweep {
    /// Runs one round, tallying every cell into `out`. `known` holds the
    /// digest of every cell an earlier round executed; a cell must give
    /// the same digest in every round.
    fn round(
        &self,
        idx: usize,
        known: &mut HashMap<String, String>,
        out: &mut Outcome,
    ) -> Result<Round, String> {
        let dir = self
            .work
            .join(format!("serve-{}-{idx}", std::process::id()));
        let _scratch = Scratch::fresh(&dir)?;
        let (server, setup_s) = Server::start(&dir, self.budget)?;
        let t0 = Instant::now();
        let j1 = run_job(&server.sock, &self.job1)?;
        if j1.cached != 0 {
            return Err(format!(
                "fresh store, yet job 1 reports cached: {}",
                j1.cached
            ));
        }
        let mut peak_rss_mb = server.peak_rss_mb();
        server.stop()?;
        // A second server life on the same store. It recovers job 1 from
        // its manifest, reading each result back through `Store::lookup`,
        // so job 2's repeats are served from the on-disk cache.
        let (server, restart_s) = Server::start(&dir, self.budget)?;
        let j2 = run_job(&server.sock, &self.job2)?;
        let wall_s = t0.elapsed().as_secs_f64();
        if j2.cached != self.job1.len() as u64 {
            return Err(format!(
                "job 2 resubmits job 1's {} cells, yet reports cached: {}",
                self.job1.len(),
                j2.cached
            ));
        }
        peak_rss_mb = peak_rss_mb.max(server.peak_rss_mb());
        server.stop()?;

        let mut executed = HashMap::new();
        let mut first_bytes: HashMap<String, String> = HashMap::new();
        let store =
            Store::open(&dir.join("store")).map_err(|e| format!("cannot open store: {e}"))?;
        let all: Vec<(Settled, f64)> = [&j1, &j2]
            .into_iter()
            .flat_map(|j| j.cells.iter().cloned().zip(j.latency.iter().copied()))
            .collect();
        for (i, (cell, lat)) in all.into_iter().enumerate() {
            let scn = if i < self.job1.len() {
                &self.job1[i]
            } else {
                &self.job2[i - self.job1.len()]
            };
            let res = settle_check(&cell, scn, &store, &mut first_bytes, known);
            match res {
                Ok(Some((digest, facts))) => {
                    out.saw_threads(facts.threads);
                    executed.insert(cell.hash.clone(), (digest, facts, lat));
                    out.tally(None);
                }
                Ok(None) => out.tally(None),
                Err(e) => out.tally(Some(format!("cell {}: {e}", &cell.hash[..12]))),
            }
        }
        let events = executed.values().map(|(_, f, _)| f.events).sum();
        Ok(Round {
            setup_s,
            restart_s,
            wall_s,
            settled: self.job1.len() + self.job2.len(),
            events,
            latency: j1.latency.iter().chain(&j2.latency).copied().collect(),
            done_lag: [j1.done_lag, j2.done_lag].into_iter().flatten().collect(),
            peak_rss_mb,
            executed,
        })
    }

    /// The untraced measurement: end-to-end metrics. Returns the digests
    /// of the executed cells.
    pub fn measure(&self, seconds: f64, out: &mut Outcome) -> Vec<String> {
        let mut setup = Vec::new();
        for i in 0..SETUP_ONLY_STARTS {
            let dir = self.work.join(format!("setup-{}-{i}", std::process::id()));
            let res = Scratch::fresh(&dir).and_then(|_scratch| {
                Server::start(&dir, self.budget).and_then(|(s, t)| s.stop().map(|_| t))
            });
            match res {
                Ok(t) => setup.push(t),
                Err(e) => out.tally(Some(format!("server start: {e}"))),
            }
        }
        let start = Instant::now();
        let mut known = HashMap::new();
        let mut rounds: Vec<Round> = Vec::new();
        loop {
            let t = Instant::now();
            match self.round(rounds.len(), &mut known, out) {
                Ok(r) => rounds.push(r),
                Err(e) => {
                    out.tally(Some(format!("round: {e}")));
                    break;
                }
            }
            let took = t.elapsed().as_secs_f64();
            if start.elapsed().as_secs_f64() + took > seconds {
                break;
            }
        }
        setup.extend(rounds.iter().map(|r| r.setup_s));
        let each = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
        // Latency percentiles are taken per round, then the median over
        // rounds: a pooled tail would be set by the single slowest round.
        out.put("setup_s", median(&setup), "s");
        out.put("wall_s", median(&each(&|r| r.wall_s)), "s");
        out.put(
            "events_per_s",
            median(&each(&|r| ratio(r.events as f64, r.wall_s))),
            "1/s",
        );
        out.put(
            "cells_per_s",
            median(&each(&|r| ratio(r.settled as f64, r.wall_s))),
            "1/s",
        );
        out.put(
            "cell_latency_p50_s",
            median(&each(&|r| median(&r.latency))),
            "s",
        );
        out.put(
            "cell_latency_tail_s",
            median(&each(&|r| tail(&r.latency).value)),
            "s",
        );
        out.put("peak_rss_mb", median(&each(&|r| r.peak_rss_mb)), "MB");
        out.note(format!(
            "rounds {}; server starts timed {}; median restart on job 1's store {:.4} s",
            rounds.len(),
            setup.len(),
            median(&each(&|r| r.restart_s))
        ));
        if let Some(r) = rounds.first() {
            let t = tail(&r.latency);
            out.note(format!("per round: {}", crate::single::tail_note(&t)));
        }
        let lags: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.done_lag.iter().copied())
            .collect();
        out.note(format!("median done lag {:.4} s", median(&lags)));
        // Sorted: cell order is scheduling order, which the server does
        // not fix.
        let mut digests: Vec<String> = known.into_values().collect();
        digests.sort();
        digests
    }

    /// The traced pass: a measured round, then every cell replayed in
    /// process inside spans; replay digests must equal the server's.
    pub fn traced(&self, seconds: f64, out: &mut Outcome) -> Tracer {
        let mut tr = Tracer::new(true);
        let start = Instant::now();
        let mut n = 0usize;
        let mut known = HashMap::new();
        let mut agg = ReplayAgg::default();
        loop {
            let t = Instant::now();
            let round = match self.round(n, &mut known, out) {
                Ok(r) => r,
                Err(e) => {
                    out.tally(Some(format!("round: {e}")));
                    break;
                }
            };
            let dir = self.work.join(format!("replay-{}-{n}", std::process::id()));
            let res = self.replay(&dir, n, &round, &mut tr, &mut agg, out);
            std::fs::remove_dir_all(&dir).ok();
            if let Err(e) = res {
                out.tally(Some(format!("replay: {e}")));
                break;
            }
            n += 1;
            let took = t.elapsed().as_secs_f64();
            if start.elapsed().as_secs_f64() + took > seconds {
                break;
            }
        }
        span_metrics(out, tr.spans());
        count_metrics(out, &agg.facts, &TraceCounts::default());
        let snap_s = ["snapshot.capture", "snapshot.encode", "snapshot.write"]
            .iter()
            .flat_map(|name| crate::layers::per_cell(tr.spans(), name))
            .map(|c| c.0)
            .sum::<f64>();
        out.put(
            "snapshot.count",
            agg.snapshots as f64 / n.max(1) as f64,
            "count",
        );
        out.put(
            "snapshot.bytes_per_node",
            ratio(agg.snapshot_bytes as f64, agg.snapshot_nodes as f64),
            "B",
        );
        out.put("snapshot.share", ratio(snap_s, agg.cell_s), "ratio");
        out.put(
            "cache.hit_ratio",
            ratio(agg.hits as f64, agg.lookups as f64),
            "ratio",
        );
        out.put("serve.queue_wait_s", median(&agg.queue_wait), "s");
        out.put("serve.done_lag_s", median(&agg.done_lag), "s");
        out.put("serve.worker_busy_share", median(&agg.busy_share), "ratio");
        out.put("serve.overhead_s", median(&agg.overhead), "s");
        out.put("trace.overhead_share", 0.0, "ratio");
        out.put(
            "series.samples",
            agg.samples as f64 / n.max(1) as f64,
            "count",
        );
        tr
    }

    /// Replays round `n`'s cells through the server's public calls on a
    /// fresh store under `dir`, in the round's order: job 1 on the empty
    /// store, the second server's recovery of job 1, then job 2.
    fn replay(
        &self,
        dir: &Path,
        n: usize,
        round: &Round,
        tr: &mut Tracer,
        agg: &mut ReplayAgg,
        out: &mut Outcome,
    ) -> Result<(), String> {
        std::fs::remove_dir_all(dir).ok();
        let store = Store::open(dir).map_err(|e| format!("cannot open replay store: {e}"))?;
        let grid = SimDuration::from_secs_f64(GRID_S);
        let opts = RunOptions {
            trace: false,
            series_every: Some(grid),
            scalar_lookahead: false,
        };
        let meta = RunMeta {
            series_every: Some(grid),
            trace: false,
            trace_filter: Vec::new(),
        };
        let steps = (self.job1.iter().map(|c| (Step::Job1, c)))
            .chain(self.job1.iter().map(|c| (Step::Recover, c)))
            .chain(self.job2.iter().map(|c| (Step::Job2, c)));
        // Executed bytes by hash, and the hashes the live server holds in
        // memory (it looks up only cells it does not know).
        let mut first: HashMap<String, Vec<u8>> = HashMap::new();
        let mut memory: HashSet<String> = HashSet::new();
        let mut busy = 0.0;
        // Counts come from the last complete replay.
        agg.facts.clear();
        for (i, (step, (scn, seed))) in steps.enumerate() {
            if step == Step::Recover && i == self.job1.len() {
                memory.clear();
            }
            let id = (n * 1000 + i) as u64;
            let t = Instant::now();
            tr.begin("cell", id);
            let res = replay_cell(scn, *seed, &memory, &store, &opts, &meta, grid, tr, id);
            tr.close_all();
            let took = t.elapsed().as_secs_f64();
            busy += took;
            let res = res.and_then(|r| match (step, r) {
                (Step::Job2, Replayed::Known(hash)) if first.contains_key(&hash) => Ok(()),
                (Step::Recover, Replayed::Hit { hash, bytes }) => {
                    agg.lookups += 1;
                    if first.get(&hash) != Some(&bytes) {
                        return Err("replay cache hit differs from its execution".into());
                    }
                    agg.hits += 1;
                    memory.insert(hash);
                    Ok(())
                }
                (Step::Job1 | Step::Job2, Replayed::Ran(x)) => {
                    agg.lookups += 1;
                    let digest = gate::digest(&x.stats)?;
                    let facts = gate::check(&x.stats)?;
                    let (served, _, lat) = round
                        .executed
                        .get(&x.hash)
                        .ok_or("a cell the replay ran was never executed by the server")?;
                    if *served != digest {
                        return Err(format!(
                            "replay digest {digest} differs from served {served}"
                        ));
                    }
                    agg.queue_wait.push(lat - took);
                    agg.snapshots += x.snapshots;
                    agg.snapshot_bytes += x.snapshot_bytes;
                    agg.snapshot_nodes += x.snapshots * x.nodes;
                    agg.samples += x.samples;
                    agg.facts.push(facts);
                    memory.insert(x.hash.clone());
                    first.insert(x.hash, x.stats.into_bytes());
                    Ok(())
                }
                (step, _) => Err(format!(
                    "{step:?}: the replay's cache behaved unlike the server's"
                )),
            });
            if let Err(e) = res {
                out.tally(Some(format!("replayed cell {i}: {e}")));
            } else {
                out.tally(None);
            }
        }
        agg.cell_s += busy;
        let budget = self.budget as f64;
        agg.busy_share.push(ratio(busy, budget * round.wall_s));
        agg.overhead.push(round.wall_s - busy / budget);
        agg.done_lag.extend(&round.done_lag);
        Ok(())
    }
}

/// Checks one settled cell. An executed cell must pass the gate, match
/// the bytes the store holds for it, and give the digest it gave in
/// earlier rounds (`known`); a cell already executed this round must be
/// a cache hit, byte-identical to that first execution. Returns the
/// digest and counters of executed cells.
fn settle_check(
    cell: &Settled,
    (scn, seed): &Cell,
    store: &Store,
    first: &mut HashMap<String, String>,
    known: &mut HashMap<String, String>,
) -> Result<Option<(String, Facts)>, String> {
    let stats = cell.stats.as_ref().map_err(|e| format!("failed: {e}"))?;
    let key = cell_key(scn, *seed)?;
    if key.hash_hex() != cell.hash {
        return Err("the server keyed the cell differently".into());
    }
    if let Some(b) = first.get(&cell.hash) {
        if !cell.cached {
            return Err("a repeated cell was not served from the cache".into());
        }
        return if b == stats {
            Ok(None)
        } else {
            Err("cache hit differs from the first execution".into())
        };
    }
    if cell.cached {
        return Err("served from a cache this round's fresh store never filled".into());
    }
    let stored = store
        .lookup(&key)
        .ok_or("executed cell missing from the store")?;
    if stored != stats.as_bytes() {
        return Err("stored stats differ from the reported ones".into());
    }
    first.insert(cell.hash.clone(), stats.clone());
    let digest = gate::digest(stats)?;
    let facts = gate::check(stats)?;
    match known.get(&cell.hash) {
        Some(d) if *d != digest => {
            return Err(format!(
                "not deterministic: digest {d} in an earlier round, {digest} now"
            ))
        }
        Some(_) => {}
        None => {
            known.insert(cell.hash.clone(), digest.clone());
        }
    }
    Ok(Some((digest, facts)))
}

/// Where a replayed cell stands in the round.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// Submitted in job 1 to the first server.
    Job1,
    /// Recovered from job 1's manifest by the second server.
    Recover,
    /// Submitted in job 2 to the second server.
    Job2,
}

/// Totals over every replayed round.
#[derive(Debug, Default)]
struct ReplayAgg {
    facts: Vec<Facts>,
    lookups: u64,
    hits: u64,
    snapshots: u64,
    snapshot_bytes: u64,
    snapshot_nodes: u64,
    samples: u64,
    cell_s: f64,
    queue_wait: Vec<f64>,
    done_lag: Vec<f64>,
    busy_share: Vec<f64>,
    overhead: Vec<f64>,
}

/// The cache key the server derives for a submitted cell.
fn cell_key(scn: &str, seed: u64) -> Result<CellKey, String> {
    let scen = parse_spec(scn).map_err(|e| format!("bad scn: {e}"))?;
    Ok(CellKey {
        scn: emit_spec(&scen).map_err(|e| format!("scn does not re-emit: {e}"))?,
        quality: QUALITY.into(),
        seed,
    })
}

/// A replayed cell that executed.
struct Ran {
    hash: String,
    stats: String,
    snapshots: u64,
    snapshot_bytes: u64,
    nodes: u64,
    samples: u64,
}

enum Replayed {
    /// The server held the cell in memory and made no lookup.
    Known(String),
    Hit {
        hash: String,
        bytes: Vec<u8>,
    },
    Ran(Ran),
}

/// One cell through the server's calls: canonicalise and key; a cell
/// the server holds in `memory` stops there. Otherwise look it up; on a
/// miss build, step the grid (run, drain the series, snapshot, encode,
/// write the checkpoint), finish, serialise and insert.
#[allow(clippy::too_many_arguments)]
fn replay_cell(
    scn: &str,
    seed: u64,
    memory: &HashSet<String>,
    store: &Store,
    opts: &RunOptions,
    meta: &RunMeta,
    grid: SimDuration,
    tr: &mut Tracer,
    id: u64,
) -> Result<Replayed, String> {
    let scen = tr
        .time("spec.parse", id, || parse_spec(scn))
        .map_err(|e| format!("bad scn: {e}"))?;
    let canon = tr
        .time("spec.emit", id, || emit_spec(&scen))
        .map_err(|e| format!("scn does not re-emit: {e}"))?;
    let (key, hash) = tr.time("cache.key", id, || {
        let key = CellKey {
            scn: canon,
            quality: QUALITY.into(),
            seed,
        };
        let hash = key.hash_hex();
        (key, hash)
    });
    if memory.contains(&hash) {
        return Ok(Replayed::Known(hash));
    }
    if let Some(bytes) = tr.time("cache.lookup", id, || store.lookup(&key)) {
        return Ok(Replayed::Hit { hash, bytes });
    }
    let mut scen = tr
        .time("spec.parse", id, || parse_spec(&key.scn))
        .map_err(|e| format!("bad canonical scn: {e}"))?;
    // The `test` tier's horizon clamp, as the server applies it.
    let cap = SimDuration::from_secs(60);
    scen.duration = scen.duration.min(cap);
    if let Some(c) = scen.traffic_cutoff {
        scen.traffic_cutoff = Some(c.min(cap));
    }
    let nodes = scen.topo.len() as u64;
    let mut lw = tr.time("world.build", id, || World::build(&scen, opts));
    let ckpt = store.ckpt_path(&key);
    let (mut snapshots, mut snapshot_bytes, mut samples) = (0u64, 0u64, 0u64);
    while let Some(t) = lw.next_grid(grid) {
        tr.time("engine.run_to", id, || lw.run_to(t));
        samples += tr.time("series.drain", id, || lw.drain_series()).len() as u64;
        if lw.time() < lw.end() {
            let state = tr.time("snapshot.capture", id, || lw.snapshot());
            let bytes = tr
                .time("snapshot.encode", id, || {
                    bcp_snapshot::to_bytes_with_meta(&state, meta)
                })
                .map_err(|e| format!("cannot snapshot: {e}"))?;
            tr.time("snapshot.write", id, || write_atomic(&ckpt, &bytes))
                .map_err(|e| format!("cannot checkpoint: {e}"))?;
            snapshots += 1;
            snapshot_bytes += bytes.len() as u64;
        }
    }
    let out = tr.time("world.finish", id, || lw.finish());
    samples += out.series.len() as u64;
    let stats = tr.time("world.to_json", id, || out.stats.to_json());
    tr.time("cache.insert", id, || store.insert(&key, stats.as_bytes()))
        .map_err(|e| format!("cannot cache result: {e}"))?;
    Ok(Replayed::Ran(Ran {
        hash,
        stats,
        snapshots,
        snapshot_bytes,
        nodes,
        samples,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_line_keeps_exact_stats_bytes() {
        let line = "{\"event\":\"done\",\"job\":\"j0\",\"cells\":[\
            {\"cell\":\"aa\",\"cached\":false,\"resumed\":false,\"stats\":{\"x\":[1, 2],\"y\":{\"z\":null}}},\
            {\"cell\":\"b}b\",\"failed\":true,\"error\":\"bad } brace\"},\
            {\"cell\":\"cc\",\"cached\":true,\"resumed\":false,\"stats\":{\"x\":1.50}}]}";
        let cells = parse_done(line).unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(
            cells[0].stats.as_deref(),
            Ok("{\"x\":[1, 2],\"y\":{\"z\":null}}")
        );
        assert!(!cells[0].cached);
        assert_eq!(cells[1].hash, "b}b");
        assert_eq!(cells[1].stats, Err("bad } brace".to_string()));
        assert_eq!(cells[2].stats.as_deref(), Ok("{\"x\":1.50}"));
        assert!(cells[2].cached);
        assert!(parse_done("{\"cells\":[{\"cell\":\"a\"").is_err());
    }
}
