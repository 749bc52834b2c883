//! The host stamp every result carries, and memory readings from /proc.

use std::path::Path;

/// Facts about the host and the build a result was measured with.
#[derive(Debug, Clone, Default)]
pub struct Stamp {
    /// Available parallelism.
    pub nproc: usize,
    /// `BCP_THREADS` as the engine resolves it for an unbounded pool.
    pub bcp_threads: usize,
    /// Worker threads the engine reported using (max over runs).
    pub engine_threads: u64,
    /// The sweep server's shard-thread budget (0 = no server ran).
    pub serve_budget: usize,
    /// Filesystem type under the sweep server's store ("" = none).
    pub store_fs: String,
}

impl Stamp {
    /// The stamp as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"bcp_threads\":{},\"engine_threads\":{},\"serve_budget\":{},\
             \"store_fs\":{},\"rustc\":{},\"profile\":{},\"cpu\":{}}}",
            self.nproc,
            self.bcp_threads,
            self.engine_threads,
            self.serve_budget,
            esc(&self.store_fs),
            esc(env!("PERFBENCH_RUSTC")),
            esc(env!("PERFBENCH_PROFILE")),
            esc(&cpu_model()),
        )
    }
}

fn esc(s: &str) -> String {
    bcp_sim::json::escape(s)
}

/// Available parallelism (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_default()
}

/// Peak resident memory (`VmHWM`) of process `pid` ("self" for this
/// one), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The type of the filesystem holding `path` (longest mount-point
/// prefix in /proc/self/mounts).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fs)| fs)
}
