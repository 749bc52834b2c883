//! Checkpoint bytes are pinned for every checked-in scenario.
//!
//! `tests/golden/checkpoints.txt` holds one line per
//! `(spec, shards, pause)`: the length and SHA-256 of the checkpoint frame
//! `to_bytes_with_meta` writes for the world paused there. Any change to
//! what a checkpoint persists, or to how it is encoded, shows up here —
//! and such a change must bump `bcp_snapshot::VERSION`, since serve caches
//! and saved checkpoints would otherwise decode into a different world.
//! Only a version bump regenerates the file.
//!
//! Shards 1 run without a series, shards 2 with one, so both shapes of
//! the sampler state are pinned.

use bcp::sim::time::{SimDuration, SimTime};
use bcp::simnet::{parse_spec, RunOptions, World};
use bcp::snapshot::cache::sha256_hex;
use bcp::snapshot::{from_bytes, to_bytes, to_bytes_with_meta, RunMeta};

const SPECS: &[&str] = &[
    "broadcast_demo",
    "broadcast_grid",
    "gossip_pairs",
    "lifetime",
    "lossy_audio",
    "lpl_monitoring",
    "multi_hop",
    "race_5node",
    "scale_2025",
    "serve_long",
    "shadowed_grid",
    "single_hop",
];

/// The golden lines for `spec`: three pauses (one early pause for the
/// 2,025-node `scale_2025`, so a debug build stays fast) under shards 1
/// and 2.
fn lines_of(spec: &str) -> Vec<String> {
    let path = format!("{}/examples/specs/{spec}.scn", env!("CARGO_MANIFEST_DIR"));
    let mut scen = parse_spec(&std::fs::read_to_string(&path).expect("readable"))
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    let pauses: &[u64] = if spec == "scale_2025" {
        &[1]
    } else {
        &[2, 9, 23]
    };
    let mut lines = Vec::new();
    for shards in [1, 2] {
        scen.shards = shards;
        let opts = RunOptions {
            series_every: (shards == 2).then(|| SimDuration::from_secs(4)),
            ..RunOptions::default()
        };
        let mut lw = World::build(&scen, &opts);
        for &t in pauses {
            lw.run_to(SimTime::from_secs(t));
            let state = lw.snapshot();
            let bytes = to_bytes_with_meta(&state, &RunMeta::derived_from(&state))
                .unwrap_or_else(|e| panic!("{spec} shards={shards} t={t}: {e}"));
            let back = from_bytes(&bytes).expect("a written frame decodes");
            assert!(
                to_bytes(&back).expect("re-encodes") == bytes,
                "{spec} shards={shards} t={t}: decode/encode is not the identity"
            );
            lines.push(format!(
                "{spec} shards={shards} t={t}s len={} sha256={}",
                bytes.len(),
                sha256_hex(&bytes)
            ));
        }
    }
    lines
}

fn golden() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/checkpoints.txt");
    std::fs::read_to_string(path).expect("golden file present")
}

fn check(spec: &str) {
    let golden = golden();
    let expected: Vec<&str> = golden
        .lines()
        .filter(|l| l.split(' ').next() == Some(spec))
        .collect();
    assert_eq!(lines_of(spec), expected, "{spec}: checkpoint bytes drifted");
}

#[test]
fn every_checked_in_spec_has_checkpoint_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("examples/specs exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, SPECS, "SPECS lists every examples/specs/*.scn");
    let golden = golden();
    for spec in SPECS {
        let n = golden
            .lines()
            .filter(|l| l.split(' ').next() == Some(*spec))
            .count();
        assert!(n >= 2, "{spec}: {n} golden lines");
    }
}

#[test]
fn broadcast_demo_checkpoints() {
    check("broadcast_demo");
}

#[test]
fn broadcast_grid_checkpoints() {
    check("broadcast_grid");
}

#[test]
fn gossip_pairs_checkpoints() {
    check("gossip_pairs");
}

#[test]
fn lifetime_checkpoints() {
    check("lifetime");
}

#[test]
fn lossy_audio_checkpoints() {
    check("lossy_audio");
}

#[test]
fn lpl_monitoring_checkpoints() {
    check("lpl_monitoring");
}

#[test]
fn multi_hop_checkpoints() {
    check("multi_hop");
}

#[test]
fn race_5node_checkpoints() {
    check("race_5node");
}

#[test]
fn scale_2025_checkpoints() {
    check("scale_2025");
}

#[test]
fn serve_long_checkpoints() {
    check("serve_long");
}

#[test]
fn shadowed_grid_checkpoints() {
    check("shadowed_grid");
}

#[test]
fn single_hop_checkpoints() {
    check("single_hop");
}
