//! Seeded mutation fuzzing of the input that arrives from outside the
//! program: `.scn` scenario files, `.sweep` grid files, `repro serve`
//! request lines, the trace/series NDJSON streams and checkpoint frames.
//!
//! Every case starts from a real input — a checked-in file under
//! `examples/specs/`, a request line built by `bcp_serve::proto`, or an
//! NDJSON line from a short traced run — and makes one to four edits: a
//! number replaced by a hostile token, a separator inserted, or a byte
//! changed. Every parser must return `Ok` or a typed error and never
//! panic or abort; an `Ok` scenario must round-trip through `emit_spec`,
//! and an `Ok` sweep must expand and build its jobs. A checkpoint frame
//! with a mutated payload (checksum recomputed, so the decoder sees it)
//! must be a typed error or a state that restores and runs on. Cases
//! come from the in-repo [`Rng`], so a failure reproduces by its case
//! index.

use bcp::experiments::suite::parse_sweep;
use bcp::sim::json;
use bcp::sim::persist::{Dec, Enc};
use bcp::sim::rng::Rng;
use bcp::sim::time::{SimDuration, SimTime};
use bcp::simnet::events::{Ev, TxId};
use bcp::simnet::{emit_spec, parse_spec, LiveWorld, RunOptions, World, WorldState};
use bcp::snapshot::{from_bytes, to_bytes, SnapshotError};
use bcp_serve::proto::{parse_request, status_line, submit_line, watch_line, CellSpec, Request};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 3000;

/// Replacement values at the numeric edges of every key.
const HOSTILE: &str = "NaN inf -inf -1 0 -0 0.5 1e-300 1e308 1e400 99999999 4294967296 \
                       18446744073709551615 18446744073709551616 x";

/// Byte ranges of the numbers in `b`: runs of number characters that
/// start with a digit.
fn numbers(b: &[u8]) -> Vec<(usize, usize)> {
    let is_num = |c: u8| c.is_ascii_digit() || b".eE+-".contains(&c);
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        while i < b.len() && is_num(b[i]) && (i > start || b[i].is_ascii_digit()) {
            i += 1;
        }
        if i > start {
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// Separators inserted into `.scn`/`.sweep` text.
const SPEC_SEPS: &[u8] = b":,;=\n#/";

/// Separators inserted into JSON lines: every structural character, the
/// string delimiters and a raw control byte.
const JSON_SEPS: &[u8] = b"[]{}:,\"\\\n";

fn mutate(text: &str, seps: &[u8], rng: &mut Rng) -> String {
    let hostile: Vec<&str> = HOSTILE.split_whitespace().collect();
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.index(4) {
        let spans = numbers(&bytes);
        match rng.index(3) {
            0 if !spans.is_empty() => {
                let (s, e) = spans[rng.index(spans.len())];
                bytes.splice(s..e, hostile[rng.index(hostile.len())].bytes());
            }
            1 => {
                let at = rng.index(bytes.len() + 1);
                bytes.insert(at, seps[rng.index(seps.len())]);
            }
            _ => {
                let at = rng.index(bytes.len());
                bytes[at] = rng.range_u64(0x20, 0x7f) as u8;
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The checked-in `examples/specs/*.ext` files as `(path, text)`.
fn spec_files(ext: &str) -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/specs exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .{ext} files to mutate");
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable");
            (p.display().to_string(), text)
        })
        .collect()
}

/// Runs `check` on `CASES` mutations of the `(name, text)` corpus.
fn fuzz(corpus: &[(String, String)], seps: &[u8], seed: u64, check: impl Fn(&str)) {
    for case in 0..CASES {
        let mut rng = Rng::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (name, text) = &corpus[rng.index(corpus.len())];
        let input = mutate(text, seps, &mut rng);
        if catch_unwind(AssertUnwindSafe(|| check(&input))).is_err() {
            panic!("case {case} (from {name}) panicked on:\n{input}");
        }
    }
}

#[test]
fn mutated_scn_files_parse_or_fail_cleanly_and_round_trip() {
    fuzz(&spec_files("scn"), SPEC_SEPS, 0x5C4, |text| {
        if let Ok(s) = parse_spec(text) {
            let emitted = emit_spec(&s).expect("a parsed scenario is representable");
            assert_eq!(parse_spec(&emitted).expect("canonical text parses"), s);
        }
    });
}

#[test]
fn mutated_sweep_files_parse_or_fail_cleanly_and_expand() {
    fuzz(&spec_files("sweep"), SPEC_SEPS, 0x5EE, |text| {
        if let Ok(spec) = parse_sweep(text) {
            // Validity depends on the cell and sender count, never the
            // seed, so the first seed of each pair covers the grid.
            for job in spec.jobs().iter().filter(|j| j.seed == 1) {
                let _ = spec.scenario(job);
            }
        }
    });
}

/// Cells carrying every checked-in scenario in canonical form.
fn spec_cells() -> Vec<CellSpec> {
    spec_files("scn")
        .iter()
        .enumerate()
        .map(|(i, (_, text))| CellSpec {
            scn: emit_spec(&parse_spec(text).expect("checked-in spec parses"))
                .expect("representable"),
            quality: ["test", "quick"][i % 2].into(),
            seed: i as u64 + 1,
        })
        .collect()
}

/// Lines whose arrays or objects nest `depth` deep, closed and unclosed.
fn deep_lines(depth: usize) -> Vec<String> {
    let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let objects = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
    vec![
        format!("{{\"cmd\":\"status\",\"x\":{arrays}}}"),
        format!("{{\"cmd\":\"submit\",\"cells\":{objects}}}"),
        "[".repeat(depth),
    ]
}

#[test]
fn mutated_serve_requests_parse_or_fail_cleanly() {
    let cells = spec_cells();
    let mut corpus = vec![
        ("submit".to_string(), submit_line(&cells)),
        ("submit one".to_string(), submit_line(&cells[..1])),
        ("status".to_string(), status_line()),
        ("watch".to_string(), watch_line("j12")),
    ];
    for (name, line) in &corpus {
        assert!(parse_request(line).is_ok(), "{name} line parses");
    }
    assert_eq!(
        parse_request(&submit_line(&cells)),
        Ok(Request::Submit(cells.clone()))
    );
    // A line nested far past the parser's limit is a typed error, not a
    // stack overflow that takes the server down.
    for line in deep_lines(100_000) {
        assert!(json::parse(&line).is_err(), "deep input is rejected");
        assert!(parse_request(&line).is_err(), "deep request is rejected");
    }
    corpus.extend(deep_lines(80).into_iter().map(|l| ("deep".to_string(), l)));
    fuzz(&corpus, JSON_SEPS, 0x5E7, |line| {
        let _ = json::parse(line);
        let _ = parse_request(line);
        // Whatever the mutated text, as a cell's scenario it survives the
        // submit encoding exactly.
        let mutated = vec![CellSpec {
            scn: line.to_string(),
            quality: "test".into(),
            seed: 7,
        }];
        assert_eq!(
            parse_request(&submit_line(&mutated)),
            Ok(Request::Submit(mutated))
        );
    });
}

#[test]
fn mutated_ndjson_lines_parse_or_fail_cleanly() {
    // A short battery run, so power and route records appear too.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/specs/lifetime.scn");
    let mut scen = parse_spec(&std::fs::read_to_string(path).expect("readable")).expect("parses");
    scen.duration = SimDuration::from_secs(20);
    let out = scen.run_with(&RunOptions {
        trace: true,
        series_every: Some(SimDuration::from_secs(2)),
        scalar_lookahead: false,
    });
    assert!(!out.trace.is_empty() && !out.series.is_empty(), "observed");
    let step = (out.trace.len() / 40).max(1);
    let mut corpus: Vec<(String, String)> = out
        .trace
        .iter()
        .step_by(step)
        .map(|r| ("trace".to_string(), r.to_ndjson()))
        .chain(
            out.series
                .iter()
                .map(|s| ("series".to_string(), s.to_ndjson())),
        )
        .collect();
    for (name, line) in &corpus {
        assert!(json::parse(line).is_ok(), "{name} line parses: {line}");
    }
    for line in deep_lines(100_000) {
        assert!(json::parse(&line).is_err(), "deep input is rejected");
    }
    corpus.extend(deep_lines(80).into_iter().map(|l| ("deep".to_string(), l)));
    fuzz(&corpus, JSON_SEPS, 0x4D1, |line| {
        let _ = json::parse(line);
    });
}

/// The FNV-1a-64 checksum a checkpoint frame ends with.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1_0000_01b3)
    })
}

/// `frame` with its checksum recomputed, so edits reach the decoder.
fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
    let end = frame.len() - 8;
    let sum = fnv1a64(&frame[12..end]);
    frame[end..].copy_from_slice(&sum.to_le_bytes());
    frame
}

/// `spec` paused `t` seconds in.
fn paused(spec: &str, t: u64) -> WorldState {
    let path = format!("{}/examples/specs/{spec}.scn", env!("CARGO_MANIFEST_DIR"));
    let scen = parse_spec(&std::fs::read_to_string(path).expect("readable")).expect("parses");
    let mut lw = World::build(&scen, &RunOptions::default());
    lw.run_to(SimTime::from_secs(t));
    lw.snapshot()
}

/// Checkpoints that pass the checksum but do not describe a world their
/// scenario can run, one per way the decoder once accepted such a file:
/// `(what, frame)`.
fn crafted_checkpoints() -> Vec<(&'static str, Vec<u8>)> {
    let race = paused("race_5node", 9);
    let mut rows = Vec::new();

    // Node 0's low-MAC access state: the byte after the four RNG words.
    let mut e = Enc::new();
    e.str(&emit_spec(&race.scen).expect("representable"));
    e.put(&race.time);
    e.u64(race.events_logical);
    e.u64(race.global_events);
    e.count(race.nodes.len());
    e.put(&race.nodes[0].id);
    let prefix = e.into_bytes().len();
    let mut e = Enc::new();
    e.put(&race.nodes[0].low_mac);
    let mac = e.into_bytes();
    let mut d = Dec::new(&mac);
    for _ in 0..4 {
        d.u64().expect("rng word");
    }
    let at = 12 + prefix + mac.len() - d.remaining();
    let mut frame = to_bytes(&race).expect("encodes");
    assert!(frame[at] < 7, "offset lands on the access byte");
    frame[at] = 9;
    rows.push(("MAC access byte 9", reseal(frame)));

    let mut dropped = race.clone();
    dropped.nodes.pop();
    dropped.channels.pop();
    rows.push(("a dropped node", to_bytes(&dropped).expect("encodes")));

    let mut late = race.clone();
    late.time = late.scen.end_time() + SimDuration::from_secs(1);
    rows.push((
        "a pause past the horizon",
        to_bytes(&late).expect("encodes"),
    ));

    let mut tagged = race.clone();
    tagged
        .payloads
        .push((99 << 40, tagged.payloads[0].1.clone()));
    rows.push((
        "a payload tag naming node 99",
        to_bytes(&tagged).expect("encodes"),
    ));

    let mut fated = race.clone();
    let ((pkt, _), mark) = fated.fates[0];
    fated.fates.push(((pkt, 99), mark));
    rows.push((
        "a fate key naming node 99",
        to_bytes(&fated).expect("encodes"),
    ));

    // A pending transmission end whose id names node 99.
    let mut ended = race.clone();
    ended.pending[0].1 = Ev::TxEnd { tx: TxId(99 << 40) };
    rows.push((
        "a pending TxEnd naming node 99",
        to_bytes(&ended).expect("encodes"),
    ));

    // A scenario whose buffers are smaller than what a sender holds.
    let mut small = paused("single_hop", 9);
    let held = small
        .nodes
        .iter()
        .filter_map(|n| n.bcp_tx.as_ref())
        .map(|tx| tx.buffers().total_bytes())
        .max()
        .expect("dual-radio senders");
    assert!(held > 1, "some sender buffers data");
    small.scen.bcp.buffer_cap_bytes = held - 1;
    small.scen.bcp.threshold_bytes = small.scen.bcp.threshold_bytes.min(held - 1);
    rows.push((
        "a buffer over its capacity",
        to_bytes(&small).expect("encodes"),
    ));
    rows
}

#[test]
fn crafted_checkpoints_are_decode_errors() {
    for (what, frame) in crafted_checkpoints() {
        match from_bytes(&frame) {
            Err(SnapshotError::Decode(_)) => {}
            Err(e) => panic!("{what}: wrong error kind: {e}"),
            Ok(_) => panic!("{what}: decoded"),
        }
    }
}

/// Frame fuzz cases (each restores and runs a second when it decodes).
const FRAME_CASES: u64 = 600;

/// Restores `frame` when it decodes and runs one more simulated second.
fn resume_or_reject(frame: &[u8]) {
    if let Ok(state) = from_bytes(frame) {
        let end = (state.time + SimDuration::from_secs(1)).min(state.scen.end_time());
        let mut lw = LiveWorld::restore(&state, &RunOptions::default());
        if end > state.time {
            lw.run_to(end);
        }
    }
}

#[test]
fn mutated_checkpoints_fail_cleanly_or_resume() {
    let mut corpus: Vec<(String, Vec<u8>)> = [
        ("race_5node", 9),
        ("lifetime", 9),
        ("broadcast_demo", 9),
        ("shadowed_grid", 9),
        ("lossy_audio", 23),
        ("gossip_pairs", 9),
    ]
    .into_iter()
    .map(|(spec, t)| {
        (
            spec.to_string(),
            to_bytes(&paused(spec, t)).expect("encodes"),
        )
    })
    .collect();
    // The three that crashed the restore before decoding checked them.
    corpus.extend(
        crafted_checkpoints()
            .into_iter()
            .take(3)
            .map(|(what, frame)| (what.to_string(), frame)),
    );
    for (name, frame) in &corpus {
        if catch_unwind(AssertUnwindSafe(|| resume_or_reject(frame))).is_err() {
            panic!("unmutated {name} panicked");
        }
    }
    for case in 0..FRAME_CASES {
        let mut rng = Rng::new(0xC4E ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (name, frame) = &corpus[rng.index(corpus.len())];
        let mut bytes = frame.clone();
        for _ in 0..1 + rng.index(3) {
            let at = 12 + rng.index(bytes.len() - 20);
            if rng.index(2) == 0 {
                bytes[at] = rng.range_u64(0, 256) as u8;
            } else {
                bytes[at] ^= 1 << rng.index(8);
            }
        }
        let bytes = reseal(bytes);
        if catch_unwind(AssertUnwindSafe(|| resume_or_reject(&bytes))).is_err() {
            panic!("case {case} (from {name}) panicked");
        }
    }
}
