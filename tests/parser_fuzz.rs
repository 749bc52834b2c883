//! Seeded mutation fuzzing of the text that arrives from outside the
//! program: `.scn` scenario files, `.sweep` grid files, `repro serve`
//! request lines and the trace/series NDJSON streams.
//!
//! Every case starts from a real input — a checked-in file under
//! `examples/specs/`, a request line built by `bcp_serve::proto`, or an
//! NDJSON line from a short traced run — and makes one to four edits: a
//! number replaced by a hostile token, a separator inserted, or a byte
//! changed. Every parser must return `Ok` or a typed error and never
//! panic or abort; an `Ok` scenario must round-trip through `emit_spec`,
//! and an `Ok` sweep must expand and build its jobs. Cases come from the
//! in-repo [`Rng`], so a failure reproduces by its case index.

use bcp::experiments::suite::parse_sweep;
use bcp::sim::json;
use bcp::sim::rng::Rng;
use bcp::sim::time::SimDuration;
use bcp::simnet::{emit_spec, parse_spec, RunOptions};
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
