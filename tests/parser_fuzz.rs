//! Seeded mutation fuzzing of the two text formats that arrive from
//! outside the program: `.scn` scenario files and `.sweep` grid files.
//!
//! Every case starts from a checked-in file under `examples/specs/` and
//! makes one to four edits: a number replaced by a hostile token, a
//! separator inserted, or a byte changed. Both parsers must return `Ok`
//! or a typed error and never panic or abort; an `Ok` scenario must
//! round-trip through `emit_spec`, and an `Ok` sweep must expand and
//! build its jobs. Cases come from the in-repo [`Rng`], so a failure
//! reproduces by its case index.

use bcp::experiments::suite::parse_sweep;
use bcp::sim::rng::Rng;
use bcp::simnet::{emit_spec, parse_spec};
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

fn mutate(text: &str, rng: &mut Rng) -> String {
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
                bytes.insert(at, b":,;=\n#/"[rng.index(7)]);
            }
            _ => {
                let at = rng.index(bytes.len());
                bytes[at] = rng.range_u64(0x20, 0x7f) as u8;
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `check` on `CASES` mutations of the checked-in `*.ext` files.
fn fuzz(ext: &str, seed: u64, check: impl Fn(&str)) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let mut corpus: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/specs exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    corpus.sort();
    assert!(!corpus.is_empty(), "no .{ext} files to mutate");
    for case in 0..CASES {
        let mut rng = Rng::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let path = &corpus[rng.index(corpus.len())];
        let input = mutate(&std::fs::read_to_string(path).expect("readable"), &mut rng);
        if catch_unwind(AssertUnwindSafe(|| check(&input))).is_err() {
            panic!(
                "case {case} (from {}) panicked on:\n{input}",
                path.display()
            );
        }
    }
}

#[test]
fn mutated_scn_files_parse_or_fail_cleanly_and_round_trip() {
    fuzz("scn", 0x5C4, |text| {
        if let Ok(s) = parse_spec(text) {
            let emitted = emit_spec(&s).expect("a parsed scenario is representable");
            assert_eq!(parse_spec(&emitted).expect("canonical text parses"), s);
        }
    });
}

#[test]
fn mutated_sweep_files_parse_or_fail_cleanly_and_expand() {
    fuzz("sweep", 0x5EE, |text| {
        if let Ok(spec) = parse_sweep(text) {
            // Validity depends on the cell and sender count, never the
            // seed, so the first seed of each pair covers the grid.
            for job in spec.jobs().iter().filter(|j| j.seed == 1) {
                let _ = spec.scenario(job);
            }
        }
    });
}
