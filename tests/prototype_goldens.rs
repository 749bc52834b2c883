//! The two-node prototype (Figs. 11–12) replays byte for byte.
//!
//! `tests/golden/fig11.json` and `fig12.json` are the stdout of `repro
//! fig11 --paper --json` and `repro fig12 --paper --json`, captured before
//! the testbed harness moved onto `ShardQueue`.

use bcp::experiments::{find, Quality, RunCtx};

fn check(id: &str) {
    let e = find(id).unwrap_or_else(|| panic!("{id} is registered"));
    let path = format!("{}/tests/golden/{id}.json", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!("{id}: golden missing ({err}); regenerate with `repro {id} --paper --json`")
    });
    let out = (e.run)(&RunCtx::new(Quality::Paper));
    // `repro --json` prints the document followed by one newline.
    assert_eq!(
        format!("{}\n", out.to_json(e.title)),
        golden,
        "{id}: prototype output drifted"
    );
}

#[test]
fn fig11_matches_the_golden() {
    check("fig11");
}

#[test]
fn fig12_matches_the_golden() {
    check("fig12");
}
