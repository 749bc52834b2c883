//! Every registered experiment replays byte for byte.
//!
//! `tests/golden/fig11.json` and `fig12.json` are the stdout of `repro
//! fig11 --paper --json` and `repro fig12 --paper --json`, captured before
//! the testbed harness moved onto `ShardQueue`.
//!
//! `tests/golden/experiments/<id>.json` is the stdout of `repro <id> --test
//! --json` for every registered id except `scale`, whose events/s column is
//! wall-clock. They guard behaviour across refactors, not paper fidelity:
//! any change to a simulated number shows up here first.

use bcp::experiments::{all, find, Quality, RunCtx};

/// Compares `repro <id> --<quality> --json` with `tests/golden/<file>`.
fn check(id: &str, quality: Quality, file: &str) {
    let e = find(id).unwrap_or_else(|| panic!("{id} is registered"));
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let flag = format!("{quality:?}").to_lowercase();
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!("{id}: golden missing ({err}); regenerate with `repro {id} --{flag} --json`")
    });
    let out = (e.run)(&RunCtx::new(quality));
    // `repro --json` prints the document followed by one newline.
    assert_eq!(
        format!("{}\n", out.to_json(e.title)),
        golden,
        "{id}: output drifted from {file}"
    );
}

#[test]
fn fig11_matches_the_golden() {
    check("fig11", Quality::Paper, "fig11.json");
}

#[test]
fn fig12_matches_the_golden() {
    check("fig12", Quality::Paper, "fig12.json");
}

/// Ids whose `--test` output is not a pure function of the code.
const UNGOLDENED: &[&str] = &["scale"];

fn check_test_quality(id: &str) {
    check(id, Quality::Test, &format!("experiments/{id}.json"));
}

#[test]
fn every_deterministic_experiment_has_a_golden() {
    for e in all() {
        let path = format!(
            "{}/tests/golden/experiments/{}.json",
            env!("CARGO_MANIFEST_DIR"),
            e.id
        );
        let goldened = !UNGOLDENED.contains(&e.id);
        assert_eq!(
            std::path::Path::new(&path).exists(),
            goldened,
            "{}: golden presence wrong at {path}",
            e.id
        );
        assert_eq!(
            GOLDENED.contains(&e.id),
            goldened,
            "{}: a golden needs a row in test_quality_goldens!",
            e.id
        );
    }
}

macro_rules! test_quality_goldens {
    ($($name:ident => $id:literal,)*) => {
        /// Ids with a `--test` golden test below.
        const GOLDENED: &[&str] = &[$($id),*];
        $(
            #[test]
            fn $name() {
                check_test_quality($id);
            }
        )*
    };
}

test_quality_goldens! {
    table1_test_golden => "table1",
    fig1_test_golden => "fig1",
    fig2_test_golden => "fig2",
    fig3_test_golden => "fig3",
    fig4_test_golden => "fig4",
    fig5_test_golden => "fig5",
    fig6_test_golden => "fig6",
    fig7_test_golden => "fig7",
    fig8_test_golden => "fig8",
    fig9_test_golden => "fig9",
    fig10_test_golden => "fig10",
    fig11_test_golden => "fig11",
    fig12_test_golden => "fig12",
    ablation_shortcuts_test_golden => "ablation-shortcuts",
    ablation_overhearing_test_golden => "ablation-overhearing",
    ablation_loss_test_golden => "ablation-loss",
    ablation_adaptive_test_golden => "ablation-adaptive",
    ablation_link_asymmetry_test_golden => "ablation-link-asymmetry",
    lifetime_test_golden => "lifetime",
    broadcast_lifetime_test_golden => "broadcast_lifetime",
    idle_floor_test_golden => "idle_floor",
}
