//! Byte-identical behavioral pin for the front-end performance work.
//!
//! The arena/zero-copy refactor of `javalang` (and the copy-on-write
//! `absdomain::Env`) must not change *anything* observable: the mining
//! report (including the `result digest:` line), the per-change
//! decision trace, and the change fingerprints that key the mining
//! cache. These tests compare a fresh run against golden files
//! committed **before** the refactor started, so any behavioral drift
//! — a different parse error, a reordered allocation site, a changed
//! join — fails CI with a diff instead of silently shifting results.
//!
//! Regenerate (only when the pipeline is *intentionally* changed) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_frontend
//! ```

use diffcode::cli::{run_mine, FunnelOptions, MineSource};
use diffcode::DECISION_EVENT;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 42;
const PROJECTS: usize = 12;
/// Single-threaded: shard merge order can never be a variable here.
const THREADS: usize = 1;

const SOURCE: MineSource = MineSource::Seeded {
    seed: SEED,
    n_projects: PROJECTS,
};

fn golden_path(name: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; the goldens live in the
    // workspace-root tests/ directory next to this file.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {} missing: {e}", path.display()));
    assert!(
        expected == actual,
        "{name} drifted from the pre-refactor golden run.\n\
         The front end must stay byte-identical; if this change is \
         intentional, regenerate with UPDATE_GOLDEN=1.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn mine_stdout_matches_prerefactor_golden() {
    let opts = FunnelOptions {
        threads: THREADS,
        ..FunnelOptions::default()
    };
    let (report, _) = run_mine(&SOURCE, &opts).expect("mine runs");
    check_golden("mine_seed42_p12.stdout", &report);
}

#[test]
fn decision_trace_matches_prerefactor_golden() {
    let opts = FunnelOptions {
        threads: THREADS,
        trace_sample: Some(1),
        ..FunnelOptions::default()
    };
    let (_, funnel) = run_mine(&SOURCE, &opts).expect("traced mine runs");
    let trace = funnel.recorder.trace().expect("traced run");
    let mut lines = String::new();
    for event in trace.events() {
        if trace.name(event.name) != DECISION_EVENT {
            continue;
        }
        let attr = |key: &str| trace.attr_str(event, key).unwrap_or("");
        writeln!(
            lines,
            "{}|{}|{}|{}|{}|{}",
            attr("stage"),
            attr("reason"),
            attr("project"),
            attr("commit"),
            attr("path"),
            attr("fingerprint"),
        )
        .unwrap();
    }
    check_golden("decisions_seed42_p12.txt", &lines);
}
