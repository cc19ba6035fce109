//! Chaos integration test: mining is *total* under fault injection.
//!
//! Generates a pristine corpus, corrupts a large fraction of its code
//! changes with `corpus::chaos::Mutator` (truncation, byte flips,
//! unbalanced braces, 10k-deep nesting, megabyte tokens, injected
//! panics), and asserts the three robustness guarantees:
//!
//! 1. **No aborts** — mining returns normally on every input.
//! 2. **Exact accounting** — `code_changes == mined + skipped.total()`
//!    and one quarantine report per skip, each attributable to an
//!    injected fault.
//! 3. **Blast-radius zero** — every code change the mutator did *not*
//!    touch produces byte-identical mined results to a fault-free run.

use corpus::{generate, FaultKind, GeneratorConfig, Mutator};
use diffcode::{mine_parallel, DiffCode, ErrorKind, MineOptions, MinedUsageChange, MiningResult};
use obs::Recorder;

const SEED: u64 = 2024;
const FAULT_RATE: f64 = 0.4;

/// Parallel mining with no cache, cancel flag, or observers.
fn mine_threads(corpus: &corpus::Corpus, threads: usize) -> MiningResult {
    let opts = MineOptions {
        threads,
        ..MineOptions::default()
    };
    mine_parallel(corpus, &[], opts, &mut Recorder::new())
}

#[test]
fn chaos_fault_injection_is_total() {
    let pristine = generate(&GeneratorConfig::small(6, SEED));

    // Fault-free baseline: the generator emits only valid Java, so
    // nothing is skipped and the accounting is trivially balanced.
    let baseline = DiffCode::new().mine(&pristine, &[], None);
    assert!(baseline.stats.is_balanced());
    assert_eq!(
        baseline.stats.skipped.total(),
        0,
        "pristine corpus must mine cleanly"
    );

    let mut faulted = pristine.clone();
    let log = Mutator::new(99, FAULT_RATE).inject(&mut faulted);
    let fraction = log.faults.len() as f64 / log.code_changes as f64;
    assert!(
        fraction >= 0.3,
        "need >=30% malformed inputs, got {fraction:.2} \
         ({} of {})",
        log.faults.len(),
        log.code_changes
    );

    // Guarantee 1: this call returning at all is the no-abort claim —
    // truncated sources, control-character soup, 10k-deep nesting and
    // megabyte tokens all flow through the release pipeline.
    let result = DiffCode::new().mine(&faulted, &[], None);

    // Guarantee 2: exact accounting.
    assert!(result.stats.is_balanced());
    assert_eq!(result.stats.code_changes, log.code_changes);
    assert_eq!(result.quarantine.len(), result.stats.skipped.total());
    assert!(
        result.stats.skipped.lex + result.stats.skipped.parse > 0,
        "fuzzed corpus must trip frontend errors"
    );
    assert_eq!(
        result
            .quarantine
            .iter()
            .filter(|r| matches!(r.kind, ErrorKind::Lex | ErrorKind::Parse))
            .count(),
        result.stats.skipped.lex + result.stats.skipped.parse,
        "front-end quarantine reports must track the per-kind counters"
    );
    // Every quarantined change is one the mutator touched (the
    // baseline proved untouched changes cannot fail), and carries
    // provenance plus a bounded excerpt.
    for report in &result.quarantine {
        assert!(
            log.touched(&report.meta.project, &report.meta.commit, &report.meta.path),
            "quarantined untouched change {:?}",
            report.meta
        );
        assert!(!report.error.is_empty());
        assert!(report.excerpt.chars().count() <= 81);
        assert!(report.excerpt.chars().all(|c| !c.is_control()));
    }

    // Guarantee 3: untouched changes mine byte-identically.
    let untouched =
        |m: &&MinedUsageChange| !log.touched(&m.meta.project, &m.meta.commit, &m.meta.path);
    let base_kept: Vec<&MinedUsageChange> = baseline.changes.iter().filter(untouched).collect();
    let fault_kept: Vec<&MinedUsageChange> = result.changes.iter().filter(untouched).collect();
    assert_eq!(base_kept, fault_kept, "fault blast radius leaked");

    // And the parallel path degrades identically to the sequential one.
    let parallel = mine_threads(&faulted, 4);
    assert_eq!(parallel, result);
}

#[test]
fn chaos_panic_faults_are_isolated_per_change() {
    const MARKER: &str = "@@DIFFCODE_CHAOS_MINING_PANIC@@";
    // Routes panics through `DiffCode::analyze_source` for sources
    // containing MARKER. The sibling test is unaffected: its corpus
    // never contains the marker, so the hook never fires there.
    std::env::set_var("DIFFCODE_CHAOS_PANIC_MARKER", MARKER);

    let mut corpus = generate(&GeneratorConfig::small(4, SEED + 1));
    let log = Mutator::new(7, 0.5)
        .with_panic_marker(MARKER)
        .inject(&mut corpus);
    let panic_faults = log
        .faults
        .iter()
        .filter(|f| f.kind == FaultKind::PanicMarker)
        .count();
    assert!(panic_faults > 0, "seed must produce panic faults");

    // Keep the test log readable: each injected panic prints a
    // backtrace-less message through the default hook otherwise.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let sequential = DiffCode::new().mine(&corpus, &[], None);
    let parallel = mine_threads(&corpus, 3);
    std::panic::set_hook(prev_hook);

    for result in [&sequential, &parallel] {
        assert!(result.stats.is_balanced());
        assert_eq!(
            result.stats.skipped.panic, panic_faults,
            "each marker fault must become exactly one isolated panic skip"
        );
        for report in result
            .quarantine
            .iter()
            .filter(|r| r.kind == ErrorKind::Panic)
        {
            assert!(
                report.error.contains("chaos"),
                "payload lost: {}",
                report.error
            );
        }
    }
    assert_eq!(sequential, parallel);
}
