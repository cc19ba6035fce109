//! Trace ≡ pipeline property tests (the decision-provenance
//! invariants): every change produces exactly one decision per stage
//! that rules on it, per-reason counts reconcile with the accounting
//! structs (`MiningStats`, `FilterStats`) and the metrics counters,
//! sampling never drops a decision, and sequential and parallel runs
//! produce identical decision sets.

use diffcode::{
    apply_filters, elicit_auto, mine_parallel, ErrorKind, MineOptions, MiningCache, SeenDups,
};
use obs::{MetricsRegistry, TraceKind, TraceSink};
use std::path::PathBuf;

/// A unique, cleaned-up-on-drop temp dir per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "diffcode-trace-pipeline-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn generated(n_projects: usize, seed: u64) -> corpus::Corpus {
    corpus::generate(&corpus::GeneratorConfig::small(n_projects, seed))
}

/// Parallel mining without a cache, recording into `registry` and `trace`.
fn mine_traced(
    corpus: &corpus::Corpus,
    threads: usize,
    registry: &mut MetricsRegistry,
    trace: &mut TraceSink,
) -> diffcode::MiningResult {
    let opts = MineOptions {
        threads,
        ..MineOptions::default()
    };
    mine_parallel(corpus, &[], opts, registry, trace)
}

/// All decision events as `(fingerprint, stage, reason)` triples, in
/// trace order.
fn decisions(trace: &TraceSink) -> Vec<(String, String, String)> {
    trace
        .events()
        .iter()
        .filter(|e| e.kind == TraceKind::Decision)
        .map(|e| {
            assert_eq!(trace.name(e.name), diffcode::DECISION_EVENT);
            (
                trace.attr_str(e, "fingerprint").unwrap_or("").to_owned(),
                trace.attr_str(e, "stage").unwrap_or("").to_owned(),
                trace.attr_str(e, "reason").unwrap_or("").to_owned(),
            )
        })
        .collect()
}

/// Runs the full traced funnel (mine → filter → elicit) and returns
/// the trace together with the mining result and registry.
fn run_traced(
    corpus: &corpus::Corpus,
    n_threads: usize,
    sample: u64,
) -> (TraceSink, diffcode::MiningResult, MetricsRegistry) {
    let mut registry = MetricsRegistry::new();
    let mut trace = TraceSink::enabled(sample);
    let result = mine_traced(corpus, n_threads, &mut registry, &mut trace);
    let (kept, _) = apply_filters(
        &result.changes,
        &mut SeenDups::new(),
        &mut registry,
        &mut trace,
    );
    if kept.len() >= 2 {
        let _ = elicit_auto(&kept, None, &mut registry, &mut trace);
    }
    (trace, result, registry)
}

#[test]
fn one_mine_decision_per_code_change_reasons_match_stats() {
    // Fault injection makes quarantined(...) reasons appear alongside
    // mined ones, so the per-kind reconciliation is not vacuous.
    let mut corpus = generated(8, 7);
    let _ = corpus::Mutator::new(7, 0.3).inject(&mut corpus);
    for threads in [1, 4] {
        let mut registry = MetricsRegistry::new();
        let mut trace = TraceSink::enabled(1);
        let result = mine_traced(&corpus, threads, &mut registry, &mut trace);
        let mine: Vec<_> = decisions(&trace)
            .into_iter()
            .filter(|(_, stage, _)| stage == "mine")
            .collect();
        assert_eq!(mine.len(), result.stats.code_changes);
        let count = |reason: &str| mine.iter().filter(|(_, _, r)| r == reason).count();
        assert_eq!(count("mined"), result.stats.mined);
        for kind in ErrorKind::ALL {
            assert_eq!(
                count(&format!("quarantined({})", kind.name())),
                result.stats.skipped.get(kind),
                "kind {} at {threads} thread(s)",
                kind.name()
            );
        }
        assert_eq!(registry.counter("mine.mined"), count("mined") as u64);
        assert_eq!(
            registry.counter("mine.skipped") as usize,
            result.stats.skipped.total()
        );
    }
}

#[test]
fn filter_decisions_reconcile_with_filter_stats() {
    let corpus = generated(10, 42);
    let mut registry = MetricsRegistry::new();
    let mut trace = TraceSink::enabled(1);
    let result = mine_traced(&corpus, 1, &mut registry, &mut trace);
    let (kept, stats) = apply_filters(
        &result.changes,
        &mut SeenDups::new(),
        &mut registry,
        &mut trace,
    );
    let filter: Vec<_> = decisions(&trace)
        .into_iter()
        .filter(|(_, stage, _)| stage == "filter")
        .collect();
    assert_eq!(filter.len(), stats.total);
    let count = |pred: &dyn Fn(&str) -> bool| filter.iter().filter(|(_, _, r)| pred(r)).count();
    assert_eq!(count(&|r| r == "kept"), stats.after_fdup);
    assert_eq!(kept.len(), stats.after_fdup);
    assert_eq!(
        count(&|r| r == "filtered(refactoring)"),
        stats.total - stats.after_fsame
    );
    assert_eq!(
        count(&|r| r == "filtered(pure_addition)"),
        stats.after_fsame - stats.after_fadd
    );
    assert_eq!(
        count(&|r| r == "filtered(pure_removal)"),
        stats.after_fadd - stats.after_frem
    );
    assert_eq!(
        count(&|r| r.starts_with("dup_of(")),
        stats.after_frem - stats.after_fdup
    );
    // Every dup points at a change that was itself kept.
    for (_, _, reason) in &filter {
        if let Some(target) = reason
            .strip_prefix("dup_of(")
            .and_then(|r| r.strip_suffix(')'))
        {
            assert!(
                filter.iter().any(|(fp, _, r)| fp == target && r == "kept"),
                "dup target {target} has no kept decision"
            );
        }
    }
    // The trace agrees with the metrics registry's own funnel.
    assert_eq!(registry.counter("filter.total"), stats.total as u64);
    assert_eq!(
        registry.counter("filter.after_fdup"),
        stats.after_fdup as u64
    );
}

#[test]
fn sequential_and_parallel_runs_produce_identical_decisions() {
    let corpus = generated(12, 42);
    let (seq_trace, _, _) = run_traced(&corpus, 1, 1);
    let (par_trace, _, _) = run_traced(&corpus, 4, 1);
    // Shard sinks are absorbed in shard order, so even the unsorted
    // decision lists line up; sort anyway to pin only the multiset.
    let mut seq = decisions(&seq_trace);
    let mut par = decisions(&par_trace);
    seq.sort();
    par.sort();
    assert_eq!(seq, par);
}

#[test]
fn cluster_decisions_cover_exactly_the_kept_changes() {
    let corpus = generated(12, 42);
    let (trace, _, registry) = run_traced(&corpus, 2, 1);
    let all = decisions(&trace);
    let kept: Vec<&String> = all
        .iter()
        .filter(|(_, stage, r)| stage == "filter" && r == "kept")
        .map(|(fp, _, _)| fp)
        .collect();
    let clustered: Vec<_> = all
        .iter()
        .filter(|(_, stage, _)| stage == "cluster")
        .collect();
    assert!(kept.len() >= 2, "seed 42 must keep enough changes");
    assert_eq!(clustered.len(), kept.len());
    for (fp, _, reason) in &clustered {
        assert!(reason.starts_with("cluster("), "{reason}");
        assert!(kept.contains(&fp), "clustered change {fp} was not kept");
    }
    // As many distinct cluster ids as elicited clusters.
    let mut ids: Vec<&str> = clustered.iter().map(|(_, _, r)| r.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, registry.counter("elicit.clusters"));
}

#[test]
fn sampling_thins_spans_but_never_decisions() {
    let corpus = generated(8, 42);
    let (full, _, _) = run_traced(&corpus, 2, 1);
    let (sampled, _, _) = run_traced(&corpus, 2, 1000);
    assert!(
        sampled.len() < full.len(),
        "sampling 1/1000 must drop spans ({} vs {})",
        sampled.len(),
        full.len()
    );
    let mut a = decisions(&full);
    let mut b = decisions(&sampled);
    a.sort();
    b.sort();
    assert_eq!(a, b, "decisions must survive sampling verbatim");
}

#[test]
fn warm_run_decisions_carry_cache_hit_status() {
    let tmp = TempDir::new("warm");
    let corpus = generated(6, 42);
    let registry_hits = |trace: &TraceSink| {
        trace
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Decision && trace.attr_str(e, "cache") == Some("hit"))
            .count()
    };
    let mut cache =
        MiningCache::open(&tmp.0, &[], &diffcode::PipelineLimits::DEFAULT).expect("open cache");
    let mut registry = MetricsRegistry::new();
    let mut cold_trace = TraceSink::enabled(1);
    let opts = MineOptions {
        threads: 2,
        cache: Some(&mut cache),
        cancel: None,
    };
    let cold = mine_parallel(&corpus, &[], opts, &mut registry, &mut cold_trace);
    cache.flush().expect("flush");
    assert_eq!(registry_hits(&cold_trace), 0, "cold run cannot hit");

    let mut registry = MetricsRegistry::new();
    let mut warm_trace = TraceSink::enabled(1);
    let opts = MineOptions {
        threads: 2,
        cache: Some(&mut cache),
        cancel: None,
    };
    let warm = mine_parallel(&corpus, &[], opts, &mut registry, &mut warm_trace);
    assert_eq!(warm.stats.code_changes, cold.stats.code_changes);
    assert_eq!(
        registry_hits(&warm_trace) as u64,
        registry.counter("cache.hit"),
        "decision cache attrs must agree with the cache.hit counter"
    );
    assert_eq!(registry_hits(&warm_trace), warm.stats.code_changes);
    // Same decisions either way — the cache changes how a result is
    // obtained, never what was decided.
    let strip = |t: &TraceSink| {
        let mut d = decisions(t);
        d.sort();
        d
    };
    assert_eq!(strip(&cold_trace), strip(&warm_trace));
}
