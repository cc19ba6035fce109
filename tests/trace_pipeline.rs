//! Trace ≡ pipeline property tests (the decision-provenance
//! invariants): every change produces exactly one decision per stage
//! that rules on it, per-reason counts reconcile with the accounting
//! structs (`MiningStats`, `FilterStats`) and the metrics counters,
//! sampling never drops a decision, and sequential and parallel runs
//! produce identical decision sets.

use diffcode::cli::{run_mine, FunnelOptions, MineSource};
use diffcode::{
    apply_filters, elicit_auto, mine_parallel, ErrorKind, MineOptions, MiningCache, SeenDups,
};
use obs::{Recorder, TraceKind, TraceSink};
use std::collections::BTreeMap;
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

/// Parallel mining without a cache, recording into `rec`.
fn mine_traced(
    corpus: &corpus::Corpus,
    threads: usize,
    rec: &mut Recorder,
) -> diffcode::MiningResult {
    let opts = MineOptions {
        threads,
        ..MineOptions::default()
    };
    mine_parallel(corpus, &[], opts, rec)
}

/// All decision events as `(fingerprint, stage, reason)` triples, in
/// trace order.
fn decisions(rec: &Recorder) -> Vec<(String, String, String)> {
    let trace = rec.trace().expect("traced");
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
/// its recorder (metrics and trace) together with the mining result.
fn run_traced(
    corpus: &corpus::Corpus,
    n_threads: usize,
    sample: u64,
) -> (Recorder, diffcode::MiningResult) {
    let mut rec = Recorder::traced(sample);
    let result = mine_traced(corpus, n_threads, &mut rec);
    let (kept, _) = apply_filters(&result.changes, &mut SeenDups::new(), &mut rec);
    if kept.len() >= 2 {
        let _ = elicit_auto(&kept, None, &mut rec);
    }
    (rec, result)
}

#[test]
fn one_mine_decision_per_code_change_reasons_match_stats() {
    // Fault injection makes quarantined(...) reasons appear alongside
    // mined ones, so the per-kind reconciliation is not vacuous.
    let mut corpus = generated(8, 7);
    let _ = corpus::Mutator::new(7, 0.3).inject(&mut corpus);
    for threads in [1, 4] {
        let mut registry = Recorder::traced(1);
        let result = mine_traced(&corpus, threads, &mut registry);
        let mine: Vec<_> = decisions(&registry)
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
    let mut registry = Recorder::traced(1);
    let result = mine_traced(&corpus, 1, &mut registry);
    let (kept, stats) = apply_filters(&result.changes, &mut SeenDups::new(), &mut registry);
    let filter: Vec<_> = decisions(&registry)
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
    // The trace agrees with the recorder's own funnel counters.
    assert_eq!(registry.counter("filter.total"), stats.total as u64);
    assert_eq!(
        registry.counter("filter.after_fdup"),
        stats.after_fdup as u64
    );
}

#[test]
fn sequential_and_parallel_runs_produce_identical_decisions() {
    let corpus = generated(12, 42);
    let (seq_trace, _) = run_traced(&corpus, 1, 1);
    let (par_trace, _) = run_traced(&corpus, 4, 1);
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
    let (registry, _) = run_traced(&corpus, 2, 1);
    let all = decisions(&registry);
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
    let (full, _) = run_traced(&corpus, 2, 1);
    let (sampled, _) = run_traced(&corpus, 2, 1000);
    let events = |rec: &Recorder| rec.trace().map_or(0, TraceSink::len);
    assert!(
        events(&sampled) < events(&full),
        "sampling 1/1000 must drop spans ({} vs {})",
        events(&sampled),
        events(&full)
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
    let registry_hits = |rec: &Recorder| {
        let trace = rec.trace().expect("traced");
        trace
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Decision && trace.attr_str(e, "cache") == Some("hit"))
            .count()
    };
    let mut cache =
        MiningCache::open(&tmp.0, &[], &diffcode::PipelineLimits::DEFAULT).expect("open cache");
    let mut cold_trace = Recorder::traced(1);
    let opts = MineOptions {
        threads: 2,
        cache: Some(&mut cache),
        cancel: None,
    };
    let cold = mine_parallel(&corpus, &[], opts, &mut cold_trace);
    cache.flush().expect("flush");
    assert_eq!(registry_hits(&cold_trace), 0, "cold run cannot hit");

    let mut warm_trace = Recorder::traced(1);
    let opts = MineOptions {
        threads: 2,
        cache: Some(&mut cache),
        cancel: None,
    };
    let warm = mine_parallel(&corpus, &[], opts, &mut warm_trace);
    assert_eq!(warm.stats.code_changes, cold.stats.code_changes);
    assert_eq!(
        registry_hits(&warm_trace) as u64,
        warm_trace.counter("cache.hit"),
        "decision cache attrs must agree with the cache.hit counter"
    );
    assert_eq!(registry_hits(&warm_trace), warm.stats.code_changes);
    // Same decisions either way — the cache changes how a result is
    // obtained, never what was decided.
    let strip = |t: &Recorder| {
        let mut d = decisions(t);
        d.sort();
        d
    };
    assert_eq!(strip(&cold_trace), strip(&warm_trace));
}

/// Each stage opens one span, and closing it feeds both the span's
/// histogram and the trace: on an unsampled traced funnel that reaches
/// clustering, every span name's histogram count equals its number of
/// trace begin events, and the snapshot and the trace name the same
/// spans. An untraced run of the same funnel records the same spans
/// the same number of times.
#[test]
fn every_span_feeds_its_histogram_and_the_trace_once() {
    let funnel = |trace_sample: Option<u64>, tag: &str| {
        let dir = TempDir::new(tag);
        let opts = FunnelOptions {
            threads: 2,
            cluster_cache_dir: Some(dir.0.clone()),
            trace_sample,
            ..FunnelOptions::default()
        };
        let source = MineSource::Seeded {
            seed: 42,
            n_projects: 6,
        };
        run_mine(&source, &opts).expect("mine").1.recorder
    };
    let span_counts = |rec: &Recorder| -> BTreeMap<String, u64> {
        rec.spans()
            .map(|(name, hist)| (name.to_owned(), hist.count()))
            .collect()
    };

    let traced = funnel(Some(1), "plane-traced");
    let trace = traced.trace().expect("traced");
    let mut begins: BTreeMap<String, u64> = BTreeMap::new();
    for event in trace.events().iter().filter(|e| e.kind == TraceKind::Begin) {
        *begins.entry(trace.name(event.name).to_owned()).or_default() += 1;
    }
    let spans = span_counts(&traced);
    assert_eq!(begins, spans, "one histogram sample per trace span");
    for stage in [
        "corpus.generate",
        "parse",
        "mine.change",
        "cluster.matrix",
        "elicit.total",
    ] {
        assert!(spans.contains_key(stage), "no {stage} span: {spans:?}");
    }

    let untraced = funnel(None, "plane-untraced");
    assert!(untraced.trace().is_none());
    assert_eq!(span_counts(&untraced), spans, "tracing adds no span");
}
