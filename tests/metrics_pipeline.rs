//! Observability integration tests: the recorder's metrics must exactly
//! reconcile with the pipeline's own statistics, sharded mining plus
//! filtering must dedup identically to a sequential run, and the JSON
//! snapshot must carry the full funnel.

use corpus::{generate, GeneratorConfig};
use diffcode::{
    apply_filters, mine_parallel, DiffCode, ErrorKind, FilterStats, MineOptions, MinedUsageChange,
    MiningResult, SeenDups, FILTER_FUNNEL,
};
use obs::Recorder;

const SEED: u64 = 7;

/// Parallel mining, recording into `registry`.
fn mine_metered(corpus: &corpus::Corpus, threads: usize, registry: &mut Recorder) -> MiningResult {
    let opts = MineOptions {
        threads,
        ..MineOptions::default()
    };
    mine_parallel(corpus, &[], opts, registry)
}

/// Filtering with fresh `fdup` state, recording into `registry`.
fn filter_metered(
    changes: &[MinedUsageChange],
    registry: &mut Recorder,
) -> (Vec<MinedUsageChange>, FilterStats) {
    apply_filters(changes, &mut SeenDups::new(), registry)
}

fn corpus_under_test() -> corpus::Corpus {
    generate(&GeneratorConfig {
        n_projects: 10,
        seed: SEED,
        ..GeneratorConfig::default()
    })
}

/// Sharded mining + per-shard filtering with a shared dedup set keeps
/// exactly the same changes as mining and filtering in one sequential
/// pass. This is what the caller-owned `seen` state of `apply_filters` is for:
/// without shared `seen` state, fdup only dedups within a shard.
#[test]
fn sharded_filtering_with_shared_seen_matches_sequential() {
    let corpus = corpus_under_test();

    // Ground truth: one sequential mine + one-shot filtering.
    let sequential = DiffCode::new().mine(&corpus, &[], None);
    let (kept_seq, stats_seq) = filter_metered(&sequential.changes, &mut Recorder::new());

    // Sharded: parallel mine, then filter the merged stream in batches
    // (as a shard-streaming consumer would) with one shared seen-set.
    let mut registry = Recorder::new();
    let parallel = mine_metered(&corpus, 4, &mut registry);
    assert_eq!(
        parallel.changes, sequential.changes,
        "mining must be shard-invariant"
    );

    let mut seen = SeenDups::new();
    let mut kept_batched = Vec::new();
    let mut total_after_fdup = 0;
    for batch in parallel.changes.chunks(3) {
        let (kept, stats) = apply_filters(batch, &mut seen, &mut Recorder::new());
        total_after_fdup += stats.after_fdup;
        kept_batched.extend(kept);
    }
    assert_eq!(
        kept_batched, kept_seq,
        "batched filtering must dedup like one pass"
    );
    assert_eq!(total_after_fdup, stats_seq.after_fdup);
}

/// Every counter the pipeline publishes must equal the corresponding
/// `MiningStats` / `FilterStats` field — the report and the stats are
/// two views of one run, never two bookkeeping systems drifting apart.
#[test]
fn metrics_counters_reconcile_with_pipeline_stats() {
    let corpus = corpus_under_test();
    let mut registry = Recorder::new();
    let result = mine_metered(&corpus, 4, &mut registry);

    assert_eq!(
        registry.counter("mine.code_changes"),
        result.stats.code_changes as u64
    );
    assert_eq!(registry.counter("mine.mined"), result.stats.mined as u64);
    assert_eq!(
        registry.counter("mine.skipped"),
        result.stats.skipped.total() as u64
    );
    assert_eq!(
        registry.counter("mine.usage_changes"),
        result.changes.len() as u64
    );
    for kind in ErrorKind::ALL {
        assert_eq!(
            registry.counter(&format!("mine.skipped.{}", kind.name())),
            result.stats.skipped.get(kind) as u64,
            "per-kind quarantine counter for {}",
            kind.name()
        );
    }
    assert!(obs::check_partition(
        &registry,
        "mine.code_changes",
        &["mine.mined", "mine.skipped"],
    )
    .is_ok());

    let (kept, stats) = filter_metered(&result.changes, &mut registry);
    assert_eq!(registry.counter("filter.total"), stats.total as u64);
    assert_eq!(
        registry.counter("filter.after_fsame"),
        stats.after_fsame as u64
    );
    assert_eq!(
        registry.counter("filter.after_fadd"),
        stats.after_fadd as u64
    );
    assert_eq!(
        registry.counter("filter.after_frem"),
        stats.after_frem as u64
    );
    assert_eq!(registry.counter("filter.after_fdup"), kept.len() as u64);
    assert!(obs::check_funnel(&registry, &FILTER_FUNNEL).is_ok());
}

/// Parallel mining merges per-shard registries; the merged counters
/// must match a sequential run's counters exactly (spans aggregate the
/// same event counts, wall-clock aside).
#[test]
fn parallel_and_sequential_registries_agree_on_counts() {
    let corpus = corpus_under_test();

    let mut dc = DiffCode::new();
    let _ = dc.mine(&corpus, &[], None);
    let sequential = dc.take_recorder();

    let mut parallel = Recorder::new();
    let _ = mine_metered(&corpus, 4, &mut parallel);

    let seq_counters: Vec<_> = sequential.counters().collect();
    let par_counters: Vec<_> = parallel.counters().collect();
    assert_eq!(seq_counters, par_counters);

    // Same number of per-change timing events, however they were sharded.
    let seq_span = sequential.span("mine.change").expect("sequential span");
    let par_span = parallel.span("mine.change").expect("parallel span");
    assert_eq!(seq_span.count(), par_span.count());
}

/// The snapshot is versioned and carries every funnel stage, including
/// zero-valued ones — downstream checkers rely on their presence.
#[test]
fn json_snapshot_carries_the_funnel() {
    let corpus = corpus_under_test();
    let mut registry = Recorder::new();
    let result = mine_metered(&corpus, 2, &mut registry);
    let (_, _) = filter_metered(&result.changes, &mut registry);

    let json = registry.to_json();
    assert!(json.contains("\"version\": 2"), "{json}");
    for stage in FILTER_FUNNEL {
        assert!(
            json.contains(&format!("\"{stage}\":")),
            "snapshot missing {stage}"
        );
    }
    for counter in ["mine.code_changes", "mine.mined", "mine.skipped"] {
        assert!(
            json.contains(&format!("\"{counter}\":")),
            "snapshot missing {counter}"
        );
    }
    assert!(
        json.contains("\"mine.run\": {"),
        "snapshot missing mine.run span"
    );
    // v2: every span carries quantiles and its cumulative bucket list.
    for key in ["\"p50_ns\":", "\"p99_ns\":", "\"buckets\":"] {
        assert!(json.contains(key), "snapshot missing {key}: {json}");
    }
}

/// Span histograms obey the registry's shard-merge law: recording a
/// set of durations sharded across registries and merging gives
/// exactly the histogram of recording them all in one registry. (The
/// wall-clock spans of a parallel mining run differ run to run, so the
/// equality is checked over fixed synthetic durations — the same
/// absorb path `mine_parallel` uses on shard join.)
#[test]
fn sharded_histogram_merge_matches_sequential_recording() {
    use std::time::Duration;
    // Deterministic durations spanning several octaves of the layout.
    let durations: Vec<Duration> = (0..500u64)
        .map(|i| Duration::from_nanos((i * i * 997 + i * 31 + 1) % 10_000_000))
        .collect();

    let mut sequential = Recorder::new();
    for d in &durations {
        sequential.record_span("mine.change", *d);
    }

    let mut merged = Recorder::new();
    for shard in durations.chunks(137) {
        let mut worker = Recorder::new();
        for d in shard {
            worker.record_span("mine.change", *d);
        }
        merged.merge(worker);
    }

    assert_eq!(
        merged.span("mine.change"),
        sequential.span("mine.change"),
        "merged shard histograms must equal a single-registry recording"
    );
    // And the quantiles the snapshot/status surfaces agree too.
    let (m, s) = (
        merged.span("mine.change").unwrap(),
        sequential.span("mine.change").unwrap(),
    );
    for q in [0.5, 0.9, 0.99, 0.999] {
        assert_eq!(m.quantile(q), s.quantile(q));
    }
}

/// A parallel mining run's merged histogram partitions the same
/// per-change samples as the sequential run: counts and sums agree
/// even though individual timings differ.
#[test]
fn parallel_histogram_count_matches_sequential() {
    let corpus = corpus_under_test();

    let mut dc = DiffCode::new();
    let _ = dc.mine(&corpus, &[], None);
    let sequential = dc.take_recorder();

    let mut parallel = Recorder::new();
    let _ = mine_metered(&corpus, 4, &mut parallel);

    let seq = sequential.span("mine.change").expect("sequential hist");
    let par = parallel.span("mine.change").expect("parallel hist");
    assert_eq!(seq.count(), par.count(), "one histogram sample per change");
    assert_eq!(
        seq.count(),
        sequential.counter("mine.code_changes"),
        "the histogram counts every processed change"
    );
}
