//! Integration tests for the persistent cluster cache: warm re-clusters
//! replay prior distance cells bit-exactly and produce output identical
//! to a cold run, config flips and version bumps invalidate, and the
//! incremental path scales to thousands of changes computing only the
//! new rows.

use cluster::Linkage;
use diffcode::{
    apply_filters, elicit_auto, mine_parallel, CellLookup, ClusterCache, Elicitation, MineOptions,
    MinedUsageChange, SeenDups, CLUSTERING_VERSION,
};
use obs::Recorder;
use proptest::prelude::*;
use std::path::PathBuf;
use usagegraph::{FeaturePath, Label, UsageChange};

/// A unique, cleaned-up-on-drop temp dir per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "diffcode-cluster-cache-{tag}-{}",
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

/// Mines and filters a corpus — the changes the clustering stage sees.
fn kept(corpus: &corpus::Corpus) -> Vec<MinedUsageChange> {
    let mut registry = Recorder::new();
    let opts = MineOptions {
        threads: 2,
        ..MineOptions::default()
    };
    let result = mine_parallel(corpus, &[], opts, &mut registry);
    apply_filters(&result.changes, &mut SeenDups::new(), &mut registry).0
}

/// Runs the clustering stage and returns the elicitation plus the
/// run's counters.
fn cluster_with(
    changes: &[MinedUsageChange],
    cache: Option<&mut ClusterCache>,
) -> (Elicitation, Recorder) {
    let mut registry = Recorder::new();
    let elicitation = elicit_auto(changes, cache, &mut registry);
    (elicitation, registry)
}

/// The observable content of a clustering run: every merge with its
/// exact height bits, plus every cluster's members and suggested rule.
/// Two equal signatures mean byte-identical output.
fn signature(e: &Elicitation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "leaves {}", e.dendrogram.n_leaves);
    for m in &e.dendrogram.merges {
        let _ = writeln!(out, "{} {} {:016x}", m.left, m.right, m.distance.to_bits());
    }
    for c in &e.clusters {
        let _ = writeln!(
            out,
            "{:?} | {} | {}",
            c.members, c.representative, c.suggested
        );
    }
    out
}

fn pairs(n: usize) -> u64 {
    cluster::pair_count(n)
}

#[test]
fn warm_recluster_is_byte_identical_and_reuses_prior_cells() {
    let tmp = TempDir::new("warm");
    let base = generated(120, 7);
    let mut grown = base.clone();
    grown.projects.extend(generated(30, 991).projects);

    let kept_base = kept(&base);
    let kept_grown = kept(&grown);
    let (nb, ng) = (kept_base.len(), kept_grown.len());
    assert!(nb >= 2, "base corpus too small: {nb}");
    assert!(ng > nb, "growth added no kept changes: {nb} -> {ng}");
    // Appending projects does not disturb earlier filter decisions, so
    // the grown corpus keeps the base changes unchanged (their cells
    // must all hit below).
    for (a, b) in kept_base.iter().zip(&kept_grown) {
        assert_eq!(a.change, b.change);
    }

    // Cold prime: everything misses, every cell is recorded.
    let mut cache = ClusterCache::open(&tmp.0, Linkage::Complete).unwrap();
    let (cold_base, reg) = cluster_with(&kept_base, Some(&mut cache));
    assert_eq!(reg.counter("cluster.cache.hit"), 0);
    assert_eq!(reg.counter("cluster.cache.miss"), pairs(nb));
    assert_eq!(cold_base.dendrogram.n_leaves, nb);
    cache.flush().unwrap();

    // Warm re-cluster of the grown corpus: only the new rows compute.
    let mut cache = ClusterCache::open(&tmp.0, Linkage::Complete).unwrap();
    let (warm, reg) = cluster_with(&kept_grown, Some(&mut cache));
    assert_eq!(reg.counter("cluster.cache.hit"), pairs(nb));
    assert_eq!(
        reg.counter("cluster.cache.miss"),
        pairs(ng) - pairs(nb),
        "exactly the cells touching a new change recompute"
    );
    assert_eq!(reg.counter("cluster.cache.stale_version"), 0);
    cache.flush().unwrap();

    // Byte-identical to a cold run over the same changes.
    let (cold_grown, _) = cluster_with(&kept_grown, None);
    assert_eq!(signature(&warm), signature(&cold_grown));

    // A second warm run hits everything.
    let mut cache = ClusterCache::open(&tmp.0, Linkage::Complete).unwrap();
    let (rewarm, reg) = cluster_with(&kept_grown, Some(&mut cache));
    assert_eq!(reg.counter("cluster.cache.hit"), pairs(ng));
    assert_eq!(reg.counter("cluster.cache.miss"), 0);
    assert_eq!(signature(&rewarm), signature(&cold_grown));
}

#[test]
fn config_flip_triggers_a_full_recompute() {
    let tmp = TempDir::new("config");
    let changes = kept(&generated(200, 42));
    let n = changes.len();
    assert!(n >= 2);

    let mut cache = ClusterCache::open(&tmp.0, Linkage::Complete).unwrap();
    let (primed, _) = cluster_with(&changes, Some(&mut cache));
    cache.flush().unwrap();

    // Same directory, different linkage config: every key changes, so
    // nothing hits — a config flip can never replay stale geometry.
    let mut flipped = ClusterCache::open(&tmp.0, Linkage::Average).unwrap();
    let (reflipped, reg) = cluster_with(&changes, Some(&mut flipped));
    assert_eq!(reg.counter("cluster.cache.hit"), 0);
    assert_eq!(reg.counter("cluster.cache.miss"), pairs(n));
    assert_eq!(signature(&primed), signature(&reflipped));
    flipped.flush().unwrap();

    // The original config's cells were not clobbered: reopening under
    // Complete still hits everything.
    let mut cache = ClusterCache::open(&tmp.0, Linkage::Complete).unwrap();
    let (_, reg) = cluster_with(&changes, Some(&mut cache));
    assert_eq!(reg.counter("cluster.cache.hit"), pairs(n));
}

#[test]
fn version_bump_invalidates_every_cell() {
    let tmp = TempDir::new("version");
    let changes = kept(&generated(200, 42));
    let n = changes.len();
    assert!(n >= 2);

    let mut cache = ClusterCache::open(&tmp.0, Linkage::Complete).unwrap();
    let (primed, _) = cluster_with(&changes, Some(&mut cache));
    cache.flush().unwrap();

    let mut bumped =
        ClusterCache::open_at_version(&tmp.0, Linkage::Complete, CLUSTERING_VERSION + 1).unwrap();
    let (rerun, reg) = cluster_with(&changes, Some(&mut bumped));
    assert_eq!(
        reg.counter("cluster.cache.stale_version"),
        pairs(n),
        "every old cell must be reported stale, not silently missed"
    );
    assert_eq!(reg.counter("cluster.cache.hit"), 0);
    assert_eq!(signature(&primed), signature(&rerun));
}

#[test]
fn cell_lookup_roundtrips_through_the_flushed_store() {
    let tmp = TempDir::new("roundtrip");
    let changes = kept(&generated(120, 7));
    assert!(changes.len() >= 2);

    let mut cache = ClusterCache::open(&tmp.0, Linkage::Complete).unwrap();
    let (_, _) = cluster_with(&changes, Some(&mut cache));
    cache.flush().unwrap();

    // Re-open and probe one known pair directly.
    let cache = ClusterCache::open(&tmp.0, Linkage::Complete).unwrap();
    let a = ClusterCache::change_fingerprint(&changes[0].change);
    let b = ClusterCache::change_fingerprint(&changes[1].change);
    let expected = cluster::usage_dist(&changes[0].change, &changes[1].change);
    match cache.cell(a, b) {
        CellLookup::Hit(d) => assert_eq!(d.to_bits(), expected.to_bits()),
        other => panic!("expected a hit, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole property: grow a corpus by a few projects, warm
    /// re-cluster through the cache, and the dendrogram and cut are
    /// identical to clustering the grown corpus from scratch — while
    /// every previously-seen pair hits.
    #[test]
    fn warm_recluster_equals_cold_for_any_growth(
        seed in 0u64..500,
        base_projects in 2usize..40,
        extra_projects in 1usize..10,
    ) {
        let tmp = TempDir::new(&format!("prop-{seed}-{base_projects}-{extra_projects}"));
        let base = generated(base_projects, seed);
        let mut grown = base.clone();
        grown.projects.extend(generated(extra_projects, seed.wrapping_add(1000)).projects);

        let kept_base = kept(&base);
        let kept_grown = kept(&grown);
        let (nb, ng) = (kept_base.len(), kept_grown.len());

        let mut cache = ClusterCache::open(&tmp.0, Linkage::Complete).unwrap();
        let (_, reg) = cluster_with(&kept_base, Some(&mut cache));
        prop_assert_eq!(reg.counter("cluster.cache.miss"), pairs(nb));
        cache.flush().unwrap();

        let mut cache = ClusterCache::open(&tmp.0, Linkage::Complete).unwrap();
        let (warm, reg) = cluster_with(&kept_grown, Some(&mut cache));
        prop_assert_eq!(reg.counter("cluster.cache.hit"), pairs(nb));
        prop_assert_eq!(reg.counter("cluster.cache.miss"), pairs(ng) - pairs(nb));

        let (cold, _) = cluster_with(&kept_grown, None);
        prop_assert_eq!(signature(&warm), signature(&cold));
    }
}

// ---------------------------------------------------------------------
// Scale: the incremental path on a corpus of thousands of changes.
// ---------------------------------------------------------------------

fn feature(labels: &[&str]) -> FeaturePath {
    FeaturePath(labels.iter().copied().map(Label::from).collect())
}

/// A synthetic single-path usage change; `i` varies the labels so every
/// change is distinct but near its neighbours.
fn synthetic_change(class: &str, i: usize) -> UsageChange {
    UsageChange {
        class: class.into(),
        removed: vec![feature(&[
            class,
            "getInstance",
            &format!("arg1:W{}", i % 17),
        ])],
        added: vec![feature(&[
            class,
            "getInstance",
            &format!("arg1:S{}", i % 13),
        ])],
    }
}

/// The acceptance bar of the incremental scheme, at the matrix layer
/// (no silhouette search, which dominates wall-clock at this size): a
/// +1% growth of an n = 2000 corpus computes only the new-row cells —
/// a ≥ 95% hit rate — and the warm matrix and dendrogram are
/// bit-identical to a cold dense run.
#[test]
fn warm_matrix_on_a_two_thousand_change_corpus_computes_only_new_rows() {
    const N: usize = 2000;
    const GROWN: usize = 2020; // +1%

    let changes: Vec<UsageChange> = (0..GROWN)
        .map(|i| {
            synthetic_change(
                if i % 2 == 0 {
                    "Cipher"
                } else {
                    "MessageDigest"
                },
                i,
            )
        })
        .collect();

    // Cold pass over the first N changes, with every cell "missing".
    let label_cache = cluster::LabelCache::default();
    let dist =
        |i: usize, j: usize| cluster::usage_dist_cached(&changes[i], &changes[j], &label_cache);
    let prior_none: Vec<f64> = vec![f64::NAN; pairs(N) as usize];
    let cold = cluster::matrix_from_prior(N, &prior_none, None, dist).unwrap();
    assert_eq!(cold.reused, 0);
    assert_eq!(cold.computed.len(), pairs(N) as usize);

    // Grow to GROWN: the prior carries every old cell, NaN for rows
    // touching a new change (what a cache replay materializes).
    let mut prior = Vec::with_capacity(pairs(GROWN) as usize);
    for i in 0..GROWN {
        for j in i + 1..GROWN {
            prior.push(if j < N {
                cold.matrix.get(i, j)
            } else {
                f64::NAN
            });
        }
    }
    let warm = cluster::matrix_from_prior(GROWN, &prior, None, dist).unwrap();
    let new_cells = (pairs(GROWN) - pairs(N)) as usize;
    assert_eq!(warm.reused, pairs(N) as usize);
    assert_eq!(warm.computed.len(), new_cells, "only new-row cells compute");
    let hit_rate = warm.reused as f64 / pairs(GROWN) as f64;
    assert!(hit_rate >= 0.95, "hit rate {hit_rate:.3} below the 95% bar");

    // Bit-identical to the cold dense run over all GROWN changes.
    let cold_grown = cluster::DistanceMatrix::from_fn(GROWN, dist);
    for i in 0..GROWN {
        for j in i + 1..GROWN {
            assert_eq!(
                warm.matrix.get(i, j).to_bits(),
                cold_grown.get(i, j).to_bits(),
                "cell ({i},{j}) differs"
            );
        }
    }
    let warm_dendrogram = cluster::agglomerate_matrix(&warm.matrix, Linkage::Complete);
    let cold_dendrogram = cluster::agglomerate_matrix(&cold_grown, Linkage::Complete);
    assert_eq!(warm_dendrogram, cold_dendrogram);
}
