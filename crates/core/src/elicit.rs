//! Clustering the filtered usage changes and eliciting rule candidates
//! (paper §4.3 and §6.3).

use crate::ccache::{CellLookup, ClusterCache};
use crate::decision::{record_decision, DecisionReason};
use crate::pipeline::MinedUsageChange;
use cache::Fingerprint;
use cluster::{Dendrogram, DistanceMatrix, Linkage};
use obs::{MetricsRegistry, TraceSink};
use rules::SuggestedRule;
use usagegraph::UsageChange;

/// Cap on the silhouette search of [`elicit_auto`]. The search is
/// O(k·n²) — an unbounded k turns an n≥2000 corpus cubic, while real
/// rule corpora cut into far fewer groups than this.
pub const CLUSTER_MAX_K: usize = 64;

/// One cluster of similar usage changes, with an automatically
/// suggested rule.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Indices into the filtered change list.
    pub members: Vec<usize>,
    /// The representative change (first member).
    pub representative: UsageChange,
    /// The §6.3 auto-suggested rule for the representative.
    pub suggested: SuggestedRule,
}

/// The elicitation output: the dendrogram plus per-cluster reports at
/// the chosen cut.
#[derive(Debug, Clone, Default)]
pub struct Elicitation {
    /// Full merge tree over the filtered changes.
    pub dendrogram: Dendrogram,
    /// Clusters at the cut, largest first.
    pub clusters: Vec<ClusterReport>,
}

/// Clusters `changes` and cuts the dendrogram at the fixed `threshold`
/// (Figure 8's 0.45 cut). The distances come from the same matrix
/// helper as [`elicit_auto`], uncached and unobserved.
pub fn elicit(changes: &[MinedUsageChange], threshold: f64) -> Elicitation {
    let usage_changes: Vec<UsageChange> = changes.iter().map(|c| c.change.clone()).collect();
    let Some(matrix) = distance_matrix(
        &usage_changes,
        None,
        &mut MetricsRegistry::new(),
        &mut TraceSink::disabled(),
    ) else {
        return Elicitation::default();
    };
    let dendrogram = cluster::agglomerate_matrix(&matrix, Linkage::Complete);
    let members = dendrogram.cut(threshold);
    build_elicitation(dendrogram, members, &usage_changes)
}

/// Clusters `changes` and chooses the cut automatically by maximising
/// the mean silhouette coefficient over at most [`CLUSTER_MAX_K`]
/// clusters (no threshold to tune). The silhouette search reuses the
/// distance matrix the dendrogram was built from, so no pairwise
/// distance is ever evaluated twice.
///
/// With a `cache`, prior distance cells (keyed by content fingerprints,
/// so corpus position does not matter) are replayed bit-exactly and
/// only pairs touching changes *new* to the cache are evaluated; the
/// freshly computed cells and the label memo are recorded into `cache`
/// and the caller flushes. A cold run and a warm one take the same code
/// path, which is what makes their output byte-identical. Distance
/// arguments are orientation-normalized by content fingerprint, so a
/// cell's bits never depend on which corpus position enumerated the
/// pair first.
///
/// Metrics: `cluster.items`, `cluster.pairs`, the `cluster.matrix`,
/// `cluster.agglomerate` and `elicit.cut` spans, `elicit.clusters`,
/// and — only with a cache — `cluster.cache.hit` / `.miss` /
/// `.stale_version` (one per pair). When `trace` is enabled the stage
/// is wrapped in an `elicit` span with the same sub-spans, plus one
/// `cluster(<id>)` decision per change, where `<id>` is the change's
/// cluster index in the final (largest-first) report order and the
/// decision's `index` is the change's position in `changes`.
pub fn elicit_auto(
    changes: &[MinedUsageChange],
    cache: Option<&mut ClusterCache>,
    registry: &mut MetricsRegistry,
    trace: &mut TraceSink,
) -> Elicitation {
    let stage_span = trace.begin_with("elicit", |a| {
        a.u64("changes", changes.len() as u64);
        if cache.is_some() {
            a.u64("cached", 1);
        }
    });
    let usage_changes: Vec<UsageChange> = changes.iter().map(|c| c.change.clone()).collect();
    registry.inc("cluster.items", usage_changes.len() as u64);
    registry.inc("cluster.pairs", cluster::pair_count(usage_changes.len()));
    let Some(matrix) = distance_matrix(&usage_changes, cache, registry, trace) else {
        trace.end(stage_span);
        return Elicitation::default();
    };
    let agg_span = trace.begin("cluster.agglomerate");
    let dendrogram = registry.time("cluster.agglomerate", || {
        cluster::agglomerate_matrix(&matrix, Linkage::Complete)
    });
    trace.end(agg_span);
    let cut_span = trace.begin("elicit.cut");
    let members = registry.time("elicit.cut", || {
        dendrogram.best_cut(&matrix, CLUSTER_MAX_K).1
    });
    trace.end(cut_span);
    let elicitation = build_elicitation(dendrogram, members, &usage_changes);
    registry.inc("elicit.clusters", elicitation.clusters.len() as u64);
    if trace.is_enabled() {
        for (cluster_id, cluster) in elicitation.clusters.iter().enumerate() {
            for &member in &cluster.members {
                record_decision(
                    trace,
                    &changes[member].meta,
                    &DecisionReason::Cluster(cluster_id),
                    |a| {
                        a.u64("index", member as u64);
                        a.u64("cluster_size", cluster.members.len() as u64);
                    },
                );
            }
        }
    }
    trace.end(stage_span);
    elicitation
}

/// The pairwise distance matrix of both elicitation entry points, under
/// a `cluster.matrix` span: cells found in `cache` are replayed, the
/// rest computed with orientation-normalized arguments and recorded
/// back. `None` only if the matrix size checks fail, which the
/// exactly-sized prior rules out.
fn distance_matrix(
    usage_changes: &[UsageChange],
    mut cache: Option<&mut ClusterCache>,
    registry: &mut MetricsRegistry,
    trace: &mut TraceSink,
) -> Option<DistanceMatrix> {
    let n = usage_changes.len();
    let fps: Vec<Fingerprint> = usage_changes
        .iter()
        .map(ClusterCache::change_fingerprint)
        .collect();

    // Assemble the prior condensed vector: every persisted cell, NaN
    // where the cache has nothing usable. Stale-version entries are
    // recomputed like misses but counted separately.
    let (mut hits, mut misses, mut stale) = (0u64, 0u64, 0u64);
    let mut prior: Vec<f64> = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let looked_up = match cache.as_deref() {
                Some(c) => c.cell(fps[i], fps[j]),
                None => CellLookup::Miss,
            };
            prior.push(match looked_up {
                CellLookup::Hit(d) => {
                    hits += 1;
                    d
                }
                CellLookup::StaleVersion => {
                    stale += 1;
                    f64::NAN
                }
                CellLookup::Miss => {
                    misses += 1;
                    f64::NAN
                }
            });
        }
    }

    // Seed the label-similarity memo from the cache, so even the new
    // cells skip recomputing known label pairs.
    let label_cache = cluster::LabelCache::default();
    if let Some(c) = cache.as_deref() {
        registry.inc("cluster.cache.hit", hits);
        registry.inc("cluster.cache.miss", misses);
        registry.inc("cluster.cache.stale_version", stale);
        for (a, b, sim) in c.label_memo() {
            label_cache.preload(&a, &b, sim);
        }
    }

    let matrix_span = trace.begin_with("cluster.matrix", |a| {
        a.u64("items", n as u64);
    });
    let warm = registry.time("cluster.matrix", || {
        cluster::matrix_from_prior(n, &prior, None, |i, j| {
            // Orientation-normalize by fingerprint: the Hungarian
            // assignment inside usage_dist sums floats in an
            // argument-order-dependent order, and a persisted cell must
            // replay identically no matter which side enumerated it.
            let (x, y) = if fps[i].0 <= fps[j].0 { (i, j) } else { (j, i) };
            cluster::usage_dist_cached(&usage_changes[x], &usage_changes[y], &label_cache)
        })
    });
    trace.end(matrix_span);
    let warm = warm.ok()?;
    if let Some(c) = cache.as_mut() {
        for &(i, j, d) in &warm.computed {
            c.record_cell(fps[i], fps[j], d);
        }
        // The memo only grows when new cells were computed; re-recording
        // an unchanged memo would just bloat the append log.
        if !warm.computed.is_empty() {
            c.record_label_memo(&label_cache.memo_entries());
        }
    }
    Some(warm.matrix)
}

fn build_elicitation(
    dendrogram: Dendrogram,
    members: Vec<Vec<usize>>,
    usage_changes: &[UsageChange],
) -> Elicitation {
    let mut clusters: Vec<ClusterReport> = members
        .into_iter()
        .map(|members| {
            let representative = usage_changes[members[0]].clone();
            let suggested = SuggestedRule::from_change(&representative);
            ClusterReport {
                members,
                representative,
                suggested,
            }
        })
        .collect();
    clusters.sort_by_key(|c| std::cmp::Reverse(c.members.len()));
    Elicitation {
        dendrogram,
        clusters,
    }
}

/// Renders the dendrogram with one-line change summaries as leaf
/// labels, the way Figure 8 presents it.
pub fn render_dendrogram(changes: &[MinedUsageChange], dendrogram: &Dendrogram) -> String {
    dendrogram.render_ascii(|leaf| {
        let c = &changes[leaf].change;
        let removed: Vec<String> = c.removed.iter().map(|p| format!("-{p}")).collect();
        let added: Vec<String> = c.added.iter().map(|p| format!("+{p}")).collect();
        format!(
            "[{}] {} | {}",
            changes[leaf].meta.project,
            removed.join(", "),
            added.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiffCode;
    use corpus::fixtures;

    fn mined(pair: &corpus::fixtures::FixPair, class: &str) -> Vec<MinedUsageChange> {
        let mut dc = DiffCode::new();
        dc.usage_changes_from_pair(pair.old, pair.new, class)
            .unwrap()
            .into_iter()
            .map(|(old_dag, new_dag, change)| {
                MinedUsageChange::new(
                    crate::pipeline::ChangeMeta {
                        project: format!("fixtures/{}", pair.name),
                        commit: pair.name.to_owned(),
                        author: String::new(),
                        message: pair.description.to_owned(),
                        path: "A.java".into(),
                        fingerprint: crate::pipeline::change_fingerprint(pair.old, pair.new),
                    },
                    class.to_owned(),
                    old_dag,
                    new_dag,
                    change,
                )
            })
            .collect()
    }

    #[test]
    fn auto_cut_finds_the_same_grouping() {
        let mut changes = Vec::new();
        changes.extend(mined(&fixtures::ECB_TO_CBC, "Cipher"));
        changes.extend(mined(&fixtures::ECB_TO_GCM, "Cipher"));
        changes.extend(mined(&fixtures::DEFAULT_AES_TO_CBC, "Cipher"));
        changes.extend(mined(&fixtures::SHA1_TO_SHA256, "MessageDigest"));
        let auto = elicit_auto(
            &changes,
            None,
            &mut MetricsRegistry::new(),
            &mut TraceSink::disabled(),
        );
        // The silhouette-optimal cut separates the ECB family from the
        // digest fix. Memberships are pinned exactly: the silhouette
        // search now runs over the shared distance matrix, and this
        // grouping is the one the closure-based search produced before
        // that change.
        let members: Vec<Vec<usize>> = auto.clusters.iter().map(|c| c.members.clone()).collect();
        assert_eq!(members, vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn figure8_shape_ecb_fixes_cluster_together() {
        let mut changes = Vec::new();
        changes.extend(mined(&fixtures::ECB_TO_CBC, "Cipher"));
        changes.extend(mined(&fixtures::ECB_TO_GCM, "Cipher"));
        changes.extend(mined(&fixtures::DEFAULT_AES_TO_CBC, "Cipher"));
        changes.extend(mined(&fixtures::SHA1_TO_SHA256, "MessageDigest"));
        assert_eq!(changes.len(), 4);

        let elicitation = elicit(&changes, 0.45);
        // The three ECB fixes must share a cluster that excludes the
        // SHA-1 fix.
        let ecb_cluster = elicitation
            .clusters
            .iter()
            .find(|c| c.members.contains(&0))
            .unwrap();
        assert!(
            ecb_cluster.members.contains(&1),
            "{:?}",
            elicitation.clusters
        );
        assert!(
            ecb_cluster.members.contains(&2),
            "{:?}",
            elicitation.clusters
        );
        assert!(
            !ecb_cluster.members.contains(&3),
            "{:?}",
            elicitation.clusters
        );

        // The suggested rule for the representative mentions the ECB
        // feature on the must-have side.
        let text = ecb_cluster.suggested.to_string();
        assert!(text.contains("Cipher :"), "{text}");

        let rendering = render_dendrogram(&changes, &elicitation.dendrogram);
        assert!(rendering.contains("AES/ECB"), "{rendering}");
    }

    #[test]
    fn silhouette_cut_is_capped_at_cluster_max_k() {
        // 66 groups of two identical changes, every pair of groups 0.5
        // apart: the uncapped optimum is one cluster per group (mean
        // silhouette 1), but the search stops at CLUSTER_MAX_K.
        let change = |group: usize| {
            let path = |label: String| usagegraph::FeaturePath(vec!["Cipher".into(), label.into()]);
            MinedUsageChange::new(
                crate::pipeline::ChangeMeta {
                    project: format!("u/p{group}"),
                    commit: "c".into(),
                    author: String::new(),
                    message: String::new(),
                    path: "A.java".into(),
                    fingerprint: format!("fp{group}"),
                },
                "Cipher".into(),
                usagegraph::UsageDag::empty("Cipher"),
                usagegraph::UsageDag::empty("Cipher"),
                UsageChange {
                    class: "Cipher".into(),
                    removed: vec![path(format!("OLD_{group}"))],
                    added: vec![path(format!("NEW_{group}"))],
                },
            )
        };
        let groups = CLUSTER_MAX_K + 2;
        let changes: Vec<MinedUsageChange> = (0..2 * groups).map(|i| change(i / 2)).collect();
        let mut registry = MetricsRegistry::new();
        let elicitation = elicit_auto(&changes, None, &mut registry, &mut TraceSink::disabled());
        assert_eq!(elicitation.clusters.len(), CLUSTER_MAX_K);
        assert_eq!(registry.counter("elicit.clusters"), CLUSTER_MAX_K as u64);
        // No cache, no cache lookups to count.
        assert!(registry
            .counters()
            .all(|(name, _)| !name.starts_with("cluster.cache.")));
    }
}
