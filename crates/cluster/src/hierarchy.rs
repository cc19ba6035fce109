//! Agglomerative hierarchical clustering with complete linkage
//! (paper §4.3).
//!
//! The entry points ([`agglomerate`], [`agglomerate_with`],
//! [`agglomerate_matrix`]) run the O(n²) nearest-neighbor-chain
//! algorithm from [`crate::chain`] over a shared [`DistanceMatrix`].
//! The original quadratic-scan loop is retained as
//! [`agglomerate_naive`]: it is the executable specification the chain
//! is tested against, including its tie-breaking.

use crate::chain::nn_chain;
use crate::matrix::DistanceMatrix;

/// Distances closer than this are merge-order ties and are broken
/// deterministically (smallest node-id pair first). Shared by the
/// naive reference loop and the nn-chain so both resolve ties the same
/// way.
pub(crate) const TIE_EPS: f64 = 1e-12;

/// One merge step of the agglomeration. Node ids: `0..n` are leaves;
/// merge `k` creates node `n + k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged node.
    pub left: usize,
    /// Second merged node.
    pub right: usize,
    /// Complete-linkage distance at which the merge happened.
    pub distance: f64,
}

/// The full merge tree produced by agglomerative clustering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dendrogram {
    /// Number of leaves (input items).
    pub n_leaves: usize,
    /// `n_leaves − 1` merges in non-decreasing-distance order of
    /// execution.
    pub merges: Vec<Merge>,
}

impl Dendrogram {
    /// The leaf indices under node `id` (a leaf or a merge node),
    /// sorted ascending. Iterative, so deep dendrograms (e.g. a chain
    /// of duplicate items) cannot overflow the stack.
    pub fn leaves_under(&self, id: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(node) = stack.pop() {
            if node < self.n_leaves {
                out.push(node);
            } else {
                let merge = &self.merges[node - self.n_leaves];
                stack.push(merge.left);
                stack.push(merge.right);
            }
        }
        out.sort_unstable();
        out
    }

    /// Cuts the tree at `threshold`: merges with distance ≤ threshold
    /// are applied; the result is a partition of the leaves, each
    /// cluster sorted, clusters ordered by their smallest leaf.
    pub fn cut(&self, threshold: f64) -> Vec<Vec<usize>> {
        let mut parent: Vec<usize> = (0..self.n_leaves + self.merges.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for (k, merge) in self.merges.iter().enumerate() {
            if merge.distance <= threshold {
                let node = self.n_leaves + k;
                let l = find(&mut parent, merge.left);
                let r = find(&mut parent, merge.right);
                parent[l] = node;
                parent[r] = node;
            }
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for leaf in 0..self.n_leaves {
            let root = find(&mut parent, leaf);
            groups.entry(root).or_default().push(leaf);
        }
        let mut clusters: Vec<Vec<usize>> = groups.into_values().collect();
        clusters.sort_by_key(|c| c[0]);
        clusters
    }

    /// Cuts the tree into exactly `k` clusters (or fewer, if there are
    /// fewer leaves) by undoing the last `k − 1` merges.
    pub(crate) fn cut_into(&self, k: usize) -> Vec<Vec<usize>> {
        if self.n_leaves == 0 {
            return Vec::new();
        }
        let k = k.clamp(1, self.n_leaves);
        let applied = self.n_leaves - k; // merges to apply
        let mut parent: Vec<usize> = (0..self.n_leaves + self.merges.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for (idx, merge) in self.merges.iter().take(applied).enumerate() {
            let node = self.n_leaves + idx;
            let l = find(&mut parent, merge.left);
            let r = find(&mut parent, merge.right);
            parent[l] = node;
            parent[r] = node;
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for leaf in 0..self.n_leaves {
            let root = find(&mut parent, leaf);
            groups.entry(root).or_default().push(leaf);
        }
        let mut clusters: Vec<Vec<usize>> = groups.into_values().collect();
        clusters.sort_by_key(|c| c[0]);
        clusters
    }

    /// Chooses the number of clusters automatically by maximising the
    /// mean silhouette coefficient over `k ∈ 2..=max_k`, returning
    /// `(k, clusters, score)`. With fewer than 3 leaves the trivial
    /// partition is returned with score 0.
    ///
    /// Takes the same shared [`DistanceMatrix`] the dendrogram was
    /// built from: no pairwise distance is ever re-evaluated here.
    ///
    /// # Panics
    ///
    /// If `matrix` does not cover exactly `n_leaves` items.
    pub fn best_cut(&self, matrix: &DistanceMatrix, max_k: usize) -> (usize, Vec<Vec<usize>>, f64) {
        let n = self.n_leaves;
        assert_eq!(matrix.len(), n, "matrix size must match the dendrogram");
        if n < 3 {
            return (n, self.cut_into(n), 0.0);
        }
        let mut best = (2usize, self.cut_into(2), f64::NEG_INFINITY);
        for k in 2..=max_k.min(n - 1) {
            let clusters = self.cut_into(k);
            let score = mean_silhouette(&clusters, matrix);
            if score > best.2 + TIE_EPS {
                best = (k, clusters, score);
            }
        }
        best
    }

    /// Renders the dendrogram as an indented ASCII tree, labelling each
    /// leaf with `labels(leaf)`.
    pub fn render_ascii(&self, labels: impl Fn(usize) -> String) -> String {
        if self.n_leaves == 0 {
            return String::new();
        }
        let root = if self.merges.is_empty() {
            0
        } else {
            self.n_leaves + self.merges.len() - 1
        };
        let mut out = String::new();
        self.render_node(root, 0, &labels, &mut out);
        out
    }

    fn render_node(
        &self,
        id: usize,
        depth: usize,
        labels: &impl Fn(usize) -> String,
        out: &mut String,
    ) {
        let pad = "  ".repeat(depth);
        if id < self.n_leaves {
            out.push_str(&format!("{pad}- {}\n", labels(id)));
        } else {
            let merge = &self.merges[id - self.n_leaves];
            out.push_str(&format!("{pad}+ [d={:.3}]\n", merge.distance));
            self.render_node(merge.left, depth + 1, labels, out);
            self.render_node(merge.right, depth + 1, labels, out);
        }
    }
}

/// The cluster-to-cluster distance used during agglomeration.
///
/// The paper uses complete linkage (§4.3); the alternatives exist for
/// the ablation study (`diffcode-bench --bin ablation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// `d(X,Y) = max d(x,y)` — the paper's choice.
    #[default]
    Complete,
    /// `d(X,Y) = min d(x,y)`.
    Single,
    /// Unweighted average of all pairwise distances (UPGMA).
    Average,
}

/// Mean silhouette coefficient of a partition under the shared
/// distance matrix; singletons score 0.
fn mean_silhouette(clusters: &[Vec<usize>], matrix: &DistanceMatrix) -> f64 {
    let n: usize = clusters.iter().map(Vec::len).sum();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for (ci, cluster) in clusters.iter().enumerate() {
        for &i in cluster {
            if cluster.len() == 1 {
                continue; // silhouette of a singleton is 0
            }
            let a: f64 = cluster
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| matrix.get(i, j))
                .sum::<f64>()
                / (cluster.len() - 1) as f64;
            let b = clusters
                .iter()
                .enumerate()
                .filter(|(cj, c)| *cj != ci && !c.is_empty())
                .map(|(_, c)| c.iter().map(|&j| matrix.get(i, j)).sum::<f64>() / c.len() as f64)
                .fold(f64::INFINITY, f64::min);
            let denom = a.max(b);
            if denom > 0.0 {
                total += (b - a) / denom;
            }
        }
    }
    total / n as f64
}

/// Clusters `n` items agglomeratively under `dist`, using **complete
/// linkage**: `d(X,Y) = max_{x∈X, y∈Y} d(x,y)`.
///
/// Ties are broken deterministically by smallest node-id pair.
///
/// Each pairwise distance is evaluated exactly once (in parallel, into
/// a shared [`DistanceMatrix`]) and agglomeration runs the O(n²)
/// nearest-neighbor chain. To reuse the matrix afterwards — e.g. for
/// [`Dendrogram::best_cut`] — build it yourself and call
/// [`agglomerate_matrix`].
///
/// # Example
///
/// ```
/// let coords: [f64; 4] = [0.0, 0.5, 9.0, 9.5];
/// let tree = cluster::agglomerate(4, |i, j| (coords[i] - coords[j]).abs());
/// assert_eq!(tree.cut(1.0), vec![vec![0, 1], vec![2, 3]]);
/// ```
pub fn agglomerate(n: usize, dist: impl Fn(usize, usize) -> f64 + Sync) -> Dendrogram {
    agglomerate_with(n, dist, Linkage::Complete)
}

/// [`agglomerate`] with an explicit linkage criterion.
pub(crate) fn agglomerate_with(
    n: usize,
    dist: impl Fn(usize, usize) -> f64 + Sync,
    linkage: Linkage,
) -> Dendrogram {
    agglomerate_matrix(&DistanceMatrix::from_fn(n, dist), linkage)
}

/// Agglomerates over an already-built distance matrix — the fast path
/// when the matrix is shared with other stages (silhouette cuts,
/// ablations, benches).
pub fn agglomerate_matrix(matrix: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
    nn_chain(matrix, linkage)
}

/// The original quadratic-scan agglomeration loop, retained as the
/// executable specification of `agglomerate_with`: it recomputes
/// cluster distances from leaf members every round (O(n³) and worse),
/// and the nn-chain implementation is property-tested to produce the
/// identical dendrogram — same merges, node ids, heights, and
/// tie-breaking — on all inputs with distinct pairwise distances and
/// exhaustively on small tie-heavy ones (see `crate::chain` for the
/// boundary under adversarial exact ties).
///
/// Hidden from the documented API: it is evidence, public only so the
/// NN-chain equivalence tests and the clustering bench can call it.
#[doc(hidden)]
pub fn agglomerate_naive(
    n: usize,
    dist: impl Fn(usize, usize) -> f64,
    linkage: Linkage,
) -> Dendrogram {
    if n == 0 {
        return Dendrogram::default();
    }
    // active clusters: node id → member leaves
    let mut members: Vec<Option<Vec<usize>>> = (0..n).map(|i| Some(vec![i])).collect();
    let mut active: Vec<usize> = (0..n).collect();
    // Pre-compute the leaf distance matrix once.
    let leaf_dist: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| if i == j { 0.0 } else { dist(i, j) })
                .collect()
        })
        .collect();
    let complete = |a: &[usize], b: &[usize]| -> f64 {
        match linkage {
            Linkage::Complete => {
                let mut worst = 0.0f64;
                for &x in a {
                    for &y in b {
                        worst = worst.max(leaf_dist[x][y]);
                    }
                }
                worst
            }
            Linkage::Single => {
                let mut best = f64::INFINITY;
                for &x in a {
                    for &y in b {
                        best = best.min(leaf_dist[x][y]);
                    }
                }
                best
            }
            Linkage::Average => {
                let mut sum = 0.0f64;
                for &x in a {
                    for &y in b {
                        sum += leaf_dist[x][y];
                    }
                }
                sum / (a.len() * b.len()) as f64
            }
        }
    };

    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    while active.len() > 1 {
        let mut best: Option<(f64, usize, usize)> = None;
        for (ai, &a) in active.iter().enumerate() {
            for &b in &active[ai + 1..] {
                let d = complete(
                    members[a].as_ref().expect("active"),
                    members[b].as_ref().expect("active"),
                );
                let candidate = (d, a, b);
                best = Some(match best {
                    None => candidate,
                    Some(current) => {
                        if candidate.0 < current.0 - TIE_EPS {
                            candidate
                        } else {
                            current
                        }
                    }
                });
            }
        }
        let (d, a, b) = best.expect("at least two active clusters");
        let node = members.len();
        let mut merged = members[a].take().expect("active");
        merged.extend(members[b].take().expect("active"));
        members.push(Some(merged));
        active.retain(|&x| x != a && x != b);
        active.push(node);
        merges.push(Merge {
            left: a,
            right: b,
            distance: d,
        });
    }
    Dendrogram {
        n_leaves: n,
        merges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance on a line: |i - j| scaled.
    fn line_dist(i: usize, j: usize) -> f64 {
        (i as f64 - j as f64).abs()
    }

    #[test]
    fn empty_and_singleton() {
        let d = agglomerate(0, line_dist);
        assert_eq!(d.n_leaves, 0);
        assert!(d.merges.is_empty());
        let d = agglomerate(1, line_dist);
        assert_eq!(d.cut(0.0), vec![vec![0]]);
    }

    #[test]
    fn produces_n_minus_one_merges() {
        let d = agglomerate(6, line_dist);
        assert_eq!(d.merges.len(), 5);
        assert_eq!(d.leaves_under(6 + 4), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn two_well_separated_groups() {
        // Points 0,1,2 close; 10,11,12 close (leaf ids 0..6).
        let coords: [f64; 6] = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0];
        let d = agglomerate(6, |i, j| (coords[i] - coords[j]).abs());
        let clusters = d.cut(3.0);
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn cut_zero_is_all_singletons_when_distinct() {
        let d = agglomerate(4, line_dist);
        let clusters = d.cut(0.0);
        assert_eq!(clusters.len(), 4);
    }

    #[test]
    fn cut_infinity_is_one_cluster() {
        let d = agglomerate(5, line_dist);
        let clusters = d.cut(f64::INFINITY);
        assert_eq!(clusters, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn complete_linkage_uses_max() {
        // 0-1 close, 2 closer to 1 than 0: complete linkage must use the
        // farthest pair when merging {0,1} with {2}.
        let coords: [f64; 3] = [0.0, 1.0, 1.5];
        let d = agglomerate(3, |i, j| (coords[i] - coords[j]).abs());
        assert_eq!(d.merges[0].left, 1);
        assert_eq!(d.merges[0].right, 2);
        // Merge of {1,2} with {0}: complete distance = |0-1.5| = 1.5.
        assert!((d.merges[1].distance - 1.5).abs() < 1e-9);
    }

    #[test]
    fn merge_distances_are_monotone_for_complete_linkage() {
        let coords: [f64; 7] = [0.0, 0.5, 3.0, 3.2, 9.0, 9.1, 9.3];
        let d = agglomerate(coords.len(), |i, j| (coords[i] - coords[j]).abs());
        for w in d.merges.windows(2) {
            assert!(w[0].distance <= w[1].distance + 1e-9);
        }
    }

    #[test]
    fn best_cut_recovers_natural_grouping() {
        let coords: [f64; 7] = [0.0, 0.4, 0.8, 10.0, 10.3, 20.0, 20.5];
        let matrix = DistanceMatrix::from_fn(7, |i, j| (coords[i] - coords[j]).abs());
        let d = agglomerate_matrix(&matrix, Linkage::Complete);
        let (k, clusters, score) = d.best_cut(&matrix, 6);
        assert_eq!(k, 3, "{clusters:?} score={score}");
        assert_eq!(clusters[0], vec![0, 1, 2]);
        assert_eq!(clusters[1], vec![3, 4]);
        assert_eq!(clusters[2], vec![5, 6]);
        assert!(score > 0.8, "{score}");
    }

    #[test]
    fn best_cut_tiny_inputs() {
        let dist = |i: usize, j: usize| (i as f64 - j as f64).abs();
        let matrix = DistanceMatrix::from_fn(1, dist);
        let d = agglomerate_matrix(&matrix, Linkage::Complete);
        let (k, clusters, _) = d.best_cut(&matrix, 5);
        assert_eq!(k, 1);
        assert_eq!(clusters, vec![vec![0]]);
        let matrix = DistanceMatrix::from_fn(2, dist);
        let d = agglomerate_matrix(&matrix, Linkage::Complete);
        let (k, _, _) = d.best_cut(&matrix, 5);
        assert_eq!(k, 2);
    }

    #[test]
    fn leaves_under_handles_caterpillar_dendrograms_iteratively() {
        // Points at i² under single linkage: every merge absorbs the
        // next leaf into one growing cluster, so the dendrogram is a
        // maximally deep caterpillar — the shape where a recursive
        // walk would recurse n deep.
        let n = 2000;
        let d = agglomerate_with(
            n,
            |i, j| {
                let (fi, fj) = (i as f64, j as f64);
                (fi * fi - fj * fj).abs()
            },
            Linkage::Single,
        );
        // Caterpillar shape: from the second merge on, one child is
        // always the previous merge node.
        for (k, merge) in d.merges.iter().enumerate().skip(1) {
            assert_eq!(merge.right, n + k - 1, "merge {k} extends the chain");
            assert_eq!(merge.left, k + 1, "merge {k} absorbs leaf {}", k + 1);
        }
        let root = n + d.merges.len() - 1;
        let leaves = d.leaves_under(root);
        assert_eq!(leaves.len(), n);
        assert!(leaves.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
    }

    #[test]
    fn cut_into_exact_k() {
        let coords: [f64; 6] = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0];
        let d = agglomerate(6, |i, j| (coords[i] - coords[j]).abs());
        assert_eq!(d.cut_into(1), vec![vec![0, 1, 2, 3, 4, 5]]);
        assert_eq!(d.cut_into(2), vec![vec![0, 1, 2], vec![3, 4, 5]]);
        assert_eq!(d.cut_into(6).len(), 6);
        // Clamping: k beyond the leaf count gives singletons.
        assert_eq!(d.cut_into(99).len(), 6);
        assert_eq!(d.cut_into(0), d.cut_into(1));
        for k in 1..=6 {
            let total: usize = d.cut_into(k).iter().map(Vec::len).sum();
            assert_eq!(total, 6, "partition at k={k}");
        }
    }

    #[test]
    fn single_linkage_chains() {
        // A chain 0-1-2-3 with unit gaps: single linkage merges the
        // whole chain at distance 1, complete linkage does not.
        let coords: [f64; 4] = [0.0, 1.0, 2.0, 3.0];
        let single = agglomerate_with(4, |i, j| (coords[i] - coords[j]).abs(), Linkage::Single);
        assert!(single
            .merges
            .iter()
            .all(|m| (m.distance - 1.0).abs() < 1e-9));
        let complete = agglomerate_with(4, |i, j| (coords[i] - coords[j]).abs(), Linkage::Complete);
        assert!(complete.merges.last().unwrap().distance > 1.0);
    }

    #[test]
    fn average_linkage_between_single_and_complete() {
        let coords: [f64; 5] = [0.0, 0.8, 2.5, 6.0, 6.4];
        let d = |i: usize, j: usize| (coords[i] - coords[j]).abs();
        let single = agglomerate_with(5, d, Linkage::Single);
        let average = agglomerate_with(5, d, Linkage::Average);
        let complete = agglomerate_with(5, d, Linkage::Complete);
        let last = |dd: &Dendrogram| dd.merges.last().unwrap().distance;
        assert!(last(&single) <= last(&average) + 1e-9);
        assert!(last(&average) <= last(&complete) + 1e-9);
    }

    #[test]
    fn default_linkage_is_complete() {
        let coords: [f64; 3] = [0.0, 1.0, 5.0];
        let d = |i: usize, j: usize| (coords[i] - coords[j]).abs();
        assert_eq!(agglomerate(3, d), agglomerate_with(3, d, Linkage::Complete));
    }

    #[test]
    fn ascii_render_contains_all_leaves() {
        let d = agglomerate(3, line_dist);
        let s = d.render_ascii(|i| format!("leaf{i}"));
        for i in 0..3 {
            assert!(s.contains(&format!("leaf{i}")), "{s}");
        }
        assert!(s.contains("[d="));
    }
}
