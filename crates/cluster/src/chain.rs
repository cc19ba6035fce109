//! Nearest-neighbor-chain agglomeration (Murtagh's NN-chain) over a
//! shared [`DistanceMatrix`], with Lance–Williams distance updates.
//!
//! The naive agglomeration loop ([`crate::agglomerate_naive`]) scans
//! every active pair every round and recomputes cluster-to-cluster
//! distances from leaf members, which is O(n³) pair scans and up to
//! O(n⁴) leaf-distance lookups. The chain algorithm exploits the
//! *reducibility* of complete, single, and average linkage (merging two
//! clusters never brings either closer to a third) to find reciprocal
//! nearest neighbors by walking NN pointers, and maintains
//! cluster-to-cluster distances incrementally with the Lance–Williams
//! update — O(n²) time and memory for all three [`Linkage`] variants.
//!
//! Reciprocal-NN merges are discovered out of height order, so a
//! SciPy-style post-pass ([`relabel`]) restores the dendrogram
//! contract: merges are sorted by height and node id `n + k` is
//! assigned to the k-th emitted merge. Tie-breaking is aligned with
//! the naive loop's "smallest node-id pair" rule at both stages:
//!
//! * during discovery, the chain restarts at the active cluster with
//!   the smallest (eventual) node id and the NN scan resolves
//!   epsilon-ties toward the smallest id — the relative id order of two
//!   live clusters is approximated mid-run (leaves by slot id before
//!   merged clusters by `(height, discovery)`), even though the ids
//!   themselves are not known; the chain predecessor wins its tie,
//!   which is what guarantees termination;
//! * during relabeling, merges with exactly equal heights are emitted
//!   in the naive scan's order: repeatedly pick, among merges whose
//!   operand clusters both exist already, the lexicographically
//!   smallest `(left, right)` node-id pair.
//!
//! # How exactly this matches the naive reference
//!
//! On generic-position inputs — no two pairwise distances exactly
//! equal — the chain reproduces [`crate::agglomerate_naive`] exactly at
//! every size: same merges, same node ids, same heights. Under exact
//! ties it is still deterministic, and the alignment above makes it
//! reproduce the reference on every input small enough to check
//! exhaustively (all 4-level 1-D grids with n ≤ 5, all quarter-step
//! quantized dissimilarity matrices with n ≤ 3). It is *not* a full
//! guarantee: when several exactly-equal merge heights form a tangle
//! whose candidate pairs share operands, the naive global scan breaks
//! the tie using final node ids of merges the chain has not discovered
//! yet — information no O(n²) chain walk can have — and the two may
//! resolve the tangle into different, equally valid trees (SciPy and
//! fastcluster make no tie-order promise at all for the same reason).
//! The equivalence property tests in `tests/nn_chain_equivalence.rs`
//! pin down both sides of this boundary: exact equivalence on
//! generic-position and exhaustively-enumerated small inputs, and
//! independent validity against the linkage definition everywhere else.

use crate::hierarchy::{Dendrogram, Linkage, Merge, TIE_EPS};
use crate::matrix::{condensed_index, DistanceMatrix};

/// One operand of a discovered merge: the cluster's identity at
/// discovery time, independent of the slot that hosted it.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// An original item.
    Leaf(usize),
    /// The cluster created by the merge at this discovery index.
    Merged(usize),
}

/// Runs NN-chain agglomeration over a precomputed distance matrix.
///
/// Produces the same dendrogram as [`crate::agglomerate_naive`] on the
/// same distances — same merges, same node ids, same heights — in
/// O(n²) instead of O(n³) and without re-evaluating any pairwise
/// distance. See the module docs for the exact scope of that
/// equivalence under tied distances.
pub(crate) fn nn_chain(matrix: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
    let n = matrix.len();
    if n == 0 {
        return Dendrogram::default();
    }
    // Working cluster-to-cluster distances between *slots*. Slot `s`
    // starts as leaf `s`; a merge keeps the smaller slot as host, so a
    // cluster hosted at slot `s` always contains leaf `s` (which makes
    // slots usable as union-find representatives during relabeling).
    let mut work = matrix.condensed().to_vec();
    let mut size = vec![1usize; n];
    let mut active: Vec<usize> = (0..n).collect();
    // The naive loop breaks distance ties by smallest node-id pair,
    // where node ids are assigned in merge (= height) order. Merges
    // are discovered out of height order here, so a cluster's final
    // node id is unknown mid-run — but the *relative* id order of any
    // two live clusters can be approximated: leaves (id < n) sort
    // before merged clusters and among themselves by slot id, and
    // merged clusters sort by (height, discovery index). Heights are
    // final; the discovery-index component is a stand-in for the
    // relabeling pass's within-equal-height emission order, which is
    // exact except on adversarial tie tangles (see module docs). That
    // key is what every tie-break below compares.
    let mut merge_key: Vec<Option<(f64, usize)>> = vec![None; n];
    let id_order = |merge_key: &[Option<(f64, usize)>], a: usize, b: usize| -> std::cmp::Ordering {
        match (merge_key[a], merge_key[b]) {
            (None, None) => a.cmp(&b),
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (Some(ka), Some(kb)) => {
                ka.0.partial_cmp(&kb.0)
                    .expect("finite heights")
                    .then(ka.1.cmp(&kb.1))
            }
        }
    };

    // Cluster identity currently hosted at each slot, for recording
    // merge operands independent of slot reuse.
    let mut cluster_of: Vec<Op> = (0..n).map(Op::Leaf).collect();

    let mut raw: Vec<(Op, Op, f64)> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    let wd = |work: &[f64], a: usize, b: usize| -> f64 {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        work[condensed_index(n, a, b)]
    };

    while raw.len() + 1 < n {
        if chain.is_empty() {
            // Restart at the cluster with the smallest node id, like
            // the naive loop's scan does.
            let start = active
                .iter()
                .copied()
                .min_by(|&a, &b| id_order(&merge_key, a, b))
                .expect("non-empty active set");
            chain.push(start);
        }
        loop {
            let head = *chain.last().expect("chain non-empty");
            let prev = chain.len().checked_sub(2).map(|i| chain[i]);
            // Nearest neighbor of `head`; among tie-epsilon-equal
            // candidates the smallest node id wins, mirroring the
            // naive loop's first-scanned-pair rule.
            let mut best: Option<(f64, usize)> = None;
            for &c in &active {
                if c == head {
                    continue;
                }
                let d = wd(&work, head, c);
                let wins = match best {
                    None => true,
                    Some((bd, bc)) => {
                        d < bd - TIE_EPS
                            || (d <= bd + TIE_EPS
                                && id_order(&merge_key, c, bc) == std::cmp::Ordering::Less)
                    }
                };
                if wins {
                    best = Some((d, c));
                }
            }
            let (best_d, mut nn) = best.expect("at least two active clusters");
            // The predecessor wins ties: reciprocity is then immediate
            // and the chain's head distances strictly decrease, which
            // is what terminates the walk.
            if let Some(p) = prev {
                let dp = wd(&work, head, p);
                if dp <= best_d + TIE_EPS {
                    nn = p;
                }
            }
            if Some(nn) != prev {
                chain.push(nn);
                continue;
            }
            // Reciprocal nearest neighbors: merge `head` and `nn`.
            let height = wd(&work, head, nn);
            chain.truncate(chain.len() - 2);
            let (host, dead) = if head < nn { (head, nn) } else { (nn, head) };
            raw.push((cluster_of[host], cluster_of[dead], height));
            // Lance–Williams update of every surviving distance.
            let (sh, sd) = (size[host] as f64, size[dead] as f64);
            for &c in &active {
                if c == host || c == dead {
                    continue;
                }
                let dh = wd(&work, host, c);
                let dd = wd(&work, dead, c);
                let merged = match linkage {
                    Linkage::Complete => dh.max(dd),
                    Linkage::Single => dh.min(dd),
                    Linkage::Average => (sh * dh + sd * dd) / (sh + sd),
                };
                let (a, b) = if host < c { (host, c) } else { (c, host) };
                work[condensed_index(n, a, b)] = merged;
            }
            size[host] += size[dead];
            merge_key[host] = Some((height, raw.len() - 1));
            cluster_of[host] = Op::Merged(raw.len() - 1);
            active.retain(|&s| s != host && s != dead);
            active.push(host);
            break;
        }
    }

    relabel(n, raw)
}

/// Orders the discovered merges by height and assigns final node ids
/// (merge `k` creates node `n + k`). Within a run of exactly equal
/// heights the naive loop's order is reproduced: repeatedly emit,
/// among the merges whose operand clusters both already exist, the one
/// with the lexicographically smallest `(left, right)` node-id pair —
/// that is the first pair the naive scan over its id-sorted active
/// list would keep.
fn relabel(n: usize, raw: Vec<(Op, Op, f64)>) -> Dendrogram {
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&x, &y| raw[x].2.partial_cmp(&raw[y].2).expect("finite distances"));

    // Final node id of each discovered merge, filled as merges are
    // emitted.
    let mut node_id: Vec<Option<usize>> = vec![None; raw.len()];
    let resolve = |node_id: &[Option<usize>], op: Op| -> Option<usize> {
        match op {
            Op::Leaf(item) => Some(item),
            Op::Merged(disc) => node_id[disc],
        }
    };

    let mut merges: Vec<Merge> = Vec::with_capacity(raw.len());
    let mut run_start = 0;
    while run_start < order.len() {
        let height = raw[order[run_start]].2;
        let mut run_end = run_start + 1;
        while run_end < order.len() && raw[order[run_end]].2 == height {
            run_end += 1;
        }
        let mut pending: Vec<usize> = order[run_start..run_end].to_vec();
        while !pending.is_empty() {
            let mut best: Option<(usize, usize, usize)> = None; // (left, right, pos)
            for (pos, &disc) in pending.iter().enumerate() {
                let (a, b, _) = raw[disc];
                if let (Some(ia), Some(ib)) = (resolve(&node_id, a), resolve(&node_id, b)) {
                    let (lo, hi) = (ia.min(ib), ia.max(ib));
                    if best.is_none_or(|(bl, br, _)| (lo, hi) < (bl, br)) {
                        best = Some((lo, hi, pos));
                    }
                }
            }
            // Dependencies point at equal-or-lower heights (reducible
            // linkages cannot invert), so some merge is always ready.
            let (left, right, pos) = best.expect("a ready merge exists within every height run");
            let disc = pending.swap_remove(pos);
            node_id[disc] = Some(n + merges.len());
            merges.push(Merge {
                left,
                right,
                distance: height,
            });
        }
        run_start = run_end;
    }
    Dendrogram {
        n_leaves: n,
        merges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::agglomerate_naive;

    fn matrix_of(coords: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(coords.len(), |i, j| (coords[i] - coords[j]).abs())
    }

    #[test]
    fn empty_singleton_and_pair() {
        let empty = nn_chain(&DistanceMatrix::from_fn(0, |_, _| 0.0), Linkage::Complete);
        assert_eq!(empty.n_leaves, 0);
        assert!(empty.merges.is_empty());

        let one = nn_chain(&DistanceMatrix::from_fn(1, |_, _| 0.0), Linkage::Complete);
        assert_eq!(one.n_leaves, 1);
        assert!(one.merges.is_empty());

        let two = nn_chain(&matrix_of(&[0.0, 2.5]), Linkage::Complete);
        assert_eq!(
            two.merges,
            vec![Merge {
                left: 0,
                right: 1,
                distance: 2.5
            }]
        );
    }

    #[test]
    fn matches_naive_on_well_separated_groups() {
        let coords = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0];
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let fast = nn_chain(&matrix_of(&coords), linkage);
            let naive =
                agglomerate_naive(coords.len(), |i, j| (coords[i] - coords[j]).abs(), linkage);
            assert_eq!(fast, naive, "{linkage:?}");
        }
    }

    #[test]
    fn matches_naive_on_exact_ties() {
        // Unit-gap chain: every single-linkage merge is a height tie.
        let coords = [0.0, 1.0, 2.0, 3.0, 4.0];
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let fast = nn_chain(&matrix_of(&coords), linkage);
            let naive =
                agglomerate_naive(coords.len(), |i, j| (coords[i] - coords[j]).abs(), linkage);
            assert_eq!(fast, naive, "{linkage:?}");
        }
    }

    #[test]
    fn matches_naive_on_duplicates() {
        // Duplicate points: zero-distance ties, the common case for
        // identical usage changes.
        let coords = [0.0, 0.0, 0.0, 5.0, 5.0, 9.0];
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let fast = nn_chain(&matrix_of(&coords), linkage);
            let naive =
                agglomerate_naive(coords.len(), |i, j| (coords[i] - coords[j]).abs(), linkage);
            assert_eq!(fast, naive, "{linkage:?}");
        }
    }

    #[test]
    fn mutually_equidistant_triple() {
        // d(A,B) = d(B,C) = 1, d(A,C) = 2: complete linkage's result
        // depends entirely on the tie-break; the naive rule merges the
        // lexicographically smallest pair (0, 1) first.
        let m = DistanceMatrix::from_condensed(3, vec![1.0, 2.0, 1.0]);
        let fast = nn_chain(&m, Linkage::Complete);
        assert_eq!(
            fast.merges[0],
            Merge {
                left: 0,
                right: 1,
                distance: 1.0
            }
        );
        assert_eq!(
            fast.merges[1],
            Merge {
                left: 2,
                right: 3,
                distance: 2.0
            }
        );
    }

    #[test]
    fn heights_are_monotone_for_reducible_linkages() {
        let coords = [4.2, 0.1, 7.7, 3.3, 9.0, 0.2, 5.5, 6.1];
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let d = nn_chain(&matrix_of(&coords), linkage);
            for w in d.merges.windows(2) {
                assert!(w[0].distance <= w[1].distance + 1e-9, "{linkage:?}");
            }
        }
    }
}
