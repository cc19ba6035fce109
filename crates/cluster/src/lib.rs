//! Filtering-stage distances and hierarchical clustering of semantic
//! usage changes (paper §4.3).
//!
//! The clustering stack is built around a first-class
//! [`DistanceMatrix`]: all `n·(n−1)/2` pairwise [`usage_dist`] values
//! are computed **once**, in parallel, with label similarities
//! memoized through a shared [`LabelCache`]. Agglomeration then runs
//! the O(n²) nearest-neighbor-chain algorithm (Lance–Williams updates;
//! see [`agglomerate_matrix`]) over the matrix, and silhouette-based
//! cut selection ([`Dendrogram::best_cut`]) reuses the same matrix —
//! no stage ever re-evaluates a pairwise distance. The quadratic-scan
//! reference loop survives as `agglomerate_naive` (hidden from these
//! docs; the tests and the clustering bench call it) and the nn-chain
//! is property-tested to reproduce its dendrograms exactly whenever
//! pairwise distances are distinct, and exhaustively on small
//! tie-heavy inputs (see `crate::chain` docs for the precise boundary
//! under adversarial exact ties).
//!
//! # Example
//!
//! ```
//! use cluster::{agglomerate_matrix, usage_dist, usage_distance_matrix, Linkage};
//! use usagegraph::{FeaturePath, Label, UsageChange};
//!
//! fn path(labels: &[&str]) -> FeaturePath {
//!     FeaturePath(labels.iter().copied().map(Label::from).collect())
//! }
//!
//! let ecb_to_cbc = UsageChange {
//!     class: "Cipher".into(),
//!     removed: vec![path(&["Cipher", "getInstance", "arg1:AES/ECB"])],
//!     added: vec![path(&["Cipher", "getInstance", "arg1:AES/CBC"])],
//! };
//! let ecb_to_gcm = UsageChange {
//!     class: "Cipher".into(),
//!     removed: vec![path(&["Cipher", "getInstance", "arg1:AES/ECB"])],
//!     added: vec![path(&["Cipher", "getInstance", "arg1:AES/GCM"])],
//! };
//! assert!(usage_dist(&ecb_to_cbc, &ecb_to_gcm) < 0.2);
//!
//! let matrix = usage_distance_matrix(&[ecb_to_cbc, ecb_to_gcm]);
//! let dendrogram = agglomerate_matrix(&matrix, Linkage::Complete);
//! assert_eq!(dendrogram.merges.len(), 1);
//! ```

#![warn(missing_docs)]

mod cache;
mod chain;
mod dist;
mod hierarchy;
mod incr;
mod lev;
mod matrix;

pub use cache::LabelCache;
pub use dist::{path_dist, paths_dist, usage_dist, usage_dist_cached};
pub use hierarchy::{
    agglomerate, agglomerate_matrix, agglomerate_naive, Dendrogram, Linkage, Merge,
};
pub use incr::{matrix_from_prior, WarmMatrix};
pub use lev::{label_similarity, levenshtein};
pub use matrix::{DistanceMatrix, MatrixError};

use usagegraph::UsageChange;

/// The number of unordered pairs among `n` items, `n·(n−1)/2`,
/// saturating at `u64::MAX`. Computed in `u128` so the multiply cannot
/// wrap for any `usize` input (the old in-`usize` formula silently
/// wrapped the `cluster.pairs` gauge once `n` passed ~2³² on 64-bit).
#[must_use]
pub fn pair_count(n: usize) -> u64 {
    let n = n as u128;
    u64::try_from(n * n.saturating_sub(1) / 2).unwrap_or(u64::MAX)
}

/// Builds the shared pairwise [`usage_dist`] matrix for `changes`:
/// computed in parallel, each pair exactly once, label similarities
/// memoized across the whole build.
pub fn usage_distance_matrix(changes: &[UsageChange]) -> DistanceMatrix {
    let cache = LabelCache::default();
    DistanceMatrix::from_fn(changes.len(), |i, j| {
        usage_dist_cached(&changes[i], &changes[j], &cache)
    })
}

#[cfg(test)]
mod pair_count_tests {
    use super::pair_count;

    #[test]
    fn small_counts_match_the_closed_form() {
        for (n, want) in [(0, 0), (1, 0), (2, 1), (3, 3), (100, 4950)] {
            assert_eq!(pair_count(n), want, "n={n}");
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn does_not_wrap_past_the_usize_multiply_boundary() {
        // n·(n−1) overflows usize here (≈2.5·10¹⁹ > 2⁶⁴) while the
        // pair count itself still fits u64 — exactly the regime where
        // the old in-usize formula silently wrapped the gauge.
        let n = 5_000_000_000usize;
        let wrapped = (n.saturating_sub(1).wrapping_mul(n) / 2) as u64;
        let exact = pair_count(n);
        assert_eq!(exact, ((n as u128) * (n as u128 - 1) / 2) as u64);
        assert_ne!(exact, wrapped, "in-usize arithmetic silently wraps");
        // Beyond u64 pair counts, the gauge saturates instead of wrapping.
        assert_eq!(pair_count(usize::MAX), u64::MAX);
        assert_eq!(pair_count(1 << 33), u64::MAX);
    }
}
