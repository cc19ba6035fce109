//! Warm (incremental) distance-matrix construction.
//!
//! A warm re-cluster has most of its pairwise distances already on
//! disk: only pairs involving a change *new* to the corpus need a real
//! [`usage_dist`](crate::usage_dist) evaluation. [`matrix_from_prior`]
//! takes the prior cells as a condensed vector with `NaN` marking the
//! missing (new-row / new-column) slots, fills exactly those slots from
//! the distance function, and reports which cells it computed so the
//! caller can persist them for the next run.
//!
//! `NaN` is a safe "missing" sentinel here because every distance in
//! the pipeline is a finite value in `[0, 1]` ([`usage_dist`] is a
//! normalized dissimilarity); `dist` must never return `NaN`.
//!
//! Because an `f64` round-trips bit-exactly through persistence (the
//! cache stores the raw `to_le_bytes` of `to_bits`), a matrix built
//! from prior cells is **bit-identical** to one computed cold — which
//! is what lets the warm clustering path promise byte-identical output
//! (see `tests/cluster_cache.rs`).

use crate::matrix::{condensed_cells, condensed_index, DistanceMatrix, MatrixError};

/// A [`DistanceMatrix`] built warm, plus the reuse accounting the
/// caller needs for cache persistence and hit-rate metrics.
#[derive(Debug)]
pub struct WarmMatrix {
    /// The complete matrix — bit-identical to a cold
    /// [`DistanceMatrix::from_fn`] build over the same items.
    pub matrix: DistanceMatrix,
    /// Number of cells taken from the prior (cache hits).
    pub reused: usize,
    /// The freshly computed cells as `(i, j, distance)` with `i < j` —
    /// exactly the slots that were `NaN` in the prior, in condensed
    /// (row-major) order. The caller persists these.
    pub computed: Vec<(usize, usize, f64)>,
}

/// Builds the condensed distance matrix for `n` items, reusing every
/// finite cell of `prior` and calling `dist` only for the `NaN` slots.
/// `prior` must be a condensed upper triangle of length `n·(n−1)/2`
/// (pass all-`NaN` for a cold build — the result is then identical to
/// [`DistanceMatrix::from_fn`]).
///
/// # Errors
///
/// [`MatrixError::SizeOverflow`] if the condensed length overflows
/// `usize`, [`MatrixError::CellBudgetExceeded`] if it exceeds
/// `max_cells`; both are checked before any distance is evaluated.
///
/// # Panics
///
/// If `prior.len()` is not the condensed length for `n`.
pub fn matrix_from_prior(
    n: usize,
    prior: &[f64],
    max_cells: Option<usize>,
    dist: impl Fn(usize, usize) -> f64 + Sync,
) -> Result<WarmMatrix, MatrixError> {
    // Validate the size before touching `prior`, so oversized inputs
    // get the typed error rather than an assert.
    let cells = condensed_cells(n);
    if let Some(budget) = max_cells {
        if cells > budget as u128 {
            return Err(MatrixError::CellBudgetExceeded { n, cells, budget });
        }
    }
    let len = usize::try_from(cells).map_err(|_| MatrixError::SizeOverflow { n })?;
    assert_eq!(prior.len(), len, "prior condensed length for n={n}");

    let matrix = DistanceMatrix::try_from_fn(n, max_cells, |i, j| {
        let cell = prior[condensed_index(n, i, j)];
        if cell.is_nan() {
            dist(i, j)
        } else {
            cell
        }
    })?;

    // Account for reuse after the (parallel) fill: a slot was a hit
    // exactly when the prior held a real value.
    let mut reused = 0usize;
    let mut computed = Vec::new();
    let filled = matrix.condensed();
    let mut k = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            if prior[k].is_nan() {
                computed.push((i, j, filled[k]));
            } else {
                reused += 1;
            }
            k += 1;
        }
    }
    Ok(WarmMatrix {
        matrix,
        reused,
        computed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn dist(i: usize, j: usize) -> f64 {
        ((i * 31 + j * 17) % 101) as f64 / 101.0
    }

    #[test]
    fn all_nan_prior_reproduces_the_cold_build() {
        let n = 150; // large enough to exercise the threaded fill
        let prior = vec![f64::NAN; n * (n - 1) / 2];
        let warm = matrix_from_prior(n, &prior, None, dist).unwrap();
        let cold = DistanceMatrix::from_fn(n, dist);
        assert_eq!(warm.matrix, cold);
        assert_eq!(warm.reused, 0);
        assert_eq!(warm.computed.len(), prior.len());
    }

    #[test]
    fn computes_exactly_the_missing_cells() {
        // Simulate corpus growth: the first `old` items have persisted
        // distances, items old..n are new.
        let (old, n) = (40, 45);
        let cold = DistanceMatrix::from_fn(n, dist);
        let mut prior = cold.condensed().to_vec();
        let mut expected_misses = 0usize;
        let mut k = 0usize;
        for i in 0..n {
            for j in i + 1..n {
                if j >= old {
                    prior[k] = f64::NAN;
                    expected_misses += 1;
                }
                k += 1;
            }
        }
        let calls = AtomicUsize::new(0);
        let warm = matrix_from_prior(n, &prior, None, |i, j| {
            calls.fetch_add(1, Ordering::Relaxed);
            dist(i, j)
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), expected_misses);
        assert_eq!(warm.matrix, cold, "warm fill is bit-identical to cold");
        assert_eq!(warm.reused, prior.len() - expected_misses);
        assert_eq!(warm.computed.len(), expected_misses);
        for &(i, j, d) in &warm.computed {
            assert!(j >= old, "({i},{j}) was not a missing cell");
            assert_eq!(d, dist(i, j));
        }
    }

    #[test]
    fn propagates_the_cell_budget() {
        let prior = vec![f64::NAN; 15];
        let err = matrix_from_prior(6, &prior, Some(10), |_, _| 0.0).unwrap_err();
        assert_eq!(
            err,
            MatrixError::CellBudgetExceeded {
                n: 6,
                cells: 15,
                budget: 10
            }
        );
    }

    #[test]
    #[should_panic(expected = "prior condensed length")]
    fn rejects_a_mismatched_prior() {
        let _ = matrix_from_prior(6, &[f64::NAN; 10], None, |_, _| 0.0);
    }
}
