//! A shared, condensed pairwise distance matrix.
//!
//! The clustering pipeline evaluates `usage_dist` O(n²) times to build
//! the leaf-distance matrix, and the distance itself is expensive (a
//! Hungarian assignment over Levenshtein label similarities). This
//! module computes the matrix **once**, in parallel, and hands it to
//! agglomeration ([`crate::agglomerate_matrix`]), silhouette selection
//! ([`crate::Dendrogram::best_cut`]), and the benches — so no stage
//! ever re-evaluates a pairwise distance.
//!
//! Storage is the condensed upper triangle (`n·(n−1)/2` values, row
//! major, `i < j`), the same layout SciPy's `pdist` uses: half the
//! memory of a square matrix and cache-friendly row scans.

/// Why a [`DistanceMatrix`] could not be built: the size arithmetic
/// itself is the enforcement point for the clustering memory bound, so
/// both failure modes are typed instead of wrapping or aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// `n·(n−1)/2` does not fit in `usize`, so the condensed buffer is
    /// not even addressable. (Computed in `u128`; the old `usize`
    /// multiply would silently wrap here.)
    SizeOverflow {
        /// The offending item count.
        n: usize,
    },
    /// The matrix is addressable but larger than the caller's cell
    /// budget.
    CellBudgetExceeded {
        /// The offending item count.
        n: usize,
        /// Exact cell count `n·(n−1)/2`.
        cells: u128,
        /// The configured budget the count exceeded.
        budget: usize,
    },
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::SizeOverflow { n } => {
                write!(f, "condensed distance matrix for {n} items overflows usize")
            }
            MatrixError::CellBudgetExceeded { n, cells, budget } => write!(
                f,
                "distance matrix for {n} items needs {cells} cells, over the budget of {budget}"
            ),
        }
    }
}

impl std::error::Error for MatrixError {}

/// A symmetric pairwise distance matrix over `n` items with zero
/// diagonal, stored as the condensed upper triangle.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DistanceMatrix {
    n: usize,
    /// Condensed upper triangle: entry `(i, j)` with `i < j` lives at
    /// `i·n − i·(i+1)/2 + (j − i − 1)`.
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes all `n·(n−1)/2` pairwise distances, in parallel across
    /// the available cores via scoped threads. `dist` is called exactly
    /// once per unordered pair `{i, j}`, `i < j`, and must be
    /// symmetric; the diagonal is implicitly zero.
    ///
    /// # Panics
    ///
    /// If `n·(n−1)/2` overflows `usize`.
    pub fn from_fn(n: usize, dist: impl Fn(usize, usize) -> f64 + Sync) -> Self {
        DistanceMatrix::try_from_fn(n, None, dist).expect("condensed matrix size overflows usize")
    }

    /// [`DistanceMatrix::from_fn`] with typed failure: refuses (instead
    /// of wrapping or aborting) when the condensed length `n·(n−1)/2`
    /// overflows `usize`, or when it exceeds `max_cells` — the
    /// enforcement point for the clustering memory bound. Each cell is
    /// 8 bytes, so a budget of `N` cells caps the allocation at `8·N`
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`MatrixError::SizeOverflow`] or [`MatrixError::CellBudgetExceeded`].
    pub(crate) fn try_from_fn(
        n: usize,
        max_cells: Option<usize>,
        dist: impl Fn(usize, usize) -> f64 + Sync,
    ) -> Result<Self, MatrixError> {
        let cells = condensed_cells(n);
        if let Some(budget) = max_cells {
            if cells > budget as u128 {
                return Err(MatrixError::CellBudgetExceeded { n, cells, budget });
            }
        }
        let len = usize::try_from(cells).map_err(|_| MatrixError::SizeOverflow { n })?;
        let mut data = vec![0.0f64; len];
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        // Serial fallback: one core, or a matrix too small to be worth
        // the spawn overhead.
        if threads < 2 || n < 128 {
            let mut idx = 0;
            for i in 0..n {
                for j in i + 1..n {
                    data[idx] = dist(i, j);
                    idx += 1;
                }
            }
            return Ok(DistanceMatrix { n, data });
        }
        // Split the condensed buffer into per-row slices (disjoint, so
        // the borrows check), then deal rows to workers round-robin:
        // row i has n−1−i entries, and interleaving short and long rows
        // balances total work per thread without a scheduler.
        let mut buckets: Vec<Vec<(usize, &mut [f64])>> = (0..threads)
            .map(|_| Vec::with_capacity(n / threads + 1))
            .collect();
        let mut rest = data.as_mut_slice();
        for i in 0..n {
            let (row, tail) = rest.split_at_mut(n - 1 - i);
            buckets[i % threads].push((i, row));
            rest = tail;
        }
        std::thread::scope(|scope| {
            for bucket in buckets {
                scope.spawn(|| {
                    for (i, row) in bucket {
                        for (offset, slot) in row.iter_mut().enumerate() {
                            *slot = dist(i, i + 1 + offset);
                        }
                    }
                });
            }
        });
        Ok(DistanceMatrix { n, data })
    }

    /// Wraps an already-condensed distance vector (length must be
    /// `n·(n−1)/2`).
    ///
    /// # Panics
    ///
    /// If the length does not match `n`.
    pub fn from_condensed(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), condensed_len(n), "condensed length for n={n}");
        DistanceMatrix { n, data }
    }

    /// Number of items (leaves) the matrix covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers zero items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distance between items `i` and `j` (zero on the diagonal).
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        self.data[condensed_index(self.n, i, j)]
    }

    /// The condensed upper triangle, row major, `i < j`.
    #[must_use]
    pub(crate) fn condensed(&self) -> &[f64] {
        &self.data
    }
}

/// Exact cell count of the condensed form for `n` items,
/// `n·(n−1)/2`, computed in `u128` so it can never wrap. (`u128` holds
/// the product for any `usize` `n`: the factors are < 2⁶⁴ each.)
#[must_use]
pub(crate) fn condensed_cells(n: usize) -> u128 {
    let n = n as u128;
    n * n.saturating_sub(1) / 2
}

/// Length of the condensed form for `n` items, for contexts that have
/// already validated the size (indexing an existing buffer).
///
/// # Panics
///
/// If the count overflows `usize` — [`DistanceMatrix::try_from_fn`] is
/// the checked entry point.
pub(crate) fn condensed_len(n: usize) -> usize {
    usize::try_from(condensed_cells(n)).expect("condensed length overflows usize")
}

/// Condensed offset of pair `(i, j)` with `i < j`.
pub(crate) fn condensed_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn condensed_indexing_is_bijective() {
        for n in 0..12 {
            let mut seen = vec![false; condensed_len(n)];
            for i in 0..n {
                for j in i + 1..n {
                    let k = condensed_index(n, i, j);
                    assert!(!seen[k], "({i},{j}) collides at {k}");
                    seen[k] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "n={n} leaves gaps");
        }
    }

    #[test]
    fn get_is_symmetric_with_zero_diagonal() {
        let m = DistanceMatrix::from_fn(5, |i, j| (i * 10 + j) as f64);
        for i in 0..5 {
            assert_eq!(m.get(i, i), 0.0);
            for j in i + 1..5 {
                assert_eq!(m.get(i, j), (i * 10 + j) as f64);
                assert_eq!(m.get(j, i), m.get(i, j));
            }
        }
    }

    #[test]
    fn evaluates_each_pair_exactly_once() {
        // Both the serial path (small n) and the threaded path (large
        // n) must call `dist` exactly n·(n−1)/2 times.
        for n in [0, 1, 2, 40, 200] {
            let calls = AtomicUsize::new(0);
            let m = DistanceMatrix::from_fn(n, |i, j| {
                calls.fetch_add(1, Ordering::Relaxed);
                (i + j) as f64
            });
            assert_eq!(calls.load(Ordering::Relaxed), condensed_len(n), "n={n}");
            assert_eq!(m.len(), n);
            if n > 1 {
                assert_eq!(m.get(n - 2, n - 1), (2 * n - 3) as f64);
            }
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        // from_fn picks the threaded path at n ≥ 128 when cores allow;
        // the result must be identical to a serial fill either way.
        let n = 150;
        let dist = |i: usize, j: usize| ((i * 31 + j * 17) % 101) as f64 / 101.0;
        let m = DistanceMatrix::from_fn(n, dist);
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(m.get(i, j), dist(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn from_condensed_round_trips() {
        let m = DistanceMatrix::from_fn(6, |i, j| (i + j) as f64);
        let again = DistanceMatrix::from_condensed(6, m.condensed().to_vec());
        assert_eq!(m, again);
    }

    #[test]
    #[should_panic(expected = "condensed length")]
    fn from_condensed_rejects_bad_length() {
        let _ = DistanceMatrix::from_condensed(4, vec![0.0; 5]);
    }

    #[test]
    fn condensed_cells_is_exact_at_wrapping_sizes() {
        // Small sizes: matches the closed form.
        for (n, want) in [(0u128, 0u128), (1, 0), (2, 1), (5, 10), (2000, 1_999_000)] {
            assert_eq!(condensed_cells(n as usize), want, "n={n}");
        }
        // The old `usize` formula wraps for n ≥ 2³³ on 64-bit targets
        // (the multiply exceeds 2⁶⁴); the u128 count stays exact.
        #[cfg(target_pointer_width = "64")]
        {
            let n: usize = 1 << 33;
            let exact = (n as u128) * ((n as u128) - 1) / 2;
            assert_eq!(condensed_cells(n), exact);
            assert!(exact > u64::MAX as u128 / 2, "sanity: past the wrap point");
            let wrapped = (n.wrapping_mul(n - 1)) / 2;
            assert_ne!(wrapped as u128, exact, "usize arithmetic would wrap");
        }
        assert_eq!(
            condensed_cells(usize::MAX),
            (usize::MAX as u128) * (usize::MAX as u128 - 1) / 2
        );
    }

    #[test]
    fn try_from_fn_reports_overflow_as_typed_error() {
        #[cfg(target_pointer_width = "64")]
        let n = 1usize << 33; // n·(n−1)/2 ≈ 2⁶⁵ > usize::MAX
        #[cfg(not(target_pointer_width = "64"))]
        let n = usize::MAX;
        let err = DistanceMatrix::try_from_fn(n, None, |_, _| 0.0).unwrap_err();
        assert_eq!(err, MatrixError::SizeOverflow { n });
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn try_from_fn_enforces_the_cell_budget() {
        // 6 items need 15 cells; a budget of 14 must refuse without
        // evaluating a single distance.
        let calls = AtomicUsize::new(0);
        let err = DistanceMatrix::try_from_fn(6, Some(14), |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            0.0
        })
        .unwrap_err();
        assert_eq!(
            err,
            MatrixError::CellBudgetExceeded {
                n: 6,
                cells: 15,
                budget: 14
            }
        );
        assert_eq!(calls.load(Ordering::Relaxed), 0, "no work past the budget");
        // An exact-fit budget succeeds and matches the unbudgeted build.
        let m = DistanceMatrix::try_from_fn(6, Some(15), |i, j| (i + j) as f64).unwrap();
        assert_eq!(m, DistanceMatrix::from_fn(6, |i, j| (i + j) as f64));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(DistanceMatrix::from_fn(0, |_, _| 1.0).is_empty());
        let one = DistanceMatrix::from_fn(1, |_, _| 1.0);
        assert_eq!(one.len(), 1);
        assert_eq!(one.get(0, 0), 0.0);
        assert!(one.condensed().is_empty());
    }
}
