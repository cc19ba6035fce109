//! Log-linear latency histograms with bounded relative error.
//!
//! An HDR-style histogram over `u64` nanosecond values: zero
//! dependencies, plain owned data, per-shard recording merged on join.
//! It is each span's one aggregate: exact count, sum, min and max, plus
//! quantile queries (p50/p90/p99/p999) with a *documented* error bound
//! and cumulative bucket counts for Prometheus.
//!
//! # Bucket layout
//!
//! The layout is **fixed and deterministic** — it never depends on the
//! data, so two histograms over the same sample multiset are
//! bit-identical regardless of recording or merge order, and snapshots
//! diff cleanly across runs.
//!
//! Values are bucketed log-linearly with [`SUB_BUCKETS`] = 16 linear
//! sub-buckets per power-of-two octave:
//!
//! * values `0..16` get exact unit-width buckets (indices `0..16`);
//! * a value `v >= 16` with highest set bit `e` (so `2^e <= v < 2^(e+1)`)
//!   lands in sub-bucket `(v >> (e-4)) - 16` of octave `e - 4`, i.e.
//!   index `16 + (e-4)*16 + sub`. Each octave spans `[2^e, 2^(e+1))` in
//!   16 equal slices of width `2^(e-4)`.
//!
//! The full `u64` range needs at most 976 buckets (16 unit buckets +
//! 60 octaves × 16 sub-buckets); storage grows lazily to the highest
//! bucket actually hit, so a span whose samples sit in the microsecond
//! range costs a few hundred bytes, not 8 KiB.
//!
//! # Error bound
//!
//! [`Histogram::quantile`] returns the *inclusive upper edge* of the
//! bucket holding the requested rank. For the true rank value `x`:
//!
//! * `x < 16` (sub-16ns): the estimate is **exact** (unit buckets);
//! * otherwise the bucket width is `2^(e-4)` while `x >= 2^e`, so
//!   `x <= estimate <= x * (1 + 1/16)` — a one-sided relative error of
//!   at most **6.25%**, never an underestimate.
//!
//! Octave ends are exact: every edge of the form `2^k - 1` is an
//! inclusive bucket upper edge, so cumulative counts at those edges
//! (the Prometheus `EXPOSITION_EDGES`) are exact sample counts.

/// Linear sub-buckets per power-of-two octave (16 → ≤6.25% error).
pub const SUB_BUCKETS: u64 = 16;

/// Canonical `le` edges for Prometheus histogram exposition:
/// `2^k - 1` for `k` in `8..=36` (255 ns up to ~68.7 s), each an exact
/// inclusive bucket upper edge of the log-linear layout. `+Inf` is
/// appended by the exporter.
pub(crate) const EXPOSITION_EDGES: [u64; 29] = {
    let mut edges = [0u64; 29];
    let mut i = 0;
    while i < 29 {
        edges[i] = (1u64 << (i + 8)) - 1;
        i += 1;
    }
    edges
};

/// A mergeable log-linear histogram of `u64` nanosecond samples.
///
/// Equality is structural: two histograms are equal iff they saw the
/// same sample multiset (up to bucketing, with the same exact sum, min
/// and max), independent of recording or merge order — the backing
/// vector grows to exactly the highest hit bucket and counts are never
/// decremented, so no trailing-zero or capacity artifacts leak into
/// `PartialEq`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts, lazily grown; the last element is
    /// always non-zero for a non-empty histogram.
    counts: Vec<u64>,
    count: u64,
    sum_ns: u64,
    /// Exact extremes (0 while empty).
    min_ns: u64,
    max_ns: u64,
}

/// Bucket index for value `v` under the fixed layout.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as u64; // 2^e <= v, e >= 4
    let sub = (v >> (e - 4)) - SUB_BUCKETS;
    (SUB_BUCKETS + (e - 4) * SUB_BUCKETS + sub) as usize
}

/// Inclusive `[lower, upper]` value range of bucket `index`.
///
/// Inverse of [`bucket_index`]: every `v` with
/// `bucket_index(v) == index` satisfies `lower <= v <= upper`.
#[inline]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let i = index as u64;
    if i < 2 * SUB_BUCKETS {
        // Unit-width region: buckets 0..32 hold exactly value `i`
        // (octave 0 also has width 1).
        return (i, i);
    }
    let octave = i / SUB_BUCKETS - 1;
    let sub = i % SUB_BUCKETS;
    let lower = (SUB_BUCKETS + sub) << octave;
    // Width-minus-one first: the last bucket's upper edge is exactly
    // u64::MAX, so `lower + width` would overflow.
    let upper = lower + ((1u64 << octave) - 1);
    (lower, upper)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Folds one nanosecond sample into the histogram.
    pub fn record(&mut self, value_ns: u64) {
        let idx = bucket_index(value_ns);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            (self.min_ns, self.max_ns) = (value_ns, value_ns);
        } else {
            self.min_ns = self.min_ns.min(value_ns);
            self.max_ns = self.max_ns.max(value_ns);
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(value_ns);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples, ns (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Shortest recorded sample, ns (0 when empty).
    pub fn min_ns(&self) -> u64 {
        self.min_ns
    }

    /// Longest recorded sample, ns (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Merges another histogram into this one (shard join).
    ///
    /// Element-wise addition over the fixed layout, so `merge` is
    /// associative and commutative — the property the recorder's
    /// shard-merge discipline relies on (pinned by the proptests in
    /// `tests/hist_properties.rs`).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        if self.count == 0 {
            (self.min_ns, self.max_ns) = (other.min_ns, other.max_ns);
        } else {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the inclusive upper edge of
    /// the bucket holding rank `ceil(q * count)`.
    ///
    /// Never underestimates; overestimates by at most 1/16 (6.25%) —
    /// see the module docs for the derivation. Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_bounds(idx).1;
            }
        }
        // Unreachable: cum reaches self.count by construction.
        bucket_bounds(self.counts.len().saturating_sub(1)).1
    }

    /// Number of samples `<= v`, exact when `v` is an inclusive bucket
    /// upper edge (in particular every [`EXPOSITION_EDGES`] entry),
    /// otherwise rounded down to the nearest edge at or below `v`.
    pub(crate) fn count_le(&self, v: u64) -> u64 {
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if bucket_bounds(idx).1 > v {
                break;
            }
            cum += c;
        }
        cum
    }

    /// Cumulative counts over the non-empty prefix of the layout:
    /// `(upper_edge_ns, samples <= upper_edge)` for every bucket with a
    /// non-zero own count. Deterministic (layout order) and sparse —
    /// the JSON snapshot exports exactly this.
    pub fn cumulative(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cum = 0u64;
        self.counts.iter().enumerate().filter_map(move |(idx, &c)| {
            cum += c;
            (c > 0).then(|| (bucket_bounds(idx).1, cum))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Upper bound on the number of buckets for the full `u64` range:
    /// 16 unit buckets + 60 octaves × 16 sub-buckets.
    const NUM_BUCKETS: usize = 976;

    impl Histogram {
        /// `true` when nothing has been recorded.
        fn is_empty(&self) -> bool {
            self.count == 0
        }

        /// `true` when the exact aggregates agree with each other:
        /// `min ≤ mean ≤ max ≤ sum` for a non-empty histogram, all
        /// zero for an empty one.
        pub(crate) fn is_consistent(&self) -> bool {
            if self.count == 0 {
                self.sum_ns == 0 && self.min_ns == 0 && self.max_ns == 0
            } else {
                self.min_ns <= self.max_ns
                    && self.max_ns <= self.sum_ns
                    && self.min_ns <= self.mean_ns()
                    && self.mean_ns() <= self.max_ns
            }
        }
    }

    #[test]
    fn layout_is_self_inverse_at_boundaries() {
        // Every bucket's bounds map back to the bucket, and adjacent
        // buckets tile the value space with no gaps or overlaps.
        let mut expected_lower = 0u64;
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expected_lower, "bucket {idx} leaves a gap");
            assert!(lo <= hi, "bucket {idx} inverted");
            assert_eq!(bucket_index(lo), idx, "lower bound of {idx}");
            assert_eq!(bucket_index(hi), idx, "upper bound of {idx}");
            if hi == u64::MAX {
                assert_eq!(idx, NUM_BUCKETS - 1, "u64::MAX before the last bucket");
                return;
            }
            expected_lower = hi + 1;
        }
        panic!("layout never reached u64::MAX");
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 1.0] {
            let rank = (q * 32f64).ceil() as u64;
            assert_eq!(h.quantile(q), rank - 1, "q={q}");
        }
    }

    #[test]
    fn quantile_never_underestimates_and_stays_in_bound() {
        let samples: Vec<u64> = (0..2000u64).map(|i| i * i * 37 + 5).collect();
        let mut h = Histogram::new();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = h.quantile(q);
            assert!(est >= exact, "q={q}: {est} < exact {exact}");
            assert!(
                (est as f64) <= (exact as f64) * (1.0 + 1.0 / SUB_BUCKETS as f64),
                "q={q}: {est} above the 6.25% bound over {exact}"
            );
        }
    }

    #[test]
    fn merge_matches_single_recording() {
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..500u64 {
            let v = i * 7919 % 100_000;
            all.record(v);
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        let mut merged_rev = b;
        merged_rev.merge(&a);
        assert_eq!(merged_rev, all, "merge is commutative");
    }

    #[test]
    fn cumulative_is_monotone_and_ends_at_count() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 17, 900, 900, 900, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let buckets: Vec<(u64, u64)> = h.cumulative().collect();
        assert!(!buckets.is_empty());
        let mut last_edge = None;
        let mut last_cum = 0;
        for &(edge, cum) in &buckets {
            assert!(Some(edge) > last_edge, "edges strictly increase");
            assert!(cum > last_cum, "cumulative strictly increases at hits");
            last_edge = Some(edge);
            last_cum = cum;
        }
        assert_eq!(last_cum, h.count());
        assert_eq!(buckets.last().unwrap().0, u64::MAX);
    }

    #[test]
    fn count_le_is_exact_at_exposition_edges() {
        let mut h = Histogram::new();
        let samples: Vec<u64> = (0..3000u64).map(|i| i * 131 + i * i % 4096).collect();
        for &s in &samples {
            h.record(s);
        }
        for &edge in &EXPOSITION_EDGES {
            let exact = samples.iter().filter(|&&s| s <= edge).count() as u64;
            assert_eq!(h.count_le(edge), exact, "le={edge}");
        }
        assert_eq!(h.count_le(u64::MAX), h.count());
    }

    #[test]
    fn exposition_edges_are_bucket_edges() {
        for &edge in &EXPOSITION_EDGES {
            let idx = bucket_index(edge);
            assert_eq!(bucket_bounds(idx).1, edge, "{edge} is not an upper edge");
        }
    }

    #[test]
    fn empty_histogram_is_harmless() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count_le(u64::MAX), 0);
        assert_eq!(h.cumulative().count(), 0);
        let mut other = Histogram::new();
        other.merge(&h);
        assert!(other.is_empty());
        assert!(other.is_consistent());
    }
}
