//! Wall-clock timing spans with min/max/sum/count aggregation.

use std::time::{Duration, Instant};

/// Aggregated statistics for one named span: how many times it ran and
/// the minimum / maximum / total duration, in nanoseconds.
///
/// Spans never store individual samples, so recording is O(1) and a
/// registry stays small no matter how many times a stage runs (one
/// entry per span *name*, not per call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Number of recorded runs.
    pub count: u64,
    /// Total duration across all runs, ns.
    pub sum_ns: u64,
    /// Shortest run, ns (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest run, ns.
    pub max_ns: u64,
}

impl SpanStats {
    /// Folds one duration into the aggregate.
    pub fn record(&mut self, duration: Duration) {
        let ns = duration.as_nanos().min(u64::MAX as u128) as u64;
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Merges another aggregate into this one (shard join).
    pub(crate) fn absorb(&mut self, other: &SpanStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean duration in nanoseconds (0 when nothing was recorded).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A started wall clock; pairs with [`crate::MetricsRegistry::record_span`]
/// when the closure-based [`crate::MetricsRegistry::time`] does not fit
/// (e.g. the timed region spans several borrows).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Renders a nanosecond duration as a compact human unit
/// (`1.234ms`, `5.6µs`, `890ns`, `2.345s`).
///
/// Values that would *round up to* the next unit's threshold are
/// promoted to that unit (999 999 ns is `1.000ms`, never `1000.0µs`),
/// so the mantissa always stays below 1000 within each unit band.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        return format!("{ns}ns");
    }
    if ns < 1_000_000 {
        let s = format!("{:.1}µs", ns as f64 / 1e3);
        if !s.starts_with("1000") {
            return s;
        }
    }
    if ns < 1_000_000_000 {
        let s = format!("{:.3}ms", ns as f64 / 1e6);
        if !s.starts_with("1000") {
            return s;
        }
    }
    format!("{:.3}s", ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SpanStats {
        /// `true` when the internal ordering invariants hold:
        /// `min ≤ mean ≤ max ≤ sum` for non-empty spans.
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
    fn record_tracks_min_max_sum() {
        let mut s = SpanStats::default();
        s.record(Duration::from_nanos(30));
        s.record(Duration::from_nanos(10));
        s.record(Duration::from_nanos(20));
        assert_eq!(s.count, 3);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.sum_ns, 60);
        assert_eq!(s.mean_ns(), 20);
        assert!(s.is_consistent());
    }

    #[test]
    fn absorb_merges_and_handles_empty_sides() {
        let mut a = SpanStats::default();
        let mut b = SpanStats::default();
        b.record(Duration::from_nanos(5));
        b.record(Duration::from_nanos(15));
        a.absorb(&b);
        assert_eq!(a, b, "absorbing into empty copies");
        let mut c = SpanStats::default();
        c.record(Duration::from_nanos(100));
        a.absorb(&c);
        assert_eq!(a.count, 3);
        assert_eq!(a.min_ns, 5);
        assert_eq!(a.max_ns, 100);
        assert_eq!(a.sum_ns, 120);
        let before = a;
        a.absorb(&SpanStats::default());
        assert_eq!(a, before, "absorbing empty is a no-op");
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(890), "890ns");
        assert_eq!(fmt_ns(5_600), "5.6µs");
        assert_eq!(fmt_ns(1_234_000), "1.234ms");
        assert_eq!(fmt_ns(2_345_000_000), "2.345s");
    }

    #[test]
    fn fmt_ns_edges_zero_and_sub_microsecond() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(1), "1ns");
        assert_eq!(fmt_ns(999), "999ns");
    }

    #[test]
    fn fmt_ns_exact_unit_boundaries() {
        assert_eq!(fmt_ns(1_000), "1.0µs");
        assert_eq!(fmt_ns(1_000_000), "1.000ms");
        assert_eq!(fmt_ns(1_000_000_000), "1.000s");
    }

    #[test]
    fn fmt_ns_rounding_never_overflows_the_unit() {
        // 999 999 ns rounds to 1000.0 in µs — it must render in the
        // next unit up, not as "1000.0µs".
        assert_eq!(fmt_ns(999_999), "1.000ms");
        assert_eq!(fmt_ns(999_950), "1.000ms");
        assert_eq!(fmt_ns(999_949), "999.9µs");
        assert_eq!(fmt_ns(999_999_999), "1.000s");
        assert_eq!(fmt_ns(999_999_499), "999.999ms");
    }

    #[test]
    fn fmt_ns_u64_max_is_finite_seconds() {
        // u64::MAX ns ≈ 584.5 years; just assert it renders in seconds
        // without panicking or losing the unit.
        let s = fmt_ns(u64::MAX);
        assert!(
            s.ends_with('s') && !s.ends_with("ms") && !s.ends_with("ns"),
            "{s}"
        );
        assert_eq!(s, "18446744073.710s");
    }
}
