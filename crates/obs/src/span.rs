//! The open-span token of [`crate::Recorder`], and duration rendering.

use crate::trace::SpanId;
use std::time::Instant;

/// An open span: what [`crate::Recorder::begin`] returns and
/// [`crate::Recorder::end`] takes. Ending it records its duration in the
/// span name's histogram and, on a traced recorder, closes its trace
/// span. A token dropped without `end` (a panic unwound past it)
/// records nothing.
#[must_use = "a span records nothing until it is passed to `Recorder::end`"]
#[derive(Debug)]
pub struct Span {
    pub(crate) name: &'static str,
    pub(crate) start: Instant,
    pub(crate) id: SpanId,
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
    use crate::Histogram;

    // A span's one aggregate is its histogram: exact count, sum, min
    // and max beside the buckets.
    #[test]
    fn record_tracks_min_max_sum() {
        let mut s = Histogram::new();
        s.record(30);
        s.record(10);
        s.record(20);
        assert_eq!(s.count(), 3);
        assert_eq!(s.min_ns(), 10);
        assert_eq!(s.max_ns(), 30);
        assert_eq!(s.sum_ns(), 60);
        assert_eq!(s.mean_ns(), 20);
        assert!(s.is_consistent());
    }

    #[test]
    fn absorb_merges_and_handles_empty_sides() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.record(5);
        b.record(15);
        a.merge(&b);
        assert_eq!(a, b, "absorbing into empty copies");
        let mut c = Histogram::new();
        c.record(100);
        a.merge(&c);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min_ns(), 5);
        assert_eq!(a.max_ns(), 100);
        assert_eq!(a.sum_ns(), 120);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before, "absorbing empty is a no-op");
        assert!(a.is_consistent());
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
