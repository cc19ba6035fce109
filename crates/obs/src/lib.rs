//! # obs — lightweight pipeline observability
//!
//! A zero-dependency metrics layer for the DiffCode pipeline:
//! monotonic **counters**, wall-clock **timing spans** aggregated as
//! min/max/sum/count ([`SpanStats`]) *and* as log-linear latency
//! **histograms** with p50/p90/p99/p999 quantiles ([`Histogram`]),
//! and labeled **gauges**, all collected into a [`MetricsRegistry`].
//! For per-item audit trails — ordered events, hierarchical spans, one
//! decision record per mined change — see the structured tracing layer
//! ([`TraceSink`]) and its Chrome trace-event exporter (`chrome`).
//! For operational event streams (access logs, lifecycle events) see
//! the JSON-lines structured logger (`log`).
//!
//! Design constraints, in priority order:
//!
//! 1. **Always-on and cheap.** Recording is a `BTreeMap` upsert on an
//!    interned-by-name entry; spans aggregate instead of sampling, so
//!    memory is bounded by the number of distinct names.
//! 2. **Mergeable.** Parallel mining gives each shard its own registry
//!    and [`MetricsRegistry::merge`]s them on join — no locks, no
//!    atomics, no shared state on the hot path.
//! 3. **Reconcilable.** Counters mirror the pipeline's own accounting
//!    ([`check_funnel`]/[`check_partition`] verify the Figure 6 funnel
//!    and the `processed = mined + skipped` partition), so a snapshot
//!    that disagrees with `MiningStats`/`FilterStats` is a bug, not a
//!    rendering choice.
//! 4. **Machine-readable.** [`MetricsRegistry::to_json`] emits a
//!    stable, versioned snapshot (deterministic key order) that CI and
//!    the bench crate consume.
//!
//! # Example
//!
//! ```
//! use obs::MetricsRegistry;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.inc("mine.mined", 3);
//! reg.inc("mine.skipped", 1);
//! reg.inc("mine.code_changes", 4);
//! let total = reg.time("mine.run", || 40 + 2);
//! assert_eq!(total, 42);
//! assert_eq!(reg.counter("mine.mined"), 3);
//! assert!(reg.span("mine.run").is_some());
//! obs::check_partition(&reg, "mine.code_changes", &["mine.mined", "mine.skipped"]).unwrap();
//! ```

#![warn(missing_docs)]

mod chrome;
pub mod hist;
pub mod json;
mod log;
mod prometheus;
mod span;
mod trace;

pub use chrome::{to_chrome_json, to_chrome_json_tail};
pub use hist::Histogram;
pub use log::{EventBuilder, LogFormat, LogLevel, Logger};
pub use prometheus::to_prometheus_text;
pub use span::{fmt_ns, SpanStats, Stopwatch};
pub use trace::{
    AttrSet, NameId, SpanId, TraceConfig, TraceEvent, TraceKind, TraceSink, TraceValue,
};

use std::collections::BTreeMap;
use std::time::Duration;

/// The collection point for one pipeline run (or one shard of it).
///
/// Plain owned data: `Send`, cheap to create per worker, merged on
/// join. Deliberately *not* behind a lock — concurrency is handled by
/// giving each thread its own registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, SpanEntry>,
}

/// One span's aggregate and its latency histogram, stored side by side
/// so the record hot path pays a single map lookup (and a single key
/// allocation on first sight) for both.
#[derive(Debug, Clone, Default, PartialEq)]
struct SpanEntry {
    stats: SpanStats,
    hist: Histogram,
}

impl SpanEntry {
    fn record(&mut self, duration: Duration) {
        self.stats.record(duration);
        self.hist
            .record(duration.as_nanos().min(u64::MAX as u128) as u64);
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    // -- counters ------------------------------------------------------

    /// Adds `delta` to the monotonic counter `name`.
    pub fn inc(&mut self, name: &str, delta: u64) {
        if delta == 0 && !self.counters.contains_key(name) {
            // Materialize the entry so zero-valued stages still appear
            // in snapshots (a funnel stage that filtered everything is
            // a data point, not an absence).
            self.counters.insert(name.to_owned(), 0);
            return;
        }
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in stable (sorted) order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    // -- gauges --------------------------------------------------------

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All gauges in stable (sorted) order.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    // -- spans ---------------------------------------------------------

    /// Folds one measured duration into span `name`: the min/max/sum
    /// aggregate *and* the latency histogram, so every span answers
    /// quantile queries with no extra instrumentation at call sites.
    pub fn record_span(&mut self, name: &str, duration: Duration) {
        // A borrowed lookup first: only a name this registry has never
        // seen pays for an owned key.
        match self.spans.get_mut(name) {
            Some(entry) => entry.record(duration),
            None => self
                .spans
                .entry(name.to_owned())
                .or_default()
                .record(duration),
        }
    }

    /// Times `f` and records the wall-clock duration under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let sw = Stopwatch::start();
        let result = f();
        self.record_span(name, sw.elapsed());
        result
    }

    /// Aggregate for span `name`, if it ever ran.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name).map(|e| &e.stats)
    }

    /// All spans in stable (sorted) order.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &SpanStats)> {
        self.spans.iter().map(|(k, v)| (k.as_str(), &v.stats))
    }

    /// Latency histogram for span `name`, if it ever ran.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.spans.get(name).map(|e| &e.hist)
    }

    // -- aggregation ---------------------------------------------------

    /// Merges `other` into `self`: counters add, spans absorb, gauges
    /// take `other`'s value (last write wins, matching [`Self::set_gauge`]).
    ///
    /// **Gauge determinism.** Counters and spans are commutative and
    /// associative, but gauges make `merge` order-sensitive: the value
    /// that survives is the one from the *last* `merge` call whose
    /// registry carries that gauge. This is a contract, not an
    /// accident — callers that merge shard registries must do so in
    /// shard order (as `mine_parallel`-style orchestrators do, and as
    /// [`TraceSink::absorb`] requires for traces), which makes the
    /// surviving gauge deterministically the highest-numbered shard's.
    /// Merging in any other fixed order is also deterministic, just a
    /// different convention; only a *varying* order (e.g. completion
    /// order) would make snapshots flap.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, span) in &other.spans {
            let entry = self.spans.entry(name.clone()).or_default();
            entry.stats.absorb(&span.stats);
            entry.hist.merge(&span.hist);
        }
    }

    /// Serializes to the stable, versioned JSON snapshot (the [`json`]
    /// schema; deterministic key order).
    pub fn to_json(&self) -> String {
        json::to_json(self)
    }
}

/// Checks that the counters named by `stages` form a non-increasing
/// funnel (`stages[0] ≥ stages[1] ≥ …`), the Figure 6 invariant.
///
/// # Errors
///
/// Names the first adjacent pair that violates the ordering.
pub fn check_funnel(registry: &MetricsRegistry, stages: &[&str]) -> Result<(), String> {
    for pair in stages.windows(2) {
        let (a, b) = (registry.counter(pair[0]), registry.counter(pair[1]));
        if a < b {
            return Err(format!(
                "funnel violated: {} = {a} < {} = {b}",
                pair[0], pair[1]
            ));
        }
    }
    Ok(())
}

/// Checks that counter `total` equals the sum of the `parts` counters —
/// the `processed = mined + skipped` style partition invariant.
///
/// # Errors
///
/// Reports both sides of the failed equality.
pub fn check_partition(
    registry: &MetricsRegistry,
    total: &str,
    parts: &[&str],
) -> Result<(), String> {
    let expected = registry.counter(total);
    let sum: u64 = parts.iter().map(|p| registry.counter(p)).sum();
    if expected != sum {
        return Err(format!(
            "partition violated: {total} = {expected} but {} = {sum}",
            parts.join(" + ")
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.counter("x"), 0);
        reg.inc("x", 2);
        reg.inc("x", 3);
        assert_eq!(reg.counter("x"), 5);
        reg.inc("zero", 0);
        assert!(reg.counters().any(|(n, v)| n == "zero" && v == 0));
    }

    #[test]
    fn time_records_a_span_and_returns_the_value() {
        let mut reg = MetricsRegistry::new();
        let v = reg.time("work", || 7);
        assert_eq!(v, 7);
        let span = reg.span("work").unwrap();
        assert_eq!(span.count, 1);
        assert!(span.is_consistent());
    }

    #[test]
    fn merge_adds_counters_and_absorbs_spans() {
        let mut a = MetricsRegistry::new();
        a.inc("n", 1);
        a.record_span("s", Duration::from_nanos(10));
        a.set_gauge("g", 1.0);
        let mut b = MetricsRegistry::new();
        b.inc("n", 2);
        b.inc("only_b", 4);
        b.record_span("s", Duration::from_nanos(30));
        b.set_gauge("g", 2.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.counter("only_b"), 4);
        assert_eq!(a.gauge("g"), Some(2.0), "gauges: last write wins");
        let s = a.span("s").unwrap();
        assert_eq!((s.count, s.min_ns, s.max_ns, s.sum_ns), (2, 10, 30, 40));
    }

    #[test]
    fn merge_is_associative_on_counters_and_spans() {
        let mk = |n: u64, ns: u64| {
            let mut r = MetricsRegistry::new();
            r.inc("c", n);
            r.record_span("s", Duration::from_nanos(ns));
            r
        };
        let (a, b, c) = (mk(1, 5), mk(2, 50), mk(3, 500));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_gauges_are_last_write_wins_in_merge_order() {
        // Pins the gauge contract documented on `merge`: whichever
        // shard is merged last supplies the surviving value, in either
        // direction — so a caller that fixes the merge order (shard
        // order) gets a deterministic snapshot.
        let mut shard_a = MetricsRegistry::new();
        shard_a.set_gauge("g", 1.0);
        shard_a.inc("n", 1);
        let mut shard_b = MetricsRegistry::new();
        shard_b.set_gauge("g", 2.0);
        shard_b.inc("n", 2);

        let mut ab = MetricsRegistry::new();
        ab.merge(&shard_a);
        ab.merge(&shard_b);
        let mut ba = MetricsRegistry::new();
        ba.merge(&shard_b);
        ba.merge(&shard_a);

        assert_eq!(ab.gauge("g"), Some(2.0), "last merge (b) wins");
        assert_eq!(ba.gauge("g"), Some(1.0), "last merge (a) wins");
        // Counters stay order-independent; only gauges are sensitive.
        assert_eq!(ab.counter("n"), ba.counter("n"));
        // A merge whose registry lacks the gauge leaves it untouched.
        ab.merge(&MetricsRegistry::new());
        assert_eq!(ab.gauge("g"), Some(2.0));
    }

    #[test]
    fn record_span_populates_the_histogram() {
        let mut reg = MetricsRegistry::new();
        for ns in [100u64, 200, 300, 400] {
            reg.record_span("s", Duration::from_nanos(ns));
        }
        let hist = reg.hist("s").expect("histogram recorded alongside span");
        assert_eq!(hist.count(), reg.span("s").unwrap().count);
        assert_eq!(hist.sum_ns(), reg.span("s").unwrap().sum_ns);
        let p50 = hist.quantile(0.5);
        assert!((200..=213).contains(&p50), "p50 = {p50}");

        let mut other = MetricsRegistry::new();
        other.record_span("s", Duration::from_nanos(10_000));
        reg.merge(&other);
        assert_eq!(reg.hist("s").unwrap().count(), 5, "merge merges histograms");
    }

    #[test]
    fn funnel_check_accepts_monotone_and_names_violations() {
        let mut reg = MetricsRegistry::new();
        reg.inc("f.total", 10);
        reg.inc("f.a", 6);
        reg.inc("f.b", 6);
        reg.inc("f.c", 2);
        check_funnel(&reg, &["f.total", "f.a", "f.b", "f.c"]).unwrap();
        reg.inc("f.b", 5);
        let err = check_funnel(&reg, &["f.a", "f.b"]).unwrap_err();
        assert!(err.contains("f.a = 6 < f.b = 11"), "{err}");
    }

    #[test]
    fn partition_check() {
        let mut reg = MetricsRegistry::new();
        reg.inc("total", 5);
        reg.inc("p1", 3);
        reg.inc("p2", 2);
        check_partition(&reg, "total", &["p1", "p2"]).unwrap();
        reg.inc("p2", 1);
        assert!(check_partition(&reg, "total", &["p1", "p2"]).is_err());
    }
}
