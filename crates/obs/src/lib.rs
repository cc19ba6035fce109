//! # obs — lightweight pipeline observability
//!
//! A zero-dependency instrumentation layer for the DiffCode pipeline,
//! with one handle: a [`Recorder`] holds monotonic **counters**,
//! labeled **gauges**, one log-linear latency **histogram** per span
//! name (exact count/sum/min/max plus p50/p90/p99/p999 quantiles,
//! [`Histogram`]) and, when tracing is on, the structured **trace**
//! ([`TraceSink`]): ordered events, hierarchical spans, one decision
//! record per mined change, exported by `chrome`. A stage opens one
//! [`Span`] and closes it once; closing records the duration in the
//! span's histogram and, when traced, the trace's begin/end pair.
//! Exporters render what the recorder holds: the JSON snapshot, the
//! Prometheus text, the Chrome trace and, for operational events
//! (access records, lifecycle), the JSON-lines [`Logger`], which
//! writes an event's [`AttrSet`] as one log record.
//!
//! Design constraints, in priority order:
//!
//! 1. **Always-on and cheap.** Recording is a `BTreeMap` update found
//!    by a borrowed-name lookup, so a name already seen allocates
//!    nothing; spans aggregate instead of sampling, so memory is
//!    bounded by the number of distinct names. Trace sampling thins
//!    trace events only, never histogram samples.
//! 2. **Mergeable.** Parallel mining gives each shard its own recorder
//!    ([`Recorder::fork`]) and [`Recorder::merge`]s them on join — no
//!    locks, no atomics, no shared state on the hot path.
//! 3. **Reconcilable.** Counters mirror the pipeline's own accounting
//!    ([`check_funnel`]/[`check_partition`] verify the Figure 6 funnel
//!    and the `processed = mined + skipped` partition), so a snapshot
//!    that disagrees with `MiningStats`/`FilterStats` is a bug, not a
//!    rendering choice.
//! 4. **Machine-readable.** [`Recorder::to_json`] emits a stable,
//!    versioned snapshot (deterministic key order) that CI and the
//!    bench crate consume.
//!
//! # Example
//!
//! ```
//! use obs::Recorder;
//!
//! let mut rec = Recorder::new();
//! rec.inc("mine.mined", 3);
//! rec.inc("mine.skipped", 1);
//! rec.inc("mine.code_changes", 4);
//! let total = rec.time("mine.run", || 40 + 2);
//! assert_eq!(total, 42);
//! assert_eq!(rec.counter("mine.mined"), 3);
//! assert_eq!(rec.span("mine.run").map(|h| h.count()), Some(1));
//! obs::check_partition(&rec, "mine.code_changes", &["mine.mined", "mine.skipped"]).unwrap();
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
pub use log::{LogFormat, LogLevel, Logger};
pub use prometheus::to_prometheus_text;
pub use span::{fmt_ns, Span};
pub use trace::{AttrSet, NameId, SpanId, TraceEvent, TraceKind, TraceSink, TraceValue};

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The one instrumentation handle of a pipeline run (or one shard of
/// it): counters, gauges, one histogram per span name and, when traced,
/// the event trace.
///
/// Plain owned data: `Send`, cheap to create per worker, merged on
/// join. Deliberately *not* behind a lock — concurrency is handled by
/// giving each thread its own recorder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recorder {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, Histogram>,
    trace: Option<TraceSink>,
}

impl Recorder {
    /// An untraced recorder: metrics only.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A recorder that also traces, keeping every `sample`-th span and
    /// instant (clamped to ≥ 1); decisions are always kept.
    pub fn traced(sample: u64) -> Self {
        Recorder {
            trace: Some(TraceSink::new(sample)),
            ..Recorder::default()
        }
    }

    /// An empty recorder that traces exactly when this one does, with
    /// the same sampling — what each worker shard records into before
    /// [`Recorder::merge`] joins it back.
    pub fn fork(&self) -> Self {
        Recorder {
            trace: self.trace.as_ref().map(TraceSink::fork),
            ..Recorder::default()
        }
    }

    /// `true` when this recorder keeps a trace.
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// The event trace, when tracing is on.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// The event trace, mutably (e.g. to bound a long-lived capture
    /// with [`TraceSink::truncate_oldest`]).
    pub fn trace_mut(&mut self) -> Option<&mut TraceSink> {
        self.trace.as_mut()
    }

    // -- counters ------------------------------------------------------

    /// Adds `delta` to the monotonic counter `name`. A zero `delta`
    /// still materializes the counter, so a funnel stage that filtered
    /// everything appears in snapshots as a 0, not as an absence.
    pub fn inc(&mut self, name: &str, delta: u64) {
        // A borrowed lookup first: only a new name pays for its key.
        match self.counters.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
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
        match self.gauges.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.gauges.insert(name.to_owned(), value);
            }
        }
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

    /// Opens span `name`; pass the token to [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str) -> Span {
        self.begin_with(name, |_| {})
    }

    /// [`Recorder::begin`] with trace attributes; the closure only runs
    /// when the recorder traces *and* the span survives sampling.
    pub fn begin_with(&mut self, name: &'static str, fill: impl FnOnce(&mut AttrSet)) -> Span {
        let start = Instant::now();
        let id = match &mut self.trace {
            Some(trace) => trace.begin_at(name, start, fill),
            None => SpanId::ROOT,
        };
        Span { name, start, id }
    }

    /// Closes `span`: its duration goes into the span's histogram
    /// (always — sampling never thins histograms) and, when traced, the
    /// trace closes the span (and any descendant a panic abandoned).
    pub fn end(&mut self, span: Span) {
        let now = Instant::now();
        self.record_span(span.name, now.saturating_duration_since(span.start));
        if let Some(trace) = &mut self.trace {
            trace.end_at(span.id, now);
        }
    }

    /// Runs `f` inside span `name` and returns its value.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let result = f();
        self.end(span);
        result
    }

    /// Folds one duration measured elsewhere (e.g. a request's latency
    /// since its accept) into span `name`'s histogram. Adds no trace
    /// event.
    pub fn record_span(&mut self, name: &str, duration: Duration) {
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        // A borrowed lookup first: only a new name pays for its key.
        match self.spans.get_mut(name) {
            Some(hist) => hist.record(ns),
            None => {
                let mut hist = Histogram::new();
                hist.record(ns);
                self.spans.insert(name.to_owned(), hist);
            }
        }
    }

    /// The histogram of span `name`, if it ever ran.
    pub fn span(&self, name: &str) -> Option<&Histogram> {
        self.spans.get(name)
    }

    /// Every span's histogram in stable (sorted) order.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.spans.iter().map(|(k, v)| (k.as_str(), v))
    }

    // -- trace events --------------------------------------------------

    /// Records a point-in-time trace marker (subject to sampling).
    pub fn instant(&mut self, name: &str) {
        self.instant_with(name, |_| {});
    }

    /// [`Recorder::instant`] with attributes; the closure only runs
    /// when traced and kept by sampling.
    pub fn instant_with(&mut self, name: &str, fill: impl FnOnce(&mut AttrSet)) {
        if let Some(trace) = &mut self.trace {
            trace.instant_with(name, fill);
        }
    }

    /// Records a decision trace event. Decisions carry per-item
    /// provenance and are never sampled out, so per-reason counts
    /// reconcile with the counters at any sampling rate.
    pub fn decision_with(&mut self, name: &str, fill: impl FnOnce(&mut AttrSet)) {
        if let Some(trace) = &mut self.trace {
            trace.decision_with(name, fill);
        }
    }

    // -- aggregation ---------------------------------------------------

    /// Joins a shard's recorder: counters add, histograms merge, gauges
    /// take `other`'s value (last write wins, matching
    /// [`Self::set_gauge`]), and `other`'s trace becomes this trace's
    /// next lane. A shard that traced nothing takes no lane; an
    /// untraced receiver drops the shard's events.
    ///
    /// **Order.** Counters and histograms are commutative and
    /// associative, but gauges and trace lanes make `merge`
    /// order-sensitive: the surviving gauge is the one from the *last*
    /// merge that carries it, and lanes are numbered in merge order.
    /// Callers that merge shards must do so in shard order (as
    /// `mine_parallel`-style orchestrators do), which makes both
    /// deterministic. Only a *varying* order (e.g. completion order)
    /// would make snapshots and traces flap.
    pub fn merge(&mut self, other: Recorder) {
        for (name, value) in other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        self.gauges.extend(other.gauges);
        for (name, hist) in other.spans {
            // A span new to this recorder moves in whole.
            match self.spans.get_mut(&name) {
                Some(mine) => mine.merge(&hist),
                None => {
                    self.spans.insert(name, hist);
                }
            }
        }
        if let (Some(mine), Some(theirs)) = (&mut self.trace, other.trace) {
            mine.absorb(theirs);
        }
    }

    /// Serializes the metrics to the stable, versioned JSON snapshot
    /// (the [`json`] schema; deterministic key order).
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
pub fn check_funnel(registry: &Recorder, stages: &[&str]) -> Result<(), String> {
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
pub fn check_partition(registry: &Recorder, total: &str, parts: &[&str]) -> Result<(), String> {
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
        let mut reg = Recorder::new();
        assert_eq!(reg.counter("x"), 0);
        reg.inc("x", 2);
        reg.inc("x", 3);
        assert_eq!(reg.counter("x"), 5);
        reg.inc("zero", 0);
        assert!(reg.counters().any(|(n, v)| n == "zero" && v == 0));
    }

    #[test]
    fn time_records_a_span_and_returns_the_value() {
        let mut reg = Recorder::new();
        let v = reg.time("work", || 7);
        assert_eq!(v, 7);
        let span = reg.span("work").unwrap();
        assert_eq!(span.count(), 1);
        assert!(span.is_consistent());
    }

    #[test]
    fn merge_adds_counters_and_absorbs_spans() {
        let mut a = Recorder::new();
        a.inc("n", 1);
        a.record_span("s", Duration::from_nanos(10));
        a.set_gauge("g", 1.0);
        let mut b = Recorder::new();
        b.inc("n", 2);
        b.inc("only_b", 4);
        b.record_span("s", Duration::from_nanos(30));
        b.set_gauge("g", 2.0);
        a.merge(b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.counter("only_b"), 4);
        assert_eq!(a.gauge("g"), Some(2.0), "gauges: last write wins");
        let s = a.span("s").unwrap();
        assert_eq!(
            (s.count(), s.min_ns(), s.max_ns(), s.sum_ns()),
            (2, 10, 30, 40)
        );
    }

    #[test]
    fn merge_is_associative_on_counters_and_spans() {
        let mk = |n: u64, ns: u64| {
            let mut r = Recorder::new();
            r.inc("c", n);
            r.record_span("s", Duration::from_nanos(ns));
            r
        };
        let (a, b, c) = (mk(1, 5), mk(2, 50), mk(3, 500));
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_gauges_are_last_write_wins_in_merge_order() {
        // Pins the gauge contract documented on `merge`: whichever
        // shard is merged last supplies the surviving value, in either
        // direction — so a caller that fixes the merge order (shard
        // order) gets a deterministic snapshot.
        let mut shard_a = Recorder::new();
        shard_a.set_gauge("g", 1.0);
        shard_a.inc("n", 1);
        let mut shard_b = Recorder::new();
        shard_b.set_gauge("g", 2.0);
        shard_b.inc("n", 2);

        let mut ab = Recorder::new();
        ab.merge(shard_a.clone());
        ab.merge(shard_b.clone());
        let mut ba = Recorder::new();
        ba.merge(shard_b);
        ba.merge(shard_a);

        assert_eq!(ab.gauge("g"), Some(2.0), "last merge (b) wins");
        assert_eq!(ba.gauge("g"), Some(1.0), "last merge (a) wins");
        // Counters stay order-independent; only gauges are sensitive.
        assert_eq!(ab.counter("n"), ba.counter("n"));
        // A merge whose registry lacks the gauge leaves it untouched.
        ab.merge(Recorder::new());
        assert_eq!(ab.gauge("g"), Some(2.0));
    }

    #[test]
    fn record_span_populates_the_histogram() {
        let mut reg = Recorder::new();
        for ns in [100u64, 200, 300, 400] {
            reg.record_span("s", Duration::from_nanos(ns));
        }
        let hist = reg.span("s").expect("histogram recorded for the span");
        assert_eq!((hist.count(), hist.sum_ns()), (4, 1_000));
        assert_eq!((hist.min_ns(), hist.max_ns()), (100, 400));
        let p50 = hist.quantile(0.5);
        assert!((200..=213).contains(&p50), "p50 = {p50}");

        let mut other = Recorder::new();
        other.record_span("s", Duration::from_nanos(10_000));
        reg.merge(other);
        let hist = reg.span("s").unwrap();
        assert_eq!(hist.count(), 5, "merge merges histograms");
        assert_eq!(hist.max_ns(), 10_000, "merge keeps the exact max");
    }

    #[test]
    fn one_span_feeds_its_histogram_and_the_trace() {
        let mut rec = Recorder::traced(1);
        let outer = rec.begin_with("outer", |a| {
            a.u64("n", 1);
        });
        let inner = rec.begin("inner");
        rec.end(inner);
        rec.end(outer);
        rec.time("outer", || ());
        assert_eq!(rec.span("outer").map(Histogram::count), Some(2));
        assert_eq!(rec.span("inner").map(Histogram::count), Some(1));
        let trace = rec.trace().expect("traced");
        let begins: Vec<&str> = trace
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Begin)
            .map(|e| trace.name(e.name))
            .collect();
        assert_eq!(begins, ["outer", "inner", "outer"]);
        // The E-minus-B interval is the histogram's sample: both come
        // from the same two clock reads.
        let events = trace.events();
        let inner_ns = events[2].ts_ns - events[1].ts_ns;
        assert_eq!(rec.span("inner").unwrap().sum_ns(), inner_ns);
    }

    #[test]
    fn sampling_thins_the_trace_but_never_the_histogram() {
        let mut rec = Recorder::traced(4);
        for _ in 0..8 {
            let span = rec.begin("work");
            rec.end(span);
        }
        assert_eq!(rec.span("work").map(Histogram::count), Some(8));
        let begins = rec
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Begin)
            .count();
        assert_eq!(begins, 2);
    }

    #[test]
    fn merge_gives_each_traced_shard_a_lane_in_merge_order() {
        let mut main = Recorder::traced(1);
        main.instant("start");
        let mut untraced = Recorder::new();
        untraced.inc("n", 1);
        let mut shard = main.fork();
        assert!(shard.is_traced() && shard.trace().unwrap().is_empty());
        shard.time("work", || ());
        main.merge(untraced);
        main.merge(shard);
        let lanes: Vec<u32> = main
            .trace()
            .unwrap()
            .events()
            .iter()
            .map(|e| e.lane)
            .collect();
        assert_eq!(lanes, [0, 1, 1], "the untraced shard took no lane");
        assert_eq!(main.counter("n"), 1);
        assert_eq!(main.span("work").map(Histogram::count), Some(1));
        assert!(!Recorder::new().fork().is_traced());
    }

    #[test]
    fn funnel_check_accepts_monotone_and_names_violations() {
        let mut reg = Recorder::new();
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
        let mut reg = Recorder::new();
        reg.inc("total", 5);
        reg.inc("p1", 3);
        reg.inc("p2", 2);
        check_partition(&reg, "total", &["p1", "p2"]).unwrap();
        reg.inc("p2", 1);
        assert!(check_partition(&reg, "total", &["p1", "p2"]).is_err());
    }
}
