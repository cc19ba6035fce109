//! Structured event tracing: ordered [`TraceEvent`]s with hierarchical
//! spans, per-change decision records, and deterministic sampling.
//!
//! Where [`crate::MetricsRegistry`] answers *how many* ("12 changes
//! were filtered"), a [`TraceSink`] answers *which one and why* ("this
//! change, from this commit, was dropped by `fdup` as a duplicate of
//! that fingerprint"). Same design constraints as the registry, in the
//! same priority order:
//!
//! 1. **Cheap when off.** A disabled sink reduces every call to one
//!    branch on a bool; attribute construction runs inside closures
//!    that are never invoked.
//! 2. **Mergeable.** One plain owned sink per worker shard, absorbed
//!    on join *in shard order* ([`TraceSink::absorb`]) — no locks, no
//!    atomics. Each absorbed shard becomes its own lane (Chrome `tid`),
//!    so per-lane event order and span nesting survive the merge, and a
//!    shard whose worker died simply contributes no lane.
//! 3. **Deterministic.** Sequence numbers are per-sink monotonic,
//!    span IDs are allocated in call order, and sampling is seed-free
//!    modular arithmetic on a per-sink counter — a rerun over the same
//!    input selects exactly the same events. Only the `ts_ns` wall
//!    clock values differ between runs.
//! 4. **Exportable.** [`crate::to_chrome_json`] writes the Chrome
//!    trace-event format (loadable in Perfetto / `chrome://tracing`)
//!    with zero dependencies.

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// An interned event/attribute name (index into the sink's name table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(pub u32);

/// A span identity within one sink. `SpanId(0)` is the root ("no
/// span"): events outside any open span have it as parent, and it is
/// what [`TraceSink::begin`] returns from a disabled sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no span" sentinel.
    pub(crate) const ROOT: SpanId = SpanId(0);
}

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// UTF-8 text.
    Str(String),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
}

impl TraceValue {
    /// The string payload, when this value is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            TraceValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, when this value is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            TraceValue::U64(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for TraceValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceValue::Str(s) => write!(f, "{s}"),
            TraceValue::U64(v) => write!(f, "{v}"),
            TraceValue::I64(v) => write!(f, "{v}"),
            TraceValue::F64(v) => write!(f, "{v}"),
            TraceValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// What kind of event a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened ([`TraceSink::begin`]).
    Begin,
    /// A span closed ([`TraceSink::end`]).
    End,
    /// A point-in-time marker ([`TraceSink::instant`]).
    Instant,
    /// A per-item decision record ([`TraceSink::decision_with`]).
    /// Never sampled out.
    Decision,
}

/// One ordered trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic per-sink sequence number (renumbered on absorb so the
    /// merged sink stays monotonic).
    pub seq: u64,
    /// Nanoseconds since the owning sink's epoch. Monotonic *per lane*;
    /// lanes have independent epochs.
    pub ts_ns: u64,
    /// Which merged sink this event came from (Chrome `tid`). The
    /// absorbing sink's own events are lane 0; each absorbed shard gets
    /// the next lane in absorb (= shard) order.
    pub lane: u32,
    /// Event kind.
    pub kind: TraceKind,
    /// Interned event name (resolve via [`TraceSink::name`]).
    pub name: NameId,
    /// The span this event opens/closes, or `SpanId::ROOT` for
    /// instants and decisions.
    pub span: SpanId,
    /// The enclosing span at emit time (`SpanId::ROOT` at top level).
    pub parent: SpanId,
    /// Typed attributes, in insertion order.
    pub attrs: Vec<(NameId, TraceValue)>,
}

/// Builder for an event's attributes. Only ever constructed inside the
/// `*_with` closures, so a disabled sink never allocates one.
#[derive(Debug, Default)]
pub struct AttrSet {
    items: Vec<(String, TraceValue)>,
}

impl AttrSet {
    /// Adds a string attribute.
    pub fn str(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.items
            .push((key.to_owned(), TraceValue::Str(value.into())));
        self
    }

    /// Adds an unsigned integer attribute.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.items.push((key.to_owned(), TraceValue::U64(value)));
        self
    }
}

/// The shareable part of a sink's configuration: what
/// [`mine_parallel`-style](crate::MetricsRegistry) orchestrators hand
/// to each worker so per-shard sinks sample identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether events are recorded at all.
    pub enabled: bool,
    /// Keep every `sample`-th span/instant (≥ 1; decisions always kept).
    pub sample: u64,
}

/// An ordered, mergeable collection of trace events.
///
/// Plain owned data, `Send`, no locks: concurrency is handled by giving
/// each worker its own sink and [`TraceSink::absorb`]ing them on join
/// in shard order — the same discipline as [`crate::MetricsRegistry`].
#[derive(Debug)]
pub struct TraceSink {
    enabled: bool,
    sample: u64,
    names: Vec<String>,
    index: HashMap<String, NameId>,
    events: Vec<TraceEvent>,
    next_seq: u64,
    next_span: u64,
    next_lane: u32,
    /// Open spans: (id, kept-by-sampling, name).
    stack: Vec<(SpanId, bool, NameId)>,
    /// Modular sampling counter (spans + instants; decisions excluded).
    tick: u64,
    epoch: Instant,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::disabled()
    }
}

impl TraceSink {
    /// A sink that records nothing; every call short-circuits on one
    /// branch. The default state of a pipeline.
    pub fn disabled() -> Self {
        TraceSink {
            enabled: false,
            sample: 1,
            names: Vec::new(),
            index: HashMap::new(),
            events: Vec::new(),
            next_seq: 0,
            next_span: 1,
            next_lane: 1,
            stack: Vec::new(),
            tick: 0,
            epoch: Instant::now(),
        }
    }

    /// A recording sink keeping every `sample`-th span/instant
    /// (clamped to ≥ 1). Decisions are always retained.
    pub fn enabled(sample: u64) -> Self {
        TraceSink {
            enabled: true,
            sample: sample.max(1),
            ..TraceSink::disabled()
        }
    }

    /// A fresh sink with the same configuration — how parallel mining
    /// builds one sink per worker shard.
    pub fn from_config(config: TraceConfig) -> Self {
        if config.enabled {
            TraceSink::enabled(config.sample)
        } else {
            TraceSink::disabled()
        }
    }

    /// This sink's shareable configuration.
    pub fn config(&self) -> TraceConfig {
        TraceConfig {
            enabled: self.enabled,
            sample: self.sample,
        }
    }

    /// `true` when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// All recorded events, in sequence order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Drops the oldest events so at most `keep` remain — the bound a
    /// long-lived capture sink (e.g. `diffcode serve`'s
    /// `/trace/capture` ring) applies after each append. Interned
    /// names are retained: the name table is bounded by the number of
    /// distinct event names, not by traffic. Callers that record only
    /// instants are unaffected by truncation; a Begin whose End is
    /// truncated away would dangle, so bounded sinks should record
    /// point events.
    pub fn truncate_oldest(&mut self, keep: usize) {
        if self.events.len() > keep {
            let excess = self.events.len() - keep;
            self.events.drain(..excess);
        }
    }

    /// `true` when no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Resolves an interned name.
    pub fn name(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Looks up the id of an interned name, if any event used it.
    pub(crate) fn lookup(&self, name: &str) -> Option<NameId> {
        self.index.get(name).copied()
    }

    /// The value of `event`'s attribute `key`, if present.
    pub fn attr<'e>(&self, event: &'e TraceEvent, key: &str) -> Option<&'e TraceValue> {
        let id = self.lookup(key)?;
        event.attrs.iter().find(|(k, _)| *k == id).map(|(_, v)| v)
    }

    /// The string value of `event`'s attribute `key`, if present.
    pub fn attr_str<'e>(&self, event: &'e TraceEvent, key: &str) -> Option<&'e str> {
        self.attr(event, key).and_then(TraceValue::as_str)
    }

    fn intern(&mut self, name: &str) -> NameId {
        if let Some(id) = self.index.get(name) {
            return *id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    fn current_parent(&self) -> SpanId {
        self.stack.last().map_or(SpanId::ROOT, |(id, _, _)| *id)
    }

    /// Advances the modular sampling counter; `true` when this item is
    /// retained. Sampling is decided per *span* at `begin` (the end
    /// event follows its begin's fate, so B/E pairs never split) and
    /// per instant.
    fn sampled(&mut self) -> bool {
        let kept = self.tick.is_multiple_of(self.sample);
        self.tick += 1;
        kept
    }

    fn push(
        &mut self,
        kind: TraceKind,
        name: &str,
        span: SpanId,
        parent: SpanId,
        attrs: Vec<(String, TraceValue)>,
    ) {
        let name = self.intern(name);
        let attrs = attrs
            .into_iter()
            .map(|(k, v)| (self.intern(&k), v))
            .collect();
        let event = TraceEvent {
            seq: self.next_seq,
            ts_ns: self.now_ns(),
            lane: 0,
            kind,
            name,
            span,
            parent,
            attrs,
        };
        self.next_seq += 1;
        self.events.push(event);
    }

    /// Opens a span. Returns `SpanId::ROOT` when disabled; otherwise
    /// a fresh id that must be closed with [`TraceSink::end`].
    pub fn begin(&mut self, name: &str) -> SpanId {
        self.begin_with(name, |_| {})
    }

    /// [`TraceSink::begin`] with attributes; the closure only runs when
    /// the sink is enabled *and* the span survives sampling.
    pub fn begin_with(&mut self, name: &str, fill: impl FnOnce(&mut AttrSet)) -> SpanId {
        if !self.enabled {
            return SpanId::ROOT;
        }
        let kept = self.sampled();
        let span = SpanId(self.next_span);
        self.next_span += 1;
        if kept {
            let parent = self.current_parent();
            let mut attrs = AttrSet::default();
            fill(&mut attrs);
            self.push(TraceKind::Begin, name, span, parent, attrs.items);
        }
        let name = self.intern(name);
        self.stack.push((span, kept, name));
        span
    }

    /// Closes a span opened by [`TraceSink::begin`]. Descendants still
    /// open at that point — abandoned by a panic unwind caught above
    /// this span, or by an early-return error path — are closed first,
    /// innermost out, so every recorded `Begin` always gets a matching
    /// `End`. Ending a span that is not on the stack is a no-op.
    pub fn end(&mut self, span: SpanId) {
        if !self.enabled || span == SpanId::ROOT {
            return;
        }
        let Some(pos) = self.stack.iter().rposition(|(id, _, _)| *id == span) else {
            return;
        };
        while self.stack.len() > pos {
            let (id, kept, name) = self.stack.pop().expect("len > pos >= 0");
            if kept {
                let parent = self.current_parent();
                let name = self.names[name.0 as usize].clone();
                self.push(TraceKind::End, &name, id, parent, Vec::new());
            }
        }
    }

    /// Records a point-in-time marker (subject to sampling).
    pub fn instant(&mut self, name: &str) {
        self.instant_with(name, |_| {});
    }

    /// [`TraceSink::instant`] with attributes.
    pub fn instant_with(&mut self, name: &str, fill: impl FnOnce(&mut AttrSet)) {
        if !self.enabled {
            return;
        }
        if !self.sampled() {
            return;
        }
        let parent = self.current_parent();
        let mut attrs = AttrSet::default();
        fill(&mut attrs);
        self.push(TraceKind::Instant, name, SpanId::ROOT, parent, attrs.items);
    }

    /// Records a decision event. Decisions carry per-item provenance
    /// and are **always retained** — sampling never drops them, so the
    /// one-decision-per-change completeness invariant holds at any
    /// `--trace-sample` value.
    pub fn decision_with(&mut self, name: &str, fill: impl FnOnce(&mut AttrSet)) {
        if !self.enabled {
            return;
        }
        let parent = self.current_parent();
        let mut attrs = AttrSet::default();
        fill(&mut attrs);
        self.push(TraceKind::Decision, name, SpanId::ROOT, parent, attrs.items);
    }

    /// Merges another sink's events into this one, assigning them the
    /// next free lane. Call in shard order on join: lane numbers then
    /// reflect shard order, sequence numbers continue this sink's
    /// monotonic counter, and span ids are offset into this sink's id
    /// space — so the merged trace of a parallel run is the shards'
    /// traces concatenated, exactly like the mining result itself.
    ///
    /// A disabled receiving sink drops everything (symmetry with
    /// recording); a dead shard simply never gets absorbed and its lane
    /// number is never allocated.
    pub fn absorb(&mut self, other: TraceSink) {
        if !self.enabled {
            return;
        }
        let lane = self.next_lane;
        self.next_lane += 1;
        let span_offset = self.next_span - 1;
        self.next_span += other.next_span - 1;
        let remap = |id: SpanId| {
            if id == SpanId::ROOT {
                SpanId::ROOT
            } else {
                SpanId(id.0 + span_offset)
            }
        };
        for event in other.events {
            let name = self.intern(&other.names[event.name.0 as usize]);
            let attrs = event
                .attrs
                .into_iter()
                .map(|(k, v)| (self.intern(&other.names[k.0 as usize]), v))
                .collect();
            self.events.push(TraceEvent {
                seq: self.next_seq,
                ts_ns: event.ts_ns,
                lane,
                kind: event.kind,
                name,
                span: remap(event.span),
                parent: remap(event.parent),
                attrs,
            });
            self.next_seq += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Attribute kinds only the crate's unit tests record (also used by
    /// `chrome`'s tests).
    impl AttrSet {
        pub(crate) fn f64(&mut self, key: &str, value: f64) -> &mut Self {
            self.items.push((key.to_owned(), TraceValue::F64(value)));
            self
        }

        pub(crate) fn bool(&mut self, key: &str, value: bool) -> &mut Self {
            self.items.push((key.to_owned(), TraceValue::Bool(value)));
            self
        }
    }

    #[test]
    fn disabled_sink_records_nothing_and_skips_closures() {
        let mut sink = TraceSink::disabled();
        let span = sink.begin_with("work", |_| panic!("attr closure must not run"));
        assert_eq!(span, SpanId::ROOT);
        sink.instant_with("marker", |_| panic!("attr closure must not run"));
        sink.decision_with("decision", |_| panic!("attr closure must not run"));
        sink.end(span);
        assert!(sink.is_empty());
        assert!(!sink.is_enabled());
    }

    #[test]
    fn spans_nest_and_events_are_ordered() {
        let mut sink = TraceSink::enabled(1);
        let outer = sink.begin("outer");
        sink.instant_with("mark", |a| {
            a.str("key", "value").u64("n", 7);
        });
        let inner = sink.begin("inner");
        sink.end(inner);
        sink.end(outer);
        let events = sink.events();
        assert_eq!(events.len(), 5);
        let kinds: Vec<TraceKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Begin,
                TraceKind::Instant,
                TraceKind::Begin,
                TraceKind::End,
                TraceKind::End
            ]
        );
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        // Hierarchy: the instant and inner span hang off outer.
        assert_eq!(events[0].parent, SpanId::ROOT);
        assert_eq!(events[1].parent, outer);
        assert_eq!(events[2].parent, outer);
        assert_eq!(sink.attr_str(&events[1], "key"), Some("value"));
        assert_eq!(
            sink.attr(&events[1], "n").and_then(TraceValue::as_u64),
            Some(7)
        );
        // End events resolve to the begin's name.
        assert_eq!(sink.name(events[3].name), "inner");
        // Timestamps are monotonic within the lane.
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn names_are_interned_once() {
        let mut sink = TraceSink::enabled(1);
        for _ in 0..5 {
            sink.instant("repeat");
        }
        assert_eq!(sink.events().len(), 5);
        let first = sink.events()[0].name;
        assert!(sink.events().iter().all(|e| e.name == first));
        assert_eq!(sink.lookup("repeat"), Some(first));
    }

    #[test]
    fn sampling_keeps_every_nth_span_but_all_decisions() {
        let mut sink = TraceSink::enabled(3);
        for i in 0..9 {
            let span = sink.begin("work");
            sink.decision_with("decision", |a| {
                a.u64("i", i);
            });
            sink.end(span);
        }
        let begins = sink
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Begin)
            .count();
        let ends = sink
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::End)
            .count();
        let decisions = sink
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Decision)
            .count();
        assert_eq!(begins, 3, "every 3rd span kept");
        assert_eq!(ends, begins, "B/E pairs never split by sampling");
        assert_eq!(decisions, 9, "decisions are never sampled out");
    }

    #[test]
    fn sampling_is_deterministic_across_reruns() {
        let run = || {
            let mut sink = TraceSink::enabled(4);
            for i in 0..13 {
                let span = sink.begin(&format!("s{i}"));
                sink.end(span);
            }
            sink.events()
                .iter()
                .map(|e| (e.seq, e.kind, sink.name(e.name).to_owned()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn absorb_assigns_lanes_in_order_and_renumbers() {
        let shard = |label: &str| {
            let mut sink = TraceSink::enabled(1);
            let span = sink.begin(label);
            sink.decision_with("decision", |a| {
                a.str("shard", label);
            });
            sink.end(span);
            sink
        };
        let mut main = TraceSink::enabled(1);
        main.instant("start");
        let a = shard("a");
        let b = shard("b");
        let (a_spans, b_spans) = (a.next_span, b.next_span);
        assert_eq!((a_spans, b_spans), (2, 2));
        main.absorb(a);
        main.absorb(b);
        // Lanes follow absorb order; seq stays globally monotonic.
        let lanes: Vec<u32> = main.events().iter().map(|e| e.lane).collect();
        assert_eq!(lanes, vec![0, 1, 1, 1, 2, 2, 2]);
        let seqs: Vec<u64> = main.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..7).collect::<Vec<_>>());
        // Span ids were offset into the main sink's id space: the two
        // shards' spans are distinct after the merge.
        let spans: Vec<u64> = main
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Begin)
            .map(|e| e.span.0)
            .collect();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0], spans[1]);
        // Names re-interned: both decisions resolve.
        let decision_shards: Vec<&str> = main
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Decision)
            .filter_map(|e| main.attr_str(e, "shard"))
            .collect();
        assert_eq!(decision_shards, vec!["a", "b"]);
    }

    #[test]
    fn absorb_into_disabled_sink_is_a_noop() {
        let mut main = TraceSink::disabled();
        let mut shard = TraceSink::enabled(1);
        shard.instant("x");
        main.absorb(shard);
        assert!(main.is_empty());
    }

    #[test]
    fn ending_an_ancestor_closes_abandoned_descendants() {
        // The unwind pattern: a panic caught above `b` means `b` never
        // ends explicitly; ending `a` must still balance the trace.
        let mut sink = TraceSink::enabled(1);
        let a = sink.begin("a");
        let b = sink.begin("b");
        sink.end(a); // closes b (innermost first), then a
        sink.end(b); // stale: ignored
        let ends: Vec<&str> = sink
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::End)
            .map(|e| sink.name(e.name))
            .collect();
        assert_eq!(ends, vec!["b", "a"]);
        // Every Begin has a matching End.
        let begins = sink
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Begin)
            .count();
        assert_eq!(begins, ends.len());
    }
}
