//! Structured event tracing: ordered [`TraceEvent`]s with hierarchical
//! spans, per-change decision records, and deterministic sampling.
//!
//! Where a [`crate::Recorder`]'s counters and histograms answer *how
//! many* ("12 changes were filtered"), its [`TraceSink`] answers *which
//! one and why* ("this change, from this commit, was dropped by `fdup`
//! as a duplicate of that fingerprint"). A traced recorder holds one;
//! every event enters through the recorder. Design constraints, in
//! priority order:
//!
//! 1. **Cheap when off.** An untraced recorder holds no sink, so every
//!    trace call is one branch; attribute construction runs inside
//!    closures that are never invoked.
//! 2. **Mergeable.** One plain owned sink per worker shard, absorbed
//!    on join *in shard order* ([`crate::Recorder::merge`]) — no locks,
//!    no atomics. Each absorbed shard becomes its own lane (Chrome
//!    `tid`), so per-lane event order and span nesting survive the
//!    merge, and a shard whose worker died simply contributes no lane.
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
/// the id of a span opened on an untraced recorder.
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
        }
    }
}

/// What kind of event a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened ([`crate::Recorder::begin`]).
    Begin,
    /// A span closed ([`crate::Recorder::end`]).
    End,
    /// A point-in-time marker ([`crate::Recorder::instant`]).
    Instant,
    /// A per-item decision record ([`crate::Recorder::decision_with`]).
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

/// An event's attributes, in insertion order. The recorder builds one
/// inside the `*_with` closures, so an untraced recorder never
/// allocates one; a caller that exports the same event to the log
/// builds it once and hands it to both.
///
/// Keys are `'static`: every attribute name is a literal, so adding one
/// copies no key.
#[derive(Debug, Default)]
pub struct AttrSet {
    items: Vec<(&'static str, TraceValue)>,
}

impl AttrSet {
    /// Adds a string attribute.
    pub fn str(&mut self, key: &'static str, value: impl Into<String>) -> &mut Self {
        self.items.push((key, TraceValue::Str(value.into())));
        self
    }

    /// Adds an unsigned integer attribute.
    pub fn u64(&mut self, key: &'static str, value: u64) -> &mut Self {
        self.items.push((key, TraceValue::U64(value)));
        self
    }

    /// The attributes in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static str, &TraceValue)> {
        self.items.iter().map(|(k, v)| (*k, v))
    }
}

/// An ordered, mergeable collection of trace events: the trace of one
/// traced [`crate::Recorder`].
///
/// Plain owned data, `Send`, no locks: concurrency is handled by giving
/// each worker its own recorder and merging them on join in shard
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSink {
    sample: u64,
    names: Vec<String>,
    index: HashMap<String, NameId>,
    /// The recorded events from `first` on; the ones before it were
    /// truncated away and wait to be reclaimed in one drain.
    events: Vec<TraceEvent>,
    first: usize,
    next_seq: u64,
    next_span: u64,
    next_lane: u32,
    /// Open spans: (id, kept-by-sampling, name).
    stack: Vec<(SpanId, bool, NameId)>,
    /// Modular sampling counter (spans + instants; decisions excluded).
    tick: u64,
    epoch: Instant,
}

impl TraceSink {
    /// A recording sink keeping every `sample`-th span/instant
    /// (clamped to ≥ 1). Decisions are always retained.
    pub(crate) fn new(sample: u64) -> Self {
        TraceSink {
            sample: sample.max(1),
            names: Vec::new(),
            index: HashMap::new(),
            events: Vec::new(),
            first: 0,
            next_seq: 0,
            next_span: 1,
            next_lane: 1,
            stack: Vec::new(),
            tick: 0,
            epoch: Instant::now(),
        }
    }

    /// A fresh, empty sink sampling like this one — a worker shard's.
    pub(crate) fn fork(&self) -> Self {
        TraceSink::new(self.sample)
    }

    /// All recorded events, in sequence order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events[self.first..]
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len() - self.first
    }

    /// Drops the oldest events so at most `keep` remain — the bound a
    /// long-lived capture sink (e.g. `diffcode serve`'s
    /// `/trace/capture` ring) applies after each append. Interned
    /// names are retained: the name table is bounded by the number of
    /// distinct event names, not by traffic. Callers that record only
    /// instants are unaffected by truncation; a Begin whose End is
    /// truncated away would dangle, so bounded sinks should record
    /// point events.
    ///
    /// Amortized O(1) per appended event: dropped events leave the
    /// view at once but are reclaimed only when there are as many of
    /// them as events kept, so each kept event is moved once per `keep`
    /// appends rather than on every call.
    pub fn truncate_oldest(&mut self, keep: usize) {
        if self.len() > keep {
            self.first = self.events.len() - keep;
            if self.first >= keep {
                self.events.drain(..self.first);
                self.first = 0;
            }
        }
    }

    /// `true` when no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    fn ts_ns(&self, at: Instant) -> u64 {
        let ns = at.saturating_duration_since(self.epoch).as_nanos();
        u64::try_from(ns).unwrap_or(u64::MAX)
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
        name: NameId,
        span: SpanId,
        parent: SpanId,
        attrs: Vec<(&'static str, TraceValue)>,
        ts_ns: u64,
    ) {
        let attrs = attrs
            .into_iter()
            .map(|(k, v)| (self.intern(k), v))
            .collect();
        let event = TraceEvent {
            seq: self.next_seq,
            ts_ns,
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

    /// Opens a span at `at`, returning the fresh id that
    /// [`TraceSink::end_at`] closes. The attribute closure only runs
    /// when the span survives sampling.
    pub(crate) fn begin_at(
        &mut self,
        name: &str,
        at: Instant,
        fill: impl FnOnce(&mut AttrSet),
    ) -> SpanId {
        let kept = self.sampled();
        let span = SpanId(self.next_span);
        self.next_span += 1;
        let name = self.intern(name);
        if kept {
            let parent = self.current_parent();
            let mut attrs = AttrSet::default();
            fill(&mut attrs);
            self.push(
                TraceKind::Begin,
                name,
                span,
                parent,
                attrs.items,
                self.ts_ns(at),
            );
        }
        self.stack.push((span, kept, name));
        span
    }

    /// Closes a span opened by [`TraceSink::begin_at`] at `at`.
    /// Descendants still open at that point — abandoned by a panic
    /// unwind caught above this span — are closed first, innermost out,
    /// so every recorded `Begin` always gets a matching `End`. Ending a
    /// span that is not on the stack is a no-op.
    pub(crate) fn end_at(&mut self, span: SpanId, at: Instant) {
        let Some(pos) = self.stack.iter().rposition(|(id, _, _)| *id == span) else {
            return;
        };
        let ts_ns = self.ts_ns(at);
        while self.stack.len() > pos {
            let (id, kept, name) = self.stack.pop().expect("len > pos >= 0");
            if kept {
                let parent = self.current_parent();
                self.push(TraceKind::End, name, id, parent, Vec::new(), ts_ns);
            }
        }
    }

    /// Records a point-in-time marker (subject to sampling).
    pub(crate) fn instant_with(&mut self, name: &str, fill: impl FnOnce(&mut AttrSet)) {
        if !self.sampled() {
            return;
        }
        let parent = self.current_parent();
        let mut attrs = AttrSet::default();
        fill(&mut attrs);
        let name = self.intern(name);
        let ts_ns = self.ts_ns(Instant::now());
        self.push(
            TraceKind::Instant,
            name,
            SpanId::ROOT,
            parent,
            attrs.items,
            ts_ns,
        );
    }

    /// Records a decision event. Decisions carry per-item provenance
    /// and are **always retained** — sampling never drops them, so the
    /// one-decision-per-change completeness invariant holds at any
    /// `--trace-sample` value.
    pub(crate) fn decision_with(&mut self, name: &str, fill: impl FnOnce(&mut AttrSet)) {
        let parent = self.current_parent();
        let mut attrs = AttrSet::default();
        fill(&mut attrs);
        let name = self.intern(name);
        let ts_ns = self.ts_ns(Instant::now());
        self.push(
            TraceKind::Decision,
            name,
            SpanId::ROOT,
            parent,
            attrs.items,
            ts_ns,
        );
    }

    /// Merges another sink's events into this one, assigning them the
    /// next free lane. Call in shard order on join: lane numbers then
    /// reflect shard order, sequence numbers continue this sink's
    /// monotonic counter, and span ids are offset into this sink's id
    /// space — so the merged trace of a parallel run is the shards'
    /// traces concatenated, exactly like the mining result itself.
    pub(crate) fn absorb(&mut self, other: TraceSink) {
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
        for event in other.events.into_iter().skip(other.first) {
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
    use crate::Recorder;

    /// Clock-reading shorthands for driving a sink directly (the
    /// recorder passes the instants its histograms measure).
    impl TraceSink {
        pub(crate) fn begin(&mut self, name: &str) -> SpanId {
            self.begin_at(name, Instant::now(), |_| {})
        }

        pub(crate) fn end(&mut self, span: SpanId) {
            self.end_at(span, Instant::now());
        }

        pub(crate) fn instant(&mut self, name: &str) {
            self.instant_with(name, |_| {});
        }
    }

    #[test]
    fn disabled_sink_records_nothing_and_skips_closures() {
        // An untraced recorder holds no sink: attribute closures never
        // run, and only the span's histogram records.
        let mut rec = Recorder::new();
        let span = rec.begin_with("work", |_| panic!("attr closure must not run"));
        assert_eq!(span.id, SpanId::ROOT);
        rec.instant_with("marker", |_| panic!("attr closure must not run"));
        rec.decision_with("decision", |_| panic!("attr closure must not run"));
        rec.end(span);
        assert!(rec.trace().is_none());
        assert_eq!(rec.span("work").map(|h| h.count()), Some(1));
    }

    #[test]
    fn spans_nest_and_events_are_ordered() {
        let mut sink = TraceSink::new(1);
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
        let mut sink = TraceSink::new(1);
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
        let mut sink = TraceSink::new(3);
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
            let mut sink = TraceSink::new(4);
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
            let mut sink = TraceSink::new(1);
            let span = sink.begin(label);
            sink.decision_with("decision", |a| {
                a.str("shard", label);
            });
            sink.end(span);
            sink
        };
        let mut main = TraceSink::new(1);
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
        // Merging a traced shard into an untraced recorder keeps its
        // metrics and drops its events.
        let mut main = Recorder::new();
        let mut shard = Recorder::traced(1);
        shard.instant("x");
        shard.inc("n", 1);
        main.merge(shard);
        assert!(main.trace().is_none());
        assert_eq!(main.counter("n"), 1);
    }

    #[test]
    fn ending_an_ancestor_closes_abandoned_descendants() {
        // The unwind pattern: a panic caught above `b` means `b` never
        // ends explicitly; ending `a` must still balance the trace.
        let mut sink = TraceSink::new(1);
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
