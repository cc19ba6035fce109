//! Chrome trace-event JSON export for a [`TraceSink`].
//!
//! Hand-rolled writer (same zero-dependency constraint as the
//! metrics snapshot writer) targeting the trace-event *JSON array format*: a
//! flat array of `B`/`E`/`i` events that Perfetto and
//! `chrome://tracing` load directly. Mapping:
//!
//! - [`TraceKind::Begin`]/[`TraceKind::End`] → `ph: "B"` / `ph: "E"`,
//! - [`TraceKind::Instant`] → `ph: "i"` with thread scope (`s: "t"`),
//! - [`TraceKind::Decision`] → `ph: "i"`, `s: "t"`, with the full
//!   attribute set (provenance + reason) in `args`,
//! - lane → `tid` (lane 0 is the orchestrating sink, lanes 1.. the
//!   absorbed shards in shard order), `pid` is always 1,
//! - `ts` is microseconds with nanosecond precision kept as a decimal
//!   fraction; `args.seq` carries the sink's own sequence number.
//!
//! Event *selection and order* are deterministic for a fixed input and
//! configuration (see [`TraceSink`] determinism notes); only the `ts`
//! values vary between runs.

use crate::json::{write_str, write_value};
use crate::trace::{TraceEvent, TraceKind, TraceSink};
use std::fmt::Write as _;

/// Serializes `sink` to the Chrome trace-event JSON array format.
pub fn to_chrome_json(sink: &TraceSink) -> String {
    to_chrome_json_tail(sink, usize::MAX)
}

/// Like [`to_chrome_json`], but renders only the **last**
/// `max_events` events — the shape an on-demand capture endpoint
/// (`GET /trace/capture?events=N`) wants: the most recent window of a
/// long-running sink, still a well-formed trace array.
pub fn to_chrome_json_tail(sink: &TraceSink, max_events: usize) -> String {
    let events = sink.events();
    let skip = events.len().saturating_sub(max_events);
    let mut out = String::new();
    out.push_str("[\n");
    for (i, event) in events[skip..].iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        render_event(&mut out, sink, event);
    }
    out.push_str("\n]\n");
    out
}

fn render_event(out: &mut String, sink: &TraceSink, event: &TraceEvent) {
    let ph = match event.kind {
        TraceKind::Begin => "B",
        TraceKind::End => "E",
        TraceKind::Instant | TraceKind::Decision => "i",
    };
    out.push_str("{\"name\":");
    write_str(out, sink.name(event.name));
    let _ = write!(
        out,
        ",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{}",
        event.lane,
        ts_us(event.ts_ns),
    );
    if ph == "i" {
        out.push_str(",\"s\":\"t\"");
    }
    let _ = write!(out, ",\"args\":{{\"seq\":{}", event.seq);
    for (key, value) in &event.attrs {
        out.push(',');
        write_str(out, sink.name(*key));
        out.push(':');
        write_value(out, value);
    }
    out.push_str("}}");
}

/// Nanoseconds → microseconds with the sub-µs precision kept as an
/// exact decimal fraction (no float rounding).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_begin_end_instant_and_decision() {
        let mut rec = crate::Recorder::traced(1);
        let span = rec.begin_with("mine.change", |a| {
            a.str("project", "u/p").u64("index", 3);
        });
        rec.instant("cache.lookup");
        rec.decision_with("decision", |a| {
            a.str("reason", "kept");
        });
        rec.end(span);
        let json = to_chrome_json(rec.trace().unwrap());
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(
            json.contains("\"name\":\"mine.change\",\"ph\":\"B\""),
            "{json}"
        );
        assert!(
            json.contains("\"name\":\"mine.change\",\"ph\":\"E\""),
            "{json}"
        );
        assert!(
            json.contains("\"name\":\"cache.lookup\",\"ph\":\"i\""),
            "{json}"
        );
        assert!(json.contains("\"s\":\"t\""), "{json}");
        assert!(json.contains("\"project\":\"u/p\""), "{json}");
        assert!(json.contains("\"index\":3"), "{json}");
        assert!(json.contains("\"reason\":\"kept\""), "{json}");
        // Every event carries pid/tid and its sequence number.
        assert_eq!(json.matches("\"pid\":1").count(), 4, "{json}");
        assert!(json.contains("\"args\":{\"seq\":0"), "{json}");
    }

    #[test]
    fn ts_is_microseconds_with_ns_fraction() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(999), "0.999");
        assert_eq!(ts_us(1_000), "1.000");
        assert_eq!(ts_us(1_234_567), "1234.567");
    }

    #[test]
    fn strings_are_escaped() {
        let mut sink = TraceSink::new(1);
        sink.decision_with("decision", |a| {
            a.str("path", "dir\\A\"B\".java");
        });
        let json = to_chrome_json(&sink);
        assert!(json.contains("dir\\\\A\\\"B\\\".java"), "{json}");
    }

    #[test]
    fn empty_sink_exports_an_empty_array() {
        let json = to_chrome_json(&TraceSink::new(1));
        assert_eq!(json, "[\n\n]\n");
    }

    #[test]
    fn tail_renders_only_the_most_recent_events() {
        let mut sink = TraceSink::new(1);
        for name in ["e0", "e1", "e2", "e3", "e4"] {
            sink.instant(name);
        }
        let tail = to_chrome_json_tail(&sink, 2);
        assert!(!tail.contains("\"name\":\"e2\""), "{tail}");
        assert!(tail.contains("\"name\":\"e3\""), "{tail}");
        assert!(tail.contains("\"name\":\"e4\""), "{tail}");
        assert_eq!(to_chrome_json_tail(&sink, 0), "[\n\n]\n");
        assert_eq!(
            to_chrome_json_tail(&sink, 100),
            to_chrome_json(&sink),
            "an oversized window is the whole trace"
        );
    }

    #[test]
    fn truncated_sink_still_exports_cleanly() {
        let mut sink = TraceSink::new(1);
        for name in ["a", "b", "c", "d"] {
            sink.instant(name);
        }
        sink.truncate_oldest(2);
        assert_eq!(sink.len(), 2);
        let json = to_chrome_json(&sink);
        assert!(!json.contains("\"name\":\"a\""), "{json}");
        assert!(json.contains("\"name\":\"c\""), "{json}");
        assert!(json.contains("\"name\":\"d\""), "{json}");
    }
}
