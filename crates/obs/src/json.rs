//! A stable, machine-readable JSON snapshot of a recorder's metrics, and
//! the JSON string writer every exporter shares.
//!
//! Hand-rolled writer (the workspace builds offline, so no serde): the
//! recorder's `BTreeMap` storage gives deterministic key order, making
//! snapshots diffable and safe to pin in golden tests. Schema
//! (`version` bumps on breaking change):
//!
//! ```json
//! {
//!   "version": 2,
//!   "counters": { "mine.mined": 12 },
//!   "gauges": { "corpus.projects": 6.0 },
//!   "spans": {
//!     "mine.change": { "count": 14, "sum_ns": 1200, "min_ns": 10, "max_ns": 400,
//!                      "p50_ns": 85, "p90_ns": 340, "p95_ns": 340,
//!                      "p99_ns": 408, "p999_ns": 408,
//!                      "buckets": [[85, 7], [340, 13], [408, 14]] }
//!   }
//! }
//! ```
//!
//! Version 2 added the histogram-derived fields: `p*_ns` quantile
//! estimates (inclusive bucket upper edges, ≤6.25% one-sided error —
//! see [`crate::hist`]) and `buckets`, the sparse cumulative
//! distribution as `[upper_edge_ns, samples_le_edge]` pairs over the
//! fixed log-linear layout (only buckets with hits appear, so the last
//! pair's cumulative count equals `count`). The version-1 keys are
//! unchanged, so consumers that read only `count`/`sum_ns` (the bench
//! regression gate) keep working.

use crate::trace::TraceValue;
use crate::Recorder;
use std::fmt::Write as _;

/// Current snapshot schema version.
pub(crate) const SNAPSHOT_VERSION: u32 = 2;

/// Appends `s` to `out` as a quoted JSON string literal: `"` and `\`
/// are backslash-escaped, `\n`/`\r`/`\t` use their short forms and
/// every other control character its `\u00XX` form. The one escaper
/// of the metrics snapshot, the Chrome trace exporter, the log writer
/// and the server's JSON responses, all of which write into a buffer
/// they own, so escaping allocates nothing.
pub fn write_str(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut clean = 0;
    for (i, byte) in s.bytes().enumerate() {
        let short = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[clean..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(short);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Appends an attribute value: a string literal or an integer.
pub(crate) fn write_value(out: &mut String, value: &TraceValue) {
    match value {
        TraceValue::Str(s) => write_str(out, s),
        TraceValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
    }
}

/// Renders a finite `f64` so the snapshot stays valid JSON (NaN and
/// infinities have no JSON literal; they degrade to 0).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{v}")
        }
    } else {
        "0.0".to_owned()
    }
}

/// Writes the `{sep}    "name": ` prefix of one snapshot entry.
fn key(out: &mut String, first: &mut bool, name: &str) {
    out.push_str(if *first { "\n    " } else { ",\n    " });
    *first = false;
    write_str(out, name);
    out.push_str(": ");
}

/// Serializes `recorder`'s metrics to the versioned snapshot format.
pub(crate) fn to_json(recorder: &Recorder) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"version\": {SNAPSHOT_VERSION},");
    out.push_str("  \"counters\": {");
    let mut first = true;
    for (name, value) in recorder.counters() {
        key(&mut out, &mut first, name);
        let _ = write!(out, "{value}");
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"gauges\": {");
    first = true;
    for (name, value) in recorder.gauges() {
        key(&mut out, &mut first, name);
        out.push_str(&json_f64(value));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"spans\": {");
    first = true;
    for (name, hist) in recorder.spans() {
        key(&mut out, &mut first, name);
        let _ = write!(
            out,
            "{{ \"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
             \"p50_ns\": {}, \"p90_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
             \"buckets\": [",
            hist.count(),
            hist.sum_ns(),
            hist.min_ns(),
            hist.max_ns(),
            hist.quantile(0.5),
            hist.quantile(0.9),
            hist.quantile(0.95),
            hist.quantile(0.99),
            hist.quantile(0.999),
        );
        let mut first_bucket = true;
        for (edge, cum) in hist.cumulative() {
            let sep = if first_bucket { "" } else { ", " };
            first_bucket = false;
            let _ = write!(out, "{sep}[{edge}, {cum}]");
        }
        out.push_str("] }");
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_stable_and_wellformed() {
        let mut reg = Recorder::new();
        reg.inc("b.second", 2);
        reg.inc("a.first", 1);
        reg.set_gauge("g", 6.0);
        reg.record_span("s", std::time::Duration::from_nanos(42));
        let json = to_json(&reg);
        // BTreeMap ordering: a.first before b.second, independent of
        // insertion order.
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b, "{json}");
        assert!(json.contains("\"version\": 2"), "{json}");
        assert!(json.contains("\"g\": 6.0"), "{json}");
        // 42ns lands in the [42, 43] log-linear bucket; quantiles and
        // bucket edges report its inclusive upper edge, 43.
        assert!(
            json.contains(
                "\"s\": { \"count\": 1, \"sum_ns\": 42, \"min_ns\": 42, \"max_ns\": 42, \
                 \"p50_ns\": 43, \"p90_ns\": 43, \"p95_ns\": 43, \"p99_ns\": 43, \
                 \"p999_ns\": 43, \"buckets\": [[43, 1]] }"
            ),
            "{json}"
        );
        assert_eq!(json, to_json(&reg), "serialization is deterministic");
    }

    #[test]
    fn empty_registry_serializes_to_empty_sections() {
        let json = to_json(&Recorder::new());
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"gauges\": {}"), "{json}");
        assert!(json.contains("\"spans\": {}"), "{json}");
    }

    #[test]
    fn names_are_escaped() {
        let mut reg = Recorder::new();
        reg.inc("weird\"name\\with\nescapes", 1);
        let json = to_json(&reg);
        assert!(json.contains("weird\\\"name\\\\with\\nescapes"), "{json}");
    }
}
