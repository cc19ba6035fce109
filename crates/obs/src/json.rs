//! A stable, machine-readable JSON snapshot of a registry.
//!
//! Hand-rolled writer (the workspace builds offline, so no serde): the
//! registry's `BTreeMap` storage gives deterministic key order, making
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

use crate::MetricsRegistry;
use std::fmt::Write as _;

/// Current snapshot schema version.
pub(crate) const SNAPSHOT_VERSION: u32 = 2;

/// Escapes a string for the inside of a JSON string literal (metric
/// names are ASCII identifiers in practice, but correctness is cheap).
/// Shared with the Chrome trace exporter and the log writer, which do
/// write arbitrary paths/messages.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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

/// Serializes `registry` to the versioned snapshot format.
pub(crate) fn to_json(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"version\": {SNAPSHOT_VERSION},");
    out.push_str("  \"counters\": {");
    let mut first = true;
    for (name, value) in registry.counters() {
        let sep = if first { "\n" } else { ",\n" };
        first = false;
        let _ = write!(out, "{sep}    \"{}\": {value}", escape(name));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"gauges\": {");
    first = true;
    for (name, value) in registry.gauges() {
        let sep = if first { "\n" } else { ",\n" };
        first = false;
        let _ = write!(out, "{sep}    \"{}\": {}", escape(name), json_f64(value));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"spans\": {");
    first = true;
    let empty_hist = crate::Histogram::new();
    for (name, span) in registry.spans() {
        let sep = if first { "\n" } else { ",\n" };
        first = false;
        let hist = registry.hist(name).unwrap_or(&empty_hist);
        let _ = write!(
            out,
            "{sep}    \"{}\": {{ \"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
             \"p50_ns\": {}, \"p90_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
             \"buckets\": [",
            escape(name),
            span.count,
            span.sum_ns,
            span.min_ns,
            span.max_ns,
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
        let mut reg = MetricsRegistry::new();
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
        let json = to_json(&MetricsRegistry::new());
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"gauges\": {}"), "{json}");
        assert!(json.contains("\"spans\": {}"), "{json}");
    }

    #[test]
    fn names_are_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.inc("weird\"name\\with\nescapes", 1);
        let json = to_json(&reg);
        assert!(json.contains("weird\\\"name\\\\with\\nescapes"), "{json}");
    }
}
