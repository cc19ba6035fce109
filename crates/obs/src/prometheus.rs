//! Prometheus text-format exposition for a [`Recorder`]'s metrics.
//!
//! The resident server's `GET /metrics` endpoint renders a registry
//! snapshot in the Prometheus exposition format (version 0.0.4): a
//! `# HELP` + `# TYPE` header plus sample lines per metric,
//! `diffcode_`-prefixed, with registry names sanitized to the
//! `[a-zA-Z0-9_]` metric-name alphabet (every other byte becomes `_`)
//! and label values escaped per the text format (`\\`, `\"`, `\n`).
//! Output is **deterministic** for a given registry state — names
//! render in sorted order, floats with a fixed format, and histogram
//! bucket edges are a fixed layout ([`crate::hist::EXPOSITION_EDGES`]) — which
//! is what lets the soak harness assert that two scrapes of an idle
//! server are byte-identical.
//!
//! Counters map to `counter`, gauges to `gauge`, and each timing span
//! to the four legacy samples (`<name>_count`, `<name>_sum_ns`,
//! `<name>_min_ns`, `<name>_max_ns`) **plus** a native `histogram`
//! family `<name>_latency_ns` with cumulative `_bucket{le="…"}` series
//! at the canonical `2^k - 1` nanosecond edges (exact counts — every
//! edge is an inclusive bucket boundary of the log-linear layout),
//! `_sum` and `_count`.

use crate::hist::EXPOSITION_EDGES;
use crate::Recorder;
use std::fmt::Write as _;

/// Rewrites a registry name (`serve.http_requests`, `mine.change`) into
/// the Prometheus metric-name alphabet, prefixed with `diffcode_`.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("diffcode_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a string for a `# HELP` line or a label value per the text
/// exposition format: backslash, double quote (labels only, harmless
/// in help text), and newline.
fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            ch => out.push(ch),
        }
    }
    out
}

/// Renders a gauge value the way Prometheus expects: integral values
/// without a fractional part, everything else with enough digits to
/// round-trip, and non-finite values as `NaN`/`+Inf`/`-Inf`.
fn gauge_value(value: f64) -> String {
    if value.is_nan() {
        return "NaN".to_owned();
    }
    if value.is_infinite() {
        return if value > 0.0 { "+Inf" } else { "-Inf" }.to_owned();
    }
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

fn header(out: &mut String, metric: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {metric} {}", escape_text(help));
    let _ = writeln!(out, "# TYPE {metric} {kind}");
}

/// Renders the registry in the Prometheus text exposition format.
/// Deterministic: same registry state, same bytes.
pub fn to_prometheus_text(registry: &Recorder) -> String {
    let mut out = String::new();
    for (name, value) in registry.counters() {
        let metric = metric_name(name);
        header(
            &mut out,
            &metric,
            &format!("Monotonic counter {name} from the diffcode registry."),
            "counter",
        );
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, value) in registry.gauges() {
        let metric = metric_name(name);
        header(
            &mut out,
            &metric,
            &format!("Gauge {name} from the diffcode registry."),
            "gauge",
        );
        let _ = writeln!(out, "{metric} {}", gauge_value(value));
    }
    for (name, hist) in registry.spans() {
        let base = metric_name(name);
        header(
            &mut out,
            &format!("{base}_count"),
            &format!("Number of recorded runs of span {name}."),
            "counter",
        );
        let _ = writeln!(out, "{base}_count {}", hist.count());
        header(
            &mut out,
            &format!("{base}_sum_ns"),
            &format!("Total duration of span {name} in nanoseconds."),
            "counter",
        );
        let _ = writeln!(out, "{base}_sum_ns {}", hist.sum_ns());
        header(
            &mut out,
            &format!("{base}_min_ns"),
            &format!("Shortest run of span {name} in nanoseconds."),
            "gauge",
        );
        let _ = writeln!(out, "{base}_min_ns {}", hist.min_ns());
        header(
            &mut out,
            &format!("{base}_max_ns"),
            &format!("Longest run of span {name} in nanoseconds."),
            "gauge",
        );
        let _ = writeln!(out, "{base}_max_ns {}", hist.max_ns());

        // Native histogram family over the fixed log-linear layout:
        // cumulative counts at the canonical 2^k - 1 edges are exact
        // (each edge is an inclusive bucket upper bound), so the
        // series carries no estimation error — only the inter-edge
        // resolution is quantized.
        let family = format!("{base}_latency_ns");
        header(
            &mut out,
            &family,
            &format!(
                "Log-linear latency histogram for span {} in nanoseconds.",
                name
            ),
            "histogram",
        );
        for &edge in &EXPOSITION_EDGES {
            let _ = writeln!(
                out,
                "{family}_bucket{{le=\"{edge}\"}} {}",
                hist.count_le(edge)
            );
        }
        let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{family}_sum {}", hist.sum_ns());
        let _ = writeln!(out, "{family}_count {}", hist.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn renders_counters_gauges_and_spans_deterministically() {
        let mut reg = Recorder::new();
        reg.inc("serve.accepted", 7);
        reg.inc("mine.code_changes", 3);
        reg.set_gauge("serve.queue_depth", 2.0);
        reg.set_gauge("cache.hit_rate", 0.25);
        reg.record_span("serve.request", Duration::from_nanos(1_500));
        reg.record_span("serve.request", Duration::from_nanos(500));

        let text = to_prometheus_text(&reg);
        let again = to_prometheus_text(&reg);
        assert_eq!(text, again, "idle scrapes are byte-identical");

        assert!(text.contains("# TYPE diffcode_serve_accepted counter"));
        assert!(text.contains("# HELP diffcode_serve_accepted "));
        assert!(text.contains("diffcode_serve_accepted 7"));
        assert!(text.contains("diffcode_mine_code_changes 3"));
        assert!(text.contains("diffcode_serve_queue_depth 2"));
        assert!(text.contains("diffcode_cache_hit_rate 0.25"));
        assert!(text.contains("diffcode_serve_request_count 2"));
        assert!(text.contains("diffcode_serve_request_sum_ns 2000"));
        assert!(text.contains("diffcode_serve_request_min_ns 500"));
        assert!(text.contains("diffcode_serve_request_max_ns 1500"));
        // Counters render before gauges, names sorted within a section.
        let accepted = text.find("diffcode_serve_accepted").unwrap();
        let changes = text.find("diffcode_mine_code_changes").unwrap();
        assert!(changes < accepted, "sorted counter order");
    }

    #[test]
    fn every_sample_family_has_help_and_type() {
        let mut reg = Recorder::new();
        reg.inc("c", 1);
        reg.set_gauge("g", 1.0);
        reg.record_span("s", Duration::from_nanos(100));
        let text = to_prometheus_text(&reg);
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let metric = line.split([' ', '{']).next().unwrap();
            // A sample belongs either to a family named exactly after
            // it, or (histogram members _bucket/_sum/_count) to the
            // family with the suffix stripped.
            let covered = [metric]
                .into_iter()
                .chain(
                    ["_bucket", "_sum", "_count"]
                        .iter()
                        .filter_map(|s| metric.strip_suffix(s)),
                )
                .any(|family| {
                    text.contains(&format!("# HELP {family} "))
                        && text.contains(&format!("# TYPE {family} "))
                });
            assert!(covered, "missing HELP/TYPE for {metric}: {text}");
        }
    }

    #[test]
    fn spans_expose_a_cumulative_histogram_family() {
        let mut reg = Recorder::new();
        reg.record_span("serve.request", Duration::from_nanos(300));
        reg.record_span("serve.request", Duration::from_nanos(70_000));
        let text = to_prometheus_text(&reg);
        assert!(text.contains("# TYPE diffcode_serve_request_latency_ns histogram"));
        // 300ns <= 511 (first sample only); 70_000ns <= 131071.
        assert!(
            text.contains("diffcode_serve_request_latency_ns_bucket{le=\"255\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("diffcode_serve_request_latency_ns_bucket{le=\"511\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("diffcode_serve_request_latency_ns_bucket{le=\"131071\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("diffcode_serve_request_latency_ns_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("diffcode_serve_request_latency_ns_sum 70300"),
            "{text}"
        );
        assert!(
            text.contains("diffcode_serve_request_latency_ns_count 2"),
            "{text}"
        );
        // Buckets are cumulative and monotone.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotone bucket counts: {line}");
            last = v;
        }
    }

    #[test]
    fn sanitizes_names_and_non_finite_gauges() {
        let mut reg = Recorder::new();
        reg.inc("weird name:with/chars", 1);
        reg.set_gauge("g.nan", f64::NAN);
        reg.set_gauge("g.inf", f64::INFINITY);
        let text = to_prometheus_text(&reg);
        assert!(text.contains("diffcode_weird_name_with_chars 1"));
        assert!(text.contains("diffcode_g_nan NaN"));
        assert!(text.contains("diffcode_g_inf +Inf"));
    }

    #[test]
    fn help_text_escapes_backslash_and_newline() {
        assert_eq!(escape_text("a\\b\nc\"d"), "a\\\\b\\nc\\\"d");
        let mut reg = Recorder::new();
        reg.inc("odd\nname", 1);
        let text = to_prometheus_text(&reg);
        assert!(
            text.contains("# HELP diffcode_odd_name Monotonic counter odd\\nname"),
            "{text}"
        );
        // The escaped newline keeps every HELP record on one line.
        for line in text.lines().filter(|l| l.starts_with("# HELP")) {
            assert!(line.split(' ').count() >= 4, "truncated HELP: {line}");
        }
    }
}
