//! Histogram record-path overhead: what every `record_span` call pays
//! against the plain min/max/sum span statistics it replaced, plus the
//! quantile/merge costs the serve `/status` endpoint exercises and the
//! disabled-logger write cost (one branch, no rendering).
//!
//! The paired `span_stats_only`/`record_span` measurement is what the
//! EXPERIMENTS.md overhead table and the CI `--max-ratio` gate pin:
//! the recorder's record path (one histogram per span) must stay
//! within 2x of the bare span-stats upsert.

use criterion::{criterion_group, criterion_main, Criterion};
use diffcode_bench::SpanStats;
use obs::{AttrSet, Histogram, LogLevel, Logger, Recorder};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

/// Deterministic latency-shaped samples (xorshift; spans ns..ms).
fn sample_durations(n: usize) -> Vec<Duration> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Duration::from_nanos(state % 10_000_000)
        })
        .collect()
}

fn bench_obs_hist(c: &mut Criterion) {
    let durations = sample_durations(4096);
    let mut group = c.benchmark_group("obs_hist");

    // The pre-histogram cost model: a BTreeMap<String, SpanStats>
    // upsert per sample, nothing else.
    group.bench_function("span_stats_only", |b| {
        b.iter(|| {
            let mut spans: BTreeMap<String, SpanStats> = BTreeMap::new();
            for d in &durations {
                spans
                    .entry("serve.request".to_owned())
                    .or_default()
                    .record(*d);
            }
            black_box(spans.len())
        });
    });

    // The recorder path: the span's histogram.
    group.bench_function("record_span", |b| {
        b.iter(|| {
            let mut registry = Recorder::new();
            for d in &durations {
                registry.record_span("serve.request", *d);
            }
            black_box(registry.span("serve.request").map(Histogram::count))
        });
    });

    group.bench_function("hist_record", |b| {
        b.iter(|| {
            let mut hist = Histogram::new();
            for d in &durations {
                hist.record(d.as_nanos() as u64);
            }
            black_box(hist.count())
        });
    });

    let mut full = Histogram::new();
    for d in &durations {
        full.record(d.as_nanos() as u64);
    }
    group.bench_function("quantile", |b| {
        b.iter(|| {
            let h = black_box(&full);
            (h.quantile(0.5), h.quantile(0.99), h.quantile(0.999))
        });
    });

    group.bench_function("merge", |b| {
        b.iter(|| {
            let mut acc = Histogram::new();
            acc.merge(black_box(&full));
            acc.merge(black_box(&full));
            black_box(acc.count())
        });
    });

    // A disabled logger must render nothing and allocate nothing for
    // an event whose attributes the caller already built for its
    // trace; this is the cost every exported event pays in a library
    // embed.
    let log = Logger::disabled();
    let mut attrs = AttrSet::default();
    attrs.u64("latency_ns", 412_000).str("outcome", "ok");
    group.bench_function("logger_disabled_event", |b| {
        b.iter(|| {
            for _ in &durations {
                log.write(LogLevel::Info, "serve.access", black_box(&attrs));
            }
        });
    });

    group.finish();
}

criterion_group!(benches, bench_obs_hist);
criterion_main!(benches);
