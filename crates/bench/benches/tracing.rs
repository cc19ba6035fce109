//! Tracing overhead: the same parallel mining run with the trace sink
//! disabled, fully enabled, and sampled.
//!
//! The disabled case is the one the <5% overhead budget applies to —
//! every instrumentation point degrades to an `is_enabled` branch, so
//! a disabled-sink run must be indistinguishable from the pre-tracing
//! pipeline (which is what the committed bench baseline pins).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffcode::{mine_parallel, MineOptions};
use obs::{MetricsRegistry, TraceSink};
use std::hint::black_box;

fn bench_tracing_overhead(c: &mut Criterion) {
    let corpus = corpus::generate(&corpus::GeneratorConfig::small(8, 0xE2E));
    let mut group = c.benchmark_group("tracing/mine");
    group.sample_size(10);
    type MakeSink = fn() -> TraceSink;
    let cases: [(&str, MakeSink); 3] = [
        ("off", TraceSink::disabled),
        ("on", || TraceSink::enabled(1)),
        ("sampled-100", || TraceSink::enabled(100)),
    ];
    for (label, make_sink) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(label), &corpus, |b, corpus| {
            b.iter(|| {
                let mut registry = MetricsRegistry::new();
                let mut trace = make_sink();
                let opts = MineOptions {
                    threads: 4,
                    ..MineOptions::default()
                };
                let result = mine_parallel(black_box(corpus), &[], opts, &mut registry, &mut trace);
                (result.changes.len(), trace.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tracing_overhead);
criterion_main!(benches);
