//! Tracing overhead: the same parallel mining run untraced, fully
//! traced, and sampled.
//!
//! The untraced case is the one the <5% overhead budget applies to —
//! every trace call degrades to one branch on the recorder's absent
//! trace, leaving only the spans' histogram records, so an untraced
//! run must stay close to the pre-tracing pipeline (which is what the
//! committed bench baseline pins).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffcode::{mine_parallel, MineOptions};
use obs::Recorder;
use std::hint::black_box;

fn bench_tracing_overhead(c: &mut Criterion) {
    let corpus = corpus::generate(&corpus::GeneratorConfig::small(8, 0xE2E));
    let mut group = c.benchmark_group("tracing/mine");
    group.sample_size(10);
    type MakeRecorder = fn() -> Recorder;
    let cases: [(&str, MakeRecorder); 3] = [
        ("off", Recorder::new),
        ("on", || Recorder::traced(1)),
        ("sampled-100", || Recorder::traced(100)),
    ];
    for (label, make_recorder) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(label), &corpus, |b, corpus| {
            b.iter(|| {
                let mut rec = make_recorder();
                let opts = MineOptions {
                    threads: 4,
                    ..MineOptions::default()
                };
                let result = mine_parallel(black_box(corpus), &[], opts, &mut rec);
                (
                    result.changes.len(),
                    rec.trace().map_or(0, obs::TraceSink::len),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tracing_overhead);
criterion_main!(benches);
