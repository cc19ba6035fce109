//! Min-cost assignment scaling (the DAG pairing step).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use usagegraph::matching::min_cost_assignment;

fn deterministic_matrix(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 10_000) as f64 / 10_000.0
    };
    (0..n).map(|_| (0..n).map(|_| next()).collect()).collect()
}

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian");
    for n in [4usize, 16, 64, 128] {
        let cost = deterministic_matrix(n, 0x5eed);
        group.bench_with_input(BenchmarkId::from_parameter(n), &cost, |b, cost| {
            b.iter(|| min_cost_assignment(black_box(cost)).1);
        });
    }
    group.finish();
}

fn bench_pair_dags(c: &mut Criterion) {
    // Realistic DAG pairing: several objects per version.
    let api = analysis::ApiModel::standard();
    let limits = usagegraph::DagLimits::DEFAULT;
    let old = diffcode_bench::analyze(corpus::fixtures::FIGURE2_OLD, &api);
    let new = diffcode_bench::analyze(corpus::fixtures::FIGURE2_NEW, &api);
    let old_dags = usagegraph::dags_for_class(&old, "Cipher", &limits).unwrap();
    let new_dags = usagegraph::dags_for_class(&new, "Cipher", &limits).unwrap();
    c.bench_function("pairing/figure2_cipher", |b| {
        b.iter(|| {
            usagegraph::pair_dags(
                black_box(old_dags.clone()),
                black_box(new_dags.clone()),
                "Cipher",
            )
            .len()
        });
    });
}

criterion_group!(benches, bench_hungarian, bench_pair_dags);
criterion_main!(benches);
