//! End-to-end pipeline throughput: mine + abstract + filter whole
//! corpora.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffcode::{apply_filters, DiffCode, SeenDups};
use obs::Recorder;
use std::hint::black_box;

fn bench_mine(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/mine");
    group.sample_size(10);
    for n_projects in [2usize, 5, 10] {
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(n_projects, 0xE2E));
        group.bench_with_input(
            BenchmarkId::from_parameter(n_projects),
            &corpus,
            |b, corpus| {
                b.iter(|| {
                    let mut dc = DiffCode::new();
                    dc.mine(black_box(corpus), &[], None).changes.len()
                });
            },
        );
    }
    group.finish();
}

fn bench_filter(c: &mut Criterion) {
    let corpus = corpus::generate(&corpus::GeneratorConfig::small(10, 0xE2E));
    let mut dc = DiffCode::new();
    let mined = dc.mine(&corpus, &[], None);
    c.bench_function("pipeline/filter", |b| {
        b.iter(|| {
            apply_filters(
                black_box(&mined.changes),
                &mut SeenDups::new(),
                &mut Recorder::new(),
            )
            .1
        });
    });
}

fn bench_checker(c: &mut Criterion) {
    let mut exp =
        diffcode::Experiments::new(corpus::generate(&corpus::GeneratorConfig::small(10, 0xE2E)));
    let projects = exp.checked_projects();
    let checker = rules::CryptoChecker::standard();
    c.bench_function("pipeline/crypto_checker", |b| {
        b.iter(|| checker.check_all(black_box(&projects)).len());
    });
}

criterion_group!(benches, bench_mine, bench_filter, bench_checker);
criterion_main!(benches);
