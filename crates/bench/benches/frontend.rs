//! The `frontend` group: cold per-change cost of each front-end stage
//! — lex-only, parse-only, analyze-only, and the full cold change
//! (both versions parsed, analyzed, and diffed into usage changes).
//!
//! These are the numbers the arena/zero-copy refactor is measured by;
//! `all_experiments` records the same stages as `frontend.*` metric
//! spans so CI's bench-regression gate can machine-check them.

use analysis::{analyze, AnalysisLimits, ApiModel};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use diffcode_bench::cold_change;
use std::hint::black_box;

fn sample_changes() -> Vec<(String, String)> {
    let corpus = corpus::generate(&corpus::GeneratorConfig::small(4, 0xF00D));
    corpus
        .code_changes()
        .take(16)
        .map(|c| (c.old.to_owned(), c.new.to_owned()))
        .collect()
}

fn bench_frontend(c: &mut Criterion) {
    let changes = sample_changes();
    let api = ApiModel::standard();
    let total_bytes: u64 = changes
        .iter()
        .map(|(o, n)| (o.len() + n.len()) as u64)
        .sum();

    let mut group = c.benchmark_group("frontend");
    group.throughput(Throughput::Bytes(total_bytes));

    group.bench_function("lex", |b| {
        b.iter(|| {
            let mut tokens = 0usize;
            for (old, new) in &changes {
                tokens += javalang::lex(black_box(old)).unwrap().len();
                tokens += javalang::lex(black_box(new)).unwrap().len();
            }
            tokens
        })
    });

    group.bench_function("parse", |b| {
        b.iter(|| {
            let mut types = 0usize;
            for (old, new) in &changes {
                types += javalang::parse_snippet(black_box(old)).unwrap().types.len();
                types += javalang::parse_snippet(black_box(new)).unwrap().types.len();
            }
            types
        })
    });

    group.bench_function("analyze", |b| {
        let units: Vec<_> = changes
            .iter()
            .flat_map(|(old, new)| {
                [
                    javalang::parse_snippet(old).unwrap(),
                    javalang::parse_snippet(new).unwrap(),
                ]
            })
            .collect();
        b.iter(|| {
            units
                .iter()
                .map(|unit| {
                    analyze(black_box(unit), &api, &AnalysisLimits::DEFAULT)
                        .unwrap()
                        .0
                        .events
                        .len()
                })
                .sum::<usize>()
        })
    });

    group.bench_function("change", |b| {
        b.iter(|| {
            changes
                .iter()
                .map(|(old, new)| cold_change(black_box(old), black_box(new), &api))
                .sum::<usize>()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_frontend);
criterion_main!(benches);
