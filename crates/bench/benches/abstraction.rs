//! Abstract-interpretation and DAG-construction throughput, under the
//! default budgets mining runs.

use analysis::{analyze, AnalysisLimits, ApiModel};
use corpus::fixtures;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use usagegraph::{dags_for_class, DagLimits};

fn bench_analysis(c: &mut Criterion) {
    let api = ApiModel::standard();
    let unit = javalang::parse_compilation_unit(fixtures::FIGURE2_NEW).unwrap();
    c.bench_function("analysis/figure2_new", |b| {
        b.iter(|| {
            analyze(black_box(&unit), &api, &AnalysisLimits::DEFAULT)
                .unwrap()
                .0
                .objects
                .len()
        });
    });

    // A corpus-generated cipher module is larger and inter-procedural.
    let corpus = corpus::generate(&corpus::GeneratorConfig::small(12, 0xAB));
    let src = corpus
        .code_changes()
        .map(|ch| ch.new.to_owned())
        .find(|s| s.contains("Cipher.getInstance"))
        .expect("at least one cipher module in 12 projects");
    let unit = javalang::parse_compilation_unit(&src).unwrap();
    c.bench_function("analysis/generated_cipher_module", |b| {
        b.iter(|| {
            analyze(black_box(&unit), &api, &AnalysisLimits::DEFAULT)
                .unwrap()
                .0
                .objects
                .len()
        });
    });
}

fn bench_dag_construction(c: &mut Criterion) {
    let usages = diffcode_bench::analyze(fixtures::FIGURE2_NEW, &ApiModel::standard());
    c.bench_function("dag/build_all_cipher_dags", |b| {
        b.iter(|| {
            dags_for_class(black_box(&usages), "Cipher", &DagLimits::DEFAULT)
                .unwrap()
                .len()
        });
    });
}

fn bench_dag_distance(c: &mut Criterion) {
    let api = ApiModel::standard();
    let old = diffcode_bench::analyze(fixtures::FIGURE2_OLD, &api);
    let new = diffcode_bench::analyze(fixtures::FIGURE2_NEW, &api);
    let old_dags = dags_for_class(&old, "Cipher", &DagLimits::DEFAULT).unwrap();
    let new_dags = dags_for_class(&new, "Cipher", &DagLimits::DEFAULT).unwrap();
    c.bench_function("dag/iou_distance", |b| {
        b.iter(|| black_box(&old_dags[0]).distance(black_box(&new_dags[0])));
    });
}

criterion_group!(
    benches,
    bench_analysis,
    bench_dag_construction,
    bench_dag_distance
);
criterion_main!(benches);
