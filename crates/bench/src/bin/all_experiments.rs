//! Regenerates every table/figure in one run and prints them in paper
//! order. Mines the corpus once and reuses it across figures.
//!
//! All timings come from the observability layer: stages run under
//! [`obs::Recorder`] spans (the mining spans are the ones the
//! pipeline itself records, merged across worker shards) and the run
//! ends with the aggregated stage-latency table — no ad-hoc clock
//! arithmetic in the binary.
//!
//! Usage: `cargo run --release -p diffcode-bench --bin all_experiments [n_projects] [seed]
//! [--bench-json <path>]`
//!
//! `--bench-json` writes the run's metrics snapshot (per-stage latency
//! spans included) for CI's bench-regression gate.

use diffcode::Experiments;
use diffcode_bench::{
    bench_json_path, config_from_args, frontend_microbench, header, obs_overhead_microbench,
    render_span_table,
};
use obs::Recorder;

fn main() {
    let config = config_from_args(461);
    let mut metrics = Recorder::new();
    println!(
        "generating corpus: {} projects, seed {:#x}",
        config.n_projects, config.seed
    );
    let corpus = metrics.time("corpus.generate", || corpus::generate(&config));
    println!(
        "  {} projects, {} commits",
        corpus.projects.len(),
        corpus.total_commits()
    );
    // Cold front-end stage costs (frontend.* spans): the numbers the
    // bench-regression gate and the front-end speedup gate read from
    // the bench JSON.
    let (timed, passes) = frontend_microbench(&corpus, &mut metrics);
    for stage in ["lex", "parse", "analyze", "change"] {
        if let Some(span) = metrics.span(&format!("frontend.{stage}")) {
            println!(
                "  frontend.{stage}: {}/change cold ({timed} changes x {passes} passes)",
                obs::fmt_ns(span.mean_ns() / timed as u64),
            );
        }
    }
    // Histogram record-path overhead (obs.* spans): the full
    // record_span cost vs the bare span-stats upsert it extends, for
    // the EXPERIMENTS.md table and the CI --max-ratio gate.
    let (records, obs_passes) = obs_overhead_microbench(&mut metrics);
    for stage in ["span_stats_only", "record_span"] {
        if let Some(span) = metrics.span(&format!("obs.{stage}")) {
            println!(
                "  obs.{stage}: {}/record ({records} records x {obs_passes} passes)",
                obs::fmt_ns(span.mean_ns() / records as u64),
            );
        }
    }
    let mut exp = metrics.time("experiments.mine", || Experiments::new(corpus));
    metrics.merge(exp.metrics().clone());
    println!(
        "  mined {} code changes -> {} usage changes in {}",
        exp.code_changes(),
        exp.mined_changes().len(),
        obs::fmt_ns(metrics.span("experiments.mine").map_or(0, |s| s.sum_ns())),
    );

    header("Figure 6 — usage changes per target API class after filtering");
    let fig6 = metrics.time("figures.fig6", || exp.figure6_table());
    print!("{fig6}");

    header("Figure 7 — fixes / bugs / non-semantic vs CL1–CL5");
    let fig7 = metrics.time("figures.fig7", || exp.figure7_table());
    print!("{fig7}");

    header("Figure 8 — Cipher dendrogram (clusters at cut 0.45)");
    let fig8 = metrics.time("figures.fig8", || exp.figure8("Cipher", 0.45));
    println!(
        "{} filtered changes, {} clusters; top clusters:",
        fig8.filtered.len(),
        fig8.elicitation.clusters.len()
    );
    for (i, cluster) in fig8.elicitation.clusters.iter().take(5).enumerate() {
        println!("\ncluster {} ({} members):", i + 1, cluster.members.len());
        print!("{}", cluster.representative);
    }

    header("Figure 9 — the 13 elicited security rules");
    print!("{}", diffcode::figure9_table());

    header("Figure 10 — CryptoChecker violations");
    let out = metrics.time("figures.fig10", || exp.figure10());
    print!("{}", out.table());
    println!(
        "\n{} of {} projects ({:.1}%) violate at least one rule (paper: >57%)",
        out.any_violation,
        out.total_projects,
        100.0 * out.any_violation as f64 / out.total_projects as f64
    );

    header("Stage latencies (recorder spans)");
    print!("{}", render_span_table(&metrics));
    let total: u64 = [
        "corpus.generate",
        "experiments.mine",
        "figures.fig6",
        "figures.fig7",
        "figures.fig8",
        "figures.fig10",
    ]
    .iter()
    .filter_map(|name| metrics.span(name).map(|s| s.sum_ns()))
    .sum();
    println!("\ntotal stage time: {}", obs::fmt_ns(total));

    if let Some(path) = bench_json_path() {
        if let Err(err) = std::fs::write(&path, metrics.to_json()) {
            eprintln!("error: writing {}: {err}", path.display());
            std::process::exit(2);
        }
        println!("bench metrics written to {}", path.display());
    }
}
