//! Shared plumbing for the experiment binaries.
//!
//! Each binary regenerates one table/figure of the paper's evaluation
//! section; see DESIGN.md for the experiment index and EXPERIMENTS.md
//! for paper-vs-measured numbers.

use corpus::GeneratorConfig;
use obs::{fmt_ns, Recorder};
use std::path::PathBuf;

/// Parses `[n_projects] [seed]` from the command line, with
/// paper-scale defaults. Flag arguments (`--bench-json <path>`) are
/// skipped; see [`bench_json_path`].
pub fn config_from_args(default_projects: usize) -> GeneratorConfig {
    let (positionals, _) = split_args();
    let n_projects = positionals
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_projects);
    let seed = positionals
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD1FF_C0DE);
    GeneratorConfig {
        n_projects,
        seed,
        ..GeneratorConfig::default()
    }
}

/// The `--bench-json <path>` argument, if given: where the binary
/// writes its metrics-registry snapshot (counters, gauges, and the
/// per-stage latency spans CI's regression gate reads).
pub fn bench_json_path() -> Option<PathBuf> {
    split_args().1
}

/// Splits the command line into positional arguments and the optional
/// `--bench-json` value.
fn split_args() -> (Vec<String>, Option<PathBuf>) {
    let mut positionals = Vec::new();
    let mut json = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        if arg == "--bench-json" {
            json = iter.next().map(PathBuf::from);
        } else {
            positionals.push(arg);
        }
    }
    (positionals, json)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}\n", "=".repeat(72));
}

/// Renders every span in `registry` as a latency table, sorted by the
/// recorder's deterministic (lexicographic) span order. This is the
/// experiment binaries' single timing sink: stages record spans and
/// this table is printed at the end, instead of each binary doing its
/// own `Instant` arithmetic.
pub fn render_span_table(registry: &Recorder) -> String {
    let mut table = diffcode::Table::new(vec![
        "span", "count", "total", "mean", "p50", "p90", "p99", "min", "max",
    ]);
    for (name, hist) in registry.spans() {
        table.row(vec![
            name.to_owned(),
            hist.count().to_string(),
            fmt_ns(hist.sum_ns()),
            fmt_ns(hist.mean_ns()),
            fmt_ns(hist.quantile(0.50)),
            fmt_ns(hist.quantile(0.90)),
            fmt_ns(hist.quantile(0.99)),
            fmt_ns(hist.min_ns()),
            fmt_ns(hist.max_ns()),
        ]);
    }
    table.render()
}

/// One cold code change, end to end: parse and analyze both versions,
/// then derive the usage-change diff for every target class, all under
/// [`diffcode::PipelineLimits::DEFAULT`] — exactly what the mining loop
/// pays per change on a cache miss. Returns the number of non-trivial
/// usage changes derived (a value to keep the optimizer honest). Shared
/// by the `frontend` criterion group and the `frontend.*` metric spans
/// `all_experiments` records for CI's bench-regression gate.
pub fn cold_change(old: &str, new: &str, api: &analysis::ApiModel) -> usize {
    let limits = diffcode::PipelineLimits::DEFAULT;
    let old_usages = analyze(old, api);
    let new_usages = analyze(new, api);
    analysis::TARGET_CLASSES
        .iter()
        .map(|class| {
            usagegraph::usage_changes(&old_usages, &new_usages, class, &limits.dag)
                .unwrap()
                .iter()
                .filter(|(_, _, change)| !change.is_same())
                .count()
        })
        .sum()
}

/// Parses and analyzes one source under the default budgets, as mining
/// does.
pub fn analyze(source: &str, api: &analysis::ApiModel) -> analysis::Usages {
    let limits = diffcode::PipelineLimits::DEFAULT;
    let unit = javalang::parse_snippet_with_limits(source, limits.parse).unwrap();
    analysis::analyze(&unit, api, &limits.analysis).unwrap().0
}

/// Times each front-end stage over a fixed slice of `corpus`'s code
/// changes, recording `frontend.lex` / `frontend.parse` /
/// `frontend.analyze` / `frontend.change` spans — one span per pass
/// over the whole slice, so span means sit well above the regression
/// gate's noise floor while still scaling linearly with per-change
/// cost. Returns `(changes timed, passes per stage)`.
pub fn frontend_microbench(corpus: &corpus::Corpus, metrics: &mut Recorder) -> (usize, usize) {
    const SAMPLES: usize = 32;
    const REPS: usize = 120;
    let changes: Vec<(&str, &str)> = corpus
        .code_changes()
        .take(SAMPLES)
        .map(|c| (c.old, c.new))
        .collect();
    let api = analysis::ApiModel::standard();
    let mut sink = 0usize;
    // One untimed warm-up pass (criterion-style): populates the interner,
    // faults in code pages, and trains branch predictors so the measured
    // reps time the steady state rather than first-touch costs.
    sink += changes
        .iter()
        .map(|(old, new)| cold_change(old, new, &api))
        .sum::<usize>();
    for _ in 0..REPS {
        sink += metrics.time("frontend.lex", || {
            changes
                .iter()
                .map(|(old, new)| {
                    javalang::lex(old).unwrap().len() + javalang::lex(new).unwrap().len()
                })
                .sum::<usize>()
        });
        sink += metrics.time("frontend.parse", || {
            changes
                .iter()
                .map(|(old, new)| {
                    javalang::parse_snippet(old).unwrap().types.len()
                        + javalang::parse_snippet(new).unwrap().types.len()
                })
                .sum::<usize>()
        });
        let units: Vec<_> = changes
            .iter()
            .flat_map(|(old, new)| {
                [
                    javalang::parse_snippet(old).unwrap(),
                    javalang::parse_snippet(new).unwrap(),
                ]
            })
            .collect();
        sink += metrics.time("frontend.analyze", || {
            units
                .iter()
                .map(|unit| {
                    let limits = analysis::AnalysisLimits::DEFAULT;
                    analysis::analyze(unit, &api, &limits)
                        .unwrap()
                        .0
                        .events
                        .len()
                })
                .sum::<usize>()
        });
        sink += metrics.time("frontend.change", || {
            changes
                .iter()
                .map(|(old, new)| cold_change(old, new, &api))
                .sum::<usize>()
        });
    }
    std::hint::black_box(sink);
    (changes.len(), REPS)
}

/// The min/max/sum/count span aggregate the recorder kept before each
/// span's histogram took its place: the fixed baseline of the
/// record-overhead ratio gate, so the gate keeps measuring against the
/// same cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    /// Number of recorded runs.
    pub count: u64,
    /// Total duration, ns.
    pub sum_ns: u64,
    /// Shortest run, ns.
    pub min_ns: u64,
    /// Longest run, ns.
    pub max_ns: u64,
}

impl SpanStats {
    /// Folds one duration into the aggregate.
    pub fn record(&mut self, duration: std::time::Duration) {
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }
}

/// Measures what the histogram plane costs in `record_span`: one span
/// times a pass of bare `BTreeMap<String, SpanStats>` upserts (the
/// pre-histogram cost model, [`SpanStats`]), the other the full
/// [`Recorder::record_span`] path (one log-linear histogram per span).
/// Both land in the bench JSON, where CI pins
/// `obs.record_span / obs.span_stats_only <= 2` (the EXPERIMENTS.md
/// record-overhead budget). Returns `(records per pass, passes)`.
pub fn obs_overhead_microbench(metrics: &mut Recorder) -> (usize, usize) {
    use std::collections::BTreeMap;
    use std::time::Duration;
    const SAMPLES: usize = 4_096;
    const REPS: usize = 60;
    // Deterministic latency-shaped samples (xorshift, ns..10ms).
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let durations: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Duration::from_nanos(state % 10_000_000)
        })
        .collect();
    let mut sink = 0u64;
    for _ in 0..REPS {
        sink += metrics.time("obs.span_stats_only", || {
            let mut spans: BTreeMap<String, SpanStats> = BTreeMap::new();
            for d in &durations {
                spans.entry("bench.span".to_owned()).or_default().record(*d);
            }
            spans.values().map(|s| s.count).sum::<u64>()
        });
        sink += metrics.time("obs.record_span", || {
            let mut registry = Recorder::new();
            for d in &durations {
                registry.record_span("bench.span", *d);
            }
            registry.span("bench.span").map_or(0, obs::Histogram::count)
        });
    }
    std::hint::black_box(sink);
    (SAMPLES, REPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_uses_paper_scale() {
        let cfg = config_from_args(461);
        assert_eq!(cfg.n_projects, 461);
    }

    #[test]
    fn span_table_renders_percentile_columns() {
        let mut registry = Recorder::new();
        for ns in [100u64, 200, 300, 400] {
            registry.record_span("stage", std::time::Duration::from_nanos(ns));
        }
        let table = render_span_table(&registry);
        assert!(table.contains("p50"), "{table}");
        assert!(table.contains("p99"), "{table}");
        assert!(table.contains("stage"), "{table}");
    }
}
