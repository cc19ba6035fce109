//! The `diffcode` command-line tool: analyze, diff, and check real
//! `.java` files.
//!
//! All rendering lives here (unit-testable, no I/O); the binary in
//! `src/bin/diffcode.rs` only reads files and forwards sources.

use crate::ccache::ClusterCache;
use crate::elicit::{elicit_auto, Elicitation};
use crate::filter::{apply_filters, FilterStats, SeenDups, FILTER_FUNNEL};
use crate::mcache::{DagView, MiningCache};
use crate::pipeline::{mine_parallel, DagPair, DiffCode, MineOptions, MiningResult};
use crate::quarantine::{ErrorKind, PipelineLimits};
use crate::report::Table;
use analysis::TARGET_CLASSES;
use javalang::ParseError;
use obs::{fmt_ns, MetricsRegistry, TraceKind, TraceSink};
use rules::{CheckedProject, CryptoChecker, ProjectContext};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use usagegraph::{UsageChange, UsageDag};

/// Renders the abstract usages of one source file: every abstract
/// object of a target class with its usage DAG.
///
/// # Errors
///
/// Fails if the source cannot be lexed.
pub fn render_analysis(source: &str, classes: &[&str]) -> Result<String, ParseError> {
    let mut dc = DiffCode::new();
    let usages = dc.analyze_source(source)?;
    let classes = effective_classes(classes);
    let mut out = String::new();
    let mut found = 0usize;
    for class in &classes {
        for site in usages.objects_of_type(class) {
            found += 1;
            let dag = usagegraph::build_dag(&usages, site, usagegraph::DEFAULT_MAX_DEPTH);
            let _ = writeln!(out, "abstract object {site} : {class}");
            for event in usages.events_of(site) {
                let args: Vec<String> = event.args.iter().map(|a| a.label()).collect();
                let _ = writeln!(
                    out,
                    "  {}({})",
                    event.method.label_for(class),
                    args.join(", ")
                );
            }
            let _ = writeln!(out, "  usage DAG:");
            for path in &dag.paths {
                let _ = writeln!(out, "    {path}");
            }
        }
    }
    if found == 0 {
        let _ = writeln!(out, "no usages of {} found", classes.join(", "));
    }
    Ok(out)
}

/// Renders the usage changes between two source versions.
///
/// # Errors
///
/// Fails if either source cannot be lexed.
pub fn render_diff(
    old_source: &str,
    new_source: &str,
    classes: &[&str],
) -> Result<String, ParseError> {
    let mut dc = DiffCode::new();
    let classes = effective_classes(classes);
    let mut out = String::new();
    let mut any = false;
    for class in &classes {
        for (_, _, change) in dc.usage_changes_from_pair(old_source, new_source, class)? {
            if change.is_same() {
                continue;
            }
            any = true;
            let kind = if change.is_pure_addition() {
                " (new usage)"
            } else if change.is_pure_removal() {
                " (usage removed)"
            } else {
                ""
            };
            let _ = writeln!(out, "usage change for {class}{kind}:");
            for line in change.to_string().lines() {
                let _ = writeln!(out, "  {line}");
            }
            if !change.is_pure_addition() && !change.is_pure_removal() {
                let suggested = rules::SuggestedRule::from_change(&change);
                let _ = writeln!(out, "  suggested rule:");
                for line in suggested.to_string().lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
    }
    if !any {
        let _ = writeln!(
            out,
            "no semantic usage changes (the change is a refactoring under the abstraction)"
        );
    }
    Ok(out)
}

/// Checks a set of named sources as one project against the 13 rules.
/// Returns the report and the number of violated rules.
pub fn render_check(files: &[(String, String)], context: ProjectContext) -> (String, usize) {
    let mut dc = DiffCode::new();
    let mut usages = Vec::new();
    let mut out = String::new();
    for (name, source) in files {
        match dc.analyze_source(source) {
            Ok(u) => usages.push((*u).clone()),
            Err(err) => {
                let _ = writeln!(out, "warning: {name}: {err}");
            }
        }
    }
    let project = CheckedProject {
        name: "cli".to_owned(),
        usages,
        context,
    };
    let checker = CryptoChecker::standard();
    let violations = checker.violations(&project);
    if violations.is_empty() {
        let _ = writeln!(out, "no rule violations in {} file(s)", files.len());
        return (out, 0);
    }
    let _ = writeln!(
        out,
        "{} rule violation(s) in {} file(s):",
        violations.len(),
        files.len()
    );
    for id in &violations {
        let rule = checker
            .rules()
            .iter()
            .find(|r| r.id == *id)
            .expect("violations come from the checker's rules");
        let _ = writeln!(out, "  {:4} {}", rule.id, rule.description);
        // Evidence: the first file whose usages violate the rule.
        for usage in &project.usages {
            let evidence = rule.evidence(usage, &project.context);
            if evidence.is_empty() {
                continue;
            }
            for e in evidence {
                let _ = writeln!(
                    out,
                    "       evidence: {} object {} — {}",
                    e.class,
                    e.site,
                    e.witnesses.join("; ")
                );
            }
            break;
        }
    }
    let count = violations.len();
    (out, count)
}

/// The Figure 9 rule table.
pub fn render_rules() -> String {
    crate::experiments::figure9_table()
}

/// Renders a mining run's accounting: mined/skipped totals, the
/// per-kind skip breakdown, and the quarantine (capped at
/// `max_reports` entries, with a count of the remainder).
pub fn render_mining_summary(result: &MiningResult, max_reports: usize) -> String {
    let stats = &result.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "processed {} code change(s): {} mined, {} skipped",
        stats.code_changes,
        stats.mined,
        stats.skipped.total()
    );
    if stats.skipped.total() > 0 {
        let mut table = Table::new(["Skip kind", "Count", "Share"]);
        for kind in ErrorKind::ALL {
            let count = stats.skipped.get(kind);
            if count == 0 {
                continue;
            }
            table.row([
                kind.name().to_owned(),
                count.to_string(),
                format!("{:.1}%", 100.0 * count as f64 / stats.code_changes as f64),
            ]);
        }
        out.push('\n');
        out.push_str(&table.render());
    }
    if !result.quarantine.is_empty() {
        let _ = writeln!(out, "\nquarantine:");
        for report in result.quarantine.iter().take(max_reports) {
            let _ = writeln!(
                out,
                "  [{}] {} @ {} ({}): {}",
                report.kind,
                report.meta.project,
                report.meta.commit,
                report.meta.path,
                report.error
            );
            if !report.excerpt.is_empty() {
                let _ = writeln!(out, "      | {}", report.excerpt);
            }
        }
        if result.quarantine.len() > max_reports {
            let _ = writeln!(
                out,
                "  … and {} more",
                result.quarantine.len() - max_reports
            );
        }
    }
    out
}

/// Runs the seeded chaos experiment: generates a corpus, injects
/// faults into ~`rate` of its code changes (panic injection included),
/// mines it, and renders the accounting. Backs the `diffcode chaos`
/// command and the quarantine-rate numbers in EXPERIMENTS.md §8.
pub fn render_chaos(seed: u64, rate: f64, n_projects: usize) -> String {
    const MARKER: &str = "@@DIFFCODE_CHAOS_PANIC@@";
    std::env::set_var("DIFFCODE_CHAOS_PANIC_MARKER", MARKER);
    let mut corpus = corpus::generate(&corpus::GeneratorConfig::small(n_projects, seed));
    let log = corpus::Mutator::new(seed, rate)
        .with_panic_marker(MARKER)
        .inject(&mut corpus);
    // The injected panics are expected; keep them off the console.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = DiffCode::new().mine(&corpus, &[], None);
    std::panic::set_hook(prev_hook);
    std::env::remove_var("DIFFCODE_CHAOS_PANIC_MARKER");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos run: seed {seed}, fault rate {rate:.2}, {n_projects} project(s), \
         {} fault(s) injected into {} code change(s)",
        log.faults.len(),
        log.code_changes
    );
    assert!(
        result.stats.is_balanced(),
        "accounting invariant violated: {:?}",
        result.stats
    );
    out.push_str(&render_mining_summary(&result, 10));
    let rate_pct = if result.stats.code_changes == 0 {
        0.0
    } else {
        100.0 * result.stats.skipped.total() as f64 / result.stats.code_changes as f64
    };
    let _ = writeln!(
        out,
        "\nquarantine rate: {rate_pct:.1}% ({} of {}); accounting exact: \
         processed = mined + skipped",
        result.stats.skipped.total(),
        result.stats.code_changes
    );
    out
}

/// Where a `diffcode mine` / `diffcode explain` run gets its corpus.
///
/// Both sources feed the **same** cached mining path: cache keys are
/// provenance-free content fingerprints, so a seeded corpus and a real
/// repository share one cache discipline, and a warm re-mine of either
/// replays outcomes instead of re-analyzing.
#[derive(Debug, Clone)]
pub enum MineSource {
    /// A synthetic corpus from the deterministic generator.
    Seeded {
        /// Generator seed.
        seed: u64,
        /// Number of projects to generate.
        n_projects: usize,
    },
    /// A real cloned repository, walked with [`gitsrc`].
    Repo {
        /// Path to the clone (its `.git` must be reachable by git).
        repo: PathBuf,
        /// Optional `A..B` rev-range restriction.
        rev_range: Option<String>,
        /// Keep only the oldest N commits.
        max_commits: Option<usize>,
    },
}

impl MineSource {
    /// The deterministic one-line run header. Repo mode names the
    /// repository by basename only, so the header (and therefore the
    /// whole report) is byte-identical no matter where the clone
    /// lives — the property the git-fixture CI gate byte-compares.
    fn header(&self) -> String {
        match self {
            MineSource::Seeded { seed, n_projects } => {
                format!("mine run: seed {seed}, {n_projects} project(s)\n")
            }
            MineSource::Repo {
                repo,
                rev_range,
                max_commits,
            } => {
                let name = repo
                    .canonicalize()
                    .unwrap_or_else(|_| repo.clone())
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "repo".to_owned());
                let mut line = format!("mine run: repo {name}");
                if let Some(range) = rev_range {
                    let _ = write!(line, ", range {range}");
                }
                if let Some(max) = max_commits {
                    let _ = write!(line, ", first {max} commit(s)");
                }
                line.push('\n');
                line
            }
        }
    }

    /// Builds the corpus: generate (seeded) or ingest (repo). Repo
    /// mode also returns the deterministic ingestion summary lines
    /// that follow the header in the report.
    fn corpus(&self, registry: &mut MetricsRegistry) -> Result<(corpus::Corpus, String), String> {
        match self {
            MineSource::Seeded { seed, n_projects } => {
                let corpus = registry.time("corpus.generate", || {
                    corpus::generate(&corpus::GeneratorConfig::small(*n_projects, *seed))
                });
                Ok((corpus, String::new()))
            }
            MineSource::Repo {
                repo,
                rev_range,
                max_commits,
            } => {
                let opts = gitsrc::IngestOptions {
                    rev_range: rev_range.clone(),
                    max_commits: *max_commits,
                    limits: gitsrc::IngestLimits::DEFAULT,
                };
                let report = gitsrc::ingest_repo(repo, &opts, registry)
                    .map_err(|e| format!("ingesting {}: {e}", repo.display()))?;
                let summary = render_ingest_summary(&report);
                Ok((report.corpus, summary))
            }
        }
    }
}

/// Renders the deterministic ingestion accounting lines of a repo-mode
/// mine report: walk totals, pair/rename/addition/deletion counts, and
/// the quarantine breakdown (omitted when clean). Timings and batch
/// latencies stay in the metrics registry only.
fn render_ingest_summary(report: &gitsrc::IngestReport) -> String {
    let stats = &report.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ingested: {} commit(s) of {} walked, {} file(s) seen",
        stats.commits_ingested, stats.commits_walked, stats.files_seen
    );
    let _ = writeln!(
        out,
        "pairs: {} pre/post pair(s) ({} rename(s) followed), \
         {} addition(s), {} deletion(s), {} non-java file(s)",
        stats.pairs, stats.renames_followed, stats.additions, stats.deletions, stats.non_java
    );
    if !report.skips.is_empty() {
        let kinds: Vec<String> = report
            .skipped_by_kind()
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .map(|(kind, n)| format!("{}: {n}", kind.name()))
            .collect();
        let _ = writeln!(
            out,
            "quarantined: {} file(s) ({})",
            report.skips.len(),
            kinds.join(", ")
        );
    }
    out
}

/// The knobs the three funnel commands — `mine`, `explain` and
/// `metrics` — share.
#[derive(Debug, Default)]
pub struct FunnelOptions {
    /// Mining worker threads.
    pub threads: usize,
    /// Directory of the persistent mining result cache.
    pub cache_dir: Option<PathBuf>,
    /// Directory of the persistent clustering distance-cell cache.
    pub cluster_cache_dir: Option<PathBuf>,
    /// Span sampling interval of the run's trace (`1` = every span);
    /// `None` runs untraced.
    pub trace_sample: Option<u64>,
    /// Cooperative cancellation (the binary wires in
    /// [`crate::shutdown::flag`]): once set, mining stops between
    /// changes and the rest of the funnel runs over the partial result.
    pub cancel: Option<&'static AtomicBool>,
}

/// Everything one funnel run produced.
#[derive(Debug)]
pub struct Funnel {
    /// The mining result.
    pub result: MiningResult,
    /// The filter funnel, when the run filtered.
    pub filtered: Option<FilterStats>,
    /// The clustering, when at least two changes survived filtering.
    pub elicitation: Option<Elicitation>,
    /// Every counter, gauge and span the run recorded.
    pub registry: MetricsRegistry,
    /// The run's trace (disabled unless `trace_sample` was set).
    pub trace: TraceSink,
    /// Whether the cancel flag stopped mining early.
    pub interrupted: bool,
}

/// The one funnel run behind `mine`, `explain` and `metrics`: mines
/// `corpus` in parallel (through the result cache under
/// `opts.cache_dir`, flushed before anything else runs, so an
/// interrupted run still keeps its warm cache), then — when `cluster`
/// is set — filters the mined changes and clusters the survivors
/// (through the distance-cell cache under `opts.cluster_cache_dir`).
/// `registry` arrives holding whatever building the corpus recorded.
///
/// # Errors
///
/// I/O failures opening or flushing either cache.
fn run_funnel(
    corpus: &corpus::Corpus,
    mut registry: MetricsRegistry,
    opts: &FunnelOptions,
    cluster: bool,
) -> Result<Funnel, String> {
    let mut trace = opts
        .trace_sample
        .map_or_else(TraceSink::disabled, TraceSink::enabled);
    corpus::corpus_stats(corpus).record(&mut registry);
    let mut cache = match &opts.cache_dir {
        Some(dir) => Some(
            // DiffCode::new() mines at default limits and depth; the
            // cache must be opened with the same configuration or every
            // lookup would miss.
            MiningCache::open(
                dir,
                &[],
                &PipelineLimits::DEFAULT,
                usagegraph::DEFAULT_MAX_DEPTH,
            )
            .map_err(|e| format!("opening cache at {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let mine_opts = MineOptions {
        threads: opts.threads,
        cache: cache.as_mut(),
        cancel: opts.cancel,
    };
    let result = mine_parallel(corpus, &[], mine_opts, &mut registry, &mut trace);
    let interrupted = opts.cancel.is_some_and(|flag| flag.load(Ordering::SeqCst));
    if let Some(cache) = cache.as_mut() {
        let flushed = cache.flush().map_err(|e| format!("flushing cache: {e}"))?;
        registry.inc("cache.flushed_entries", flushed as u64);
        let stats = cache.store().stats();
        registry.set_gauge("cache.entries", stats.current_entries as f64);
        registry.set_gauge("cache.file_bytes", stats.file_bytes as f64);
    }
    let (mut filtered, mut elicitation) = (None, None);
    if cluster {
        let (kept, stats) = apply_filters(
            &result.changes,
            &mut SeenDups::new(),
            &mut registry,
            &mut trace,
        );
        filtered = Some(stats);
        let mut ccache = match &opts.cluster_cache_dir {
            Some(dir) => Some(
                ClusterCache::open_default(dir)
                    .map_err(|e| format!("opening cluster cache at {}: {e}", dir.display()))?,
            ),
            None => None,
        };
        if kept.len() >= 2 {
            let clock = obs::Stopwatch::start();
            elicitation = Some(elicit_auto(
                &kept,
                ccache.as_mut(),
                &mut registry,
                &mut trace,
            ));
            registry.record_span("elicit.total", clock.elapsed());
        }
        if let Some(ccache) = ccache.as_mut() {
            let flushed = ccache
                .flush()
                .map_err(|e| format!("flushing cluster cache: {e}"))?;
            registry.inc("cluster.cache.flushed_entries", flushed as u64);
            let stats = ccache.store().stats();
            registry.set_gauge("cluster.cache.entries", stats.current_entries as f64);
            registry.set_gauge("cluster.cache.file_bytes", stats.file_bytes as f64);
        }
    }
    Ok(Funnel {
        result,
        filtered,
        elicitation,
        registry,
        trace,
        interrupted,
    })
}

/// Backs `diffcode mine`: runs the funnel over `source` and renders the
/// accounting.
///
/// The rendered report is **fully deterministic** — no timings, no
/// thread counts, no cache hit/miss numbers — so CI can byte-compare a
/// cold run's stdout against a warm one's, and a traced run's against
/// an untraced one's. Everything run-dependent (latencies, `cache.hit`
/// / `cache.miss` / `cache.stale_version`, flush counts) lives only in
/// the funnel's registry, which the binary serializes via
/// `--metrics-json`. Filtering and clustering run only when they have
/// an observer: a trace (so the export and `diffcode explain` show each
/// change's full journey) or a cluster cache, which appends its own
/// deterministic `clustering:` and `cluster digest:` lines. An
/// interrupted run reports the partial result under an explicit
/// `interrupted:` line.
///
/// # Errors
///
/// Repository ingestion failures; I/O failures opening or flushing
/// either cache.
pub fn run_mine(source: &MineSource, opts: &FunnelOptions) -> Result<(String, Funnel), String> {
    let mut registry = MetricsRegistry::new();
    let (corpus, ingest_summary) = source.corpus(&mut registry)?;
    let cluster = opts.trace_sample.is_some() || opts.cluster_cache_dir.is_some();
    let funnel = run_funnel(&corpus, registry, opts, cluster)?;
    let mut out = source.header();
    out.push_str(&ingest_summary);
    if funnel.interrupted {
        let _ = writeln!(
            out,
            "interrupted: partial results below cover {} processed change(s); cache log flushed",
            funnel.result.stats.code_changes
        );
    }
    out.push_str(&render_mining_summary(&funnel.result, 10));
    let _ = writeln!(out, "\nresult digest: {}", mined_digest(&funnel.result));
    if opts.cluster_cache_dir.is_some() {
        let kept = funnel.filtered.map_or(0, |stats| stats.after_fdup);
        match &funnel.elicitation {
            Some(elicitation) => {
                let _ = writeln!(
                    out,
                    "clustering: {kept} change(s) in {} cluster(s)",
                    elicitation.clusters.len()
                );
                let _ = writeln!(out, "cluster digest: {}", cluster_digest(elicitation));
            }
            None => {
                let _ = writeln!(
                    out,
                    "clustering: skipped ({kept} change(s) after filtering)"
                );
            }
        }
    }
    Ok((out, funnel))
}

/// A content fingerprint of everything the cached clustering stage
/// produced: every dendrogram merge (operands plus the exact height
/// bits) and every cluster's membership, in report order. Two runs that
/// print the same cluster digest built bit-identical dendrograms and
/// cut them identically — the warm-vs-cold cluster CI gate compares
/// this (plus the rest of the byte-identical report).
fn cluster_digest(elicitation: &Elicitation) -> cache::Fingerprint {
    let mut parts: Vec<String> =
        Vec::with_capacity(elicitation.dendrogram.merges.len() + elicitation.clusters.len() + 1);
    parts.push(format!("leaves:{}", elicitation.dendrogram.n_leaves));
    for merge in &elicitation.dendrogram.merges {
        parts.push(format!(
            "m:{}|{}|{:016x}",
            merge.left,
            merge.right,
            merge.distance.to_bits()
        ));
    }
    for cluster in &elicitation.clusters {
        let members: Vec<String> = cluster.members.iter().map(ToString::to_string).collect();
        parts.push(format!("c:{}", members.join(",")));
    }
    let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
    cache::fingerprint_str(&parts)
}

/// The canonical provenance-free digest text of one mined tuple:
/// `class|old-dag|new-dag|change`. This exact formatting is shared
/// between the one-shot mining digest below and the `serve` `/mine`
/// endpoint, which is what makes a served verdict byte-comparable to a
/// one-shot run's.
pub fn tuple_digest(
    class: &str,
    old_dag: &UsageDag,
    new_dag: &UsageDag,
    change: &UsageChange,
) -> String {
    let mut out = String::new();
    write_tuple_digest(&mut out, class, old_dag, new_dag, change);
    out
}

/// A DAG whose digest text can be written: a decoded [`UsageDag`], or
/// one read in place from a replayed cache payload, whose paths come in
/// the same set order (the payload view checks it).
trait DagText {
    fn write_text(&self, out: &mut String);
}

impl DagText for &UsageDag {
    fn write_text(&self, out: &mut String) {
        let paths = self.paths.iter().map(|path| path.0.iter().map(|l| &**l));
        write_dag_text(out, &self.root_type, paths);
    }
}

impl DagText for DagView<'_> {
    fn write_text(&self, out: &mut String) {
        write_dag_text(
            out,
            self.root_type(),
            self.paths().map(|path| path.labels()),
        );
    }
}

/// Writes `root:path;path;…`, each path its labels joined by spaces.
fn write_dag_text<'l, L: Iterator<Item = &'l str>>(
    out: &mut String,
    root: &str,
    paths: impl Iterator<Item = L>,
) {
    out.push_str(root);
    out.push(':');
    for (i, labels) in paths.enumerate() {
        if i > 0 {
            out.push(';');
        }
        write_labels(out, labels);
    }
}

fn write_labels<'l>(out: &mut String, labels: impl Iterator<Item = &'l str>) {
    for (i, label) in labels.enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(label);
    }
}

/// Appends [`tuple_digest`]'s text to `out`. A DAG reads
/// `root:path;path;…` in set order and the change reads as its
/// `Display` (`- path` / `+ path` lines), where a path is its labels
/// joined by spaces — the `Display` of [`usagegraph::FeaturePath`],
/// written label by label so no intermediate string is built.
fn write_tuple_digest(
    out: &mut String,
    class: &str,
    old_dag: impl DagText,
    new_dag: impl DagText,
    change: &UsageChange,
) {
    out.push_str(class);
    out.push('|');
    old_dag.write_text(out);
    out.push('|');
    new_dag.write_text(out);
    out.push('|');
    for (sign, paths) in [("- ", &change.removed), ("+ ", &change.added)] {
        for path in paths {
            out.push_str(sign);
            write_labels(out, path.0.iter().map(|l| &**l));
            out.push('\n');
        }
    }
}

/// The digest texts of one [`crate::mcache::ChangeOutcome`] — one
/// [`tuple_digest`] per mined tuple, empty for a quarantined skip.
pub fn outcome_digest_parts(outcome: &crate::mcache::ChangeOutcome) -> Vec<String> {
    match outcome {
        crate::mcache::ChangeOutcome::Mined(tuples) => tuples
            .iter()
            .map(|(class, old_dag, new_dag, change)| tuple_digest(class, old_dag, new_dag, change))
            .collect(),
        crate::mcache::ChangeOutcome::Skipped { .. } => Vec::new(),
    }
}

/// A content fingerprint of everything a mining run produced, in
/// order: provenance, class, both DAGs, and the feature diff of every
/// mined change. Two runs that print the same digest produced the same
/// changes — the warm-vs-cold CI gate compares this (plus the rest of
/// the byte-identical report).
///
/// Each change's part, `project|commit|path|` plus its
/// [`tuple_digest`] text, is written into one reused buffer and fed to
/// a streaming fingerprint, so the digest costs no allocation per
/// change or path. A replayed DAG pair's text is read straight from
/// its cache payload, without decoding the DAGs.
fn mined_digest(result: &MiningResult) -> cache::Fingerprint {
    let mut digest = cache::Fingerprinter::new();
    let mut part = String::new();
    for mined in &result.changes {
        part.clear();
        for field in [&mined.meta.project, &mined.meta.commit, &mined.meta.path] {
            part.push_str(field);
            part.push('|');
        }
        let (class, change) = (&mined.class, &mined.change);
        match mined.dag_pair() {
            DagPair::Owned(old, new) => write_tuple_digest(&mut part, class, old, new, change),
            DagPair::Replayed(pair) => {
                let (old, new) = pair.view().old_new();
                write_tuple_digest(&mut part, class, old, new, change);
            }
        }
        digest.part(part.as_bytes());
    }
    digest.finish()
}

/// The paper's Figure 2 fix as a one-commit corpus project, prepended
/// by [`run_explain`] so the command always has a well-known change to
/// walk (`fixtures/figure2`, commit `figure2-fix`, `AESCipher.java`) —
/// the CI trace smoke step queries exactly this change.
fn figure2_project() -> corpus::Project {
    corpus::Project {
        user: "fixtures".into(),
        name: "figure2".into(),
        facts: corpus::ProjectFacts::default(),
        commits: vec![corpus::Commit {
            id: "figure2-fix".into(),
            author: "paper authors <paper@pldi18>".into(),
            message: "Fix: use AES/CBC with an explicit IV".into(),
            changes: vec![corpus::FileChange {
                path: "AESCipher.java".into(),
                old: Some(corpus::fixtures::FIGURE2_OLD.into()),
                new: Some(corpus::fixtures::FIGURE2_NEW.into()),
            }],
        }],
    }
}

/// Backs `diffcode explain <query>`: runs the traced funnel over
/// `source` and prints the full journey of every change matching
/// `query` — a change-fingerprint prefix or a `project/path`
/// substring. Seeded corpora get the Figure 2 fixture prepended as
/// project `fixtures/figure2`, which anchors the CI trace smoke query;
/// repo mode explains real commits (`git/<repo-name>/<path>`).
///
/// # Errors
///
/// Repository ingestion failures; no change matches the query.
pub fn run_explain(query: &str, source: &MineSource, threads: usize) -> Result<String, String> {
    let mut registry = MetricsRegistry::new();
    let (mut corpus, _) = source.corpus(&mut registry)?;
    if matches!(source, MineSource::Seeded { .. }) {
        corpus.projects.insert(0, figure2_project());
    }
    let opts = FunnelOptions {
        threads,
        trace_sample: Some(1),
        ..FunnelOptions::default()
    };
    let funnel = run_funnel(&corpus, registry, &opts, true)?;
    render_explain(&funnel.trace, query)
}

/// Renders the funnel journey of every change in `trace` matching
/// `query` (fingerprint prefix or `project/path` substring): the
/// change's `mine.change` span subtree (parse, analysis, DAG diff,
/// cache markers), then its decision events in stage order with the
/// typed reason each stage recorded.
///
/// # Errors
///
/// No change matches the query.
pub fn render_explain(trace: &TraceSink, query: &str) -> Result<String, String> {
    let events = trace.events();
    // Matching fingerprints, in first-decision order.
    let mut fingerprints: Vec<String> = Vec::new();
    for event in events {
        if event.kind != TraceKind::Decision {
            continue;
        }
        let Some(fp) = trace.attr_str(event, "fingerprint") else {
            continue;
        };
        let project = trace.attr_str(event, "project").unwrap_or_default();
        let path = trace.attr_str(event, "path").unwrap_or_default();
        let matches = fp.starts_with(query) || format!("{project}/{path}").contains(query);
        if matches && !fingerprints.iter().any(|f| f == fp) {
            fingerprints.push(fp.to_owned());
        }
    }
    if fingerprints.is_empty() {
        return Err(format!(
            "no change matches `{query}` (expected a fingerprint prefix or a project/path substring)"
        ));
    }
    let mut out = String::new();
    for fp in &fingerprints {
        let decisions: Vec<_> = events
            .iter()
            .filter(|e| {
                e.kind == TraceKind::Decision && trace.attr_str(e, "fingerprint") == Some(fp)
            })
            .collect();
        let first = decisions[0];
        let _ = writeln!(
            out,
            "change {fp} — {} @ {} ({})",
            trace.attr_str(first, "project").unwrap_or("?"),
            trace.attr_str(first, "commit").unwrap_or("?"),
            trace.attr_str(first, "path").unwrap_or("?"),
        );
        // The pipeline work done on this change: the subtree of every
        // `mine.change` span carrying this fingerprint.
        let roots: Vec<_> = events
            .iter()
            .filter(|e| {
                e.kind == TraceKind::Begin
                    && trace.name(e.name) == "mine.change"
                    && trace.attr_str(e, "fingerprint") == Some(fp)
            })
            .collect();
        if !roots.is_empty() {
            let _ = writeln!(out, "  pipeline spans:");
            for root in roots {
                render_span_subtree(trace, root.span, root.lane, 2, &mut out);
            }
        }
        let _ = writeln!(out, "  decisions:");
        let stage_order = |stage: Option<&str>| match stage {
            Some("mine") => 0,
            Some("filter") => 1,
            Some("cluster") => 2,
            _ => 3,
        };
        let mut ordered = decisions.clone();
        ordered.sort_by_key(|e| (stage_order(trace.attr_str(e, "stage")), e.seq));
        for event in ordered {
            let stage = trace.attr_str(event, "stage").unwrap_or("?");
            let reason = trace.attr_str(event, "reason").unwrap_or("?");
            let mut extras = String::new();
            for key in ["cache", "usage_changes", "index", "cluster_size"] {
                if let Some(value) = trace.attr(event, key) {
                    let _ = write!(extras, " {key}={value}");
                }
            }
            let _ = writeln!(out, "    {stage}: {reason}{extras}");
        }
    }
    Ok(out)
}

/// Prints the span/instant tree rooted at `span` (within one lane),
/// names only — durations are deliberately omitted so the output is
/// stable enough for CI to grep.
fn render_span_subtree(
    trace: &TraceSink,
    span: obs::SpanId,
    lane: u32,
    indent: usize,
    out: &mut String,
) {
    let root = trace
        .events()
        .iter()
        .find(|e| e.kind == TraceKind::Begin && e.span == span && e.lane == lane);
    let Some(root) = root else {
        return;
    };
    let pad = "  ".repeat(indent);
    let _ = writeln!(out, "{pad}{}", trace.name(root.name));
    for event in trace.events() {
        if event.lane != lane || event.parent != span {
            continue;
        }
        match event.kind {
            TraceKind::Begin => render_span_subtree(trace, event.span, lane, indent + 1, out),
            TraceKind::Instant => {
                let inner = "  ".repeat(indent + 1);
                let _ = writeln!(out, "{inner}{} (instant)", trace.name(event.name));
            }
            _ => {}
        }
    }
}

/// Resolves a `cache --namespace` value to the log namespace and the
/// version currently written under it. One directory can hold several
/// logs — the mining outcomes (`cache.log`, the default) and the
/// clustering distance cells (`cluster.log`) — and each namespace has
/// its own notion of "current version".
///
/// # Errors
///
/// An unknown namespace (only the two known logs have a defined
/// current version).
fn cache_namespace(namespace: Option<&str>) -> Result<(&str, u32), String> {
    match namespace.unwrap_or("cache") {
        "cache" => Ok(("cache", crate::mcache::ANALYSIS_VERSION)),
        "cluster" => Ok(("cluster", crate::ccache::CLUSTERING_VERSION)),
        other => Err(format!(
            "unknown cache namespace `{other}` (expected `cache` or `cluster`)"
        )),
    }
}

/// Renders `diffcode cache stats` for the store under `dir`. Opens
/// tolerantly: inspection must work on a damaged log (skipped corrupt
/// records show up in their own row). `namespace` selects which log in
/// the directory to inspect (`None` = the mining log).
///
/// # Errors
///
/// I/O failures opening the store, or an unknown namespace.
pub fn render_cache_stats(dir: &Path, namespace: Option<&str>) -> Result<String, String> {
    let (ns, version) = cache_namespace(namespace)?;
    let store = cache::CacheStore::open_ns_tolerant(dir, version, ns)
        .map_err(|e| format!("opening cache at {}: {e}", dir.display()))?;
    let stats = store.stats();
    let mut table = Table::new(["Fact", "Value"]);
    table.row(["directory".to_owned(), dir.display().to_string()]);
    table.row(["namespace".to_owned(), ns.to_owned()]);
    table.row(["analysis version".to_owned(), version.to_string()]);
    table.row([
        "entries (current version)".to_owned(),
        stats.current_entries.to_string(),
    ]);
    table.row([
        "entries (stale version)".to_owned(),
        stats.stale_entries.to_string(),
    ]);
    table.row([
        "records on disk".to_owned(),
        stats.records_loaded.to_string(),
    ]);
    table.row(["file bytes".to_owned(), stats.file_bytes.to_string()]);
    table.row([
        "corrupt tail bytes".to_owned(),
        stats.corrupt_tail_bytes.to_string(),
    ]);
    table.row([
        "corrupt records skipped".to_owned(),
        stats.corrupt_records.to_string(),
    ]);
    Ok(table.render())
}

/// Runs `diffcode cache vacuum`: compacts the log to one record per
/// live key, dropping stale versions, superseded duplicates, corrupt
/// mid-log records, and any corrupt tail. Opens tolerantly — vacuum is
/// the repair path for a log the strict open refuses. `namespace`
/// selects which log in the directory to compact (`None` = the mining
/// log).
///
/// # Errors
///
/// I/O failures opening or rewriting the store, or an unknown
/// namespace.
pub fn render_cache_vacuum(dir: &Path, namespace: Option<&str>) -> Result<String, String> {
    let (ns, version) = cache_namespace(namespace)?;
    let mut store = cache::CacheStore::open_ns_tolerant(dir, version, ns)
        .map_err(|e| format!("opening cache at {}: {e}", dir.display()))?;
    let report = store
        .vacuum()
        .map_err(|e| format!("vacuuming cache at {}: {e}", dir.display()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "vacuumed {}: kept {} entr{}, dropped {} stale + {} superseded/corrupt record(s), \
         {} -> {} bytes",
        dir.display(),
        report.kept,
        if report.kept == 1 { "y" } else { "ies" },
        report.dropped_stale,
        report.dropped_records,
        report.bytes_before,
        report.bytes_after,
    );
    Ok(out)
}

/// Runs `diffcode cache verify`: a structural integrity scan of the
/// log. Returns the report and whether the log is clean (the binary
/// exits non-zero on a dirty log). `namespace` selects which log in
/// the directory to scan (`None` = the mining log).
///
/// # Errors
///
/// I/O failures reading the store, or an unknown namespace.
pub fn render_cache_verify(dir: &Path, namespace: Option<&str>) -> Result<(String, bool), String> {
    let (ns, current_version) = cache_namespace(namespace)?;
    let report = cache::verify_ns(dir, ns)
        .map_err(|e| format!("verifying cache at {}: {e}", dir.display()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "verify {}: {} valid record(s), {} distinct key(s), {} checksum failure(s), \
         {} corrupt tail byte(s)",
        dir.display(),
        report.valid_records,
        report.distinct_keys,
        report.checksum_failures,
        report.corrupt_tail_bytes,
    );
    for (version, count) in &report.versions {
        let marker = if *version == current_version {
            " (current)"
        } else {
            ""
        };
        let _ = writeln!(out, "  version {version}{marker}: {count} record(s)");
    }
    let clean = report.is_clean();
    let _ = writeln!(out, "integrity: {}", if clean { "OK" } else { "DIRTY" });
    if !clean {
        let _ = writeln!(
            out,
            "run `diffcode cache vacuum --cache-dir {}` to drop the damaged bytes",
            dir.display()
        );
    }
    Ok((out, clean))
}

/// Backs `diffcode metrics`: runs the whole funnel over a seeded
/// corpus, untraced and uncached, returning the rendered per-stage
/// report and the registry (the binary serializes it for
/// `--metrics-json`). The report is built entirely from the registry,
/// so anything it shows is also in the snapshot.
///
/// # Errors
///
/// None in practice: a seeded corpus with no caches has nothing to
/// fail on.
pub fn run_metrics(
    seed: u64,
    n_projects: usize,
    n_threads: usize,
) -> Result<(String, MetricsRegistry), String> {
    let source = MineSource::Seeded { seed, n_projects };
    let mut registry = MetricsRegistry::new();
    let (corpus, _) = source.corpus(&mut registry)?;
    let opts = FunnelOptions {
        threads: n_threads,
        ..FunnelOptions::default()
    };
    let funnel = run_funnel(&corpus, registry, &opts, true)?;
    // Reconciliation: the registry must agree exactly with the
    // pipeline's own accounting structs.
    let (registry, stats) = (&funnel.registry, &funnel.result.stats);
    debug_assert_eq!(registry.counter("mine.mined"), stats.mined as u64);
    debug_assert_eq!(
        registry.counter("mine.skipped"),
        stats.skipped.total() as u64
    );
    debug_assert_eq!(
        Some(registry.counter("filter.total") as usize),
        funnel.filtered.map(|f| f.total)
    );
    Ok((
        render_metrics_report(registry, seed, n_threads),
        funnel.registry,
    ))
}

/// Renders the per-stage metrics report: the pipeline funnel, the
/// quarantine breakdown by error kind, and the stage latency table —
/// all sourced from `registry`.
pub fn render_metrics_report(registry: &MetricsRegistry, seed: u64, n_threads: usize) -> String {
    let mut out = String::new();
    let gauge = |name: &str| registry.gauge(name).unwrap_or(0.0) as u64;
    let _ = writeln!(
        out,
        "metrics run: seed {seed}, {} project(s), {} commit(s), {n_threads} thread(s)",
        gauge("corpus.projects"),
        gauge("corpus.total_commits"),
    );

    out.push_str("\npipeline funnel:\n");
    let mut funnel = Table::new(["Stage", "Count"]);
    funnel.row([
        "code changes processed".to_owned(),
        registry.counter("mine.code_changes").to_string(),
    ]);
    funnel.row([
        "  mined".to_owned(),
        registry.counter("mine.mined").to_string(),
    ]);
    funnel.row([
        "  skipped (quarantined)".to_owned(),
        registry.counter("mine.skipped").to_string(),
    ]);
    funnel.row([
        "usage changes".to_owned(),
        registry.counter("filter.total").to_string(),
    ]);
    for (name, label) in FILTER_FUNNEL.iter().skip(1).zip([
        "  after fsame",
        "  after fadd",
        "  after frem",
        "  after fdup (kept)",
    ]) {
        funnel.row([label.to_owned(), registry.counter(name).to_string()]);
    }
    funnel.row([
        "clusters elicited".to_owned(),
        registry.counter("elicit.clusters").to_string(),
    ]);
    out.push_str(&funnel.render());

    if registry.counter("mine.skipped") > 0 {
        out.push_str("\nquarantine breakdown:\n");
        let mut table = Table::new(["Kind", "Count", "Share"]);
        let processed = registry.counter("mine.code_changes").max(1);
        for kind in ErrorKind::ALL {
            let count = registry.counter(&format!("mine.skipped.{}", kind.name()));
            if count > 0 {
                table.row([
                    kind.name().to_owned(),
                    count.to_string(),
                    format!("{:.1}%", 100.0 * count as f64 / processed as f64),
                ]);
            }
        }
        out.push_str(&table.render());
    }

    out.push_str("\nstage latencies:\n");
    let mut spans = Table::new([
        "Span", "Count", "Total", "Mean", "P50", "P90", "P99", "Min", "Max",
    ]);
    for (name, span) in registry.spans() {
        // Every span records into a log-linear histogram alongside the
        // min/mean/max aggregate; quantiles come from there.
        let quantile = |q: f64| {
            registry
                .hist(name)
                .map_or_else(|| "-".to_owned(), |h| fmt_ns(h.quantile(q)))
        };
        spans.row([
            name.to_owned(),
            span.count.to_string(),
            fmt_ns(span.sum_ns),
            fmt_ns(span.mean_ns()),
            quantile(0.50),
            quantile(0.90),
            quantile(0.99),
            fmt_ns(span.min_ns),
            fmt_ns(span.max_ns),
        ]);
    }
    out.push_str(&spans.render());

    let partition = obs::check_partition(
        registry,
        "mine.code_changes",
        &["mine.mined", "mine.skipped"],
    );
    let funnel_ok = obs::check_funnel(registry, &FILTER_FUNNEL);
    match (partition, funnel_ok) {
        (Ok(()), Ok(())) => {
            let _ = writeln!(
                out,
                "\ninvariants: OK (processed = mined + skipped; funnel monotone)"
            );
        }
        (partition, funnel_result) => {
            for err in [partition.err(), funnel_result.err()].into_iter().flatten() {
                let _ = writeln!(out, "\ninvariant VIOLATED: {err}");
            }
        }
    }
    out
}

/// Usage string for the binary.
pub const USAGE: &str = "\
diffcode — infer and check crypto API rules from Java code changes

USAGE:
    diffcode analyze <file.java> [--class <Name>]
    diffcode diff <old.java> <new.java> [--class <Name>]
    diffcode check <file-or-dir>... [--android <minSdk>]
    diffcode rules
    diffcode chaos [--seed <N>] [--rate <0..1>] [--projects <N>]
    diffcode mine [--seed <N>] [--projects <N>] [--threads <N>]
                  [--repo <path>] [--rev-range <A..B>] [--max-commits <N>]
                  [--cache-dir <dir>] [--cluster-cache-dir <dir>]
                  [--metrics-json <path>]
                  [--trace-out <path>] [--trace-sample <N>]
    diffcode explain <fingerprint|project/path> [--seed <N>] [--projects <N>]
                     [--repo <path>] [--rev-range <A..B>] [--max-commits <N>]
                     [--threads <N>]
    diffcode cache <stats|vacuum|verify> --cache-dir <dir> [--namespace <ns>]
    diffcode metrics [--seed <N>] [--projects <N>] [--threads <N>]
                     [--metrics-json <path>]
    diffcode serve [--addr <host:port>] [--threads <N>] [--cache-dir <dir>]
                   [--repo-root <dir>] [--deadline-ms <N>] [--queue-depth <N>]
                   [--drain-ms <N>]

COMMANDS:
    analyze   print the abstract crypto-API usages (objects, events, DAGs)
    diff      print the semantic usage changes between two versions
    check     run CryptoChecker (the 13 elicited rules) on files/directories
    rules     print the rule table (paper Figure 9)
    chaos     fault-inject a generated corpus and report the quarantine accounting
    mine      mine a seeded corpus — or, with --repo <path>, a real cloned
              git repository (rename-aware commit walk over .java files;
              --rev-range restricts to A..B, --max-commits keeps the oldest
              N commits; author/commit/path provenance flows into traces) —
              and print the deterministic accounting;
              --cache-dir enables the persistent result cache (a warm re-run
              replays cached outcomes and prints byte-identical output),
              --cluster-cache-dir additionally filters + clusters the mined
              changes with persisted distance cells (a warm re-cluster only
              computes cells for new changes; output stays byte-identical to
              a cold run), --metrics-json writes counters incl.
              cache.hit/miss/stale_version and cluster.cache.hit/miss,
              --trace-out writes a Chrome trace-event JSON of the whole funnel
              (load it in Perfetto / chrome://tracing), --trace-sample N keeps
              every Nth span (decision events are always kept)
    explain   re-run the traced pipeline and print one change's full funnel
              journey — pipeline spans plus the typed decision each stage
              recorded; the query is a change-fingerprint prefix or a
              project/path substring (fixtures/figure2 is always present
              in seeded mode; with --repo the journey covers real commits)
    cache     inspect the persistent result cache: stats (size/versions),
              vacuum (compact, dropping stale + superseded records),
              verify (structural integrity scan; non-zero exit when dirty);
              --namespace selects the log in the directory: cache (mining
              outcomes, the default) or cluster (distance cells)
    metrics   run the pipeline over a seeded corpus and report per-stage
              counters, quarantine breakdown, and stage latencies;
              --metrics-json writes the machine-readable snapshot
    serve     run the resident mining/checking HTTP service (delegates to
              the diffcode-serve binary next to this one): POST /mine,
              POST /mine-repo (walk + mine a clone named under
              --repo-root; disabled without it), POST /check,
              GET /explain/<fingerprint>, GET /metrics, GET /status,
              GET /trace/capture, GET /healthz, GET /readyz; per-request
              deadlines, bounded admission queue with 429 shedding,
              graceful SIGTERM drain
";

fn effective_classes<'a>(classes: &[&'a str]) -> Vec<&'a str> {
    if classes.is_empty() {
        TARGET_CLASSES.to_vec()
    } else {
        classes.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::fixtures::{FIGURE2_NEW, FIGURE2_OLD};

    #[test]
    fn analyze_renders_dags() {
        let out = render_analysis(FIGURE2_NEW, &[]).unwrap();
        assert!(out.contains("abstract object"), "{out}");
        assert!(
            out.contains("Cipher getInstance arg1:AES/CBC/PKCS5Padding"),
            "{out}"
        );
        assert!(out.contains("IvParameterSpec"), "{out}");
    }

    #[test]
    fn analyze_restricts_to_class() {
        let out = render_analysis(FIGURE2_NEW, &["MessageDigest"]).unwrap();
        assert!(out.contains("no usages of MessageDigest"), "{out}");
    }

    #[test]
    fn diff_renders_changes_and_suggestion() {
        let out = render_diff(FIGURE2_OLD, FIGURE2_NEW, &["Cipher"]).unwrap();
        assert!(out.contains("- Cipher getInstance arg1:AES"), "{out}");
        assert!(out.contains("suggested rule:"), "{out}");
    }

    #[test]
    fn diff_of_refactoring_reports_none() {
        let out = render_diff(FIGURE2_NEW, FIGURE2_NEW, &[]).unwrap();
        assert!(out.contains("no semantic usage changes"), "{out}");
    }

    #[test]
    fn check_reports_violations() {
        let files = vec![("AESCipher.java".to_owned(), FIGURE2_OLD.to_owned())];
        let (out, count) = render_check(&files, ProjectContext::plain());
        assert!(count >= 1, "{out}");
        assert!(out.contains("R7"), "default AES is ECB: {out}");
    }

    #[test]
    fn check_clean_file() {
        let files = vec![(
            "Safe.java".to_owned(),
            r#"class Safe { void m(byte[] iv, javax.crypto.SecretKey k) throws Exception {
                Cipher c = Cipher.getInstance("AES/GCM/NoPadding", "BC");
                c.init(Cipher.ENCRYPT_MODE, k, new IvParameterSpec(iv));
            } }"#
                .to_owned(),
        )];
        let (out, count) = render_check(&files, ProjectContext::plain());
        assert_eq!(count, 0, "{out}");
    }

    #[test]
    fn rules_table_renders() {
        let out = render_rules();
        assert!(out.contains("R13"));
    }

    #[test]
    fn mining_summary_renders_accounting() {
        let corpus = corpus::Corpus {
            projects: vec![corpus::Project {
                user: "u".into(),
                name: "p".into(),
                facts: corpus::ProjectFacts::default(),
                commits: vec![corpus::Commit {
                    id: "c1".into(),
                    author: String::new(),
                    message: "m".into(),
                    changes: vec![corpus::FileChange {
                        path: "A.java".into(),
                        old: Some("class A { String s = \"open".into()),
                        new: Some("class A {}".into()),
                    }],
                }],
            }],
        };
        let result = DiffCode::new().mine(&corpus, &[], None);
        let out = render_mining_summary(&result, 10);
        assert!(out.contains("1 skipped"), "{out}");
        assert!(out.contains("lex"), "{out}");
        assert!(out.contains("u/p @ c1 (A.java)"), "{out}");
    }

    #[test]
    fn mining_summary_caps_quarantine_listing() {
        let changes: Vec<corpus::FileChange> = (0..5)
            .map(|i| corpus::FileChange {
                path: format!("F{i}.java"),
                old: Some("class A { String s = \"open".into()),
                new: Some("class A {}".into()),
            })
            .collect();
        let corpus = corpus::Corpus {
            projects: vec![corpus::Project {
                user: "u".into(),
                name: "p".into(),
                facts: corpus::ProjectFacts::default(),
                commits: vec![corpus::Commit {
                    id: "c1".into(),
                    author: String::new(),
                    message: "m".into(),
                    changes,
                }],
            }],
        };
        let result = DiffCode::new().mine(&corpus, &[], None);
        let out = render_mining_summary(&result, 2);
        assert!(out.contains("… and 3 more"), "{out}");
    }

    #[test]
    fn chaos_command_reports_exact_accounting() {
        let out = render_chaos(7, 0.5, 3);
        assert!(out.contains("chaos run: seed 7"), "{out}");
        assert!(out.contains("quarantine rate:"), "{out}");
        assert!(out.contains("accounting exact"), "{out}");
    }

    fn seeded(seed: u64, n_projects: usize) -> MineSource {
        MineSource::Seeded { seed, n_projects }
    }

    #[test]
    fn traced_mine_report_is_byte_identical_to_untraced() {
        let plain_opts = FunnelOptions {
            threads: 2,
            ..FunnelOptions::default()
        };
        let (plain, _) = run_mine(&seeded(42, 4), &plain_opts).unwrap();
        let traced_opts = FunnelOptions {
            trace_sample: Some(1),
            ..plain_opts
        };
        let (traced, funnel) = run_mine(&seeded(42, 4), &traced_opts).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb stdout");
        assert!(!funnel.trace.is_empty());
        let json = obs::to_chrome_json(&funnel.trace);
        assert!(json.starts_with("[\n"), "{}", &json[..40]);
    }

    #[test]
    fn traced_mine_honours_the_cancel_flag() {
        static CANCEL: AtomicBool = AtomicBool::new(true);
        let opts = FunnelOptions {
            threads: 2,
            trace_sample: Some(1),
            cancel: Some(&CANCEL),
            ..FunnelOptions::default()
        };
        let (report, funnel) = run_mine(&seeded(42, 4), &opts).unwrap();
        assert!(report.contains("\ninterrupted: "), "{report}");
        assert!(funnel.interrupted);
        assert_eq!(funnel.result.stats.code_changes, 0);
        assert!(funnel.registry.counter("mine.interrupted") > 0);
        assert!(!funnel.trace.is_empty(), "the partial trace survives");
    }

    #[test]
    fn explain_walks_the_figure2_change_through_the_funnel() {
        let out = run_explain("fixtures/figure2", &seeded(42, 6), 2).unwrap();
        assert!(
            out.contains("fixtures/figure2 @ figure2-fix (AESCipher.java)"),
            "{out}"
        );
        for marker in ["parse", "analysis", "dags.diff", "mined", "kept", "dup_of("] {
            assert!(out.contains(marker), "missing {marker} in:\n{out}");
        }
    }

    /// The `format!`/`join` rendering the digests had before they were
    /// streamed: the reference [`tuple_digest`] must equal byte for byte.
    fn reference_tuple_digest(
        class: &str,
        old_dag: &UsageDag,
        new_dag: &UsageDag,
        change: &UsageChange,
    ) -> String {
        fn dag_text(dag: &UsageDag) -> String {
            let paths: Vec<String> = dag.paths.iter().map(ToString::to_string).collect();
            format!("{}:{}", dag.root_type, paths.join(";"))
        }
        format!(
            "{class}|{}|{}|{change}",
            dag_text(old_dag),
            dag_text(new_dag)
        )
    }

    /// The collect-then-fingerprint [`mined_digest`] reference.
    fn reference_mined_digest(result: &MiningResult) -> cache::Fingerprint {
        let parts: Vec<String> = result
            .changes
            .iter()
            .map(|mined| {
                format!(
                    "{}|{}|{}|{}",
                    mined.meta.project,
                    mined.meta.commit,
                    mined.meta.path,
                    reference_tuple_digest(
                        &mined.class,
                        &mined.old_dag(),
                        &mined.new_dag(),
                        &mined.change
                    ),
                )
            })
            .collect();
        let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
        cache::fingerprint_str(&parts)
    }

    #[test]
    fn streamed_digests_equal_the_format_join_reference() {
        // Fault-injected code changes quarantine as skips; the Figure 2
        // fix contributes changes that both remove and add features.
        let mut corpus = corpus::generate(&corpus::GeneratorConfig::small(6, 7));
        corpus::Mutator::new(7, 0.2).inject(&mut corpus);
        corpus.projects.insert(0, figure2_project());
        let cold = DiffCode::new().mine(&corpus, &[], None);
        // The same corpus mined again through a primed result cache:
        // every DAG pair is replayed, still encoded in its payload.
        let dir = std::env::temp_dir().join(format!("diffcode-cli-digest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            MiningCache::open(
                &dir,
                &[],
                &PipelineLimits::DEFAULT,
                usagegraph::DEFAULT_MAX_DEPTH,
            )
            .unwrap()
        };
        let mut cache = open();
        let mut view = cache.view();
        DiffCode::new().mine(&corpus, &[], Some(&mut view));
        let log = view.into_log();
        cache.absorb(log);
        cache.flush().unwrap();
        let warm = DiffCode::new().mine(&corpus, &[], Some(&mut open().view()));
        std::fs::remove_dir_all(&dir).unwrap();
        let form = |result: &MiningResult, replayed: bool| {
            result
                .changes
                .iter()
                .all(|c| matches!(c.dag_pair(), DagPair::Replayed(_)) == replayed)
        };
        assert!(form(&cold, false), "cold pairs are owned");
        assert!(form(&warm, true), "warm pairs are replayed");
        assert_eq!(warm, cold, "equality sees content, not form");
        assert_eq!(mined_digest(&warm), mined_digest(&cold));

        for result in [&cold, &warm] {
            let changes = &result.changes;
            assert!(!result.quarantine.is_empty(), "no quarantined skips");
            let empty_side = |c: &&crate::pipeline::MinedUsageChange| {
                let empty = UsageDag::empty(c.class.as_str());
                *c.old_dag() == empty || *c.new_dag() == empty
            };
            assert!(changes.iter().any(|c| empty_side(&c)), "no empty DAG side");
            assert!(
                changes
                    .iter()
                    .any(|c| c.old_dag().paths.iter().any(|p| p.len() > 2)),
                "no multi-label path"
            );
            assert!(
                changes
                    .iter()
                    .any(|c| !c.change.removed.is_empty() && !c.change.added.is_empty()),
                "no change with both removed and added features"
            );

            assert_eq!(mined_digest(result), reference_mined_digest(result));
            for c in changes {
                assert_eq!(
                    tuple_digest(&c.class, &c.old_dag(), &c.new_dag(), &c.change),
                    reference_tuple_digest(&c.class, &c.old_dag(), &c.new_dag(), &c.change)
                );
            }
        }
        // Served verdicts render through the same writer; a skip has
        // no tuples.
        let mut dc = DiffCode::new();
        for change in corpus.code_changes().take(40) {
            let (outcome, _) = dc.process_pair_cached(change.old, change.new, &[], None);
            let expected: Vec<String> = match &outcome {
                crate::mcache::ChangeOutcome::Mined(tuples) => tuples
                    .iter()
                    .map(|(class, old, new, diff)| reference_tuple_digest(class, old, new, diff))
                    .collect(),
                crate::mcache::ChangeOutcome::Skipped { .. } => Vec::new(),
            };
            assert_eq!(outcome_digest_parts(&outcome), expected);
        }
    }

    #[test]
    fn explain_rejects_unmatched_queries() {
        let err = run_explain("no-such-change-anywhere", &seeded(42, 2), 1).unwrap_err();
        assert!(err.contains("no change matches"), "{err}");
    }
}
