//! The end-to-end DiffCode pipeline (paper Figure 1): mine code
//! changes, analyze both versions, derive usage changes per target API
//! class.
//!
//! Mining is **total**: no code change can abort a run. Each change is
//! processed under per-stage resource budgets
//! ([`crate::quarantine::PipelineLimits`]) and behind a panic-isolation
//! boundary; failures degrade to per-kind counted skips with a
//! [`QuarantineReport`] carrying provenance.

use crate::decision::{record_decision, DecisionReason};
use crate::mcache::{
    CachedLookup, ChangeOutcome, EncodedDags, MiningCache, MiningCacheView, Resolved,
};
use crate::quarantine::{
    excerpt, ErrorKind, PipelineError, PipelineLimits, QuarantineReport, SkipCounters,
};
use analysis::{analyze, try_analyze_counted, ApiModel, Usages, TARGET_CLASSES};
use corpus::Corpus;
use javalang::ParseError;
use obs::{MetricsRegistry, Stopwatch, TraceSink};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use usagegraph::{
    dags_for_class, diff_dags, pair_dags, try_dags_for_class, DagLimits, UsageChange, UsageDag,
    DEFAULT_MAX_DEPTH,
};

/// Provenance of a mined usage change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeMeta {
    /// `user/project`.
    pub project: String,
    /// Commit id.
    pub commit: String,
    /// Commit author (`Name <email>`; empty when unknown). Real for
    /// git-ingested corpora, a deterministic bot for generated ones.
    pub author: String,
    /// Commit message.
    pub message: String,
    /// Changed file.
    pub path: String,
    /// Content fingerprint of the `(old, new)` source pair
    /// ([`change_fingerprint`]): 32 lowercase hex chars, stable across
    /// runs and configurations — the identity `diffcode explain`
    /// queries by.
    pub fingerprint: String,
}

/// The 128-bit content fingerprint of one code change: a hash of the
/// old and new file bytes only (no configuration, no provenance), so
/// the same textual change carries the same fingerprint wherever it
/// appears. Rendered as 32 lowercase hex chars.
pub fn change_fingerprint(old: &str, new: &str) -> String {
    cache::fingerprint(&[old.as_bytes(), new.as_bytes()]).to_string()
}

/// One usage change with provenance and the DAG pair it came from.
///
/// A computed usage change owns its DAG pair. One replayed from the
/// result cache keeps the pair encoded in the shared cache payload,
/// because the funnel's filters and elicitation read only `meta`,
/// `class` and `change`. [`Self::old_dag`] and
/// [`Self::new_dag`] read either form, decoding an encoded pair on
/// demand. Equality and `Debug` see the DAGs' content, never the form
/// that holds them.
#[derive(Clone)]
pub struct MinedUsageChange {
    /// Where the change was mined, shared by every usage change of one
    /// code change.
    pub meta: Arc<ChangeMeta>,
    /// The target API class.
    pub class: String,
    /// The `(F⁻, F⁺)` feature diff.
    pub change: UsageChange,
    dags: DagPair,
}

/// Where a mined usage change's DAG pair lives.
#[derive(Debug, Clone)]
pub(crate) enum DagPair {
    /// Computed by this run.
    Owned(UsageDag, UsageDag),
    /// Replayed from the result cache, still encoded.
    Replayed(EncodedDags),
}

impl MinedUsageChange {
    /// A usage change over an owned DAG pair.
    pub fn new(
        meta: impl Into<Arc<ChangeMeta>>,
        class: String,
        old_dag: UsageDag,
        new_dag: UsageDag,
        change: UsageChange,
    ) -> Self {
        MinedUsageChange {
            meta: meta.into(),
            class,
            change,
            dags: DagPair::Owned(old_dag, new_dag),
        }
    }

    /// The paired old-version DAG (decoded if the pair was replayed).
    pub fn old_dag(&self) -> Cow<'_, UsageDag> {
        match &self.dags {
            DagPair::Owned(old, _) => Cow::Borrowed(old),
            DagPair::Replayed(pair) => Cow::Owned(pair.view().old_new().0.to_dag()),
        }
    }

    /// The paired new-version DAG (decoded if the pair was replayed).
    pub fn new_dag(&self) -> Cow<'_, UsageDag> {
        match &self.dags {
            DagPair::Owned(_, new) => Cow::Borrowed(new),
            DagPair::Replayed(pair) => Cow::Owned(pair.view().old_new().1.to_dag()),
        }
    }

    /// The DAG pair in whichever form holds it.
    pub(crate) fn dag_pair(&self) -> &DagPair {
        &self.dags
    }
}

impl PartialEq for MinedUsageChange {
    fn eq(&self, other: &Self) -> bool {
        self.meta == other.meta
            && self.class == other.class
            && self.change == other.change
            && self.old_dag() == other.old_dag()
            && self.new_dag() == other.new_dag()
    }
}

impl fmt::Debug for MinedUsageChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MinedUsageChange")
            .field("meta", &self.meta)
            .field("class", &self.class)
            .field("old_dag", &self.old_dag())
            .field("new_dag", &self.new_dag())
            .field("change", &self.change)
            .finish()
    }
}

/// Aggregate counters from a mining run.
///
/// Invariant (checked by [`MiningStats::is_balanced`]): every processed
/// change is either mined or skipped under exactly one kind,
/// `code_changes == mined + skipped.total()`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Code changes (program version pairs) processed.
    pub code_changes: usize,
    /// Code changes analyzed to completion (with or without usage
    /// changes to show for it).
    pub mined: usize,
    /// Per-kind skip counters.
    pub skipped: SkipCounters,
}

impl MiningStats {
    /// `true` when the accounting invariant holds:
    /// `code_changes == mined + skipped.total()`.
    pub fn is_balanced(&self) -> bool {
        self.code_changes == self.mined + self.skipped.total()
    }
}

/// The result of mining a corpus.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MiningResult {
    /// All derived usage changes, in corpus order.
    pub changes: Vec<MinedUsageChange>,
    /// Counters.
    pub stats: MiningStats,
    /// One report per skipped code change, in corpus order.
    pub quarantine: Vec<QuarantineReport>,
}

/// The DiffCode system: configuration + analysis cache.
#[derive(Debug, Default)]
pub struct DiffCode {
    api: ApiModel,
    max_depth: usize,
    /// The analysis memo, keyed by the full source text: a hit needs
    /// equal bytes, so no hash collision can return another file's
    /// usages.
    cache: HashMap<Box<str>, Rc<Usages>>,
    limits: PipelineLimits,
    metrics: MetricsRegistry,
    trace: TraceSink,
    /// Cooperative cancellation: checked between code changes by
    /// [`DiffCode::mine`]. `None` (the default) means mining
    /// runs to completion; explicit opt-in only — a resident server
    /// drains in-flight requests rather than aborting them, so only
    /// the one-shot CLI wires a signal flag in here.
    cancel: Option<&'static AtomicBool>,
}

impl DiffCode {
    /// A pipeline with the paper's defaults (DAG depth 5) and the
    /// default resource budgets.
    pub fn new() -> Self {
        DiffCode {
            api: ApiModel::standard(),
            max_depth: DEFAULT_MAX_DEPTH,
            cache: HashMap::new(),
            limits: PipelineLimits::DEFAULT,
            metrics: MetricsRegistry::new(),
            trace: TraceSink::disabled(),
            cancel: None,
        }
    }

    /// Installs a cooperative cancellation flag: once it reads `true`,
    /// [`Self::mine`] stops *between* code changes — the change
    /// in flight completes normally, the remainder are never counted,
    /// and the partial result still satisfies
    /// `code_changes == mined + skipped`.
    pub fn set_cancel_flag(&mut self, flag: &'static AtomicBool) {
        self.cancel = Some(flag);
    }

    fn cancelled(&self) -> bool {
        self.cancel
            .map(|flag| flag.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Overrides the DAG construction depth.
    pub fn with_depth(max_depth: usize) -> Self {
        DiffCode {
            max_depth,
            ..DiffCode::new()
        }
    }

    /// Overrides the per-stage resource budgets.
    pub fn with_limits(limits: PipelineLimits) -> Self {
        DiffCode {
            limits,
            ..DiffCode::new()
        }
    }

    /// The budgets this pipeline applies while mining.
    pub fn limits(&self) -> &PipelineLimits {
        &self.limits
    }

    /// The observability registry this pipeline has accumulated:
    /// `mine.*` / `analyze.*` / `analysis.*` counters and the
    /// `mine.run` / `mine.change` timing spans, cumulative across every
    /// [`Self::mine`] call on this instance.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Takes the accumulated registry, leaving an empty one — how
    /// [`mine_parallel`] collects per-shard metrics from
    /// worker pipelines on join.
    pub fn take_metrics(&mut self) -> MetricsRegistry {
        std::mem::take(&mut self.metrics)
    }

    /// Installs a trace sink; subsequent mining records spans per
    /// change/stage and one decision event per code change. Pipelines
    /// start with a disabled sink (zero-cost: every trace call is one
    /// branch).
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The trace events recorded so far.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Takes the accumulated trace, leaving a disabled sink — how
    /// [`mine_parallel`] collects per-shard traces from worker
    /// pipelines on join.
    pub fn take_trace(&mut self) -> TraceSink {
        std::mem::replace(&mut self.trace, TraceSink::disabled())
    }

    /// Parses and analyzes one source file, caching by content. Parsing
    /// runs under the configured front-end budgets; analysis is
    /// unbudgeted — this is the trusted-input entry point used by the
    /// CLI on local files. The mining loop uses
    /// [`Self::try_analyze_source`] instead.
    ///
    /// # Errors
    ///
    /// Propagates lexer-level failures; member-level parse problems are
    /// tolerated by the parser itself.
    pub fn analyze_source(&mut self, source: &str) -> Result<Rc<Usages>, ParseError> {
        if let Some(hit) = self.cache.get(source) {
            let hit = Rc::clone(hit);
            self.metrics.inc("analyze.cache_hit", 1);
            return Ok(hit);
        }
        self.metrics.inc("analyze.cache_miss", 1);
        // `parse_snippet` accepts full units, bare class bodies, and
        // bare statement sequences — the partial programs DiffCode
        // mines (paper §5.1).
        let unit = javalang::parse_snippet_with_limits(source, self.limits.parse)?;
        let usages = Rc::new(analyze(&unit, &self.api));
        self.cache.insert(source.into(), Rc::clone(&usages));
        Ok(usages)
    }

    /// Parses and analyzes one untrusted source file under the full
    /// budget stack, caching by content.
    ///
    /// The cache is only written *after* parse and analysis both
    /// succeeded, so a panic anywhere in this function leaves the
    /// pipeline state exactly as it was — the property that makes the
    /// per-change `AssertUnwindSafe` in [`Self::mine`] sound. (The
    /// metrics counters may reflect a half-finished attempt after an
    /// unwind, but counters are monotone aggregates with no validity
    /// invariant to break.)
    ///
    /// # Errors
    ///
    /// Typed [`PipelineError`]s for lexer/parser failures and
    /// analysis-budget overruns.
    pub fn try_analyze_source(&mut self, source: &str) -> Result<Rc<Usages>, PipelineError> {
        if let Some(marker) = chaos_panic_marker() {
            if source.contains(&marker) {
                panic!("chaos fault injection: panic marker present in source");
            }
        }
        if let Some(hit) = self.cache.get(source) {
            let hit = Rc::clone(hit);
            self.metrics.inc("analyze.cache_hit", 1);
            self.trace.instant("analyze.cache_hit");
            return Ok(hit);
        }
        self.metrics.inc("analyze.cache_miss", 1);
        // Each fallible stage's span is closed *before* the error
        // propagates, so failed changes still leave balanced traces.
        let parse_span = self.trace.begin("parse");
        let unit = javalang::parse_snippet_with_limits(source, self.limits.parse);
        self.trace.end(parse_span);
        let unit = unit?;
        let analysis_span = self.trace.begin("analysis");
        let analyzed = try_analyze_counted(&unit, &self.api, &self.limits.analysis);
        self.trace.end(analysis_span);
        let (usages, steps) = analyzed?;
        self.metrics.inc("analysis.steps", steps);
        let usages = Rc::new(usages);
        self.cache.insert(source.into(), Rc::clone(&usages));
        Ok(usages)
    }

    /// Derives the usage changes of `class` between two source
    /// versions, returning the paired DAGs alongside each diff.
    ///
    /// # Errors
    ///
    /// Fails if either source cannot be lexed.
    pub fn usage_changes_from_pair(
        &mut self,
        old_source: &str,
        new_source: &str,
        class: &str,
    ) -> Result<Vec<(UsageDag, UsageDag, UsageChange)>, ParseError> {
        let old = self.analyze_source(old_source)?;
        let new = self.analyze_source(new_source)?;
        Ok(self.usage_changes_from_usages(&old, &new, class))
    }

    /// Same as [`Self::usage_changes_from_pair`] but over pre-analyzed
    /// usages.
    pub fn usage_changes_from_usages(
        &self,
        old: &Usages,
        new: &Usages,
        class: &str,
    ) -> Vec<(UsageDag, UsageDag, UsageChange)> {
        let old_dags = dags_for_class(old, class, self.max_depth);
        let new_dags = dags_for_class(new, class, self.max_depth);
        if old_dags.is_empty() && new_dags.is_empty() {
            return Vec::new();
        }
        pair_dags(old_dags, new_dags, class)
            .into_iter()
            .map(|(a, b)| {
                let change = diff_dags(&a, &b);
                (a, b, change)
            })
            .collect()
    }

    /// [`Self::usage_changes_from_usages`] under the configured DAG
    /// budgets — the variant the mining loop uses.
    ///
    /// # Errors
    ///
    /// Propagates [`usagegraph::DagError`] budget failures.
    pub fn try_usage_changes_from_usages(
        &self,
        old: &Usages,
        new: &Usages,
        class: &str,
    ) -> Result<Vec<(UsageDag, UsageDag, UsageChange)>, PipelineError> {
        let limits = DagLimits {
            max_depth: self.max_depth,
            ..self.limits.dag
        };
        let old_dags = try_dags_for_class(old, class, &limits)?;
        let new_dags = try_dags_for_class(new, class, &limits)?;
        if old_dags.is_empty() && new_dags.is_empty() {
            return Ok(Vec::new());
        }
        Ok(pair_dags(old_dags, new_dags, class)
            .into_iter()
            .map(|(a, b)| {
                let change = diff_dags(&a, &b);
                (a, b, change)
            })
            .collect())
    }

    /// Mines every code change of `corpus` for usage changes of the
    /// given target classes (defaults to the paper's six, Figure 5).
    ///
    /// Mining never aborts: a change that fails any stage — or panics —
    /// is skipped, counted under its [`ErrorKind`], and quarantined
    /// with provenance, while the remaining changes proceed.
    ///
    /// With a `cache` view, each change's key is looked up before any
    /// analysis work, a hit replays the cached [`ChangeOutcome`] (mined
    /// tuples *or* the quarantined skip — cached skips stay skipped, so
    /// `processed = mined + skipped` balances identically on warm
    /// runs), and a miss computes the outcome and records it in the
    /// view's write log. Lookup results are counted as `cache.hit` /
    /// `cache.miss` / `cache.stale_version`.
    ///
    /// The caller is responsible for opening the cache with the same
    /// target classes, limits, and depth this pipeline mines with —
    /// the cache's configuration fingerprint is part of every key, so
    /// a mismatched handle can only cause misses, never wrong replays
    /// of *its own* entries, but keys from a different configuration
    /// would alias if the handle lies about the configuration.
    pub fn mine(
        &mut self,
        corpus: &Corpus,
        classes: &[&str],
        mut cache: Option<&mut MiningCacheView<'_>>,
    ) -> MiningResult {
        let classes: Vec<&str> = if classes.is_empty() {
            TARGET_CLASSES.to_vec()
        } else {
            classes.to_vec()
        };
        if let Some(project) = chaos_shard_panic_project() {
            if corpus.projects.iter().any(|p| p.name == project) {
                panic!("chaos fault injection: shard-panic project `{project}` present");
            }
        }
        let run_clock = Stopwatch::start();
        let run_span = self.trace.begin("mine.run");
        let mut result = MiningResult::default();
        for code_change in corpus.code_changes() {
            if self.cancelled() {
                // Between-change interruption: nothing in flight, the
                // untouched remainder is simply never counted, so the
                // partial accounting still balances.
                self.metrics.inc("mine.interrupted", 1);
                break;
            }
            let change_clock = Stopwatch::start();
            result.stats.code_changes += 1;
            // With a cache, the lookup key and the change fingerprint
            // come from one pass over the file pair.
            let (key, fingerprint) = match cache.as_deref() {
                Some(view) => {
                    let (key, fingerprint) = view.change_ids(code_change.old, code_change.new);
                    (Some(key), fingerprint.to_string())
                }
                None => (None, change_fingerprint(code_change.old, code_change.new)),
            };
            let meta = ChangeMeta {
                project: code_change.project.full_name(),
                commit: code_change.commit.id.clone(),
                author: code_change.commit.author.clone(),
                message: code_change.commit.message.clone(),
                path: code_change.path.to_owned(),
                fingerprint,
            };
            let change_span = self.trace.begin_with("mine.change", |a| {
                a.str("project", meta.project.as_str());
                a.str("commit", meta.commit.as_str());
                a.str("path", meta.path.as_str());
                a.str("fingerprint", meta.fingerprint.as_str());
            });
            // Look aside before any analysis work. Both the replayed
            // and the freshly-computed paths apply a `ChangeOutcome`
            // through the same function below, so a warm run is
            // byte-identical to the cold run by construction.
            let (outcome, cache_status) = self.outcome_for_pair(
                code_change.old,
                code_change.new,
                &classes,
                cache.as_deref_mut().zip(key),
            );
            // The per-change decision: emitted inside the change span,
            // always retained regardless of sampling.
            let (reason, usage_changes) = match &outcome {
                Resolved::Decoded(ChangeOutcome::Mined(tuples)) => {
                    (DecisionReason::Mined, tuples.len())
                }
                Resolved::Replayed(tuples) => (DecisionReason::Mined, tuples.len()),
                Resolved::Decoded(ChangeOutcome::Skipped { kind, .. }) => {
                    (DecisionReason::Quarantined(*kind), 0)
                }
            };
            record_decision(&mut self.trace, &meta, &reason, |a| {
                a.str("cache", cache_status);
                a.u64("usage_changes", usage_changes as u64);
            });
            apply_outcome(&mut result, meta, outcome);
            self.trace.end(change_span);
            self.metrics
                .record_span("mine.change", change_clock.elapsed());
        }
        self.trace.end(run_span);
        self.metrics.record_span("mine.run", run_clock.elapsed());
        self.metrics
            .inc("mine.code_changes", result.stats.code_changes as u64);
        self.metrics.inc("mine.mined", result.stats.mined as u64);
        self.metrics
            .inc("mine.usage_changes", result.changes.len() as u64);
        result.stats.skipped.record(&mut self.metrics);
        debug_assert!(result.stats.is_balanced());
        // Stage boundary: the cumulative counters must partition the
        // same way the per-run stats do.
        debug_assert!(obs::check_partition(
            &self.metrics,
            "mine.code_changes",
            &["mine.mined", "mine.skipped"],
        )
        .is_ok());
        result
    }

    /// Processes one `(old, new)` source pair through the full
    /// budgeted, panic-isolated pipeline, optionally through a cache
    /// view — the resident-service entry point (one request = one
    /// change). Resolves an empty class list to the paper's targets,
    /// exactly like [`Self::mine`], so a served verdict is computed
    /// under the same configuration as a one-shot mining run's.
    ///
    /// Returns the outcome plus the cache status this lookup recorded
    /// (`"hit"`, `"miss"`, `"stale_version"`, or `"off"` without a
    /// cache).
    pub fn process_pair_cached(
        &mut self,
        old: &str,
        new: &str,
        classes: &[&str],
        cache: Option<&mut MiningCacheView<'_>>,
    ) -> (ChangeOutcome, &'static str) {
        let classes: Vec<&str> = if classes.is_empty() {
            TARGET_CLASSES.to_vec()
        } else {
            classes.to_vec()
        };
        let cache = cache.map(|view| {
            let key = view.change_key(old, new);
            (view, key)
        });
        let (outcome, status) = self.outcome_for_pair(old, new, &classes, cache);
        (outcome.into_outcome(), status)
    }

    /// The shared look-aside path: cache lookup under the pair's `key`
    /// (hit replays, miss computes and records), with `cache.*`
    /// counters and trace markers. Both the mining loop and
    /// [`Self::process_pair_cached`] go through here, so a served
    /// verdict and a mined one are the same computation by
    /// construction.
    fn outcome_for_pair(
        &mut self,
        old: &str,
        new: &str,
        classes: &[&str],
        cache: Option<(&mut MiningCacheView<'_>, cache::Fingerprint)>,
    ) -> (Resolved, &'static str) {
        match cache {
            Some((view, key)) => match view.replay(key) {
                CachedLookup::Hit(outcome) => {
                    self.metrics.inc("cache.hit", 1);
                    self.trace.instant("cache.hit");
                    (outcome, "hit")
                }
                lookup => {
                    let (counter, status) = match lookup {
                        CachedLookup::StaleVersion => ("cache.stale_version", "stale_version"),
                        _ => ("cache.miss", "miss"),
                    };
                    self.metrics.inc(counter, 1);
                    self.trace.instant(counter);
                    let outcome = self.compute_outcome(old, new, classes);
                    view.record(key, &outcome);
                    (Resolved::Decoded(outcome), status)
                }
            },
            None => (
                Resolved::Decoded(self.compute_outcome(old, new, classes)),
                "off",
            ),
        }
    }

    /// [`Self::process_change`] with the result folded into the
    /// cacheable [`ChangeOutcome`] form (the error reduced to its kind,
    /// message, and excerpt — exactly what a [`QuarantineReport`]
    /// keeps).
    fn compute_outcome(&mut self, old: &str, new: &str, classes: &[&str]) -> ChangeOutcome {
        match self.process_change(old, new, classes) {
            Ok(mined) => ChangeOutcome::Mined(mined),
            Err((error, excerpt)) => ChangeOutcome::Skipped {
                kind: error.kind(),
                error: error.to_string(),
                excerpt,
            },
        }
    }

    /// Runs one code change through analyze → DAG diff behind a panic
    /// boundary. On failure returns the typed error plus the triage
    /// excerpt of the offending side (the new version when the side is
    /// unknowable, i.e. for panics and DAG-stage failures).
    ///
    /// `AssertUnwindSafe` audit: the only state the closure can leave
    /// inconsistent on unwind is `self` — and every `&mut self` path
    /// ([`Self::try_analyze_source`]) mutates only the content-keyed
    /// analysis cache, *after* the fallible work for that entry has
    /// fully succeeded. An unwind therefore observes either no cache
    /// entry or a complete, valid one; no partially-initialized state
    /// survives the catch.
    fn process_change(
        &mut self,
        old_source: &str,
        new_source: &str,
        classes: &[&str],
    ) -> Result<MinedTuples, (PipelineError, String)> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let span = self.trace.begin("analyze.old");
            let old = self.try_analyze_source(old_source);
            self.trace.end(span);
            let old = old.map_err(|e| (e, excerpt(old_source)))?;
            let span = self.trace.begin("analyze.new");
            let new = self.try_analyze_source(new_source);
            self.trace.end(span);
            let new = new.map_err(|e| (e, excerpt(new_source)))?;
            let dags_span = self.trace.begin("dags.diff");
            let mut mined = MinedTuples::new();
            for class in classes {
                let tuples = self.try_usage_changes_from_usages(&old, &new, class);
                let tuples = match tuples {
                    Ok(tuples) => tuples,
                    Err(e) => {
                        self.trace.end(dags_span);
                        return Err((e, excerpt(new_source)));
                    }
                };
                for (old_dag, new_dag, change) in tuples {
                    mined.push(((*class).to_owned(), old_dag, new_dag, change));
                }
            }
            self.trace.end(dags_span);
            Ok(mined)
        }));
        match outcome {
            Ok(processed) => processed,
            Err(payload) => Err((
                PipelineError::Panic(panic_message(payload)),
                excerpt(new_source),
            )),
        }
    }
}

type MinedTuples = Vec<(String, UsageDag, UsageDag, UsageChange)>;

/// Folds one per-change outcome — replayed from cache or freshly
/// computed — into the running result. The single accounting path for
/// both, which is what makes warm runs byte-identical to cold ones. The
/// usage changes of one code change share its `meta`.
fn apply_outcome(result: &mut MiningResult, meta: ChangeMeta, outcome: Resolved) {
    match outcome {
        Resolved::Decoded(ChangeOutcome::Mined(mined)) => {
            result.stats.mined += 1;
            let meta = Arc::new(meta);
            for (class, old_dag, new_dag, change) in mined {
                let usage =
                    MinedUsageChange::new(Arc::clone(&meta), class, old_dag, new_dag, change);
                result.changes.push(usage);
            }
        }
        Resolved::Replayed(tuples) => {
            result.stats.mined += 1;
            let meta = Arc::new(meta);
            for (tuple, dags) in tuples.iter() {
                result.changes.push(MinedUsageChange {
                    meta: Arc::clone(&meta),
                    class: tuple.class().to_owned(),
                    change: tuple.change(),
                    dags: DagPair::Replayed(dags),
                });
            }
        }
        Resolved::Decoded(ChangeOutcome::Skipped {
            kind,
            error,
            excerpt,
        }) => {
            result.stats.skipped.bump(kind);
            result.quarantine.push(QuarantineReport {
                meta,
                kind,
                error,
                excerpt,
            });
        }
    }
}

/// Renders a caught panic payload as a message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Fault-injection hook: when the `DIFFCODE_CHAOS_PANIC_MARKER`
/// environment variable is set (non-empty), any source containing the
/// marker panics inside [`DiffCode::try_analyze_source`]. This lets the
/// chaos harness drive a real panic through the release pipeline and
/// assert that per-change isolation contains it; with the variable
/// unset (production) the check is a single `env::var` miss.
fn chaos_panic_marker() -> Option<String> {
    std::env::var("DIFFCODE_CHAOS_PANIC_MARKER")
        .ok()
        .filter(|m| !m.is_empty())
}

/// Companion hook for shard-level faults: when
/// `DIFFCODE_CHAOS_SHARD_PANIC_PROJECT` names a project in the corpus,
/// [`DiffCode::mine`] panics *before* entering the per-change isolation
/// loop — exercising [`mine_parallel`]'s thread-join degradation path.
fn chaos_shard_panic_project() -> Option<String> {
    std::env::var("DIFFCODE_CHAOS_SHARD_PANIC_PROJECT")
        .ok()
        .filter(|m| !m.is_empty())
}

/// How [`mine_parallel`] runs: the worker count, an optional persistent
/// result cache, and an optional cooperative cancellation flag.
#[derive(Default)]
pub struct MineOptions<'a> {
    /// Worker threads (at least one is used; never more than projects).
    pub threads: usize,
    /// The persistent result cache. Every worker gets a read-only view
    /// of its loaded index plus its own append log, merged back on join
    /// in shard order; the caller flushes.
    pub cache: Option<&'a mut MiningCache>,
    /// Once this reads `true`, every shard stops between code changes
    /// and the partial results merge normally (the Ctrl-C path of
    /// one-shot `diffcode mine`).
    pub cancel: Option<&'static AtomicBool>,
}

/// Mines `corpus` using one [`DiffCode`] per worker thread, sharding by
/// project. The result is identical to [`DiffCode::mine`] — shards are
/// contiguous project runs concatenated in project order — but
/// wall-clock scales with cores. Shard boundaries balance the number of
/// *code changes* per shard rather than the number of projects: mining
/// cost is driven by how many old/new file pairs a shard parses, and
/// real corpora are heavily skewed (a handful of projects contribute
/// most commits), so equal-project chunks leave most threads idle
/// behind the one that drew the giant project.
///
/// Each worker accumulates its own [`MetricsRegistry`] and
/// [`TraceSink`] (no locks on the hot path); on join they are merged
/// into `registry` and absorbed into `trace` **in shard order**, each
/// shard its own trace lane, so a parallel trace is the sequential
/// trace's events re-grouped by lane. With a cancel flag, shard logs
/// are still absorbed and the accounting balances over what was
/// actually processed.
///
/// A shard whose worker died contributes its all-skipped accounting, a
/// `mine.shard_failures` increment, and its quarantine decisions in the
/// orchestrator's own lane — but never its cache log: caching
/// half-finished outcomes from a dead worker would let a warm run
/// disagree with the cold one.
pub fn mine_parallel(
    corpus: &Corpus,
    classes: &[&str],
    opts: MineOptions<'_>,
    registry: &mut MetricsRegistry,
    trace: &mut TraceSink,
) -> MiningResult {
    let MineOptions {
        threads: n_threads,
        cache,
        cancel,
    } = opts;
    let trace_config = trace.config();
    let n_threads = n_threads.max(1).min(corpus.projects.len().max(1));
    if n_threads <= 1 {
        let mut view = cache.as_ref().map(|c| c.view());
        let mut dc = DiffCode::new();
        dc.set_trace(TraceSink::from_config(trace_config));
        if let Some(flag) = cancel {
            dc.set_cancel_flag(flag);
        }
        let result = dc.mine(corpus, classes, view.as_mut());
        registry.merge(&dc.take_metrics());
        trace.absorb(dc.take_trace());
        let log = view.map(MiningCacheView::into_log);
        if let (Some(cache), Some(log)) = (cache, log) {
            cache.absorb(log);
        }
        return result;
    }
    let shards = shard_by_code_changes(corpus, n_threads);
    // Immutable reborrow for the workers; the mutable handle is used
    // again only after the scope ends and every view is consumed.
    let shared: Option<&MiningCache> = cache.as_deref();
    type ShardOutcome = (
        MiningResult,
        MetricsRegistry,
        Option<cache::ShardLog>,
        Option<TraceSink>,
    );
    let results: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                let mut view = shared.map(|c| c.view());
                (
                    shard,
                    scope.spawn(move || {
                        let mut dc = DiffCode::new();
                        dc.set_trace(TraceSink::from_config(trace_config));
                        if let Some(flag) = cancel {
                            dc.set_cancel_flag(flag);
                        }
                        let result = dc.mine(shard, classes, view.as_mut());
                        (
                            result,
                            dc.take_metrics(),
                            view.map(MiningCacheView::into_log),
                            Some(dc.take_trace()),
                        )
                    }),
                )
            })
            .collect();
        handles
            .into_iter()
            .map(|(shard, handle)| match handle.join() {
                Ok(outcome) => outcome,
                // A worker died outside the per-change isolation (mine
                // itself never panics on input). Fold the shard in as
                // all-skipped so sibling shards' results survive and
                // the merged accounting still balances; its in-flight
                // metrics died with the thread, so rebuild the counters
                // the accounting requires from the skip totals. The
                // shard's cache log died with it too — deliberately.
                Err(payload) => {
                    let result = shard_failure_result(shard, &panic_message(payload), trace);
                    let mut shard_metrics = MetricsRegistry::new();
                    shard_metrics.inc("mine.shard_failures", 1);
                    shard_metrics.inc("mine.code_changes", result.stats.code_changes as u64);
                    shard_metrics.inc("mine.mined", 0);
                    result.stats.skipped.record(&mut shard_metrics);
                    (result, shard_metrics, None, None)
                }
            })
            .collect()
    });
    let mut merged = MiningResult::default();
    let mut logs = Vec::new();
    for (result, shard_metrics, log, shard_trace) in results {
        merged.stats.code_changes += result.stats.code_changes;
        merged.stats.mined += result.stats.mined;
        merged.stats.skipped.absorb(&result.stats.skipped);
        merged.changes.extend(result.changes);
        merged.quarantine.extend(result.quarantine);
        registry.merge(&shard_metrics);
        logs.extend(log);
        if let Some(shard_trace) = shard_trace {
            trace.absorb(shard_trace);
        }
    }
    if let Some(cache) = cache {
        for log in logs {
            cache.absorb(log);
        }
    }
    debug_assert!(merged.stats.is_balanced());
    debug_assert!(obs::check_partition(
        registry,
        "mine.code_changes",
        &["mine.mined", "mine.skipped"]
    )
    .is_ok());
    merged
}

/// The accounting for a shard whose worker thread panicked before
/// returning: every code change of the shard is recorded as a
/// [`ErrorKind::Panic`] skip with a quarantine report, so
/// `code_changes == mined + skipped.total()` holds for the merged run.
/// The per-change decision events die with the worker's sink, so they
/// are re-emitted here into the orchestrator's `trace` (after a
/// `mine.shard_failure` marker), keeping the trace's decision set
/// complete even when a whole shard is lost.
fn shard_failure_result(shard: &Corpus, message: &str, trace: &mut TraceSink) -> MiningResult {
    trace.instant_with("mine.shard_failure", |a| {
        a.str("message", message);
    });
    let mut result = MiningResult::default();
    for code_change in shard.code_changes() {
        result.stats.code_changes += 1;
        result.stats.skipped.bump(ErrorKind::Panic);
        let meta = ChangeMeta {
            project: code_change.project.full_name(),
            commit: code_change.commit.id.clone(),
            author: code_change.commit.author.clone(),
            message: code_change.commit.message.clone(),
            path: code_change.path.to_owned(),
            fingerprint: change_fingerprint(code_change.old, code_change.new),
        };
        record_decision(
            trace,
            &meta,
            &DecisionReason::Quarantined(ErrorKind::Panic),
            |a| {
                a.str("cache", "off");
                a.u64("usage_changes", 0);
            },
        );
        result.quarantine.push(QuarantineReport {
            meta,
            kind: ErrorKind::Panic,
            error: format!("mining shard panicked: {message}"),
            excerpt: excerpt(code_change.new),
        });
    }
    result
}

/// Splits `corpus` into at most `n_shards` contiguous project runs
/// whose total code-change counts are as even as a greedy in-order
/// partition can make them. Projects are never reordered, so
/// concatenating shard results reproduces sequential mining exactly.
fn shard_by_code_changes(corpus: &Corpus, n_shards: usize) -> Vec<Corpus> {
    let weights: Vec<usize> = corpus
        .projects
        .iter()
        .map(|project| {
            project
                .commits
                .iter()
                .map(|commit| {
                    commit
                        .changes
                        .iter()
                        .filter(|change| change.old.is_some() && change.new.is_some())
                        .count()
                })
                .sum()
        })
        .collect();
    let total: usize = weights.iter().sum();
    let mut shards = Vec::with_capacity(n_shards);
    let mut start = 0;
    let mut consumed = 0usize;
    for s in 0..n_shards {
        if start >= corpus.projects.len() {
            break;
        }
        // Re-derive the ideal share from what is still unassigned, so
        // one oversized project early on does not starve later shards.
        let ideal = (total - consumed).div_ceil(n_shards - s);
        let mut end = start;
        let mut acc = 0usize;
        while end < corpus.projects.len() {
            if end > start && acc + weights[end] > ideal {
                break;
            }
            acc += weights[end];
            end += 1;
        }
        consumed += acc;
        shards.push(Corpus {
            projects: corpus.projects[start..end].to_vec(),
        });
        start = end;
    }
    // The last pass always takes the remainder (ideal == total − consumed).
    debug_assert_eq!(start, corpus.projects.len());
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::fixtures;

    fn mine_threads(corpus: &Corpus, threads: usize) -> MiningResult {
        let opts = MineOptions {
            threads,
            ..MineOptions::default()
        };
        mine_parallel(
            corpus,
            &[],
            opts,
            &mut MetricsRegistry::new(),
            &mut TraceSink::disabled(),
        )
    }

    #[test]
    fn figure2_pair_produces_two_changes() {
        let mut dc = DiffCode::new();
        let changes = dc
            .usage_changes_from_pair(fixtures::FIGURE2_OLD, fixtures::FIGURE2_NEW, "Cipher")
            .unwrap();
        assert_eq!(changes.len(), 2, "enc and dec");
        for (_, _, change) in &changes {
            assert!(!change.is_same());
            assert!(!change.removed.is_empty() && !change.added.is_empty());
        }
    }

    #[test]
    fn cache_hits_for_identical_content() {
        let mut dc = DiffCode::new();
        let a = dc.analyze_source(fixtures::FIGURE2_OLD).unwrap();
        let b = dc.analyze_source(fixtures::FIGURE2_OLD).unwrap();
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn parallel_mining_equals_sequential() {
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(8, 77));
        let sequential = DiffCode::new().mine(&corpus, &[], None);
        let parallel = mine_threads(&corpus, 4);
        assert_eq!(sequential.stats, parallel.stats);
        assert_eq!(sequential.changes.len(), parallel.changes.len());
        for (a, b) in sequential.changes.iter().zip(&parallel.changes) {
            assert_eq!(a.change, b.change);
            assert_eq!(a.meta, b.meta);
            assert_eq!(a.old_dag(), b.old_dag());
        }
    }

    /// A project with `k` code changes (and one file-added change that
    /// must not count toward the shard weight).
    fn project_with_changes(name: &str, k: usize) -> corpus::Project {
        let changes = |i: usize| corpus::FileChange {
            path: format!("F{i}.java"),
            old: Some(format!("class F{i} {{}}")),
            new: Some(format!("class F{i} {{ int x; }}")),
        };
        corpus::Project {
            user: "u".into(),
            name: name.into(),
            facts: corpus::ProjectFacts::default(),
            commits: vec![corpus::Commit {
                id: format!("{name}-1"),
                author: String::new(),
                message: "edit".into(),
                changes: (0..k)
                    .map(changes)
                    .chain(std::iter::once(corpus::FileChange {
                        path: "New.java".into(),
                        old: None,
                        new: Some("class New {}".into()),
                    }))
                    .collect(),
            }],
        }
    }

    #[test]
    fn shards_balance_by_code_change_count_not_project_count() {
        // One giant project followed by six tiny ones: equal-project
        // chunking at 4 threads would pair the giant with a tiny one
        // and leave that shard with 13/19 of the work.
        let sizes = [12usize, 2, 1, 1, 1, 1, 1];
        let corpus = corpus::Corpus {
            projects: sizes
                .iter()
                .enumerate()
                .map(|(i, &k)| project_with_changes(&format!("p{i}"), k))
                .collect(),
        };
        let shards = super::shard_by_code_changes(&corpus, 4);
        let loads: Vec<usize> = shards.iter().map(|s| s.code_changes().count()).collect();
        // The giant project is alone in its shard and the tiny ones
        // spread over the remaining shards instead of queueing behind it.
        assert_eq!(loads[0], 12, "{loads:?}");
        assert!(loads.len() >= 3, "{loads:?}");
        assert!(loads[1..].iter().all(|&l| l <= 4), "{loads:?}");
        // Order is preserved: concatenated shards reproduce the corpus.
        let concatenated: Vec<_> = shards
            .iter()
            .flat_map(|s| s.projects.iter().map(|p| p.name.clone()))
            .collect();
        let original: Vec<_> = corpus.projects.iter().map(|p| p.name.clone()).collect();
        assert_eq!(concatenated, original);
    }

    #[test]
    fn skewed_parallel_mining_equals_sequential() {
        let mut corpus = corpus::generate(&corpus::GeneratorConfig::small(6, 21));
        // Skew the corpus: duplicate the first project's commits so one
        // project dominates the work distribution.
        for _ in 0..3 {
            let extra = corpus.projects[0].commits.clone();
            corpus.projects[0].commits.extend(extra);
        }
        let sequential = DiffCode::new().mine(&corpus, &[], None);
        let parallel = mine_threads(&corpus, 3);
        assert_eq!(sequential.stats, parallel.stats);
        assert_eq!(sequential.changes.len(), parallel.changes.len());
        for (a, b) in sequential.changes.iter().zip(&parallel.changes) {
            assert_eq!(a.change, b.change);
            assert_eq!(a.meta, b.meta);
        }
    }

    /// A one-project corpus with one code change per (old, new) pair.
    fn corpus_of_pairs(name: &str, pairs: &[(&str, &str)]) -> corpus::Corpus {
        corpus::Corpus {
            projects: vec![corpus::Project {
                user: "u".into(),
                name: name.into(),
                facts: corpus::ProjectFacts::default(),
                commits: pairs
                    .iter()
                    .enumerate()
                    .map(|(i, (old, new))| corpus::Commit {
                        id: format!("c{i}"),
                        author: String::new(),
                        message: format!("change {i}"),
                        changes: vec![corpus::FileChange {
                            path: format!("F{i}.java"),
                            old: Some((*old).to_owned()),
                            new: Some((*new).to_owned()),
                        }],
                    })
                    .collect(),
            }],
        }
    }

    #[test]
    fn malformed_inputs_are_skipped_and_quarantined() {
        let corpus = corpus_of_pairs(
            "p",
            &[
                ("class A {}", "class A { int x; }"),
                ("class B {}", "class B { String s = \"unterminated; }"),
            ],
        );
        let result = DiffCode::new().mine(&corpus, &[], None);
        assert_eq!(result.stats.code_changes, 2);
        assert_eq!(result.stats.mined, 1);
        assert_eq!(result.stats.skipped.lex, 1);
        assert_eq!(result.stats.skipped.parse, 0);
        assert!(result.stats.is_balanced());
        assert_eq!(result.quarantine.len(), 1);
        let report = &result.quarantine[0];
        assert_eq!(report.kind, crate::quarantine::ErrorKind::Lex);
        assert_eq!(report.meta.project, "u/p");
        assert_eq!(report.meta.commit, "c1");
        assert_eq!(report.meta.path, "F1.java");
        assert!(
            report.error.contains("unterminated string"),
            "{}",
            report.error
        );
        assert!(report.excerpt.contains("class B"), "{}", report.excerpt);
    }

    #[test]
    fn panics_are_isolated_per_change() {
        // Per-call env read: safe to set here even with sibling tests
        // running — their sources never contain the marker.
        std::env::set_var("DIFFCODE_CHAOS_PANIC_MARKER", "@@CHAOS_PANIC@@");
        let corpus = corpus_of_pairs(
            "p",
            &[
                ("class A {}", "class A { int x; }"),
                ("class B {}", "class B { /* @@CHAOS_PANIC@@ */ }"),
                ("class C {}", "class C { int y; }"),
            ],
        );
        let result = DiffCode::new().mine(&corpus, &[], None);
        assert_eq!(result.stats.code_changes, 3);
        assert_eq!(result.stats.mined, 2);
        assert_eq!(result.stats.skipped.panic, 1);
        assert_eq!(result.stats.skipped.lex + result.stats.skipped.parse, 0);
        assert!(result.stats.is_balanced());
        assert_eq!(result.quarantine.len(), 1);
        assert_eq!(
            result.quarantine[0].kind,
            crate::quarantine::ErrorKind::Panic
        );
        assert_eq!(result.quarantine[0].meta.commit, "c1");
        assert!(
            result.quarantine[0].error.contains("chaos fault injection"),
            "{}",
            result.quarantine[0].error
        );
    }

    #[test]
    fn shard_panic_folds_partial_results() {
        std::env::set_var("DIFFCODE_CHAOS_SHARD_PANIC_PROJECT", "__chaos_shard__");
        let mut corpus = corpus_of_pairs("ok-project", &[("class A {}", "class A { int x; }")]);
        corpus.projects.extend(
            corpus_of_pairs("__chaos_shard__", &[("class B {}", "class B { int y; }")]).projects,
        );
        let result = mine_threads(&corpus, 2);
        assert_eq!(result.stats.code_changes, 2);
        assert_eq!(result.stats.mined, 1, "healthy shard survives");
        assert_eq!(result.stats.skipped.panic, 1, "dead shard folded as skips");
        assert!(result.stats.is_balanced());
        assert_eq!(result.quarantine.len(), 1);
        assert_eq!(result.quarantine[0].meta.project, "u/__chaos_shard__");
        assert!(
            result.quarantine[0].error.contains("mining shard panicked"),
            "{}",
            result.quarantine[0].error
        );
    }

    #[test]
    fn budget_overruns_quarantine_as_analysis_kind() {
        let limits = PipelineLimits {
            analysis: analysis::AnalysisLimits {
                max_steps: 1,
                ..analysis::AnalysisLimits::DEFAULT
            },
            ..PipelineLimits::DEFAULT
        };
        let corpus = corpus_of_pairs(
            "p",
            &[(
                "class A { void m() { int x = 1; } }",
                "class A { void m() { int x = 2; } }",
            )],
        );
        let result = DiffCode::with_limits(limits).mine(&corpus, &[], None);
        assert_eq!(result.stats.skipped.analysis_budget, 1);
        assert_eq!(
            result.stats.skipped.lex + result.stats.skipped.parse,
            0,
            "budget skip is not a parse failure"
        );
        assert!(result.stats.is_balanced());
    }

    #[test]
    fn cancel_flag_stops_mining_between_changes_with_balanced_stats() {
        static FLAG: AtomicBool = AtomicBool::new(true);
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(4, 11));
        let mut dc = DiffCode::new();
        dc.set_cancel_flag(&FLAG);
        let result = dc.mine(&corpus, &[], None);
        assert_eq!(
            result.stats.code_changes, 0,
            "pre-set flag processes nothing"
        );
        assert!(result.stats.is_balanced());

        let mut registry = MetricsRegistry::new();
        let opts = MineOptions {
            threads: 2,
            cancel: Some(&FLAG),
            ..MineOptions::default()
        };
        let partial = mine_parallel(
            &corpus,
            &[],
            opts,
            &mut registry,
            &mut TraceSink::disabled(),
        );
        assert_eq!(partial.stats.code_changes, 0);
        assert!(partial.stats.is_balanced());
        assert!(registry.counter("mine.interrupted") > 0);
    }

    #[test]
    fn process_pair_matches_mining_outcome() {
        let (old, new) = (fixtures::FIGURE2_OLD, fixtures::FIGURE2_NEW);
        let mut dc = DiffCode::new();
        let (outcome, status) = dc.process_pair_cached(old, new, &[], None);
        assert_eq!(status, "off");
        let ChangeOutcome::Mined(tuples) = outcome else {
            panic!("figure 2 pair must mine");
        };
        let corpus = corpus_of_pairs("p", &[(old, new)]);
        let mined = DiffCode::new().mine(&corpus, &[], None);
        assert_eq!(tuples.len(), mined.changes.len());
        for (tuple, mined_change) in tuples.iter().zip(&mined.changes) {
            assert_eq!(tuple.0, mined_change.class);
            assert_eq!(tuple.3, mined_change.change);
        }
    }

    #[test]
    fn mining_small_corpus_produces_changes() {
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(4, 11));
        let mut dc = DiffCode::new();
        let result = dc.mine(&corpus, &[], None);
        assert!(result.stats.code_changes > 50);
        assert_eq!(
            result.stats.skipped.lex + result.stats.skipped.parse,
            0,
            "templates must parse"
        );
        assert!(!result.changes.is_empty());
        // The vast majority of mined usage changes are non-semantic.
        let same = result.changes.iter().filter(|c| c.change.is_same()).count();
        assert!(
            same as f64 > 0.8 * result.changes.len() as f64,
            "{same}/{}",
            result.changes.len()
        );
    }
}
