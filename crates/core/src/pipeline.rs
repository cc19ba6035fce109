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
    CachedLookup, ChangeOutcome, EncodedTuple, MiningCache, MiningCacheView, Resolved,
};
use crate::quarantine::{
    excerpt, ErrorKind, PipelineError, PipelineLimits, QuarantineReport, SkipCounters,
};
use analysis::{analyze, ApiModel, Usages, TARGET_CLASSES};
use corpus::Corpus;
use obs::Recorder;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use usagegraph::{
    dags_for_class, diff_dag_lists, usage_changes, DagError, DagLimits, UsageChange, UsageDag,
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
    cache::fingerprint(&[old.as_bytes(), new.as_bytes()]).to_hex()
}

/// One usage change with provenance and the DAG pair it came from.
///
/// A usage change computed without a result cache owns its DAG pair.
/// With a cache, one replayed from it, or computed and recorded into
/// it, keeps the tuple as the cache payload holds it — its digest text
/// and the index of its labels — because the funnel's filters and
/// elicitation read only `meta`, `class` and `change`, and the result
/// digest reads the stored text. [`Self::old_dag`] and
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
    /// Computed by a run without a result cache.
    Owned(UsageDag, UsageDag),
    /// Encoded in a result-cache payload: replayed from the cache, or
    /// recorded into it by this run.
    Encoded(EncodedTuple),
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

    /// The paired old-version DAG (decoded if the pair is encoded).
    pub fn old_dag(&self) -> Cow<'_, UsageDag> {
        match &self.dags {
            DagPair::Owned(old, _) => Cow::Borrowed(old),
            DagPair::Encoded(tuple) => Cow::Owned(tuple.view().dags().0.to_dag()),
        }
    }

    /// The paired new-version DAG (decoded if the pair is encoded).
    pub fn new_dag(&self) -> Cow<'_, UsageDag> {
        match &self.dags {
            DagPair::Owned(_, new) => Cow::Borrowed(new),
            DagPair::Encoded(tuple) => Cow::Owned(tuple.view().dags().1.to_dag()),
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
    /// One verdict per processed code change, in corpus order: a mined
    /// verdict's usage changes are the next ones of [`Self::changes`],
    /// a quarantined one's report the next one of [`Self::quarantine`].
    pub verdicts: Vec<ChangeVerdict>,
}

/// What mining decided for one code change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeVerdict {
    /// The change's provenance, its fingerprint included.
    pub meta: Arc<ChangeMeta>,
    /// The status the change's cache lookup recorded: `hit`, `miss`,
    /// `stale_version`, or `off` without a cache.
    pub cache: &'static str,
    /// Mined or quarantined.
    pub outcome: Verdict,
}

/// Whether a code change was mined or quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Analyzed to completion, with this many usage changes.
    Mined(usize),
    /// Skipped and quarantined under this kind.
    Quarantined(ErrorKind),
}

/// The DiffCode system: configuration + analysis cache.
#[derive(Debug, Default)]
pub struct DiffCode {
    api: ApiModel,
    /// The analysis memo of [`Self::analyze_source`], keyed by the full
    /// source text: a hit needs equal bytes, so no hash collision can
    /// return another file's usages. [`Self::mine`] analyzes through a
    /// planned slot table instead, which frees each analysis after its
    /// last use.
    cache: HashMap<Box<str>, Rc<Usages>>,
    limits: PipelineLimits,
    obs: Recorder,
    /// Cooperative cancellation: checked between code changes by
    /// [`DiffCode::mine`]. `None` (the default) means mining
    /// runs to completion; explicit opt-in only — a resident server
    /// drains in-flight requests rather than aborting them, so only
    /// the one-shot CLI wires a signal flag in here.
    cancel: Option<&'static AtomicBool>,
    /// A second stop condition of the same check: a served request's
    /// deadline.
    deadline: Option<Instant>,
}

impl DiffCode {
    /// A pipeline with the paper's defaults (DAG depth 5) and the
    /// default resource budgets.
    pub fn new() -> Self {
        DiffCode::default()
    }

    /// Installs a cooperative cancellation flag: once it reads `true`,
    /// [`Self::mine`] stops *between* code changes — the change
    /// in flight completes normally, the remainder are never counted,
    /// and the partial result still satisfies
    /// `code_changes == mined + skipped`.
    pub(crate) fn set_cancel_flag(&mut self, flag: &'static AtomicBool) {
        self.cancel = Some(flag);
    }

    /// Makes [`Self::mine`] stop between code changes, as the cancel
    /// flag does, once `deadline` has passed.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|flag| flag.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Overrides the DAG construction depth.
    pub fn with_depth(max_depth: usize) -> Self {
        let mut dc = DiffCode::new();
        dc.limits.dag.max_depth = max_depth;
        dc
    }

    /// The budgets this pipeline applies to every analysis.
    pub(crate) fn limits(&self) -> &PipelineLimits {
        &self.limits
    }

    /// Takes the accumulated recorder, leaving an empty untraced one —
    /// how [`mine_parallel`] and the server collect a pipeline's
    /// metrics (and trace) on join.
    pub fn take_recorder(&mut self) -> Recorder {
        std::mem::take(&mut self.obs)
    }

    /// Installs the recorder subsequent work records into: counters,
    /// one histogram per stage span and, when `rec` traces, the spans
    /// per change/stage plus one decision event per code change.
    /// Pipelines start with an empty untraced recorder.
    pub(crate) fn set_recorder(&mut self, rec: Recorder) {
        self.obs = rec;
    }

    /// Parses and analyzes one source file under the full budget stack,
    /// caching by content. Checking and the command-line tools analyze
    /// through here; mining analyzes through the same private step.
    ///
    /// The cache is only written *after* parse and analysis both
    /// succeeded, so a panic anywhere in this function leaves the
    /// pipeline state exactly as it was. (The metrics counters may
    /// reflect a half-finished attempt after an unwind, but counters are
    /// monotone aggregates with no validity invariant to break.)
    ///
    /// # Errors
    ///
    /// Typed [`PipelineError`]s for lexer/parser failures and
    /// analysis-budget overruns.
    pub fn analyze_source(&mut self, source: &str) -> Result<Rc<Usages>, PipelineError> {
        let mut slot = Slot {
            usages: self.cache.get(source).cloned(),
            dags: Vec::new(),
        };
        let hit = slot.usages.is_some();
        let usages = self.resolve(&mut slot, source)?;
        if !hit {
            self.cache.insert(source.into(), Rc::clone(&usages));
        }
        Ok(usages)
    }

    /// Resolves one source text's analysis through its slot: a filled
    /// slot counts a hit; an empty one is parsed and analyzed under the
    /// full budget stack and filled only on success, so a failed text
    /// is analyzed (and counted) again at its next use. Every entry
    /// point analyzes through here.
    fn resolve(&mut self, slot: &mut Slot, source: &str) -> Result<Rc<Usages>, PipelineError> {
        if let Some(marker) = chaos_panic_marker() {
            if source.contains(&marker) {
                panic!("chaos fault injection: panic marker present in source");
            }
        }
        if let Some(usages) = &slot.usages {
            self.obs.inc("analyze.cache_hit", 1);
            self.obs.instant("analyze.cache_hit");
            return Ok(Rc::clone(usages));
        }
        self.obs.inc("analyze.cache_miss", 1);
        // Each fallible stage's span is closed *before* the error
        // propagates, so failed changes still leave balanced traces.
        // `parse_snippet` accepts full units, bare class bodies, and
        // bare statement sequences — the partial programs DiffCode
        // mines (paper §5.1).
        let parse_span = self.obs.begin("parse");
        let unit = javalang::parse_snippet_with_limits(source, self.limits.parse);
        self.obs.end(parse_span);
        let unit = unit?;
        let analysis_span = self.obs.begin("analysis");
        let analyzed = analyze(&unit, &self.api, &self.limits.analysis);
        self.obs.end(analysis_span);
        let (usages, steps) = analyzed?;
        self.obs.inc("analysis.steps", steps);
        let usages = Rc::new(usages);
        slot.usages = Some(Rc::clone(&usages));
        Ok(usages)
    }

    /// Derives the usage changes of `class` between two source
    /// versions under the configured budgets, returning the paired
    /// DAGs alongside each diff.
    ///
    /// # Errors
    ///
    /// The first [`PipelineError`] of either side's analysis, or a DAG
    /// budget overrun.
    pub fn usage_changes_from_pair(
        &mut self,
        old_source: &str,
        new_source: &str,
        class: &str,
    ) -> Result<Vec<(UsageDag, UsageDag, UsageChange)>, PipelineError> {
        let old = self.analyze_source(old_source)?;
        let new = self.analyze_source(new_source)?;
        Ok(usage_changes(&old, &new, class, &self.limits.dag)?)
    }

    /// Mines every code change of `corpus` for usage changes of the
    /// given target classes (defaults to the paper's six, Figure 5).
    ///
    /// Mining never aborts: a change that fails any stage — or panics —
    /// is skipped, counted under its [`ErrorKind`], and quarantined
    /// with provenance, while the remaining changes proceed. Each
    /// processed change gets one [`ChangeVerdict`]. A cancel flag or a
    /// deadline ([`Self::set_deadline`]) stops mining between changes.
    ///
    /// Mining plans before it starts: each source text a
    /// change will analyze gets a slot, which holds the text's analysis
    /// and per-class DAG lists from their first use and is emptied right
    /// after its last, so each text is parsed and analyzed once and no
    /// analysis outlives its last use.
    ///
    /// With a `cache` view, each change's key is looked up before any
    /// analysis work, a hit replays the cached [`ChangeOutcome`] (mined
    /// tuples *or* the quarantined skip — cached skips stay skipped, so
    /// `processed = mined + skipped` balances identically on warm
    /// runs), and a miss computes the outcome and records it in the
    /// view's write log; its tuples then keep their DAG pairs as the
    /// record holds them, the form a replayed tuple has. Lookup results are
    /// counted as `cache.hit` / `cache.miss` / `cache.stale_version`.
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
        cache: Option<&mut MiningCacheView<'_>>,
    ) -> MiningResult {
        self.mine_observed(corpus, classes, cache, |_, _| {})
    }

    /// [`Self::mine`], calling `after_change` with each processed
    /// change's index and the slot table once the change's slots are
    /// released.
    fn mine_observed(
        &mut self,
        corpus: &Corpus,
        classes: &[&str],
        mut cache: Option<&mut MiningCacheView<'_>>,
        mut after_change: impl FnMut(usize, &Slots),
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
        let run_span = self.obs.begin("mine.run");
        let Plan {
            changes: planned,
            mut slots,
        } = Plan::new(corpus, cache.as_deref());
        let mut result = MiningResult::default();
        // The current project's full name, built once for all its
        // changes (a corpus lists each project's changes together).
        let mut project: Option<(&corpus::Project, String)> = None;
        for ((i, code_change), planned) in corpus.code_changes().enumerate().zip(planned) {
            if self.cancelled() {
                // Between-change interruption: nothing in flight, the
                // untouched remainder is simply never counted, so the
                // partial accounting still balances.
                self.obs.inc("mine.interrupted", 1);
                break;
            }
            result.stats.code_changes += 1;
            let full_name = match &project {
                Some((p, name)) if std::ptr::eq(*p, code_change.project) => name,
                _ => {
                    let name = code_change.project.full_name();
                    &project.insert((code_change.project, name)).1
                }
            };
            let meta = ChangeMeta {
                project: full_name.clone(),
                commit: code_change.commit.id.clone(),
                author: code_change.commit.author.clone(),
                message: code_change.commit.message.clone(),
                path: code_change.path.to_owned(),
                fingerprint: planned.fingerprint.to_hex(),
            };
            let change_span = self.obs.begin_with("mine.change", |a| {
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
                (code_change.old, code_change.new),
                &classes,
                cache.as_deref_mut().zip(planned.key),
                planned
                    .sides
                    .map(|sides| (slots.slots.as_mut_slice(), sides)),
            );
            // The per-change decision: emitted inside the change span,
            // always retained regardless of sampling.
            let verdict = match &outcome {
                Resolved::Decoded(ChangeOutcome::Mined(tuples)) => Verdict::Mined(tuples.len()),
                Resolved::Replayed(tuples) => Verdict::Mined(tuples.len()),
                Resolved::Recorded(tuples) => Verdict::Mined(tuples.len()),
                Resolved::Decoded(ChangeOutcome::Skipped { kind, .. }) => {
                    Verdict::Quarantined(*kind)
                }
            };
            let (reason, usage_changes) = match verdict {
                Verdict::Mined(n) => (DecisionReason::Mined, n),
                Verdict::Quarantined(kind) => (DecisionReason::Quarantined(kind), 0),
            };
            record_decision(&mut self.obs, &meta, &reason, |a| {
                a.str("cache", cache_status);
                a.u64("usage_changes", usage_changes as u64);
            });
            let meta = Arc::new(meta);
            result.verdicts.push(ChangeVerdict {
                meta: Arc::clone(&meta),
                cache: cache_status,
                outcome: verdict,
            });
            apply_outcome(&mut result, meta, outcome);
            self.obs.end(change_span);
            if let Some(sides) = planned.sides {
                slots.release(i, sides);
            }
            after_change(i, &slots);
        }
        self.obs.end(run_span);
        self.obs
            .inc("mine.code_changes", result.stats.code_changes as u64);
        self.obs.inc("mine.mined", result.stats.mined as u64);
        self.obs
            .inc("mine.usage_changes", result.changes.len() as u64);
        result.stats.skipped.record(&mut self.obs);
        debug_assert!(result.stats.is_balanced());
        // Stage boundary: the cumulative counters must partition the
        // same way the per-run stats do.
        debug_assert!(obs::check_partition(
            &self.obs,
            "mine.code_changes",
            &["mine.mined", "mine.skipped"],
        )
        .is_ok());
        result
    }

    /// The shared look-aside path: cache lookup under the pair's `key`
    /// (hit replays, miss computes and records), with `cache.*`
    /// counters and trace markers. A change is computed over its
    /// `planned` slots, or, when the plan left it to a cache entry that
    /// then failed to decode, over fresh temporary ones.
    fn outcome_for_pair(
        &mut self,
        (old, new): (&str, &str),
        classes: &[&str],
        cache: Option<(&mut MiningCacheView<'_>, cache::Fingerprint)>,
        planned: Option<(&mut [Slot], (usize, usize))>,
    ) -> (Resolved, &'static str) {
        let status = match &cache {
            None => "off",
            Some((view, key)) => {
                let (counter, status) = match view.replay(*key) {
                    CachedLookup::Hit(outcome) => {
                        self.obs.inc("cache.hit", 1);
                        self.obs.instant("cache.hit");
                        return (outcome, "hit");
                    }
                    CachedLookup::StaleVersion => ("cache.stale_version", "stale_version"),
                    CachedLookup::Miss => ("cache.miss", "miss"),
                };
                self.obs.inc(counter, 1);
                self.obs.instant(counter);
                status
            }
        };
        let resolved = match planned {
            Some((slots, sides)) => self.compute(slots, sides, (old, new), classes, cache),
            None => {
                let mut fresh = [Slot::default(), Slot::default()];
                let sides = if old == new { (0, 0) } else { (0, 1) };
                self.compute(&mut fresh, sides, (old, new), classes, cache)
            }
        };
        (resolved, status)
    }

    /// Computes one change over `slots` ([`Self::process_change`]) and
    /// records it into the cache view if there is one. A recorded
    /// tuple keeps its DAG pair as the record holds it; without a
    /// cache each DAG is cloned from its slot.
    fn compute(
        &mut self,
        slots: &mut [Slot],
        sides: (usize, usize),
        (old, new): (&str, &str),
        classes: &[&str],
        cache: Option<(&mut MiningCacheView<'_>, cache::Fingerprint)>,
    ) -> Resolved {
        let outcome = self.process_change(slots, sides, old, new, classes);
        let Some((view, key)) = cache else {
            return Resolved::Decoded(outcome.into_owned());
        };
        let encoded = view.record(key, &outcome);
        match outcome {
            ChangeOutcome::Mined(tuples) => Resolved::Recorded(
                tuples
                    .into_iter()
                    .zip(encoded)
                    .map(|((class, _, _, change), tuple)| (class, change, tuple))
                    .collect(),
            ),
            outcome => Resolved::Decoded(outcome.into_owned()),
        }
    }

    /// Runs one code change through analyze → DAG diff behind a panic
    /// boundary, over the slots of its two source texts (`sides`; one
    /// slot twice when the texts are equal). The tuples borrow their
    /// DAGs from the slots' per-class lists; only padding is owned. A
    /// failure becomes the quarantined skip: the error's kind and
    /// message plus the triage excerpt of the offending side (the new
    /// version when the side is unknowable, i.e. for panics and
    /// DAG-stage failures).
    ///
    /// `AssertUnwindSafe` audit: the closure mutates only the recorder
    /// and the two slots, and writes a slot's analysis, or one class's
    /// DAG list, only after the work that produced it has fully
    /// succeeded. An unwind therefore observes each slot entry either
    /// absent or complete and valid; no partially-initialized state
    /// survives the catch.
    fn process_change<'s>(
        &mut self,
        slots: &'s mut [Slot],
        (old_slot, new_slot): (usize, usize),
        old_source: &str,
        new_source: &str,
        classes: &[&str],
    ) -> ChangeOutcome<Cow<'s, UsageDag>> {
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            let span = self.obs.begin("analyze.old");
            let old = self.resolve(&mut slots[old_slot], old_source);
            self.obs.end(span);
            let old = old.map_err(|e| (e, excerpt(old_source)))?;
            let span = self.obs.begin("analyze.new");
            let new = self.resolve(&mut slots[new_slot], new_source);
            self.obs.end(span);
            let new = new.map_err(|e| (e, excerpt(new_source)))?;
            let dags_span = self.obs.begin("dags.diff");
            // Build (or find) every class's lists first, failing on the
            // first error in class order, old side before new side.
            for (c, class) in classes.iter().enumerate() {
                for (slot, usages) in [(old_slot, &old), (new_slot, &new)] {
                    let limits = &self.limits.dag;
                    let built = slots[slot].build_dags(c, classes.len(), class, usages, limits);
                    if let Err(e) = built {
                        self.obs.end(dags_span);
                        return Err((e.into(), excerpt(new_source)));
                    }
                }
            }
            // Moved out of the capture (not reborrowed), so the tuples
            // can borrow the lists for as long as the caller's slots.
            let slots = slots;
            let slots: &'s [Slot] = slots;
            let mut mined = Vec::new();
            for (c, class) in classes.iter().enumerate() {
                let (old_dags, new_dags) = (slots[old_slot].dags(c), slots[new_slot].dags(c));
                for (old_dag, new_dag, change) in diff_dag_lists(old_dags, new_dags, class) {
                    mined.push(((*class).to_owned(), old_dag, new_dag, change));
                }
            }
            self.obs.end(dags_span);
            Ok(mined)
        }));
        let error = match outcome {
            Ok(Ok(mined)) => return ChangeOutcome::Mined(mined),
            Ok(Err(error)) => error,
            Err(payload) => (
                PipelineError::Panic(panic_message(payload)),
                excerpt(new_source),
            ),
        };
        let (error, excerpt) = error;
        ChangeOutcome::Skipped {
            kind: error.kind(),
            error: error.to_string(),
            excerpt,
        }
    }
}

/// One source text's analysis and, per target class, its DAG list, each
/// built on first need and kept for the text's later uses. A failed
/// analysis leaves the slot empty; a failed DAG build is kept as its
/// error.
#[derive(Debug, Default)]
struct Slot {
    usages: Option<Rc<Usages>>,
    /// Indexed like the run's class list; `None` until first needed.
    dags: Vec<Option<Result<Vec<UsageDag>, DagError>>>,
}

impl Slot {
    /// Builds this text's DAG list of class `c` (of `n_classes`) from
    /// `usages`, unless an earlier use did.
    fn build_dags(
        &mut self,
        c: usize,
        n_classes: usize,
        class: &str,
        usages: &Usages,
        limits: &DagLimits,
    ) -> Result<(), DagError> {
        if self.dags.len() < n_classes {
            self.dags.resize_with(n_classes, || None);
        }
        let built = self.dags[c].get_or_insert_with(|| dags_for_class(usages, class, limits));
        built.as_ref().map(|_| ()).map_err(DagError::clone)
    }

    /// The DAG list of class `c` that [`Self::build_dags`] built; empty
    /// if it built none.
    fn dags(&self, c: usize) -> &[UsageDag] {
        match self.dags.get(c) {
            Some(Some(Ok(dags))) => dags,
            _ => &[],
        }
    }
}

/// The slot table of a planned mining run: one slot per distinct source
/// text a change will analyze, each emptied right after its last use.
#[derive(Debug)]
struct Slots {
    slots: Vec<Slot>,
    /// Per slot, the index of the last code change that uses it.
    last_use: Vec<usize>,
}

impl Slots {
    /// Empties whichever of `sides` change `i` used for the last time.
    fn release(&mut self, i: usize, (old, new): (usize, usize)) {
        for s in [old, new] {
            if self.last_use.get(s) == Some(&i) {
                if let Some(slot) = self.slots.get_mut(s) {
                    *slot = Slot::default();
                }
            }
        }
    }
}

/// What a mining run will do, decided before its first change: each
/// code change's ids and, for each change the cache will not replay,
/// the slots of its two source texts.
struct Plan {
    /// Per code change, in corpus order.
    changes: Vec<PlannedChange>,
    slots: Slots,
}

struct PlannedChange {
    key: Option<cache::Fingerprint>,
    fingerprint: cache::Fingerprint,
    /// The slots of the old and the new text; `None` when the cache
    /// will replay the change.
    sides: Option<(usize, usize)>,
}

impl Plan {
    /// Plans mining `corpus` through `cache`. One pass hashes each
    /// change's file pair for its ids. A change whose key the cache
    /// holds, or that an earlier planned change will record, is not
    /// planned; for the others each side's text is looked up once,
    /// borrowed, to find its slot, so equal texts share one.
    fn new(corpus: &Corpus, cache: Option<&MiningCacheView<'_>>) -> Plan {
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        let mut planned_keys: HashSet<u128> = HashSet::new();
        let mut last_use: Vec<usize> = Vec::new();
        let mut changes = Vec::new();
        for (i, change) in corpus.code_changes().enumerate() {
            let (key, fingerprint) = change_ids(cache, change.old, change.new);
            let replayed = cache
                .zip(key)
                .is_some_and(|(view, key)| view.holds(key) || !planned_keys.insert(key.0));
            let sides = (!replayed).then(|| {
                let mut slot = |text| {
                    let next = last_use.len();
                    let s = *slot_of.entry(text).or_insert(next);
                    if s == next {
                        last_use.push(i);
                    } else {
                        last_use[s] = i;
                    }
                    s
                };
                (slot(change.old), slot(change.new))
            });
            changes.push(PlannedChange {
                key,
                fingerprint,
                sides,
            });
        }
        let slots = Slots {
            slots: std::iter::repeat_with(Slot::default)
                .take(last_use.len())
                .collect(),
            last_use,
        };
        Plan { changes, slots }
    }
}

/// The cache key (when there is a cache) and the [`change_fingerprint`]
/// of one code change. With a cache both come from one pass over the
/// file pair.
fn change_ids(
    cache: Option<&MiningCacheView<'_>>,
    old: &str,
    new: &str,
) -> (Option<cache::Fingerprint>, cache::Fingerprint) {
    match cache {
        Some(view) => {
            let (key, fingerprint) = view.change_ids(old, new);
            (Some(key), fingerprint)
        }
        None => (None, cache::fingerprint(&[old.as_bytes(), new.as_bytes()])),
    }
}

/// Folds one per-change outcome — replayed from cache or freshly
/// computed — into the running result. The single accounting path for
/// both, which is what makes warm runs byte-identical to cold ones. The
/// usage changes of one code change share its `meta`.
fn apply_outcome(result: &mut MiningResult, meta: Arc<ChangeMeta>, outcome: Resolved) {
    match outcome {
        Resolved::Decoded(ChangeOutcome::Mined(mined)) => {
            result.stats.mined += 1;
            for (class, old_dag, new_dag, change) in mined {
                let usage =
                    MinedUsageChange::new(Arc::clone(&meta), class, old_dag, new_dag, change);
                result.changes.push(usage);
            }
        }
        Resolved::Replayed(tuples) => {
            result.stats.mined += 1;
            for (view, tuple) in tuples.iter() {
                result.changes.push(MinedUsageChange {
                    meta: Arc::clone(&meta),
                    class: view.class().to_owned(),
                    change: view.change(),
                    dags: DagPair::Encoded(tuple),
                });
            }
        }
        Resolved::Recorded(tuples) => {
            result.stats.mined += 1;
            for (class, change, tuple) in tuples {
                result.changes.push(MinedUsageChange {
                    meta: Arc::clone(&meta),
                    class,
                    change,
                    dags: DagPair::Encoded(tuple),
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
                meta: ChangeMeta::clone(&meta),
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
/// marker panics inside [`DiffCode::analyze_source`]. This lets the
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
/// Each worker records into its own fork of `rec` (no locks on the hot
/// path); on join the forks are merged into `rec` **in shard order**,
/// each traced shard its own trace lane, so a parallel trace is the
/// sequential trace's events re-grouped by lane. With a cancel flag,
/// shard logs are still absorbed and the accounting balances over what
/// was actually processed.
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
    rec: &mut Recorder,
) -> MiningResult {
    let MineOptions {
        threads: n_threads,
        cache,
        cancel,
    } = opts;
    let n_threads = n_threads.max(1).min(corpus.projects.len().max(1));
    if n_threads <= 1 {
        let mut view = cache.as_ref().map(|c| c.view());
        let mut dc = DiffCode::new();
        dc.set_recorder(rec.fork());
        if let Some(flag) = cancel {
            dc.set_cancel_flag(flag);
        }
        let result = dc.mine(corpus, classes, view.as_mut());
        rec.merge(dc.take_recorder());
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
    type ShardOutcome = (MiningResult, Option<Recorder>, Option<cache::ShardLog>);
    let results: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                let mut view = shared.map(|c| c.view());
                let shard_rec = rec.fork();
                (
                    shard,
                    scope.spawn(move || {
                        let mut dc = DiffCode::new();
                        dc.set_recorder(shard_rec);
                        if let Some(flag) = cancel {
                            dc.set_cancel_flag(flag);
                        }
                        let result = dc.mine(shard, classes, view.as_mut());
                        (
                            result,
                            Some(dc.take_recorder()),
                            view.map(MiningCacheView::into_log),
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
                // the merged accounting still balances. Its in-flight
                // metrics and cache log died with the thread — the log
                // deliberately.
                Err(payload) => (
                    shard_failure_result(shard, &panic_message(payload), rec),
                    None,
                    None,
                ),
            })
            .collect()
    });
    let mut merged = MiningResult::default();
    let mut logs = Vec::new();
    for (result, shard_rec, log) in results {
        merged.stats.code_changes += result.stats.code_changes;
        merged.stats.mined += result.stats.mined;
        merged.stats.skipped.absorb(&result.stats.skipped);
        merged.changes.extend(result.changes);
        merged.quarantine.extend(result.quarantine);
        merged.verdicts.extend(result.verdicts);
        if let Some(shard_rec) = shard_rec {
            rec.merge(shard_rec);
        }
        logs.extend(log);
    }
    if let Some(cache) = cache {
        for log in logs {
            cache.absorb(log);
        }
    }
    debug_assert!(merged.stats.is_balanced());
    debug_assert!(
        obs::check_partition(rec, "mine.code_changes", &["mine.mined", "mine.skipped"]).is_ok()
    );
    merged
}

/// The accounting for a shard whose worker thread panicked before
/// returning: every code change of the shard is recorded as a
/// [`ErrorKind::Panic`] skip with a quarantine report, so
/// `code_changes == mined + skipped.total()` holds for the merged run.
/// The worker's counters and per-change decision events died with it,
/// so this records into the orchestrator's `rec` the counters the
/// accounting requires and, after a `mine.shard_failure` marker, the
/// decisions — keeping the trace's decision set complete even when a
/// whole shard is lost.
fn shard_failure_result(shard: &Corpus, message: &str, rec: &mut Recorder) -> MiningResult {
    rec.instant_with("mine.shard_failure", |a| {
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
            rec,
            &meta,
            &DecisionReason::Quarantined(ErrorKind::Panic),
            |a| {
                a.str("cache", "off");
                a.u64("usage_changes", 0);
            },
        );
        result.quarantine.push(QuarantineReport {
            meta: meta.clone(),
            kind: ErrorKind::Panic,
            error: format!("mining shard panicked: {message}"),
            excerpt: excerpt(code_change.new),
        });
        result.verdicts.push(ChangeVerdict {
            meta: Arc::new(meta),
            cache: "off",
            outcome: Verdict::Quarantined(ErrorKind::Panic),
        });
    }
    rec.inc("mine.shard_failures", 1);
    rec.inc("mine.code_changes", result.stats.code_changes as u64);
    rec.inc("mine.mined", 0);
    result.stats.skipped.record(rec);
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
pub(crate) mod tests {
    use super::*;
    use corpus::fixtures;

    impl DiffCode {
        /// Overrides the per-stage resource budgets.
        fn with_limits(limits: PipelineLimits) -> Self {
            DiffCode {
                limits,
                ..DiffCode::new()
            }
        }
    }

    impl Slots {
        /// The last use of each slot that holds an analysis.
        fn live(&self) -> impl Iterator<Item = usize> + '_ {
            self.slots
                .iter()
                .zip(&self.last_use)
                .filter(|(slot, _)| slot.usages.is_some() || !slot.dags.is_empty())
                .map(|(_, &last)| last)
        }
    }

    /// Mines `corpus` with a fresh recorder, checking after each change
    /// that no slot outlives its last use. Returns the result, the
    /// number of live slots after each change, and the recorder.
    fn mine_checking_slots(
        corpus: &Corpus,
        cache: Option<&mut MiningCacheView<'_>>,
    ) -> (MiningResult, Vec<usize>, Recorder) {
        let mut dc = DiffCode::new();
        let mut live = Vec::new();
        let result = dc.mine_observed(corpus, &[], cache, |i, slots| {
            assert!(
                slots.live().all(|last| last > i),
                "change {i} left a slot past its last use"
            );
            live.push(slots.live().count());
        });
        (result, live, dc.take_recorder())
    }

    fn cipher_class(name: &str, transformation: &str) -> String {
        format!(
            "class {name} {{ void m() throws Exception {{ \
             Cipher c = Cipher.getInstance(\"{transformation}\"); }} }}"
        )
    }

    #[test]
    fn a_planned_run_parses_each_text_once_and_frees_each_slot_after_its_last_use() {
        // A is used by changes 0 and 2, B by 0 and 1, C by 1 and 2, and
        // D is both sides of change 3.
        let [a, b, c, d] = ["AES", "DES", "AES/GCM/NoPadding", "RC4"].map(|t| cipher_class("K", t));
        let pairs = [(&a, &b), (&b, &c), (&c, &a), (&d, &d)].map(|(o, n)| (o.as_str(), n.as_str()));
        let (result, live, rec) = mine_checking_slots(&corpus_of_pairs("p", &pairs), None);
        assert_eq!(result.stats.mined, 4);
        assert_eq!(live, [2, 2, 0, 0], "A and B, then A and C, then none");
        assert_eq!(
            rec.counter("analyze.cache_miss"),
            4,
            "one analysis per text"
        );
        assert_eq!(rec.counter("analyze.cache_hit"), 4);
        assert_eq!(rec.span("parse").map(|h| h.count()), Some(4));

        // A generated corpus: every distinct text is parsed exactly once.
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(4, 11));
        let (result, live, rec) = mine_checking_slots(&corpus, None);
        let texts: HashSet<&str> = corpus
            .code_changes()
            .flat_map(|change| [change.old, change.new])
            .collect();
        assert_eq!(result.stats.mined, result.stats.code_changes);
        assert_eq!(rec.counter("analyze.cache_miss"), texts.len() as u64);
        assert_eq!(
            rec.span("parse").map(|h| h.count()),
            Some(texts.len() as u64)
        );
        assert_eq!(live.last(), Some(&0), "no slot survives the run");
    }

    #[test]
    fn a_planned_run_gives_no_slot_to_a_change_the_cache_replays() {
        let [a, b, c] = ["AES", "DES", "RC4"].map(|t| cipher_class("K", t));
        let pairs = [(&a, &b), (&b, &c), (&a, &b)].map(|(o, n)| (o.as_str(), n.as_str()));
        let dir = std::env::temp_dir().join(format!("diffcode-plan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MiningCache::open(&dir, &[], &PipelineLimits::DEFAULT).unwrap();
        let mut view = cache.view();
        let (result, live, rec) =
            mine_checking_slots(&corpus_of_pairs("p", &pairs), Some(&mut view));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(result.stats.mined, 3);
        // Change 2 repeats change 0's pair, which change 0 records, so
        // A's last use is change 0.
        assert_eq!(live, [1, 0, 0], "B, then none");
        assert_eq!(rec.counter("cache.miss"), 2);
        assert_eq!(rec.counter("cache.hit"), 1);
        assert_eq!(rec.counter("analyze.cache_miss"), 3);
        assert_eq!(rec.counter("analyze.cache_hit"), 1);
        assert!(result
            .changes
            .iter()
            .all(|c| matches!(c.dag_pair(), DagPair::Encoded(_))));
    }

    fn mine_threads(corpus: &Corpus, threads: usize) -> MiningResult {
        let opts = MineOptions {
            threads,
            ..MineOptions::default()
        };
        mine_parallel(corpus, &[], opts, &mut Recorder::new())
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
        assert_eq!(sequential.verdicts, parallel.verdicts);
        assert_eq!(sequential.verdicts.len(), sequential.stats.code_changes);
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
    pub(crate) fn corpus_of_pairs(name: &str, pairs: &[(&str, &str)]) -> corpus::Corpus {
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
        let verdicts: Vec<_> = result
            .verdicts
            .iter()
            .map(|v| (v.cache, v.outcome))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("off", Verdict::Mined(result.changes.len())),
                ("off", Verdict::Quarantined(ErrorKind::Lex))
            ]
        );
        assert_eq!(result.verdicts[1].meta.as_ref(), &report.meta);
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
        assert_eq!(result.verdicts.len(), 2, "one verdict per change");
        assert_eq!(
            result.verdicts[1].outcome,
            Verdict::Quarantined(ErrorKind::Panic)
        );
        assert_eq!(result.verdicts[1].meta.as_ref(), &result.quarantine[0].meta);
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

        let mut registry = Recorder::new();
        let opts = MineOptions {
            threads: 2,
            cancel: Some(&FLAG),
            ..MineOptions::default()
        };
        let partial = mine_parallel(&corpus, &[], opts, &mut registry);
        assert_eq!(partial.stats.code_changes, 0);
        assert!(partial.stats.is_balanced());
        assert!(registry.counter("mine.interrupted") > 0);
    }

    #[test]
    fn a_past_deadline_stops_mining_before_its_first_change_with_balanced_stats() {
        let corpus = corpus::generate(&corpus::GeneratorConfig::small(4, 11));
        let mut dc = DiffCode::new();
        dc.set_deadline(Instant::now());
        let result = dc.mine(&corpus, &[], None);
        assert_eq!(result.stats.code_changes, 0, "nothing is processed");
        assert!(result.verdicts.is_empty());
        assert!(result.stats.is_balanced());
        assert_eq!(dc.take_recorder().counter("mine.interrupted"), 1);
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
