//! Incremental mining: the content-addressed result cache.
//!
//! The per-change pipeline (lex → parse → abstract interpretation →
//! DAG diff) is a pure function of the two file versions and the
//! pipeline configuration, so its outcome — the mined usage-change
//! tuples *or* the typed skip that quarantined it — can be persisted
//! and replayed on later runs instead of recomputed. This module binds
//! the generic [`cache`] crate to the pipeline:
//!
//! - **Keys** ([`MiningCache::change_key`]): a 128-bit fingerprint of
//!   the old file bytes, the new file bytes, and a configuration
//!   fingerprint covering the API model, the target-class list, the
//!   DAG depth, and every resource budget. Anything that can alter the
//!   outcome is in the key; provenance (project/commit/path) is *not*,
//!   so identical file pairs share one entry wherever they appear.
//! - **Payloads** ([`ChangeOutcome`]): the complete per-change outcome,
//!   including quarantined skips — a change that was skipped stays
//!   skipped on a warm run, keeping the
//!   `processed = mined + skipped` accounting byte-identical.
//! - **Replay**: a hit is validated in place, in one pass that
//!   allocates nothing, and its mined tuples keep their DAG pairs
//!   encoded in the payload, which the store shares rather than copies.
//!   Only what the funnel reads — class, feature diff, provenance — is
//!   materialised; a DAG is decoded when something asks for it
//!   ([`crate::MinedUsageChange::old_dag`]).
//! - **Versioning** ([`ANALYSIS_VERSION`]): bumped on any semantic
//!   change to `javalang`, `analysis`, or `usagegraph`; entries written
//!   under another version count as `cache.stale_version` and are
//!   recomputed (the store keeps the bytes until `vacuum`).

use crate::quarantine::ErrorKind;
use cache::wire::{Reader, WireError, Writer};
use cache::{
    fingerprint, CacheStore, Fingerprint, Fingerprinter, Lookup, ShardLog, SharedBytes, StoreError,
};
use std::cmp::Ordering;
use std::ops::Range;
use std::path::Path;
use usagegraph::{FeaturePath, Label, UsageChange, UsageDag};

/// The semantic version of the lex → parse → analysis → DAG-diff
/// stack. **Bump this on any change to `javalang`, `analysis`, or
/// `usagegraph` that can alter a mining outcome** — cached entries
/// written under an older version are then reported stale and
/// recomputed instead of replayed.
pub const ANALYSIS_VERSION: u32 = 1;

/// Version tag of the payload encoding itself (bumped on codec
/// change; folded into every cache key's configuration part).
const CODEC_VERSION: &str = "outcome-v1";

/// One cached per-change outcome: exactly what
/// `DiffCode::process_change` produced, minus provenance (which comes
/// from the corpus being mined, not the cache).
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeOutcome {
    /// The change was analyzed to completion: per-class usage-change
    /// tuples, in mining order.
    Mined(Vec<MinedTuple>),
    /// The change was skipped and quarantined.
    Skipped {
        /// Coarse classification (drives `SkipCounters`).
        kind: ErrorKind,
        /// The full error message.
        error: String,
        /// The triage excerpt of the offending source.
        excerpt: String,
    },
}

/// One mined tuple: target class plus the paired DAGs and their diff.
pub type MinedTuple = (String, UsageDag, UsageDag, UsageChange);

// ---------------------------------------------------------------------
// Outcome codec
// ---------------------------------------------------------------------
//
// A payload is `u8 0, count, count × tuple` for a mined outcome and
// `u8 1, u8 kind, error, excerpt` for a skip. A tuple is `class, old
// dag, new dag, change class, removed paths, added paths`; a DAG is
// `root type, paths`; a run of paths is `count, count × path`; a path
// is `count, count × label`. Counts are u64, strings length-prefixed
// UTF-8 (`cache::wire`).

fn write_paths<'p>(w: &mut Writer, paths: impl ExactSizeIterator<Item = &'p FeaturePath>) {
    w.u64(paths.len() as u64);
    for path in paths {
        w.u64(path.0.len() as u64);
        for label in &path.0 {
            w.str(label);
        }
    }
}

fn write_dag(w: &mut Writer, dag: &UsageDag) {
    w.str(&dag.root_type);
    write_paths(w, dag.paths.iter());
}

fn kind_tag(kind: ErrorKind) -> u8 {
    match kind {
        ErrorKind::Lex => 0,
        ErrorKind::Parse => 1,
        ErrorKind::AnalysisBudget => 2,
        ErrorKind::DagBudget => 3,
        ErrorKind::Panic => 4,
    }
}

fn kind_from_tag(tag: u8) -> Result<ErrorKind, WireError> {
    Ok(match tag {
        0 => ErrorKind::Lex,
        1 => ErrorKind::Parse,
        2 => ErrorKind::AnalysisBudget,
        3 => ErrorKind::DagBudget,
        4 => ErrorKind::Panic,
        _ => return Err(WireError::Malformed("unknown error-kind tag")),
    })
}

/// Serializes an outcome to cache-payload bytes.
pub fn encode_outcome(outcome: &ChangeOutcome) -> Vec<u8> {
    let mut w = Writer::new();
    match outcome {
        ChangeOutcome::Mined(tuples) => {
            w.u8(0);
            w.u64(tuples.len() as u64);
            for (class, old_dag, new_dag, change) in tuples {
                w.str(class);
                write_dag(&mut w, old_dag);
                write_dag(&mut w, new_dag);
                w.str(&change.class);
                write_paths(&mut w, change.removed.iter());
                write_paths(&mut w, change.added.iter());
            }
        }
        ChangeOutcome::Skipped {
            kind,
            error,
            excerpt,
        } => {
            w.u8(1);
            w.u8(kind_tag(*kind));
            w.str(error);
            w.str(excerpt);
        }
    }
    w.finish()
}

/// Decodes cache-payload bytes back into an outcome: the same
/// validating in-place read a cache hit goes through, plus
/// materialisation. Total: any malformed payload is a typed error (the
/// pipeline treats it as a miss and recomputes).
///
/// # Errors
///
/// [`WireError`] on truncated, malformed, or trailing-garbage input,
/// and on a DAG whose paths are not in the order [`encode_outcome`]
/// writes them.
pub fn decode_outcome(bytes: &[u8]) -> Result<ChangeOutcome, WireError> {
    OutcomeView::parse(bytes).map(|view| view.to_outcome())
}

/// A borrowed view of one encoded [`ChangeOutcome`], read in place.
///
/// [`OutcomeView::parse`] validates the whole payload in one pass that
/// allocates nothing: framing, tags, UTF-8, no trailing bytes, and each
/// DAG's paths strictly ascending — the order [`encode_outcome`] writes
/// a DAG's `BTreeSet` in. That order check is what makes text read
/// from the bytes equal the decoded DAG's text: decoding collects the
/// paths into a set, which would silently reorder or merge paths
/// written any other way. Reading a parsed view cannot fail.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OutcomeView<'a> {
    /// The change was analyzed to completion.
    Mined(TuplesView<'a>),
    /// The change was skipped and quarantined.
    Skipped {
        /// Coarse classification.
        kind: ErrorKind,
        /// The full error message.
        error: &'a str,
        /// The triage excerpt of the offending source.
        excerpt: &'a str,
    },
}

impl<'a> OutcomeView<'a> {
    /// Validates `payload` end to end and returns a view over it.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated, malformed, or trailing-garbage input,
    /// and on a DAG whose paths are not strictly ascending.
    pub(crate) fn parse(payload: &'a [u8]) -> Result<OutcomeView<'a>, WireError> {
        let mut r = Reader::new(payload);
        let view = match r.u8()? {
            0 => {
                let len = read_count(&mut r)?;
                let first = r.position();
                for _ in 0..len {
                    read_tuple(&mut r, 0, true)?;
                }
                OutcomeView::Mined(TuplesView {
                    payload,
                    first,
                    len,
                })
            }
            1 => OutcomeView::Skipped {
                kind: kind_from_tag(r.u8()?)?,
                error: r.str()?,
                excerpt: r.str()?,
            },
            _ => return Err(WireError::Malformed("unknown outcome tag")),
        };
        if !r.is_exhausted() {
            return Err(WireError::Malformed("trailing bytes after outcome"));
        }
        Ok(view)
    }

    /// The decoded outcome: owned tuples with materialised DAGs.
    pub(crate) fn to_outcome(self) -> ChangeOutcome {
        match self {
            OutcomeView::Mined(tuples) => {
                ChangeOutcome::Mined(tuples.iter().map(|tuple| tuple.to_tuple()).collect())
            }
            OutcomeView::Skipped {
                kind,
                error,
                excerpt,
            } => ChangeOutcome::Skipped {
                kind,
                error: error.to_owned(),
                excerpt: excerpt.to_owned(),
            },
        }
    }
}

/// The tuples of a validated mined payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TuplesView<'a> {
    payload: &'a [u8],
    /// Offset of the first tuple in `payload`.
    first: usize,
    len: usize,
}

impl<'a> TuplesView<'a> {
    /// The tuples, in mining order.
    fn iter(&self) -> impl Iterator<Item = TupleView<'a>> {
        let first = self.first;
        let mut r = Reader::new(&self.payload[first..]);
        (0..self.len).map(move |_| trusted(read_tuple(&mut r, first, false)))
    }
}

/// One mined tuple of a validated payload.
#[derive(Debug, Clone, Default)]
pub(crate) struct TupleView<'a> {
    class: &'a str,
    /// The encoded old and new DAGs, back to back, and where they sit in
    /// the payload.
    dag_bytes: &'a [u8],
    dags: Range<usize>,
    change_class: &'a str,
    removed: PathsView<'a>,
    added: PathsView<'a>,
}

impl<'a> TupleView<'a> {
    /// The target API class.
    pub(crate) fn class(&self) -> &'a str {
        self.class
    }

    /// The encoded DAG pair.
    pub(crate) fn dag_pair(&self) -> DagPairView<'a> {
        DagPairView {
            bytes: self.dag_bytes,
        }
    }

    /// The `(F⁻, F⁺)` feature diff, materialised. A change `fsame`
    /// drops has no feature on either side and allocates only its
    /// class name.
    pub(crate) fn change(&self) -> UsageChange {
        UsageChange {
            class: self.change_class.to_owned(),
            removed: self.removed.to_paths(),
            added: self.added.to_paths(),
        }
    }

    /// The tuple, fully materialised.
    fn to_tuple(&self) -> MinedTuple {
        let (old, new) = self.dag_pair().old_new();
        let class = self.class.to_owned();
        (class, old.to_dag(), new.to_dag(), self.change())
    }
}

/// The encoded old and new DAGs of one validated tuple.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DagPairView<'a> {
    bytes: &'a [u8],
}

impl<'a> DagPairView<'a> {
    /// The old and the new DAG.
    pub(crate) fn old_new(&self) -> (DagView<'a>, DagView<'a>) {
        let mut r = Reader::new(self.bytes);
        let old = trusted(read_dag(&mut r, false));
        (old, trusted(read_dag(&mut r, false)))
    }
}

/// One encoded DAG: its root type and its paths in ascending order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DagView<'a> {
    root_type: &'a str,
    paths: PathsView<'a>,
}

impl<'a> DagView<'a> {
    /// The root object's type.
    pub(crate) fn root_type(&self) -> &'a str {
        self.root_type
    }

    /// The root-to-node paths, in the decoded DAG's set order.
    pub(crate) fn paths(&self) -> impl Iterator<Item = PathView<'a>> {
        self.paths.iter()
    }

    /// The decoded DAG (root type interned, like the analysis builds
    /// it).
    pub(crate) fn to_dag(self) -> UsageDag {
        UsageDag {
            root_type: intern::intern(self.root_type),
            paths: self.paths().map(|path| path.to_path()).collect(),
        }
    }
}

/// A count-prefixed run of encoded paths.
#[derive(Debug, Clone, Copy, Default)]
struct PathsView<'a> {
    /// The input from the first path on.
    rest: &'a [u8],
    len: usize,
}

impl<'a> PathsView<'a> {
    /// The paths, in encoded order.
    fn iter(&self) -> impl Iterator<Item = PathView<'a>> {
        let mut r = Reader::new(self.rest);
        (0..self.len).map(move |_| trusted(read_path(&mut r, false)))
    }

    fn to_paths(self) -> Vec<FeaturePath> {
        self.iter().map(|path| path.to_path()).collect()
    }
}

/// One encoded feature path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PathView<'a> {
    /// The input from the first label on.
    rest: &'a [u8],
    len: usize,
}

impl<'a> PathView<'a> {
    /// The labels, root first.
    pub(crate) fn labels(&self) -> impl Iterator<Item = &'a str> {
        let mut r = Reader::new(self.rest);
        (0..self.len).map(move |_| trusted(r.str()))
    }

    /// The labels' bytes: they order like the labels (UTF-8 preserves
    /// code-point order), without re-checking UTF-8.
    fn label_bytes(&self) -> impl Iterator<Item = &'a [u8]> {
        let mut r = Reader::new(self.rest);
        (0..self.len).map(move |_| trusted(r.bytes()))
    }

    /// The decoded path.
    fn to_path(self) -> FeaturePath {
        FeaturePath(self.labels().map(Label::from).collect())
    }
}

/// Unwraps a re-read of bytes [`OutcomeView::parse`] already accepted,
/// which cannot fail. Should one fail anyway — a codec bug — it yields
/// an empty value (debug builds assert) rather than panic on the
/// mining path.
fn trusted<T: Default>(read: Result<T, WireError>) -> T {
    read.unwrap_or_else(|error| {
        debug_assert!(false, "re-reading a validated payload failed: {error}");
        T::default()
    })
}

fn read_count(r: &mut Reader<'_>) -> Result<usize, WireError> {
    usize::try_from(r.u64()?).map_err(|_| WireError::Malformed("count exceeds usize"))
}

/// Reads one tuple; `base` is the offset of `r`'s input within the
/// payload. With `validate` every string is checked as UTF-8 and every
/// DAG's paths for strict ascent; without, the read only frames bytes
/// that were validated before.
fn read_tuple<'a>(
    r: &mut Reader<'a>,
    base: usize,
    validate: bool,
) -> Result<TupleView<'a>, WireError> {
    let class = r.str()?;
    let rest = r.rest();
    let start = r.position();
    read_dag(r, validate)?;
    read_dag(r, validate)?;
    let dag_len = r.position() - start;
    Ok(TupleView {
        class,
        dag_bytes: &rest[..dag_len],
        dags: base + start..base + start + dag_len,
        change_class: r.str()?,
        removed: read_paths(r, validate, false)?,
        added: read_paths(r, validate, false)?,
    })
}

fn read_dag<'a>(r: &mut Reader<'a>, validate: bool) -> Result<DagView<'a>, WireError> {
    Ok(DagView {
        root_type: r.str()?,
        paths: read_paths(r, validate, true)?,
    })
}

/// Reads a run of paths; a DAG's (`ascending`) must sort strictly
/// upward when validated.
fn read_paths<'a>(
    r: &mut Reader<'a>,
    validate: bool,
    ascending: bool,
) -> Result<PathsView<'a>, WireError> {
    let len = read_count(r)?;
    let paths = PathsView {
        rest: r.rest(),
        len,
    };
    let mut prev: Option<PathView<'a>> = None;
    for _ in 0..len {
        let path = read_path(r, validate)?;
        if validate && ascending {
            if let Some(prev) = prev {
                if prev.label_bytes().cmp(path.label_bytes()) != Ordering::Less {
                    return Err(WireError::Malformed("DAG paths not strictly ascending"));
                }
            }
            prev = Some(path);
        }
    }
    Ok(paths)
}

fn read_path<'a>(r: &mut Reader<'a>, validate: bool) -> Result<PathView<'a>, WireError> {
    let len = read_count(r)?;
    let path = PathView {
        rest: r.rest(),
        len,
    };
    for _ in 0..len {
        if validate {
            r.str()?;
        } else {
            r.bytes()?;
        }
    }
    Ok(path)
}

/// A replayed tuple's DAG pair: its encoded bytes inside a validated
/// cache payload, shared with the store and decoded on demand.
#[derive(Debug, Clone)]
pub(crate) struct EncodedDags(SharedBytes);

impl EncodedDags {
    /// The encoded pair, read in place.
    pub(crate) fn view(&self) -> DagPairView<'_> {
        DagPairView { bytes: &self.0 }
    }
}

/// A validated mined payload whose tuples a replay reads in place.
#[derive(Debug, Clone)]
pub(crate) struct ReplayedTuples {
    payload: SharedBytes,
    first: usize,
    len: usize,
}

impl ReplayedTuples {
    /// Number of tuples.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn view(&self) -> TuplesView<'_> {
        TuplesView {
            payload: &self.payload,
            first: self.first,
            len: self.len,
        }
    }

    /// Each tuple with its DAG pair as a handle into the shared payload.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TupleView<'_>, EncodedDags)> {
        self.view().iter().map(|tuple| {
            let dags = EncodedDags(self.payload.slice(tuple.dags.clone()));
            (tuple, dags)
        })
    }
}

/// A change outcome as the mining loop applies it.
#[derive(Debug, Clone)]
pub(crate) enum Resolved {
    /// Held decoded: freshly computed, or a replayed quarantined skip
    /// (whose report owns its strings anyway).
    Decoded(ChangeOutcome),
    /// A replayed mined outcome whose tuples stay in the shared
    /// payload.
    Replayed(ReplayedTuples),
}

impl Resolved {
    /// The decoded outcome, every DAG materialised.
    pub(crate) fn into_outcome(self) -> ChangeOutcome {
        match self {
            Resolved::Decoded(outcome) => outcome,
            Resolved::Replayed(tuples) => OutcomeView::Mined(tuples.view()).to_outcome(),
        }
    }
}

// ---------------------------------------------------------------------
// The pipeline-facing cache handle
// ---------------------------------------------------------------------

/// A persistent mining cache bound to a directory. Owns the
/// [`CacheStore`]; mining runs read through it and write through
/// per-run/per-shard [`MiningCacheView`]s.
#[derive(Debug)]
pub struct MiningCache {
    store: CacheStore,
    config_fp: Fingerprint,
}

impl MiningCache {
    /// Opens (creating if needed) the cache under `dir` at
    /// [`ANALYSIS_VERSION`], with a configuration fingerprint derived
    /// from the target classes and pipeline limits of the runs that
    /// will use it.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on I/O failures or mid-log corruption (see
    /// [`CacheStore::open`]); a mining run refuses a damaged cache
    /// rather than silently dropping part of it.
    pub fn open(
        dir: &Path,
        classes: &[&str],
        limits: &crate::quarantine::PipelineLimits,
        max_depth: usize,
    ) -> Result<MiningCache, StoreError> {
        MiningCache::open_at_version(dir, classes, limits, max_depth, ANALYSIS_VERSION)
    }

    /// [`MiningCache::open`], but tolerating (and skipping) corrupt
    /// mid-log records — the `cache stats` / `cache vacuum`
    /// inspection-and-repair path.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only.
    pub fn open_tolerant(
        dir: &Path,
        classes: &[&str],
        limits: &crate::quarantine::PipelineLimits,
        max_depth: usize,
    ) -> Result<MiningCache, StoreError> {
        let store = CacheStore::open_tolerant(dir, ANALYSIS_VERSION)?;
        Ok(MiningCache {
            store,
            config_fp: config_fingerprint(classes, limits, max_depth),
        })
    }

    /// [`MiningCache::open`] at an explicit analysis version — the
    /// invalidation tests flip the version without editing this crate.
    pub fn open_at_version(
        dir: &Path,
        classes: &[&str],
        limits: &crate::quarantine::PipelineLimits,
        max_depth: usize,
        version: u32,
    ) -> Result<MiningCache, StoreError> {
        let store = CacheStore::open(dir, version)?;
        Ok(MiningCache {
            store,
            config_fp: config_fingerprint(classes, limits, max_depth),
        })
    }

    /// The cache key for one code change: old bytes, new bytes, and
    /// the configuration fingerprint. Provenance-free by design.
    pub fn change_key(&self, old: &str, new: &str) -> Fingerprint {
        let fp_bytes = self.config_fp.0.to_le_bytes();
        fingerprint(&[&fp_bytes, old.as_bytes(), new.as_bytes()])
    }

    /// [`MiningCache::change_key`] and the change's content fingerprint
    /// ([`crate::pipeline::change_fingerprint`]) from one pass over the
    /// file pair. The two hashes differ only in the key's leading
    /// configuration part, so after it both lanes consume the pair's
    /// bytes in lockstep.
    pub fn change_ids(&self, old: &str, new: &str) -> (Fingerprint, Fingerprint) {
        let mut key = Fingerprinter::new();
        key.part(&self.config_fp.0.to_le_bytes());
        let mut content = Fingerprinter::new();
        key.part_with(&mut content, old.as_bytes());
        key.part_with(&mut content, new.as_bytes());
        (key.finish(), content.finish())
    }

    /// A read-through view for one mining run or shard.
    pub fn view(&self) -> MiningCacheView<'_> {
        MiningCacheView {
            cache: self,
            log: ShardLog::new(),
        }
    }

    /// Merges a view's write log back into the store (call once per
    /// shard, in shard order, after the shard's worker joined).
    pub fn absorb(&mut self, log: ShardLog) {
        self.store.absorb(log);
    }

    /// Persists absorbed entries to disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; entries stay queued.
    pub fn flush(&mut self) -> std::io::Result<usize> {
        self.store.flush()
    }

    /// The underlying store (stats, vacuum).
    pub fn store(&self) -> &CacheStore {
        &self.store
    }

    /// The underlying store, mutably (vacuum).
    pub fn store_mut(&mut self) -> &mut CacheStore {
        &mut self.store
    }
}

/// What a view lookup produced: for [`MiningCacheView::get`] a decoded
/// outcome; the mining loop's own lookup leaves a mined hit in its
/// validated payload.
#[derive(Debug, PartialEq)]
pub enum CachedLookup<T = ChangeOutcome> {
    /// A validated outcome ready to replay.
    Hit(T),
    /// An entry exists but was written under another analysis version.
    StaleVersion,
    /// No usable entry (absent, or present but undecodable).
    Miss,
}

/// A shard's window onto a [`MiningCache`]: shared read access to the
/// loaded index plus a private [`ShardLog`] of this shard's writes —
/// no locks, no cross-thread mutation on the hot path. A view checks
/// its own log before the shared index, so duplicate file pairs
/// *within* a shard hit on the second encounter even before the log is
/// absorbed.
#[derive(Debug)]
pub struct MiningCacheView<'a> {
    cache: &'a MiningCache,
    log: ShardLog,
}

impl MiningCacheView<'_> {
    /// The cache key for one code change (delegates to the cache).
    pub fn change_key(&self, old: &str, new: &str) -> Fingerprint {
        self.cache.change_key(old, new)
    }

    /// The cache key and the content fingerprint of one code change
    /// (delegates to [`MiningCache::change_ids`]).
    pub fn change_ids(&self, old: &str, new: &str) -> (Fingerprint, Fingerprint) {
        self.cache.change_ids(old, new)
    }

    /// Looks up the outcome for `key` and validates its payload in
    /// place ([`OutcomeView::parse`]). A mined hit keeps its tuples in
    /// the payload, shared with the store; a skip is decoded. An
    /// undecodable payload degrades to a miss (the entry will be
    /// recomputed and re-recorded).
    pub(crate) fn replay(&self, key: Fingerprint) -> CachedLookup<Resolved> {
        let payload = match self.log.get_shared(key) {
            Some(payload) => payload,
            None => match self.cache.store.get_shared(key) {
                Some(payload) => payload,
                None => {
                    return match self.cache.store.get(key) {
                        Lookup::StaleVersion => CachedLookup::StaleVersion,
                        _ => CachedLookup::Miss,
                    }
                }
            },
        };
        match OutcomeView::parse(payload) {
            Ok(OutcomeView::Mined(tuples)) => {
                CachedLookup::Hit(Resolved::Replayed(ReplayedTuples {
                    payload: payload.clone(),
                    first: tuples.first,
                    len: tuples.len,
                }))
            }
            Ok(view) => CachedLookup::Hit(Resolved::Decoded(view.to_outcome())),
            Err(_) => CachedLookup::Miss,
        }
    }

    /// Looks up and decodes the outcome for `key`. An undecodable
    /// payload degrades to a miss (the entry will be recomputed and
    /// re-recorded).
    pub fn get(&self, key: Fingerprint) -> CachedLookup {
        match self.replay(key) {
            CachedLookup::Hit(resolved) => CachedLookup::Hit(resolved.into_outcome()),
            CachedLookup::StaleVersion => CachedLookup::StaleVersion,
            CachedLookup::Miss => CachedLookup::Miss,
        }
    }

    /// Records a freshly computed outcome for `key` in this view's log.
    pub fn record(&mut self, key: Fingerprint, outcome: &ChangeOutcome) {
        self.log.record(key, encode_outcome(outcome));
    }

    /// Consumes the view, returning its write log for
    /// [`MiningCache::absorb`].
    pub fn into_log(self) -> ShardLog {
        self.log
    }
}

/// Fingerprints everything configurable that can change a mining
/// outcome: API model, codec version, target classes, DAG depth, and
/// the full budget stack. `Debug` formatting of the limits structs is
/// deterministic and covers every field, so a budget tweak can never
/// silently replay outcomes computed under different budgets.
///
/// An empty class list is normalized to [`analysis::TARGET_CLASSES`]
/// first — the same resolution `DiffCode::mine` applies — so
/// `open(dir, &[], ..)` and `open(dir, TARGET_CLASSES, ..)` address
/// the same entries.
fn config_fingerprint(
    classes: &[&str],
    limits: &crate::quarantine::PipelineLimits,
    max_depth: usize,
) -> Fingerprint {
    let classes: &[&str] = if classes.is_empty() {
        &analysis::TARGET_CLASSES
    } else {
        classes
    };
    let mut parts: Vec<String> = vec![
        CODEC_VERSION.to_owned(),
        "api:standard".to_owned(),
        format!("depth:{max_depth}"),
        format!("limits:{limits:?}"),
    ];
    parts.push(format!("classes:{}", classes.join("\u{1f}")));
    let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
    cache::fingerprint_str(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quarantine::PipelineLimits;
    use std::collections::BTreeSet;
    use usagegraph::DEFAULT_MAX_DEPTH;

    fn path(labels: &[&str]) -> FeaturePath {
        FeaturePath(labels.iter().copied().map(Label::from).collect())
    }

    fn sample_dag() -> UsageDag {
        let mut paths = BTreeSet::new();
        paths.insert(path(&["Cipher"]));
        paths.insert(path(&["Cipher", "getInstance"]));
        paths.insert(path(&["Cipher", "getInstance", "arg1:AES"]));
        UsageDag {
            root_type: "Cipher".into(),
            paths,
        }
    }

    #[test]
    fn mined_outcome_round_trips() {
        let change = UsageChange {
            class: "Cipher".to_owned(),
            removed: vec![path(&["Cipher", "getInstance", "arg1:AES"])],
            added: vec![path(&["Cipher", "getInstance", "arg1:AES/GCM/NoPadding"])],
        };
        let outcome = ChangeOutcome::Mined(vec![(
            "Cipher".to_owned(),
            sample_dag(),
            UsageDag::empty("Cipher"),
            change,
        )]);
        let bytes = encode_outcome(&outcome);
        assert_eq!(decode_outcome(&bytes).unwrap(), outcome);
    }

    #[test]
    fn skipped_outcome_round_trips_every_kind() {
        for kind in ErrorKind::ALL {
            let outcome = ChangeOutcome::Skipped {
                kind,
                error: format!("error for {kind}"),
                excerpt: "class A { \u{22a4} }".to_owned(),
            };
            let bytes = encode_outcome(&outcome);
            assert_eq!(decode_outcome(&bytes).unwrap(), outcome, "{kind}");
        }
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(decode_outcome(&[]).is_err());
        assert!(decode_outcome(&[9]).is_err(), "unknown tag");
        let bytes = encode_outcome(&ChangeOutcome::Mined(vec![(
            "Cipher".to_owned(),
            sample_dag(),
            sample_dag(),
            UsageChange::default(),
        )]));
        for cut in 0..bytes.len() {
            assert!(decode_outcome(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_outcome(&trailing).is_err(), "trailing byte");
    }

    /// The decoder the view replaced — owned paths collected into each
    /// DAG's `BTreeSet` — kept as the reference the view must match.
    fn reference_decode(bytes: &[u8]) -> Result<ChangeOutcome, WireError> {
        fn paths(r: &mut Reader<'_>) -> Result<Vec<FeaturePath>, WireError> {
            let n = r.u64()?;
            let mut paths = Vec::new();
            for _ in 0..n {
                let len = r.u64()?;
                let mut labels = Vec::new();
                for _ in 0..len {
                    labels.push(Label::from(r.str()?));
                }
                paths.push(FeaturePath(labels));
            }
            Ok(paths)
        }
        fn dag(r: &mut Reader<'_>) -> Result<UsageDag, WireError> {
            let root_type = intern::intern(r.str()?);
            let paths = paths(r)?.into_iter().collect();
            Ok(UsageDag { root_type, paths })
        }
        let mut r = Reader::new(bytes);
        let outcome = match r.u8()? {
            0 => {
                let n = r.u64()?;
                let mut tuples = Vec::new();
                for _ in 0..n {
                    let class = r.str()?.to_owned();
                    let old_dag = dag(&mut r)?;
                    let new_dag = dag(&mut r)?;
                    let change_class = r.str()?.to_owned();
                    let removed = paths(&mut r)?;
                    let added = paths(&mut r)?;
                    let change = UsageChange {
                        class: change_class,
                        removed,
                        added,
                    };
                    tuples.push((class, old_dag, new_dag, change));
                }
                ChangeOutcome::Mined(tuples)
            }
            1 => ChangeOutcome::Skipped {
                kind: kind_from_tag(r.u8()?)?,
                error: r.str()?.to_owned(),
                excerpt: r.str()?.to_owned(),
            },
            _ => return Err(WireError::Malformed("unknown outcome tag")),
        };
        if !r.is_exhausted() {
            return Err(WireError::Malformed("trailing bytes after outcome"));
        }
        Ok(outcome)
    }

    /// Whether `bytes` reads the same through the view as through the
    /// reference: rejected by the view, or decoded identically both
    /// ways with each DAG's in-place paths in the decoded set's order.
    fn view_agrees_with_reference(bytes: &[u8]) -> Result<(), String> {
        let Ok(view) = OutcomeView::parse(bytes) else {
            return Ok(());
        };
        let decoded = view.to_outcome();
        match reference_decode(bytes) {
            Ok(reference) if reference == decoded => {}
            other => return Err(format!("view gave {decoded:?}, reference {other:?}")),
        }
        if let (OutcomeView::Mined(tuples), ChangeOutcome::Mined(owned)) = (view, &decoded) {
            for (tuple, (_, old_dag, new_dag, _)) in tuples.iter().zip(owned) {
                let (old, new) = tuple.dag_pair().old_new();
                for (view, dag) in [(old, old_dag), (new, new_dag)] {
                    let in_place: Vec<FeaturePath> = view.paths().map(|p| p.to_path()).collect();
                    let in_set: Vec<FeaturePath> = dag.paths.iter().cloned().collect();
                    if view.root_type() != &*dag.root_type || in_place != in_set {
                        return Err(format!("in-place text of {dag:?} differs"));
                    }
                }
            }
        }
        Ok(())
    }

    /// One payload per code change of a corpus mined to cover every
    /// shape a payload takes: quarantined skips (fault-injected),
    /// `UsageDag::empty` sides, multi-label paths, and changes that both
    /// remove and add features (the Figure 2 fix).
    fn mined_payloads() -> Vec<Vec<u8>> {
        let mut corpus = corpus::generate(&corpus::GeneratorConfig::small(4, 7));
        corpus::Mutator::new(7, 0.2).inject(&mut corpus);
        let mut pairs: Vec<(&str, &str)> = corpus.code_changes().map(|c| (c.old, c.new)).collect();
        pairs.push((corpus::fixtures::FIGURE2_OLD, corpus::fixtures::FIGURE2_NEW));
        let mut dc = crate::pipeline::DiffCode::new();
        pairs
            .into_iter()
            .map(|(old, new)| encode_outcome(&dc.process_pair_cached(old, new, &[], None).0))
            .collect()
    }

    #[test]
    fn view_equals_the_reference_decoder_on_mined_payloads() {
        let payloads = mined_payloads();
        let outcomes: Vec<ChangeOutcome> = payloads
            .iter()
            .map(|bytes| decode_outcome(bytes).unwrap())
            .collect();
        let tuples = || {
            outcomes.iter().flat_map(|outcome| match outcome {
                ChangeOutcome::Mined(tuples) => tuples.as_slice(),
                ChangeOutcome::Skipped { .. } => &[],
            })
        };
        let skip = |o: &ChangeOutcome| matches!(o, ChangeOutcome::Skipped { .. });
        let empty_side = |t: &MinedTuple| {
            t.1 == UsageDag::empty(t.0.as_str()) || t.2 == UsageDag::empty(t.0.as_str())
        };
        let multi_label = |t: &MinedTuple| t.1.paths.iter().any(|p| p.len() > 2);
        let both = |t: &MinedTuple| !t.3.removed.is_empty() && !t.3.added.is_empty();
        assert!(outcomes.iter().any(skip), "no quarantined skip");
        assert!(tuples().any(empty_side), "no empty DAG side");
        assert!(tuples().any(multi_label), "no multi-label path");
        assert!(tuples().any(both), "no change with both removed and added");

        for (bytes, outcome) in payloads.iter().zip(&outcomes) {
            assert_eq!(reference_decode(bytes).as_ref(), Ok(outcome));
            assert_eq!(&encode_outcome(outcome), bytes, "re-encoding is exact");
            view_agrees_with_reference(bytes).unwrap();
        }

        // Every truncation and single-byte flip of one payload of each
        // shape is rejected by the view or reads identically both ways.
        let mut probes: Vec<&Vec<u8>> = Vec::new();
        let shapes: [&dyn Fn(&ChangeOutcome) -> bool; 4] = [
            &skip,
            &|o| matches!(o, ChangeOutcome::Mined(t) if t.iter().any(empty_side)),
            &|o| matches!(o, ChangeOutcome::Mined(t) if t.iter().any(multi_label)),
            &|o| matches!(o, ChangeOutcome::Mined(t) if t.iter().any(both)),
        ];
        for shape in shapes {
            let found = payloads.iter().zip(&outcomes).find(|(_, o)| shape(o));
            probes.extend(found.map(|(bytes, _)| bytes));
        }
        for bytes in probes {
            for cut in 0..bytes.len() {
                assert!(OutcomeView::parse(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            for at in 0..bytes.len() {
                for mask in [0x01, 0x20, 0x80, 0xFF] {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= mask;
                    if let Err(e) = view_agrees_with_reference(&flipped) {
                        panic!("byte {at} ^ {mask:#04x}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn view_rejects_dag_paths_out_of_set_order() {
        let encode = |paths: &[FeaturePath]| {
            let mut w = Writer::new();
            w.u8(0);
            w.u64(1);
            w.str("Cipher");
            w.str("Cipher");
            write_paths(&mut w, paths.iter());
            write_dag(&mut w, &UsageDag::empty("Cipher"));
            w.str("Cipher");
            write_paths(&mut w, [].iter());
            write_paths(&mut w, [].iter());
            w.finish()
        };
        let (a, b) = (path(&["Cipher"]), path(&["Cipher", "getInstance"]));
        assert!(OutcomeView::parse(&encode(&[a.clone(), b.clone()])).is_ok());
        for paths in [[b.clone(), a.clone()], [a.clone(), a]] {
            let bytes = encode(&paths);
            // The set-collecting reference accepts both — and would
            // render a different text than the bytes hold.
            assert!(reference_decode(&bytes).is_ok());
            assert!(OutcomeView::parse(&bytes).is_err(), "{paths:?}");
            assert!(decode_outcome(&bytes).is_err(), "{paths:?}");
        }
    }

    #[test]
    fn change_key_depends_on_content_and_config() {
        let dir = std::env::temp_dir().join(format!("diffcode-mcache-key-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let limits = PipelineLimits::DEFAULT;
        let cache = MiningCache::open(&dir, &["Cipher"], &limits, DEFAULT_MAX_DEPTH).unwrap();
        let base = cache.change_key("old", "new");
        assert_eq!(cache.change_key("old", "new"), base, "deterministic");
        assert_ne!(cache.change_key("old", "newer"), base);
        assert_ne!(cache.change_key("older", "new"), base);
        assert_ne!(cache.change_key("new", "old"), base, "sides are ordered");

        let other_classes =
            MiningCache::open(&dir, &["Cipher", "Mac"], &limits, DEFAULT_MAX_DEPTH).unwrap();
        assert_ne!(other_classes.change_key("old", "new"), base);

        let tight = PipelineLimits {
            analysis: analysis::AnalysisLimits {
                max_steps: 1,
                ..analysis::AnalysisLimits::DEFAULT
            },
            ..PipelineLimits::DEFAULT
        };
        let other_limits = MiningCache::open(&dir, &["Cipher"], &tight, DEFAULT_MAX_DEPTH).unwrap();
        assert_ne!(other_limits.change_key("old", "new"), base);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn view_sees_its_own_writes_before_absorb() {
        let dir = std::env::temp_dir().join(format!("diffcode-mcache-view-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let limits = PipelineLimits::DEFAULT;
        let mut cache = MiningCache::open(&dir, &[], &limits, DEFAULT_MAX_DEPTH).unwrap();
        let key = cache.change_key("a", "b");
        let outcome = ChangeOutcome::Skipped {
            kind: ErrorKind::Lex,
            error: "boom".to_owned(),
            excerpt: "class".to_owned(),
        };
        let mut view = cache.view();
        assert_eq!(view.get(key), CachedLookup::Miss);
        view.record(key, &outcome);
        assert_eq!(view.get(key), CachedLookup::Hit(outcome.clone()));
        let log = view.into_log();
        cache.absorb(log);
        assert_eq!(cache.view().get(key), CachedLookup::Hit(outcome));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
