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
//! - **Versioning** ([`ANALYSIS_VERSION`]): bumped on any semantic
//!   change to `javalang`, `analysis`, or `usagegraph`; entries written
//!   under another version count as `cache.stale_version` and are
//!   recomputed (the store keeps the bytes until `vacuum`).

use crate::quarantine::ErrorKind;
use cache::wire::{Reader, WireError, Writer};
use cache::{fingerprint, CacheStore, Fingerprint, Fingerprinter, Lookup, ShardLog, StoreError};
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

fn write_paths(w: &mut Writer, paths: &[FeaturePath]) {
    w.u64(paths.len() as u64);
    for path in paths {
        w.u64(path.0.len() as u64);
        for label in &path.0 {
            w.str(label);
        }
    }
}

fn read_paths(r: &mut Reader<'_>) -> Result<Vec<FeaturePath>, WireError> {
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

fn write_dag(w: &mut Writer, dag: &UsageDag) {
    w.str(&dag.root_type);
    let paths: Vec<FeaturePath> = dag.paths.iter().cloned().collect();
    write_paths(w, &paths);
}

fn read_dag(r: &mut Reader<'_>) -> Result<UsageDag, WireError> {
    let root_type = intern::intern(r.str()?);
    let paths = read_paths(r)?.into_iter().collect();
    Ok(UsageDag { root_type, paths })
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
                write_paths(&mut w, &change.removed);
                write_paths(&mut w, &change.added);
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

/// Decodes cache-payload bytes back into an outcome. Total: any
/// malformed payload is a typed error (the pipeline treats it as a
/// miss and recomputes).
///
/// # Errors
///
/// [`WireError`] on truncated, malformed, or trailing-garbage input.
pub fn decode_outcome(bytes: &[u8]) -> Result<ChangeOutcome, WireError> {
    let mut r = Reader::new(bytes);
    let outcome = match r.u8()? {
        0 => {
            let n = r.u64()?;
            let mut tuples = Vec::new();
            for _ in 0..n {
                let class = r.str()?.to_owned();
                let old_dag = read_dag(&mut r)?;
                let new_dag = read_dag(&mut r)?;
                let change_class = r.str()?.to_owned();
                let removed = read_paths(&mut r)?;
                let added = read_paths(&mut r)?;
                tuples.push((
                    class,
                    old_dag,
                    new_dag,
                    UsageChange {
                        class: change_class,
                        removed,
                        added,
                    },
                ));
            }
            ChangeOutcome::Mined(tuples)
        }
        1 => {
            let kind = kind_from_tag(r.u8()?)?;
            let error = r.str()?.to_owned();
            let excerpt = r.str()?.to_owned();
            ChangeOutcome::Skipped {
                kind,
                error,
                excerpt,
            }
        }
        _ => return Err(WireError::Malformed("unknown outcome tag")),
    };
    if !r.is_exhausted() {
        return Err(WireError::Malformed("trailing bytes after outcome"));
    }
    Ok(outcome)
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

/// What a view lookup produced, with decoding already applied.
#[derive(Debug, PartialEq)]
pub enum CachedLookup {
    /// A decoded outcome ready to replay.
    Hit(ChangeOutcome),
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

    /// Looks up and decodes the outcome for `key`. An undecodable
    /// payload degrades to a miss (the entry will be recomputed and
    /// re-recorded).
    pub fn get(&self, key: Fingerprint) -> CachedLookup {
        let bytes = match self.log.get(key) {
            Some(bytes) => Some(bytes),
            None => match self.cache.store.get(key) {
                Lookup::Hit(bytes) => Some(bytes),
                Lookup::StaleVersion => return CachedLookup::StaleVersion,
                Lookup::Miss => None,
            },
        };
        match bytes {
            Some(bytes) => match decode_outcome(bytes) {
                Ok(outcome) => CachedLookup::Hit(outcome),
                Err(_) => CachedLookup::Miss,
            },
            None => CachedLookup::Miss,
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
