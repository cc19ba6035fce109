//! Incremental clustering: the persisted distance-cell cache.
//!
//! A [`usage_dist`](cluster::usage_dist) cell is a pure function of the
//! two usage changes it compares (and the clustering configuration), so
//! — exactly like mining outcomes in [`crate::mcache`] — it can be
//! persisted and replayed instead of recomputed. On a warm re-cluster
//! over a grown corpus, only the cells touching *new* changes are
//! evaluated; everything else streams back out of the
//! [`cache`] append log (the `"cluster"` namespace of the same cache
//! directory the mining cache uses).
//!
//! - **Keys** ([`ClusterCache::cell_key`]): a 128-bit fingerprint of
//!   the clustering configuration fingerprint plus the two changes'
//!   content fingerprints in *sorted* order — one key per unordered
//!   pair, independent of corpus position, so a change keeps its cells
//!   no matter where a later run enumerates it.
//! - **Payloads**: the raw `f64::to_bits` of the distance, 8 bytes
//!   little-endian. An `f64` round-trips bit-exactly, which is what
//!   lets a warm matrix (and everything downstream: dendrogram,
//!   silhouette cut, report) be **byte-identical** to a cold run.
//! - **Label memo** ([`ClusterCache::label_memo`]): the
//!   [`LabelCache`](cluster::LabelCache) similarity memo is persisted
//!   under a single well-known key (last write wins), so even the
//!   *new* cells of a warm run skip recomputing known label pairs.
//! - **Versioning** ([`CLUSTERING_VERSION`]): bumped on any semantic
//!   change to the distance stack (`cluster::dist`, `cluster::lev`);
//!   entries under another version report stale and are recomputed.
//! - **Config stamp**: the configuration fingerprint folds in the
//!   codec version, the distance function's identity, and the linkage.
//!   Linkage cannot change a *cell*, only the dendrogram built from
//!   cells — folding it in anyway is deliberately conservative: a
//!   config flip must trigger a visible full recompute, never a silent
//!   partial reuse (the same rule `ANALYSIS_VERSION` enforces for
//!   mining).

use cache::wire::{Reader, Writer};
use cache::{fingerprint, CacheStore, Fingerprint, Lookup, StoreError};
use cluster::Linkage;
use std::path::Path;
use usagegraph::UsageChange;

/// The semantic version of the distance stack (label classification,
/// Levenshtein units, path/usage distance). **Bump this on any change
/// to `cluster::lev` or `cluster::dist` that can alter a distance** —
/// persisted cells from an older version are then reported stale and
/// recomputed instead of replayed.
pub const CLUSTERING_VERSION: u32 = 1;

/// The cache-directory namespace of the clustering log (the mining
/// cache owns the default `"cache"` namespace).
pub(crate) const CLUSTER_NAMESPACE: &str = "cluster";

/// Version tag of the cell/memo payload encodings (bumped on codec
/// change; folded into the configuration fingerprint).
const CODEC_VERSION: &str = "cells-v1";

/// What a cell lookup produced.
#[derive(Debug, PartialEq)]
pub enum CellLookup {
    /// The persisted distance, bit-exact.
    Hit(f64),
    /// An entry exists but was written under another
    /// [`CLUSTERING_VERSION`].
    StaleVersion,
    /// No usable entry (absent, or present but not 8 payload bytes).
    Miss,
}

/// A persistent distance-cell cache bound to the `"cluster"` namespace
/// of a cache directory.
#[derive(Debug)]
pub struct ClusterCache {
    store: CacheStore,
    config_fp: Fingerprint,
}

impl ClusterCache {
    /// Opens (creating if needed) the cluster log under `dir` at
    /// [`CLUSTERING_VERSION`], stamped with the configuration
    /// fingerprint for `linkage`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on I/O failures or mid-log corruption (see
    /// [`CacheStore::open`]); a damaged log is refused, not silently
    /// truncated.
    pub fn open(dir: &Path, linkage: Linkage) -> Result<ClusterCache, StoreError> {
        ClusterCache::open_at_version(dir, linkage, CLUSTERING_VERSION)
    }

    /// [`ClusterCache::open`] under the pipeline's own configuration —
    /// complete linkage, what `diffcode mine --cluster-cache-dir` runs.
    /// The server opens through this so its cells share keys with the
    /// one-shot runs (and so it needn't name the cluster crate).
    ///
    /// # Errors
    ///
    /// As [`ClusterCache::open`].
    pub(crate) fn open_default(dir: &Path) -> Result<ClusterCache, StoreError> {
        ClusterCache::open(dir, Linkage::Complete)
    }

    /// [`ClusterCache::open`] at an explicit version — the invalidation
    /// tests flip the version without editing this crate.
    pub fn open_at_version(
        dir: &Path,
        linkage: Linkage,
        version: u32,
    ) -> Result<ClusterCache, StoreError> {
        let store = CacheStore::open_ns(dir, version, CLUSTER_NAMESPACE)?;
        Ok(ClusterCache {
            store,
            config_fp: config_fingerprint(linkage),
        })
    }

    /// The content fingerprint of one usage change: class, removed
    /// paths, added paths — everything [`cluster::usage_dist`] reads,
    /// nothing it doesn't (no provenance, no corpus position).
    pub fn change_fingerprint(change: &UsageChange) -> Fingerprint {
        let mut w = Writer::new();
        w.str(&change.class);
        for side in [&change.removed, &change.added] {
            w.u64(side.len() as u64);
            for path in side.iter() {
                w.u64(path.0.len() as u64);
                for label in &path.0 {
                    w.str(label);
                }
            }
        }
        let bytes = w.finish();
        fingerprint(&[&bytes])
    }

    /// The cache key of the cell for an unordered pair of change
    /// fingerprints: configuration fingerprint plus the two content
    /// fingerprints in sorted order.
    pub(crate) fn cell_key(&self, a: Fingerprint, b: Fingerprint) -> Fingerprint {
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        fingerprint(&[
            &self.config_fp.0.to_le_bytes(),
            &lo.0.to_le_bytes(),
            &hi.0.to_le_bytes(),
        ])
    }

    /// Looks up the persisted cell for an unordered fingerprint pair.
    pub fn cell(&self, a: Fingerprint, b: Fingerprint) -> CellLookup {
        match self.store.get(self.cell_key(a, b)) {
            Lookup::Hit(bytes) => match <[u8; 8]>::try_from(bytes) {
                Ok(raw) => CellLookup::Hit(f64::from_bits(u64::from_le_bytes(raw))),
                Err(_) => CellLookup::Miss,
            },
            Lookup::StaleVersion => CellLookup::StaleVersion,
            Lookup::Miss => CellLookup::Miss,
        }
    }

    /// Records a freshly computed cell. Visible to [`ClusterCache::cell`]
    /// immediately; durable after [`ClusterCache::flush`].
    pub(crate) fn record_cell(&mut self, a: Fingerprint, b: Fingerprint, distance: f64) {
        let key = self.cell_key(a, b);
        self.store
            .insert(key, distance.to_bits().to_le_bytes().to_vec());
    }

    /// The persisted label-similarity memo, or empty when absent,
    /// stale, or undecodable (the memo is a pure accelerator — losing
    /// it costs time, never correctness).
    pub(crate) fn label_memo(&self) -> Vec<(String, String, f64)> {
        let Lookup::Hit(bytes) = self.store.get(self.memo_key()) else {
            return Vec::new();
        };
        decode_memo(bytes).unwrap_or_default()
    }

    /// Persists the full label-similarity memo (supersedes the prior
    /// record — last write wins, and vacuum compacts the old ones).
    pub(crate) fn record_label_memo(&mut self, entries: &[(String, String, f64)]) {
        let key = self.memo_key();
        self.store.insert(key, encode_memo(entries));
    }

    fn memo_key(&self) -> Fingerprint {
        fingerprint(&[b"label-memo", &self.config_fp.0.to_le_bytes()])
    }

    /// Persists recorded entries to disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; entries stay queued.
    pub fn flush(&mut self) -> std::io::Result<usize> {
        self.store.flush()
    }

    /// The underlying store (stats, vacuum).
    pub(crate) fn store(&self) -> &CacheStore {
        &self.store
    }
}

fn encode_memo(entries: &[(String, String, f64)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(entries.len() as u64);
    for (a, b, sim) in entries {
        w.str(a);
        w.str(b);
        w.u64(sim.to_bits());
    }
    w.finish()
}

fn decode_memo(bytes: &[u8]) -> Option<Vec<(String, String, f64)>> {
    let mut r = Reader::new(bytes);
    let n = r.u64().ok()?;
    let mut out = Vec::new();
    for _ in 0..n {
        let a = r.str().ok()?.to_owned();
        let b = r.str().ok()?.to_owned();
        let sim = f64::from_bits(r.u64().ok()?);
        out.push((a, b, sim));
    }
    if !r.is_exhausted() {
        return None;
    }
    Some(out)
}

/// Fingerprints everything configurable that must invalidate persisted
/// cells: the payload codec, the distance function's identity, and the
/// linkage (conservatively — see the module docs).
fn config_fingerprint(linkage: Linkage) -> Fingerprint {
    let parts = [
        CODEC_VERSION.to_owned(),
        "dist:usage-v1".to_owned(),
        format!("linkage:{linkage:?}"),
    ];
    let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
    cache::fingerprint_str(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usagegraph::{FeaturePath, Label};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("diffcode-ccache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn path(labels: &[&str]) -> FeaturePath {
        FeaturePath(labels.iter().copied().map(Label::from).collect())
    }

    fn change(from: &str, to: &str) -> UsageChange {
        UsageChange {
            class: "Cipher".to_owned(),
            removed: vec![path(&["Cipher", "getInstance", from])],
            added: vec![path(&["Cipher", "getInstance", to])],
        }
    }

    #[test]
    fn change_fingerprint_is_content_addressed() {
        let a = change("arg1:AES/ECB", "arg1:AES/CBC");
        let same = change("arg1:AES/ECB", "arg1:AES/CBC");
        assert_eq!(
            ClusterCache::change_fingerprint(&a),
            ClusterCache::change_fingerprint(&same)
        );
        let swapped = change("arg1:AES/CBC", "arg1:AES/ECB");
        assert_ne!(
            ClusterCache::change_fingerprint(&a),
            ClusterCache::change_fingerprint(&swapped),
            "removed vs added sides are ordered"
        );
        let other_class = UsageChange {
            class: "Mac".to_owned(),
            ..change("arg1:AES/ECB", "arg1:AES/CBC")
        };
        assert_ne!(
            ClusterCache::change_fingerprint(&a),
            ClusterCache::change_fingerprint(&other_class)
        );
    }

    #[test]
    fn cells_round_trip_bit_exactly_across_reopen() {
        let dir = temp_dir("cells");
        let (fa, fb) = (
            ClusterCache::change_fingerprint(&change("arg1:A", "arg1:B")),
            ClusterCache::change_fingerprint(&change("arg1:C", "arg1:D")),
        );
        // A value with a busy mantissa: bit-exactness is the contract.
        let d = 0.123_456_789_012_345_67_f64;
        let mut cache = ClusterCache::open(&dir, Linkage::Complete).unwrap();
        assert_eq!(cache.cell(fa, fb), CellLookup::Miss);
        cache.record_cell(fa, fb, d);
        cache.flush().unwrap();

        let cache = ClusterCache::open(&dir, Linkage::Complete).unwrap();
        match cache.cell(fa, fb) {
            CellLookup::Hit(got) => assert_eq!(got.to_bits(), d.to_bits()),
            other => panic!("expected hit, got {other:?}"),
        }
        // The pair is unordered: both orientations address one cell.
        assert_eq!(cache.cell(fb, fa), CellLookup::Hit(d));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_bump_reports_stale() {
        let dir = temp_dir("version");
        let (fa, fb) = (
            ClusterCache::change_fingerprint(&change("arg1:A", "arg1:B")),
            ClusterCache::change_fingerprint(&change("arg1:C", "arg1:D")),
        );
        let mut cache =
            ClusterCache::open_at_version(&dir, Linkage::Complete, CLUSTERING_VERSION).unwrap();
        cache.record_cell(fa, fb, 0.5);
        cache.flush().unwrap();
        let bumped =
            ClusterCache::open_at_version(&dir, Linkage::Complete, CLUSTERING_VERSION + 1).unwrap();
        assert_eq!(bumped.cell(fa, fb), CellLookup::StaleVersion);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_flip_changes_every_cell_key() {
        let dir = temp_dir("config");
        let (fa, fb) = (
            ClusterCache::change_fingerprint(&change("arg1:A", "arg1:B")),
            ClusterCache::change_fingerprint(&change("arg1:C", "arg1:D")),
        );
        let mut cache = ClusterCache::open(&dir, Linkage::Complete).unwrap();
        cache.record_cell(fa, fb, 0.5);
        cache.flush().unwrap();
        // A different linkage addresses a disjoint key space: the old
        // cell is invisible, so the run recomputes from scratch.
        let flipped = ClusterCache::open(&dir, Linkage::Average).unwrap();
        assert_eq!(flipped.cell(fa, fb), CellLookup::Miss);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn label_memo_round_trips_and_last_write_wins() {
        let dir = temp_dir("memo");
        let mut cache = ClusterCache::open(&dir, Linkage::Complete).unwrap();
        assert!(cache.label_memo().is_empty());
        let first = vec![("a".to_owned(), "b".to_owned(), 0.25)];
        cache.record_label_memo(&first);
        cache.flush().unwrap();
        let grown = vec![
            ("a".to_owned(), "b".to_owned(), 0.25),
            ("a".to_owned(), "c".to_owned(), 0.75),
        ];
        let mut cache = ClusterCache::open(&dir, Linkage::Complete).unwrap();
        assert_eq!(cache.label_memo(), first);
        cache.record_label_memo(&grown);
        cache.flush().unwrap();
        let cache = ClusterCache::open(&dir, Linkage::Complete).unwrap();
        assert_eq!(cache.label_memo(), grown);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
