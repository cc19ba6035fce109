//! The append-log cache store.
//!
//! On disk a cache is one file, `<dir>/cache.log`: a magic header
//! followed by self-describing records
//! `(key: u128, version: u32, payload_len: u64, payload, fnv64(payload))`.
//! Appending is the only write pattern a mining run needs, so the
//! format never rewrites in place; [`CacheStore::vacuum`] produces a
//! compacted file when asked.
//!
//! Crash safety is by construction: a flush that dies mid-record
//! leaves a truncated tail that fails its length or checksum check, so
//! the next [`CacheStore::open`] indexes every record up to the tail
//! and ignores the rest; the next [`CacheStore::flush`] truncates the
//! garbage before appending. Corruption in the *middle* of the log —
//! a checksum-failed record with valid records after it, i.e. bitrot
//! rather than a crash — is a different animal: truncating there would
//! destroy good data, so the strict open refuses with
//! [`StoreError::CorruptRecord`] and the tolerant
//! [`CacheStore::open_tolerant`] + [`CacheStore::vacuum`] path is how
//! such a log is inspected and repaired. Entries are immutable once
//! written — a duplicate key appended later supersedes the earlier
//! record at load time (last write wins), which vacuum then compacts
//! away.
//!
//! Open reads the log into one buffer and indexes each record's payload
//! by its `(offset, len)` in it, after checking every record's
//! checksum. A lookup hands out a slice of that buffer, or a
//! [`SharedBytes`] handle that keeps it alive, so no payload is copied
//! at open or on a hit.

use crate::fingerprint::Fingerprint;
use crate::wire::{Reader, WireError, Writer};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{self, Write as _};
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every cache log (format, not analysis, version;
/// bump only on layout change).
const MAGIC: &[u8] = b"DIFFCACHE1\n";

/// The default namespace: `<dir>/cache.log`, the mining cache's home.
const DEFAULT_NS: &str = "cache";

/// The log file name for `namespace` inside a cache directory. Each
/// namespace is an independent append log — same directory, same wire
/// format, separate file — so two subsystems (mining outcomes and
/// clustering distances, say) can share a cache dir without sharing a
/// key space or an analysis version.
fn log_name(namespace: &str) -> String {
    assert!(
        !namespace.is_empty()
            && namespace
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'),
        "cache namespace must be a non-empty [A-Za-z0-9_-]+ token, got {namespace:?}"
    );
    format!("{namespace}.log")
}

/// FNV-1a 64 of `bytes` — the per-record payload checksum.
fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Why a cache store could not be opened.
///
/// Distinguishes plain filesystem failures from *mid-log corruption*:
/// a record whose framing is intact but whose payload fails its
/// checksum, with valid records after it. Tail damage (a crash
/// mid-append) is not an error — it is truncated away on the next
/// flush — but a bad record in the middle means real data loss is on
/// the table, so the strict [`CacheStore::open`] refuses rather than
/// silently dropping the valid records that follow it.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure creating the directory or reading the log.
    Io(io::Error),
    /// A record in the middle of the log failed its checksum while
    /// later records are still valid.
    CorruptRecord {
        /// Byte offset of the corrupt record within the log file.
        offset: u64,
        /// Valid records indexed before the corrupt one.
        valid_before: usize,
        /// Valid records found after it — the data a naive
        /// truncate-at-first-error load would have dropped.
        valid_after: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "cache I/O error: {err}"),
            StoreError::CorruptRecord {
                offset,
                valid_before,
                valid_after,
            } => write!(
                f,
                "cache log record at byte {offset} failed its checksum with \
                 {valid_after} valid record(s) after it ({valid_before} before); \
                 refusing to drop them silently — run `cache verify` to inspect \
                 the damage and `cache vacuum` to rebuild a clean log"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            StoreError::CorruptRecord { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// An immutable byte range shared by reference count: one payload
/// inside a loaded log buffer, or a payload recorded since open.
/// Cloning and [`SharedBytes::slice`] bump a count; the bytes are never
/// copied.
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl SharedBytes {
    /// The sub-range `range` of these bytes (offsets relative to their
    /// start), sharing the same buffer.
    ///
    /// # Panics
    ///
    /// If `range` is out of bounds or decreasing, like slice indexing.
    pub fn slice(&self, range: Range<usize>) -> SharedBytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "range {range:?} out of bounds for {} shared bytes",
            self.len()
        );
        SharedBytes {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        SharedBytes {
            start: 0,
            end: bytes.len(),
            buf: Arc::new(bytes),
        }
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

// The length only: the buffer behind a slice can be a whole log.
impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedBytes")
            .field("len", &self.len())
            .finish()
    }
}

/// One indexed entry: the analysis version it was written under and
/// its serialized payload.
#[derive(Debug, Clone)]
struct Entry {
    version: u32,
    payload: SharedBytes,
}

/// The result of a cache lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum Lookup<'a> {
    /// The key is present at the store's analysis version.
    Hit(&'a [u8]),
    /// The key is present but was written under a different analysis
    /// version — the cached outcome may no longer be what the pipeline
    /// would compute, so it must be recomputed.
    StaleVersion,
    /// The key is absent.
    Miss,
}

/// Write log for one mining shard: an ordered append buffer plus its
/// own lookup index, so a shard sees its *own* writes (duplicate file
/// pairs within a shard hit on the second encounter) without any
/// shared mutable state. Dropped without being absorbed — e.g. when
/// the shard's worker thread dies — its entries simply never reach the
/// store, which is exactly what the accounting wants: a dead shard's
/// changes were folded in as skips, so caching their half-finished
/// outcomes would let a later warm run disagree with the cold one.
#[derive(Debug, Default)]
pub struct ShardLog {
    order: Vec<Fingerprint>,
    entries: HashMap<u128, SharedBytes>,
}

impl ShardLog {
    /// An empty log.
    pub fn new() -> Self {
        ShardLog::default()
    }

    /// Records `payload` for `key` (first write wins within a shard —
    /// the pipeline only records a key it just missed on).
    pub fn record(&mut self, key: Fingerprint, payload: Vec<u8>) {
        if !self.entries.contains_key(&key.0) {
            self.order.push(key);
            self.entries.insert(key.0, payload.into());
        }
    }

    /// This shard's own payload for `key`, if it wrote one.
    pub fn get(&self, key: Fingerprint) -> Option<&[u8]> {
        self.get_shared(key).map(|payload| &**payload)
    }

    /// [`ShardLog::get`] as a shared handle that can outlive the log.
    pub fn get_shared(&self, key: Fingerprint) -> Option<&SharedBytes> {
        self.entries.get(&key.0)
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Aggregate facts about a store, for `diffcode cache stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Indexed entries at the store's analysis version.
    pub current_entries: usize,
    /// Indexed entries written under another analysis version.
    pub stale_entries: usize,
    /// Well-formed records in the log — those scanned at open plus
    /// those flushed since (superseded duplicates included).
    pub records_loaded: usize,
    /// Bytes of unreadable tail ignored at open.
    pub corrupt_tail_bytes: u64,
    /// Checksum-failed mid-log records skipped by a tolerant open
    /// (always zero for a store opened strictly).
    pub corrupt_records: usize,
    /// Size of the log file in bytes (as of open plus flushed writes).
    pub file_bytes: u64,
    /// Entries recorded but not yet flushed.
    pub pending_entries: usize,
}

/// What [`CacheStore::vacuum`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VacuumReport {
    /// Entries kept (current version, one record per key).
    pub kept: usize,
    /// Indexed entries dropped for carrying a stale version.
    pub dropped_stale: usize,
    /// On-disk records dropped as superseded duplicates or corrupt.
    pub dropped_records: usize,
    /// File size before compaction.
    pub bytes_before: u64,
    /// File size after compaction.
    pub bytes_after: u64,
}

/// What [`verify`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Well-formed records (checksum passed).
    pub valid_records: usize,
    /// Records whose payload failed its checksum.
    pub checksum_failures: usize,
    /// Bytes of unreadable tail after the last well-formed record.
    pub corrupt_tail_bytes: u64,
    /// Distinct keys among valid records.
    pub distinct_keys: usize,
    /// Record count per analysis version, ascending.
    pub versions: BTreeMap<u32, usize>,
}

impl VerifyReport {
    /// `true` when the log has no integrity problems.
    pub fn is_clean(&self) -> bool {
        self.checksum_failures == 0 && self.corrupt_tail_bytes == 0
    }
}

/// A persistent content-addressed store bound to one analysis version.
#[derive(Debug)]
pub struct CacheStore {
    dir: PathBuf,
    /// Log file name within `dir` — `<namespace>.log`.
    log_name: String,
    version: u32,
    index: HashMap<u128, Entry>,
    pending: Vec<Fingerprint>,
    /// Byte length of the well-formed prefix of the log file; flush
    /// truncates to this before appending.
    valid_len: u64,
    records_loaded: usize,
    corrupt_tail_bytes: u64,
    corrupt_records: usize,
}

impl CacheStore {
    /// Opens (creating if needed) the cache under `dir`, indexing every
    /// well-formed record of its log. `version` is the caller's current
    /// analysis version: entries written under any other version will
    /// report [`Lookup::StaleVersion`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures creating the directory
    /// or reading the log. A corrupt *tail* (crash mid-append) is not
    /// an error — unreadable trailing bytes are skipped, reported via
    /// [`CacheStore::stats`], and truncated on the next flush. A
    /// checksum-failed record in the *middle* of the log, with valid
    /// records after it, fails with [`StoreError::CorruptRecord`]
    /// instead of silently dropping those later records; use
    /// [`CacheStore::open_tolerant`] (and then
    /// [`CacheStore::vacuum`]) to inspect and repair such a log.
    pub fn open(dir: &Path, version: u32) -> Result<CacheStore, StoreError> {
        CacheStore::open_ns(dir, version, DEFAULT_NS)
    }

    /// Opens the log of `namespace` under `dir` — `<dir>/<namespace>.log`.
    /// [`CacheStore::open`] is the `"cache"` namespace; other subsystems
    /// get their own log (and so their own key space and analysis
    /// version) in the same directory.
    ///
    /// # Errors
    ///
    /// As [`CacheStore::open`].
    ///
    /// # Panics
    ///
    /// If `namespace` is not a non-empty `[A-Za-z0-9_-]+` token (it
    /// names a file inside `dir`; path separators would escape it).
    pub fn open_ns(dir: &Path, version: u32, namespace: &str) -> Result<CacheStore, StoreError> {
        CacheStore::open_inner(dir, version, namespace, false)
    }

    /// Opens the cache under `dir` like [`CacheStore::open`], but skips
    /// checksum-failed mid-log records (counting them in
    /// [`CacheStats::corrupt_records`]) instead of failing. This is the
    /// inspection/repair path: `cache stats` and `cache vacuum` must
    /// work on a damaged log, and vacuum's rewrite is how the damage is
    /// healed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only.
    pub fn open_tolerant(dir: &Path, version: u32) -> Result<CacheStore, StoreError> {
        CacheStore::open_ns_tolerant(dir, version, DEFAULT_NS)
    }

    /// [`CacheStore::open_ns`] with the tolerant (inspection/repair)
    /// load of [`CacheStore::open_tolerant`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only.
    ///
    /// # Panics
    ///
    /// As [`CacheStore::open_ns`], on a malformed namespace.
    pub fn open_ns_tolerant(
        dir: &Path,
        version: u32,
        namespace: &str,
    ) -> Result<CacheStore, StoreError> {
        CacheStore::open_inner(dir, version, namespace, true)
    }

    fn open_inner(
        dir: &Path,
        version: u32,
        namespace: &str,
        tolerant: bool,
    ) -> Result<CacheStore, StoreError> {
        std::fs::create_dir_all(dir)?;
        let mut store = CacheStore {
            dir: dir.to_owned(),
            log_name: log_name(namespace),
            version,
            index: HashMap::new(),
            pending: Vec::new(),
            valid_len: 0,
            records_loaded: 0,
            corrupt_tail_bytes: 0,
            corrupt_records: 0,
        };
        let log = store.log_path();
        if log.exists() {
            let bytes = Arc::new(std::fs::read(&log)?);
            store.load(&bytes, tolerant)?;
        }
        Ok(store)
    }

    /// The path of the backing log file.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(&self.log_name)
    }

    /// The analysis version lookups are checked against.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Indexes every valid record of the log `bytes`, each entry a
    /// range of that one buffer.
    fn load(&mut self, bytes: &Arc<Vec<u8>>, tolerant: bool) -> Result<(), StoreError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            // Foreign or empty file: treat everything as corrupt tail
            // so flush rewrites from scratch.
            self.corrupt_tail_bytes = bytes.len() as u64;
            self.valid_len = 0;
            return Ok(());
        }
        let mut reader = Reader::new(&bytes[MAGIC.len()..]);
        let mut consumed = MAGIC.len() as u64;
        // A checksum-failed record whose *framing* parsed is only a
        // benign "corrupt tail" if nothing valid follows it. Track how
        // many such records a later valid record turns into mid-log
        // corruption (`skipped`), versus ones still waiting at the end
        // of the scan (`pending` — absorbed into the corrupt tail).
        let mut first_corrupt: Option<(u64, usize)> = None; // (offset, valid records before it)
        let mut valid_seen = 0usize;
        let mut pending_corrupt = 0usize;
        let mut skipped_corrupt = 0usize;
        while !reader.is_exhausted() {
            let record_start = (MAGIC.len() + reader.position()) as u64;
            match read_record(&mut reader) {
                Ok(record) if record.checksum_ok => {
                    consumed = (MAGIC.len() + reader.position()) as u64;
                    self.records_loaded += 1;
                    valid_seen += 1;
                    skipped_corrupt += pending_corrupt;
                    pending_corrupt = 0;
                    let payload = SharedBytes {
                        buf: Arc::clone(bytes),
                        start: MAGIC.len() + record.payload.start,
                        end: MAGIC.len() + record.payload.end,
                    };
                    let entry = Entry {
                        version: record.version,
                        payload,
                    };
                    // Last write wins: a re-recorded key supersedes.
                    self.index.insert(record.key.0, entry);
                }
                Ok(_) => {
                    // Framing intact, payload untrustworthy. Keep
                    // scanning: whether this is tail damage or mid-log
                    // corruption depends on what comes after.
                    if first_corrupt.is_none() {
                        first_corrupt = Some((record_start, valid_seen));
                    }
                    pending_corrupt += 1;
                }
                // Structural damage: everything from here is tail.
                Err(_) => break,
            }
        }
        if skipped_corrupt > 0 {
            if let (false, Some((offset, valid_before))) = (tolerant, first_corrupt) {
                return Err(StoreError::CorruptRecord {
                    offset,
                    valid_before,
                    valid_after: valid_seen - valid_before,
                });
            }
            self.corrupt_records = skipped_corrupt;
        }
        self.valid_len = consumed;
        self.corrupt_tail_bytes = bytes.len() as u64 - consumed;
        Ok(())
    }

    /// Looks up `key`.
    pub fn get(&self, key: Fingerprint) -> Lookup<'_> {
        match self.index.get(&key.0) {
            Some(entry) if entry.version == self.version => Lookup::Hit(&entry.payload),
            Some(_) => Lookup::StaleVersion,
            None => Lookup::Miss,
        }
    }

    /// A [`Lookup::Hit`] of [`CacheStore::get`] as a shared handle into
    /// the loaded log, which a replayed result can keep after the store
    /// is gone; `None` for a stale or absent key.
    pub fn get_shared(&self, key: Fingerprint) -> Option<&SharedBytes> {
        self.index
            .get(&key.0)
            .filter(|entry| entry.version == self.version)
            .map(|entry| &entry.payload)
    }

    /// Records `payload` for `key` at the store's version. Visible to
    /// [`CacheStore::get`] immediately; durable after
    /// [`CacheStore::flush`].
    pub fn insert(&mut self, key: Fingerprint, payload: Vec<u8>) {
        self.insert_shared(key, payload.into());
    }

    fn insert_shared(&mut self, key: Fingerprint, payload: SharedBytes) {
        // Callers only insert on a miss (the mining loop checks first;
        // `absorb` skips keys that already hold the same payload), so a
        // key is pending at most once per flush.
        self.index.insert(
            key.0,
            Entry {
                version: self.version,
                payload,
            },
        );
        self.pending.push(key);
    }

    /// Merges a shard's write log into the store (in the shard's append
    /// order, so flushed files are deterministic for a deterministic
    /// mining order).
    pub fn absorb(&mut self, log: ShardLog) {
        let ShardLog { order, mut entries } = log;
        for key in order {
            if let Some(payload) = entries.remove(&key.0) {
                // Skip keys that already hold this payload: identical
                // content produces identical payloads, so a key another
                // shard wrote first is not appended twice. A different
                // payload replaces the stored one: a shard records a key
                // only after a miss, so stored bytes it disagrees with
                // failed to decode.
                if matches!(self.get(key), Lookup::Hit(stored) if stored == &*payload) {
                    continue;
                }
                self.insert_shared(key, payload);
            }
        }
    }

    /// Appends every pending entry to the log file. Returns the number
    /// of records written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; pending entries stay queued on error.
    pub fn flush(&mut self) -> io::Result<usize> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let path = self.log_path();
        let fresh = !path.exists() || self.valid_len == 0;
        // Not truncate(true): the well-formed prefix must survive. The
        // set_len below drops exactly the corrupt tail instead.
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        // Drop any corrupt tail (or foreign content) before appending.
        file.set_len(if fresh { 0 } else { self.valid_len })?;
        let mut out = io::BufWriter::new(file);
        use io::Seek as _;
        out.seek(io::SeekFrom::End(0))?;
        let mut written = 0u64;
        if fresh {
            out.write_all(MAGIC)?;
            written += MAGIC.len() as u64;
        }
        let mut flushed = 0usize;
        for key in std::mem::take(&mut self.pending) {
            let entry = &self.index[&key.0];
            let record = encode_record(key, entry.version, &entry.payload);
            out.write_all(&record)?;
            written += record.len() as u64;
            flushed += 1;
        }
        out.flush()?;
        self.valid_len = if fresh {
            written
        } else {
            self.valid_len + written
        };
        self.corrupt_tail_bytes = 0;
        // Keep the on-disk record count honest: vacuum and stats derive
        // the superseded-duplicate count from it.
        self.records_loaded += flushed;
        Ok(flushed)
    }

    /// Number of indexed entries at the current version.
    pub fn len(&self) -> usize {
        self.index
            .values()
            .filter(|e| e.version == self.version)
            .count()
    }

    /// `true` when no entry is indexed at the current version.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate store facts.
    pub fn stats(&self) -> CacheStats {
        let current_entries = self.len();
        CacheStats {
            current_entries,
            stale_entries: self.index.len() - current_entries,
            records_loaded: self.records_loaded,
            corrupt_tail_bytes: self.corrupt_tail_bytes,
            corrupt_records: self.corrupt_records,
            file_bytes: self.valid_len + self.corrupt_tail_bytes,
            pending_entries: self.pending.len(),
        }
    }

    /// Rewrites the log to exactly one record per current-version key
    /// (sorted by key, so vacuumed files are canonical), dropping stale
    /// versions, superseded duplicates, and any corrupt tail.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the original file is left in
    /// place (the rewrite goes through a temp file + rename).
    pub fn vacuum(&mut self) -> io::Result<VacuumReport> {
        self.flush()?;
        let bytes_before = self.valid_len + self.corrupt_tail_bytes;
        let mut keys: Vec<u128> = self
            .index
            .iter()
            .filter(|(_, e)| e.version == self.version)
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        let dropped_stale = self.index.len() - keys.len();

        let mut out: Vec<u8> = Vec::with_capacity(MAGIC.len());
        out.extend_from_slice(MAGIC);
        for key in &keys {
            let entry = &self.index[key];
            out.extend_from_slice(&encode_record(
                Fingerprint(*key),
                entry.version,
                &entry.payload,
            ));
        }
        let tmp = self.dir.join(format!("{}.tmp", self.log_name));
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, self.log_path())?;

        // Skipped corrupt records count as dropped: the rewrite is what
        // finally removes their bytes from the log.
        let dropped_records =
            (self.records_loaded + self.corrupt_records).saturating_sub(keys.len());
        self.index.retain(|_, e| e.version == self.version);
        self.records_loaded = keys.len();
        self.valid_len = out.len() as u64;
        self.corrupt_tail_bytes = 0;
        self.corrupt_records = 0;
        Ok(VacuumReport {
            kept: keys.len(),
            dropped_stale,
            dropped_records,
            bytes_before,
            bytes_after: out.len() as u64,
        })
    }
}

/// Scans the log under `dir` without building an index: record
/// well-formedness, payload checksums, per-version counts.
///
/// # Errors
///
/// I/O failures only; an absent log verifies as an empty clean report.
pub fn verify(dir: &Path) -> io::Result<VerifyReport> {
    verify_ns(dir, DEFAULT_NS)
}

/// [`verify`] for one namespace's log — `<dir>/<namespace>.log`.
///
/// # Errors
///
/// I/O failures only; an absent log verifies as an empty clean report.
///
/// # Panics
///
/// On a malformed namespace, as [`CacheStore::open_ns`].
pub fn verify_ns(dir: &Path, namespace: &str) -> io::Result<VerifyReport> {
    let path = dir.join(log_name(namespace));
    let mut report = VerifyReport::default();
    if !path.exists() {
        return Ok(report);
    }
    let bytes = std::fs::read(&path)?;
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        report.corrupt_tail_bytes = bytes.len() as u64;
        return Ok(report);
    }
    let body = &bytes[MAGIC.len()..];
    let mut reader = Reader::new(body);
    let mut keys = std::collections::HashSet::new();
    while !reader.is_exhausted() {
        let record_start = reader.position();
        match read_record(&mut reader) {
            Ok(record) if record.checksum_ok => {
                report.valid_records += 1;
                keys.insert(record.key.0);
                *report.versions.entry(record.version).or_insert(0) += 1;
            }
            Ok(_) => report.checksum_failures += 1,
            Err(_) => {
                // Like `CacheStore::load`, the tail starts where the
                // unreadable record does, not where the read stopped.
                report.corrupt_tail_bytes = (body.len() - record_start) as u64;
                break;
            }
        }
    }
    report.distinct_keys = keys.len();
    Ok(report)
}

/// Serializes one record.
fn encode_record(key: Fingerprint, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u128(key.0);
    w.u32(version);
    w.bytes(payload);
    w.u64(checksum(payload));
    w.finish()
}

/// One record's framing as read off the log: its key and version,
/// where its payload sits in the reader's input, and whether that
/// payload passed its checksum.
struct RawRecord {
    key: Fingerprint,
    version: u32,
    payload: Range<usize>,
    checksum_ok: bool,
}

/// Reads one record. Structural damage (truncated framing) is a wire
/// error; a checksum mismatch with intact framing is reported through
/// [`RawRecord::checksum_ok`], so the scan can continue past it and
/// the caller can decide whether it is tail damage or mid-log
/// corruption.
fn read_record(reader: &mut Reader<'_>) -> Result<RawRecord, WireError> {
    let key = Fingerprint(reader.u128()?);
    let version = reader.u32()?;
    let payload = reader.bytes()?;
    let end = reader.position();
    let stored = reader.u64()?;
    Ok(RawRecord {
        key,
        version,
        payload: end - payload.len()..end,
        checksum_ok: stored == checksum(payload),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("diffcache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_get_flush_reopen() {
        let dir = temp_dir("roundtrip");
        let key = fingerprint(&[b"a", b"b"]);
        let mut store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(key), Lookup::Miss);
        store.insert(key, vec![1, 2, 3]);
        assert_eq!(store.get(key), Lookup::Hit(&[1, 2, 3]));
        assert_eq!(store.flush().unwrap(), 1);
        assert_eq!(store.flush().unwrap(), 0, "nothing pending");

        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(key), Lookup::Hit(&[1, 2, 3]));
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_bump_invalidates_without_deleting() {
        let dir = temp_dir("version");
        let key = fingerprint(&[b"k"]);
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(key, b"v1".to_vec());
        store.flush().unwrap();

        let store = CacheStore::open(&dir, 2).unwrap();
        assert_eq!(store.get(key), Lookup::StaleVersion);
        assert_eq!(store.len(), 0);
        assert_eq!(store.stats().stale_entries, 1);

        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(
            store.get(key),
            Lookup::Hit(b"v1".as_slice()),
            "old version intact"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_is_ignored_and_healed_by_flush() {
        let dir = temp_dir("corrupt");
        let key = fingerprint(&[b"good"]);
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(key, b"payload".to_vec());
        store.flush().unwrap();
        let log = store.log_path();
        // Simulate a crash mid-append: garbage after the valid record.
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(&[0xAB; 13]);
        std::fs::write(&log, &bytes).unwrap();

        let mut store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(key), Lookup::Hit(b"payload".as_slice()));
        assert_eq!(store.stats().corrupt_tail_bytes, 13);
        let key2 = fingerprint(&[b"second"]);
        store.insert(key2, b"two".to_vec());
        store.flush().unwrap();

        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(
            store.stats().corrupt_tail_bytes,
            0,
            "flush truncated the tail"
        );
        assert_eq!(store.get(key), Lookup::Hit(b"payload".as_slice()));
        assert_eq!(store.get(key2), Lookup::Hit(b"two".as_slice()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_logs_see_their_own_writes_and_absorb_in_order() {
        let dir = temp_dir("shards");
        let mut store = CacheStore::open(&dir, 1).unwrap();
        let (ka, kb) = (fingerprint(&[b"a"]), fingerprint(&[b"b"]));

        let mut log1 = ShardLog::new();
        log1.record(ka, b"A".to_vec());
        assert_eq!(log1.get(ka), Some(b"A".as_slice()), "own write visible");
        log1.record(ka, b"IGNORED".to_vec());
        assert_eq!(log1.get(ka), Some(b"A".as_slice()), "first write wins");

        let mut log2 = ShardLog::new();
        log2.record(kb, b"B".to_vec());
        log2.record(ka, b"A".to_vec()); // duplicate across shards

        store.absorb(log1);
        store.absorb(log2);
        assert_eq!(store.get(ka), Lookup::Hit(b"A".as_slice()));
        assert_eq!(store.get(kb), Lookup::Hit(b"B".as_slice()));
        assert_eq!(
            store.stats().pending_entries,
            2,
            "cross-shard duplicate skipped"
        );
        store.flush().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_shard_log_leaves_no_trace() {
        let dir = temp_dir("dead-shard");
        let mut store = CacheStore::open(&dir, 1).unwrap();
        let key = fingerprint(&[b"dead"]);
        {
            let mut log = ShardLog::new();
            log.record(key, b"half-finished".to_vec());
            // The worker died: the log is dropped, never absorbed.
        }
        store.flush().unwrap();
        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(key), Lookup::Miss);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vacuum_compacts_stale_and_duplicates() {
        let dir = temp_dir("vacuum");
        let key = fingerprint(&[b"x"]);
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(key, b"old".to_vec());
        store.flush().unwrap();
        // Same key re-recorded at a newer version, plus a fresh key.
        let mut store = CacheStore::open(&dir, 2).unwrap();
        store.insert(key, b"new".to_vec());
        store.insert(fingerprint(&[b"y"]), b"why".to_vec());
        store.flush().unwrap();

        let mut store = CacheStore::open(&dir, 2).unwrap();
        assert_eq!(store.records_loaded, 3);
        let report = store.vacuum().unwrap();
        assert_eq!(report.kept, 2);
        assert!(report.bytes_after < report.bytes_before);

        let store = CacheStore::open(&dir, 2).unwrap();
        assert_eq!(store.get(key), Lookup::Hit(b"new".as_slice()));
        assert_eq!(store.stats().records_loaded, 2);
        assert_eq!(store.stats().stale_entries, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_integrity() {
        let dir = temp_dir("verify");
        assert_eq!(
            verify(&dir).unwrap(),
            VerifyReport::default(),
            "absent log is clean"
        );
        let mut store = CacheStore::open(&dir, 3).unwrap();
        store.insert(fingerprint(&[b"1"]), b"one".to_vec());
        store.insert(fingerprint(&[b"2"]), b"two".to_vec());
        store.flush().unwrap();

        let report = verify(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.valid_records, 2);
        assert_eq!(report.distinct_keys, 2);
        assert_eq!(report.versions.get(&3), Some(&2));

        // Flip a payload byte: framing intact, checksum broken.
        let log = dir.join("cache.log");
        let mut bytes = std::fs::read(&log).unwrap();
        let flip = MAGIC.len() + 16 + 4 + 8; // first payload byte
        bytes[flip] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();
        let report = verify(&dir).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.checksum_failures, 1);
        assert_eq!(report.valid_records, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_and_open_agree_on_a_cut_final_record() {
        let dir = temp_dir("cut-tail");
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(fingerprint(&[b"first"]), b"one".to_vec());
        store.insert(fingerprint(&[b"last"]), b"the final payload".to_vec());
        store.flush().unwrap();
        let log = store.log_path();
        let full = std::fs::read(&log).unwrap();
        let last_len = encode_record(fingerprint(&[b"last"]), 1, b"the final payload").len();
        let last_start = full.len() - last_len;
        for cut in last_start..full.len() {
            std::fs::write(&log, &full[..cut]).unwrap();
            let stats = CacheStore::open(&dir, 1).unwrap().stats();
            let report = verify(&dir).unwrap();
            assert_eq!(
                report.corrupt_tail_bytes, stats.corrupt_tail_bytes,
                "cut at byte {cut}"
            );
            assert_eq!(report.corrupt_tail_bytes, (cut - last_start) as u64);
            assert_eq!(report.valid_records, 1, "cut at byte {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absorb_replaces_a_payload_only_when_it_differs() {
        let dir = temp_dir("absorb-replace");
        let key = fingerprint(&[b"k"]);
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(key, b"undecodable".to_vec());
        store.flush().unwrap();

        let mut store = CacheStore::open(&dir, 1).unwrap();
        let mut same = ShardLog::new();
        same.record(key, b"undecodable".to_vec());
        store.absorb(same);
        assert_eq!(store.stats().pending_entries, 0, "equal payload skipped");
        let mut fixed = ShardLog::new();
        fixed.record(key, b"recomputed".to_vec());
        store.absorb(fixed);
        assert_eq!(store.get(key), Lookup::Hit(b"recomputed".as_slice()));
        assert_eq!(store.flush().unwrap(), 1);

        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(key), Lookup::Hit(b"recomputed".as_slice()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_hits_are_ranges_of_the_loaded_log() {
        let dir = temp_dir("shared");
        let (ka, kb) = (fingerprint(&[b"a"]), fingerprint(&[b"b"]));
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(ka, b"alpha".to_vec());
        store.insert(kb, b"beta".to_vec());
        store.flush().unwrap();

        let store = CacheStore::open(&dir, 1).unwrap();
        let (a, b) = (store.get_shared(ka).unwrap(), store.get_shared(kb).unwrap());
        assert!(Arc::ptr_eq(&a.buf, &b.buf), "one buffer for the whole log");
        assert_eq!(&**a, b"alpha");
        assert_eq!(&*a.slice(1..4), b"lph");
        assert_eq!(&*a.slice(1..4).slice(1..2), b"p");
        let kept = b.clone();
        drop(store);
        assert_eq!(&*kept, b"beta", "a handle outlives the store");
        assert!(CacheStore::open(&dir, 2).unwrap().get_shared(ka).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_record_fails_strict_open_and_heals_via_vacuum() {
        let dir = temp_dir("mid-corrupt");
        let (k1, k2, k3) = (
            fingerprint(&[b"first"]),
            fingerprint(&[b"second"]),
            fingerprint(&[b"third"]),
        );
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(k1, b"one".to_vec());
        store.insert(k2, b"two".to_vec());
        store.insert(k3, b"three".to_vec());
        store.flush().unwrap();
        let log = store.log_path();

        // Byte-flip the *middle* record's payload: framing stays
        // intact, the checksum fails, and records 1 and 3 stay valid.
        let mut bytes = std::fs::read(&log).unwrap();
        let rec1_len = encode_record(k1, 1, b"one").len();
        let flip = MAGIC.len() + rec1_len + 16 + 4 + 8; // key + version + len prefix
        bytes[flip] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();

        // Strict open refuses instead of silently dropping record 3.
        let err = match CacheStore::open(&dir, 1) {
            Err(err) => err,
            Ok(_) => panic!("strict open must fail on mid-log corruption"),
        };
        match &err {
            StoreError::CorruptRecord {
                offset,
                valid_before,
                valid_after,
            } => {
                assert_eq!(*offset, (MAGIC.len() + rec1_len) as u64);
                assert_eq!(*valid_before, 1);
                assert_eq!(*valid_after, 1);
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("cache verify"), "hint missing: {msg}");
        assert!(msg.contains("cache vacuum"), "hint missing: {msg}");

        // Tolerant open skips the bad record but keeps both neighbours.
        let mut store = CacheStore::open_tolerant(&dir, 1).unwrap();
        assert_eq!(store.get(k1), Lookup::Hit(b"one".as_slice()));
        assert_eq!(store.get(k2), Lookup::Miss, "corrupt record not indexed");
        assert_eq!(store.get(k3), Lookup::Hit(b"three".as_slice()));
        assert_eq!(store.stats().corrupt_records, 1);

        // Vacuum rewrites a clean log; strict open works again.
        let report = store.vacuum().unwrap();
        assert_eq!(report.kept, 2);
        assert_eq!(report.dropped_records, 1);
        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(k1), Lookup::Hit(b"one".as_slice()));
        assert_eq!(store.get(k3), Lookup::Hit(b"three".as_slice()));
        assert_eq!(store.stats().corrupt_records, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_final_record_is_still_tail_damage() {
        let dir = temp_dir("last-corrupt");
        let (k1, k2) = (fingerprint(&[b"keep"]), fingerprint(&[b"flip"]));
        let mut store = CacheStore::open(&dir, 1).unwrap();
        store.insert(k1, b"keep".to_vec());
        store.insert(k2, b"flip".to_vec());
        store.flush().unwrap();
        let log = store.log_path();
        let mut bytes = std::fs::read(&log).unwrap();
        let last = bytes.len() - 9; // inside the last record's payload/checksum
        bytes[last] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();

        // No valid record follows the damage, so this is the ordinary
        // corrupt-tail case: strict open succeeds and flush heals.
        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.get(k1), Lookup::Hit(b"keep".as_slice()));
        assert_eq!(store.get(k2), Lookup::Miss);
        assert!(store.stats().corrupt_tail_bytes > 0);
        assert_eq!(store.stats().corrupt_records, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn namespaces_are_isolated_logs_in_one_directory() {
        let dir = temp_dir("namespaces");
        let key = fingerprint(&[b"shared-key"]);
        let mut mine = CacheStore::open(&dir, 1).unwrap();
        let mut cluster = CacheStore::open_ns(&dir, 7, "cluster").unwrap();
        mine.insert(key, b"mining outcome".to_vec());
        cluster.insert(key, b"distance cell".to_vec());
        mine.flush().unwrap();
        cluster.flush().unwrap();
        assert_ne!(mine.log_path(), cluster.log_path());
        assert!(dir.join("cache.log").exists());
        assert!(dir.join("cluster.log").exists());

        // Same key, same dir, fully independent values and versions.
        let mine = CacheStore::open(&dir, 1).unwrap();
        let cluster = CacheStore::open_ns(&dir, 7, "cluster").unwrap();
        assert_eq!(mine.get(key), Lookup::Hit(b"mining outcome".as_slice()));
        assert_eq!(cluster.get(key), Lookup::Hit(b"distance cell".as_slice()));
        let other = CacheStore::open_ns(&dir, 8, "cluster").unwrap();
        assert_eq!(other.get(key), Lookup::StaleVersion);

        // Vacuuming one namespace leaves the other log untouched.
        let before = std::fs::read(dir.join("cache.log")).unwrap();
        CacheStore::open_ns(&dir, 7, "cluster")
            .unwrap()
            .vacuum()
            .unwrap();
        assert_eq!(std::fs::read(dir.join("cache.log")).unwrap(), before);

        // Per-namespace verify sees only its own log.
        let report = verify_ns(&dir, "cluster").unwrap();
        assert_eq!(report.valid_records, 1);
        assert_eq!(report.versions.get(&7), Some(&1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "cache namespace")]
    fn rejects_a_path_escaping_namespace() {
        let _ = CacheStore::open_ns(&temp_dir("bad-ns"), 1, "../evil");
    }

    #[test]
    fn foreign_file_is_treated_as_fully_corrupt() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("cache.log"), b"not a cache file at all").unwrap();
        let store = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(store.len(), 0);
        assert!(store.stats().corrupt_tail_bytes > 0);
        let report = verify(&dir).unwrap();
        assert!(!report.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
