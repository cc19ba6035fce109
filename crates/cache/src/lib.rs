//! # cache — persistent, content-addressed result cache
//!
//! Mining is inherently incremental: the per-change pipeline
//! (lex → parse → abstract interpretation → DAG diff) is a pure
//! function of the two file versions and the pipeline configuration,
//! so its outcome can be reused across runs instead of recomputed.
//! This crate provides the storage layer for that reuse; the pipeline
//! crate decides what goes into a key and what a payload means.
//!
//! Three layers, bottom up:
//!
//! 1. [`Fingerprint`] — a 128-bit FNV-1a content hash over
//!    length-delimited parts ([`fingerprint`]). Collisions at 128 bits
//!    are negligible for corpus-scale key counts, and the hash is
//!    stable across platforms and runs (unlike `DefaultHasher`);
//!    [`Fingerprinter`] computes the same hash one part at a time.
//! 2. [`wire`] — a tiny binary codec of fixed-width integers,
//!    length-prefixed strings and LEB128 varints
//!    ([`wire::Writer`]/[`wire::Reader`]) used both for the store's
//!    on-disk records and by callers to serialize payloads. Typed
//!    [`wire::WireError`]s, never panics on malformed input.
//! 3. [`CacheStore`] — an append-only log of
//!    `(key, version, payload, checksum)` records under a cache
//!    directory, read into one buffer and indexed by payload range on
//!    open ([`SharedBytes`] hands a hit out without copying). Writes
//!    accumulate in memory ([`CacheStore::insert`] or a per-shard
//!    [`ShardLog`] absorbed on join) and hit disk only on
//!    [`CacheStore::flush`] — nothing on the hot path takes a lock or
//!    touches the filesystem.
//!
//! Versioning: every record carries the *analysis version* the caller
//! opened the store with. A lookup that finds bytes written under a
//! different version reports [`Lookup::StaleVersion`] instead of a hit,
//! so bumping the version invalidates every existing entry without
//! touching the file. [`CacheStore::vacuum`] rewrites the log to drop
//! stale and superseded records; [`verify_ns`] checks record integrity
//! without loading payloads into an index.
//!
//! # Example
//!
//! ```
//! use cache::{fingerprint, CacheStore, Lookup};
//!
//! let dir = std::env::temp_dir().join(format!("cache-doc-{}", std::process::id()));
//! let key = fingerprint(&[b"old source", b"new source", b"config"]);
//! let mut store = CacheStore::open(&dir, 1).unwrap();
//! assert!(matches!(store.get(key), Lookup::Miss));
//! store.insert(key, b"outcome".to_vec());
//! assert!(matches!(store.get(key), Lookup::Hit(b) if b == b"outcome"));
//! store.flush().unwrap();
//!
//! // A later run under a bumped analysis version sees stale entries.
//! let store = CacheStore::open(&dir, 2).unwrap();
//! assert!(matches!(store.get(key), Lookup::StaleVersion));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

mod fingerprint;
mod store;
pub mod wire;

pub use fingerprint::{fingerprint, fingerprint_str, Fingerprint, Fingerprinter};
pub use store::{
    log_name, verify_ns, CacheStats, CacheStore, Lookup, ShardLog, SharedBytes, StoreError,
    VacuumReport, VerifyReport,
};
