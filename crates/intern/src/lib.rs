//! Thread-local string interning.
//!
//! The mining front end repeats the same short strings millions of
//! times: identifiers (`enc`, `algorithm`), type names (`Cipher`),
//! string literals (`"AES"`), and DAG labels (`arg1:AES`). Owning a
//! fresh `String` per occurrence makes the allocator the hottest
//! "stage" of a cold mine. Interning replaces each occurrence with a
//! shared [`Sym`] (`Arc<str>`): the first sighting per thread
//! allocates, every later one is a hash probe plus a refcount bump.
//!
//! Symbols are plain `Arc<str>`, so they compare, order, and hash by
//! *content* — interning changes no observable ordering (`BTreeMap` /
//! `BTreeSet` iteration, and therefore every digest and golden output,
//! is byte-identical to owned strings). `Arc` rather than `Rc` because
//! mining results cross the pipeline's shard-thread joins.
//!
//! The pool is thread-local: no locks on the hot path, and each mining
//! shard warms its own pool. A capacity cap bounds memory on
//! adversarial input (millions of distinct identifiers): when the pool
//! is full it is cleared, not grown — interning degrades to plain
//! allocation, never fails.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

/// An interned string: shared, immutable, compared by content.
pub type Sym = Arc<str>;

/// Pool entries are dropped (not grown past) this bound; see module
/// docs. 64k symbols of realistic identifier length is a few MiB per
/// thread, far above what real Java corpora produce.
const MAX_POOL: usize = 1 << 16;

/// Word-at-a-time mixing hasher (FxHash-style). `HashSet`'s default
/// SipHash costs more than the allocation interning avoids, and
/// byte-at-a-time FNV still showed up in profiles: every identifier
/// occurrence in a parse pays one hash here, so the pool hashes
/// two-to-sixteen-byte keys in one or two 8-byte steps instead of one
/// step per byte. Not exposed anywhere — symbol identity is by
/// content, so the hash function is a pure implementation detail.
struct FxWords(u64);

impl Default for FxWords {
    fn default() -> Self {
        FxWords(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FxWords {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = (h.rotate_left(5) ^ word).wrapping_mul(SEED);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            h = (h.rotate_left(5) ^ u64::from_le_bytes(buf)).wrapping_mul(SEED);
        }
        // `str`'s `Hash` impl appends a length terminator byte, so
        // prefix pairs ("ab" / "ab\0") already hash distinctly.
        self.0 = h;
    }
}

/// Zero-sized [`BuildHasher`] for [`FxWords`]; a unit struct (unlike
/// `BuildHasherDefault`) is constructible in `const` context, which
/// keeps the pool's `thread_local!` on the cheap const-initialised
/// access path — no lazy-init branch per [`intern`] call.
#[derive(Clone, Copy, Default)]
struct FxBuild;

impl BuildHasher for FxBuild {
    type Hasher = FxWords;

    fn build_hasher(&self) -> FxWords {
        FxWords::default()
    }
}

thread_local! {
    static POOL: RefCell<HashSet<Sym, FxBuild>> =
        const { RefCell::new(HashSet::with_hasher(FxBuild)) };
}

/// Returns the shared symbol for `s`, allocating only on first sight
/// per thread.
#[inline]
pub fn intern(s: &str) -> Sym {
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if let Some(hit) = pool.get(s) {
            return hit.clone();
        }
        if pool.len() >= MAX_POOL {
            pool.clear();
        }
        let sym: Sym = Arc::from(s);
        pool.insert(sym.clone());
        sym
    })
}

/// [`intern`] for an owned string, reusing nothing but avoiding a
/// second scan of the bytes on a pool hit.
#[inline]
pub fn intern_owned(s: String) -> Sym {
    intern(&s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of symbols in this thread's pool.
    fn pool_len() -> usize {
        POOL.with(|pool| pool.borrow().len())
    }

    #[test]
    fn same_content_shares_storage() {
        let a = intern("Cipher");
        let b = intern(&String::from("Cipher"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&*a, "Cipher");
    }

    #[test]
    fn distinct_content_is_distinct() {
        assert_ne!(intern("enc"), intern("dec"));
    }

    #[test]
    fn second_sighting_does_not_grow_pool() {
        let before = {
            intern("warm-pool-probe");
            pool_len()
        };
        intern("warm-pool-probe");
        assert_eq!(pool_len(), before);
    }

    #[test]
    fn symbols_survive_pool_clear() {
        // Symbols are plain Arcs: clearing the pool only drops the
        // pool's own references.
        let sym = intern("survivor");
        POOL.with(|pool| pool.borrow_mut().clear());
        assert_eq!(&*sym, "survivor");
        // Re-interning after a clear re-allocates but stays equal.
        assert_eq!(intern("survivor"), sym);
    }

    #[test]
    fn empty_string_interns() {
        assert_eq!(&*intern(""), "");
    }
}
