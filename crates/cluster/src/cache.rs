//! Memoized label similarity over interned labels.
//!
//! The corpus re-uses a small vocabulary of DAG labels (`Cipher`,
//! `getInstance`, `arg1:AES/CBC/PKCS5Padding`, …) across thousands of
//! usage changes, so during a distance-matrix build the same label
//! pair is compared many times. [`LabelCache`] interns each label once
//! (classifying it into edit-distance units at intern time) and
//! memoizes the Levenshtein similarity ratio per unordered id pair, so
//! each distinct pair is computed exactly once no matter how many
//! paths mention it. The cache is `Sync` and is shared across the
//! worker threads of [`DistanceMatrix::from_fn`](crate::DistanceMatrix::from_fn).

use crate::lev::{classify, units_similarity, LabelUnits};
use std::collections::HashMap;
use std::sync::RwLock;

/// Number of label ids the `u32` id space can hold. Interning past
/// this would wrap ids and make [`pack`] collide distinct pairs —
/// silently returning the wrong memoized similarity — so the cache
/// fails closed instead (see [`LabelCache::similarity`]).
const ID_SPACE: u64 = 1 << 32;

/// An interning, memoizing wrapper around
/// [`label_similarity`](crate::label_similarity).
///
/// # Example
///
/// ```
/// let cache = cluster::LabelCache::default();
/// let direct = cluster::label_similarity("arg1:AES/ECB", "arg1:AES/CBC");
/// assert_eq!(cache.similarity("arg1:AES/ECB", "arg1:AES/CBC"), direct);
/// // The second lookup is a memo hit.
/// assert_eq!(cache.similarity("arg1:AES/CBC", "arg1:AES/ECB"), direct);
/// ```
#[derive(Debug)]
pub struct LabelCache {
    interner: RwLock<Interner>,
    memo: RwLock<HashMap<u64, f64>>,
    /// Exclusive cap on assignable label ids — [`ID_SPACE`] in
    /// production, lowered only through [`LabelCache::with_id_cap`] so
    /// the exhaustion behavior is testable without 2³² inserts.
    id_cap: u64,
}

impl Default for LabelCache {
    fn default() -> Self {
        LabelCache::with_id_cap(ID_SPACE)
    }
}

#[derive(Debug, Default)]
struct Interner {
    ids: HashMap<String, u32>,
    /// Classification of each interned label, indexed by id.
    units: Vec<LabelUnits>,
}

impl LabelCache {
    /// A cache whose id space is capped at `id_cap` distinct labels
    /// (clamped to the real `u32` id space). This is the test seam for
    /// the exhaustion path: production code uses
    /// [`LabelCache::default`], which caps at 2³².
    #[must_use]
    pub(crate) fn with_id_cap(id_cap: u64) -> LabelCache {
        LabelCache {
            interner: RwLock::new(Interner::default()),
            memo: RwLock::new(HashMap::new()),
            id_cap: id_cap.min(ID_SPACE),
        }
    }

    /// The memoized similarity ratio — identical to
    /// [`label_similarity`](crate::label_similarity) on the same pair.
    ///
    /// # Panics
    ///
    /// If interning would exceed the `u32` label-id space (2³²
    /// distinct labels, or the `LabelCache::with_id_cap` test cap).
    /// Wrapped ids would collide memoized pairs and silently return
    /// wrong similarities, so the cache fails closed instead; no real
    /// corpus comes near the cap.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        if a == b {
            return 1.0;
        }
        let ia = self.intern(a);
        let ib = self.intern(b);
        let key = pack(ia, ib);
        if let Some(&hit) = self.memo.read().expect("memo lock").get(&key) {
            return hit;
        }
        let computed = {
            let interner = self.interner.read().expect("interner lock");
            units_similarity(&interner.units[ia as usize], &interner.units[ib as usize])
        };
        self.memo.write().expect("memo lock").insert(key, computed);
        computed
    }

    fn intern(&self, label: &str) -> u32 {
        if let Some(&id) = self.interner.read().expect("interner lock").ids.get(label) {
            return id;
        }
        let mut interner = self.interner.write().expect("interner lock");
        // Another thread may have interned it between the locks.
        if let Some(&id) = interner.ids.get(label) {
            return id;
        }
        // Fail closed at the id-space boundary: a wrapped id would make
        // `pack` collide distinct pairs and return wrong similarities.
        let next = interner.units.len() as u64;
        assert!(
            next < self.id_cap,
            "label interner exhausted its id space ({next} distinct labels): \
             refusing to wrap u32 ids and corrupt memoized similarities"
        );
        #[allow(clippy::cast_possible_truncation)] // next < id_cap ≤ 2³²
        let id = next as u32;
        interner.units.push(classify(label));
        interner.ids.insert(label.to_owned(), id);
        id
    }

    /// Every memoized pair as `(label_a, label_b, similarity)`, sorted
    /// by label pair for a deterministic snapshot. This is the
    /// persistence export used by the cluster cache;
    /// [`LabelCache::preload`] is its inverse.
    #[must_use]
    pub fn memo_entries(&self) -> Vec<(String, String, f64)> {
        let interner = self.interner.read().expect("interner lock");
        // Reverse map: id → label.
        let mut labels: Vec<&str> = vec![""; interner.units.len()];
        for (label, &id) in &interner.ids {
            labels[id as usize] = label;
        }
        let memo = self.memo.read().expect("memo lock");
        let mut out: Vec<(String, String, f64)> = memo
            .iter()
            .map(|(&key, &sim)| {
                let x = labels[(key >> 32) as usize];
                let y = labels[(key & u64::from(u32::MAX)) as usize];
                // Canonicalize lexicographically: `pack` orders by
                // intern id, which differs between cache instances.
                let (a, b) = if x <= y { (x, y) } else { (y, x) };
                (a.to_owned(), b.to_owned(), sim)
            })
            .collect();
        out.sort_by(|x, y| (&x.0, &x.1).cmp(&(&y.0, &y.1)));
        out
    }

    /// Seeds the memo with a previously computed similarity (the
    /// persistence import). A seeded value short-circuits exactly like
    /// a locally memoized one, so preloading values produced by
    /// [`LabelCache::memo_entries`] leaves every later
    /// [`LabelCache::similarity`] call bit-identical to a cold run.
    pub fn preload(&self, a: &str, b: &str, sim: f64) {
        if a == b {
            return; // equal labels never touch the memo
        }
        let key = pack(self.intern(a), self.intern(b));
        self.memo
            .write()
            .expect("memo lock")
            .entry(key)
            .or_insert(sim);
    }
}

/// Packs an unordered id pair into one map key.
fn pack(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    (u64::from(lo) << 32) | u64::from(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label_similarity;

    impl LabelCache {
        /// Number of distinct labels interned so far.
        fn interned_labels(&self) -> usize {
            self.interner.read().expect("interner lock").units.len()
        }

        /// Number of distinct label pairs memoized so far (also read by
        /// `dist`'s tests).
        pub(crate) fn memoized_pairs(&self) -> usize {
            self.memo.read().expect("memo lock").len()
        }
    }

    #[test]
    fn agrees_with_uncached_similarity() {
        let cache = LabelCache::default();
        let labels = [
            "getInstance",
            "init",
            "arg1:AES/ECB/PKCS5Padding",
            "arg1:AES/CBC/PKCS5Padding",
            "arg1:ENCRYPT_MODE",
            "arg3:100",
            "arg1:constbyte[]",
            "Cipher",
        ];
        for a in labels {
            for b in labels {
                assert_eq!(cache.similarity(a, b), label_similarity(a, b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn memoizes_each_unordered_pair_once() {
        let cache = LabelCache::default();
        cache.similarity("arg1:AES/ECB", "arg1:AES/CBC");
        cache.similarity("arg1:AES/CBC", "arg1:AES/ECB"); // same pair, swapped
        cache.similarity("arg1:AES/ECB", "arg1:AES/GCM");
        assert_eq!(cache.interned_labels(), 3);
        assert_eq!(cache.memoized_pairs(), 2);
        // Equal labels short-circuit without touching the cache.
        cache.similarity("arg1:AES/ECB", "arg1:AES/ECB");
        assert_eq!(cache.memoized_pairs(), 2);
    }

    #[test]
    fn fills_exactly_up_to_the_id_cap() {
        let cache = LabelCache::with_id_cap(3);
        assert_eq!(cache.similarity("a", "b"), label_similarity("a", "b"));
        assert_eq!(cache.similarity("a", "c"), label_similarity("a", "c"));
        assert_eq!(cache.interned_labels(), 3);
        // Re-using already-interned labels stays fine at the cap.
        assert_eq!(cache.similarity("b", "c"), label_similarity("b", "c"));
    }

    #[test]
    #[should_panic(expected = "label interner exhausted its id space")]
    fn fails_closed_when_the_id_space_is_exhausted() {
        let cache = LabelCache::with_id_cap(3);
        cache.similarity("a", "b");
        cache.similarity("c", "d"); // "d" would need id 3 — refuse
    }

    #[test]
    fn memo_entries_round_trip_through_preload() {
        let cache = LabelCache::default();
        cache.similarity("arg1:AES/ECB", "arg1:AES/CBC");
        cache.similarity("arg1:AES/GCM", "arg1:AES/CBC");
        let entries = cache.memo_entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.windows(2).all(|w| w[0] <= w[1]), "sorted snapshot");

        let warm = LabelCache::default();
        for (a, b, sim) in &entries {
            warm.preload(a, b, *sim);
        }
        assert_eq!(warm.memoized_pairs(), 2);
        assert_eq!(warm.memo_entries(), entries);
        // Preloaded values short-circuit identically to computed ones.
        assert_eq!(
            warm.similarity("arg1:AES/ECB", "arg1:AES/CBC"),
            cache.similarity("arg1:AES/ECB", "arg1:AES/CBC"),
        );
    }

    #[test]
    fn shared_across_threads() {
        let cache = LabelCache::default();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..20 {
                        let a = format!("arg1:AES/MODE{}", i % 5);
                        let b = format!("arg1:AES/MODE{}", (i + t) % 5);
                        let got = cache.similarity(&a, &b);
                        assert_eq!(got, label_similarity(&a, &b));
                    }
                });
            }
        });
        assert_eq!(cache.interned_labels(), 5);
        assert!(cache.memoized_pairs() <= 10);
    }
}
