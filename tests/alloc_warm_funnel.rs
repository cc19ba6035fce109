//! Pins the allocation cost of a fully warm `diffcode mine`.
//!
//! A warm re-run replays every mined tuple from the result cache and
//! every distance cell from the cluster cache, so what is left is
//! validating the cached outcomes and walking the mined result: filter,
//! digest and report. Each of those walks should touch a tuple without
//! copying it — a replayed tuple keeps its DAG pair encoded in the
//! shared cache payload and shares its code change's provenance, the
//! filters clone only their few survivors, and the result digest reads
//! replayed DAG text from the payload through one reused buffer. A
//! counting global allocator makes that a hard invariant: a replay that
//! decodes every DAG again, or a walk that clones every tuple, adds
//! tens of allocations per tuple and fails the budget below.

use diffcode::cli::{run_mine, FunnelOptions, MineSource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: delegates verbatim to `System`; the counter is a relaxed
// atomic with no further invariants.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations a fully warm `run_mine` may make per mined usage change
/// (`mine.usage_changes`), everything included: corpus generation,
/// cache replay and decode, filtering, clustering, digest and report.
///
/// Measured at 16.9 for seed 1000 / 40 projects. Rendering each file
/// version of the corpus twice — as one commit's new text and again as
/// the next commit's old text — and cloning every version of every file
/// to find each project's head files made it 24.0; decoding every replayed
/// DAG pair and giving each tuple its own copy of the provenance
/// strings made it 90; also copying every tuple before filtering and
/// rendering every DAG path into its own string for the digest made it
/// 161. The budget sits below 24.
const WARM_ALLOCS_PER_USAGE_CHANGE: f64 = 21.0;

/// A per-process temp dir, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// One test function on purpose: the allocation counter is global to
// the process, so concurrently running tests in this binary would
// count each other's allocations.
#[test]
fn warm_mine_allocates_within_budget_per_usage_change() {
    let dir = TempDir(
        std::env::temp_dir().join(format!("diffcode-alloc-warm-funnel-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    let source = MineSource::Seeded {
        seed: 1000,
        n_projects: 40,
    };
    let opts = FunnelOptions {
        threads: 1,
        cache_dir: Some(dir.0.join("mining")),
        cluster_cache_dir: Some(dir.0.join("cluster")),
        ..FunnelOptions::default()
    };
    // Prime both caches; the second run also settles lazily built
    // process state (interned labels, thread-locals).
    let (cold, _) = run_mine(&source, &opts).expect("cold mine");
    let (warm, _) = run_mine(&source, &opts).expect("first warm mine");
    assert_eq!(cold, warm, "warm output must equal cold");

    let before = ALLOCS.load(Ordering::Relaxed);
    let (report, funnel) = run_mine(&source, &opts).expect("warm mine");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(report, cold);
    let registry = &funnel.recorder;
    assert_eq!(registry.counter("cache.miss"), 0, "mining cache not warm");
    assert_eq!(
        registry.counter("cluster.cache.miss"),
        0,
        "cluster cache not warm"
    );
    let usage_changes = registry.counter("mine.usage_changes");
    assert!(usage_changes > 1000, "{usage_changes} usage changes");
    let per_change = allocs as f64 / usage_changes as f64;
    assert!(
        per_change <= WARM_ALLOCS_PER_USAGE_CHANGE,
        "a warm mine made {allocs} allocations for {usage_changes} usage changes \
         ({per_change:.1} each), budget is {WARM_ALLOCS_PER_USAGE_CHANGE} — is a \
         whole-result pass copying tuples or rendering paths one string at a time?"
    );
}
