//! Pins the peak heap of a cold `diffcode mine` through a result cache.
//!
//! A cold run parses and analyzes every source text and records every
//! outcome into the cache's shard log. What it needs to keep while it
//! mines is small: the analyses and per-class DAG lists of the texts
//! that later changes still use, and each mined tuple's DAG pair once,
//! as the bytes its cache record holds. A counting global allocator
//! that tracks live bytes makes that a hard invariant: keeping every
//! analysis until the run ends, holding each computed DAG pair both
//! owned and encoded, or growing each recorded payload by doubling adds
//! kilobytes per code change and fails the budget below.

use diffcode::cli::{run_mine, FunnelOptions, MineSource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: delegates verbatim to `System`; the counters are relaxed
// atomics with no further invariants.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Counting::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                Counting::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Peak live heap bytes a cold cached `run_mine` may add per code change
/// (`mine.code_changes`), everything included: corpus generation,
/// mining, the shard log, filtering, clustering, digest and report.
///
/// Measured at 5.2 KiB for seed 1000 / 40 projects. Keeping every
/// analysis in a content memo until the run ended, holding each
/// computed DAG pair both owned and encoded, and growing each recorded
/// payload by doubling made it 11.0 KiB. The budget sits between.
const COLD_PEAK_BYTES_PER_CODE_CHANGE: usize = 8 * 1024;

/// A per-process temp dir, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// One test function on purpose: the counters are global to the
// process, so concurrently running tests in this binary would count
// each other's allocations.
#[test]
fn cold_mine_peak_heap_stays_within_budget_per_code_change() {
    let dir = TempDir(
        std::env::temp_dir().join(format!("diffcode-alloc-cold-funnel-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    let source = MineSource::Seeded {
        seed: 1000,
        n_projects: 40,
    };
    let opts = |run: &str| FunnelOptions {
        threads: 1,
        cache_dir: Some(dir.0.join(run).join("mining")),
        cluster_cache_dir: Some(dir.0.join(run).join("cluster")),
        ..FunnelOptions::default()
    };
    // A first cold run settles lazily built process state (interned
    // labels, thread-locals), which the measured run then shares.
    let (first, _) = run_mine(&source, &opts("first")).expect("first cold mine");

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let (report, funnel) = run_mine(&source, &opts("measured")).expect("cold mine");
    let peak = PEAK.load(Ordering::Relaxed) - base;

    assert_eq!(report, first, "two cold runs print the same");
    let registry = &funnel.recorder;
    let code_changes = registry.counter("mine.code_changes") as usize;
    assert!(code_changes > 1000, "{code_changes} code changes");
    assert_eq!(
        registry.counter("cache.miss") as usize,
        code_changes,
        "the measured run is not cold"
    );
    let per_change = peak / code_changes;
    assert!(
        per_change <= COLD_PEAK_BYTES_PER_CODE_CHANGE,
        "a cold mine peaked at {peak} live heap bytes over {code_changes} code changes \
         ({per_change} each), budget is {COLD_PEAK_BYTES_PER_CODE_CHANGE} — is an analysis \
         kept past its last use, or a computed DAG pair kept both owned and encoded?"
    );
}
