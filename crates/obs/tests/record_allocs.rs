//! Pins that recording allocates nothing for a name already seen.
//!
//! Every mined change increments counters and closes several spans, and
//! every served request records two latency histograms. A counting
//! global allocator makes the hot record path's cost a hard invariant:
//! a counter that copies its name into a fresh key on each increment,
//! or a span that allocates on each close, fails the zero below.

use obs::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

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

// One test function on purpose: the allocation counter is global to
// the process, and a second test running in parallel would add its
// own allocations to the count.
#[test]
fn recording_a_seen_name_allocates_nothing() {
    let mut rec = Recorder::new();
    // First sightings allocate each name's key. A histogram also grows
    // once to the highest bucket it has hit, so each span's first
    // sample is an hour: no sample in the loop can reach a new bucket.
    rec.inc("analyze.cache_hit", 1);
    rec.set_gauge("serve.queue_depth", 1.0);
    rec.record_span("serve.request", Duration::from_secs(3_600));
    rec.record_span("mine.change", Duration::from_secs(3_600));
    let span = rec.begin("mine.change");
    rec.end(span);

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..1_000u64 {
        rec.inc("analyze.cache_hit", 1);
        rec.set_gauge("serve.queue_depth", i as f64);
        rec.record_span("serve.request", Duration::from_nanos(1_000 + i));
        let span = rec.begin("mine.change");
        rec.end(span);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(allocs, 0, "recording seen names allocated {allocs} time(s)");
    assert_eq!(rec.counter("analyze.cache_hit"), 1_001);
    assert_eq!(rec.span("serve.request").map(|h| h.count()), Some(1_001));
    assert_eq!(rec.span("mine.change").map(|h| h.count()), Some(1_002));

    // A traced event with attributes, shaped like a served request's
    // `serve.access`: eight attributes, four of them strings. Warming
    // with 1 025 events interns the names and grows the trace's event
    // list to 2 048, so the 1 000 measured below never regrow it.
    let mut traced = Recorder::traced(1);
    let (method, path, endpoint, outcome) = ("POST", "/mine", "mine", "ok");
    let access = |rec: &mut Recorder, i: u64| {
        rec.instant_with("serve.access", |a| {
            a.u64("request_id", i)
                .str("method", method)
                .str("path", path)
                .str("endpoint", endpoint)
                .u64("status", 200)
                .u64("latency_ns", 1_000 + i)
                .u64("bytes", 64)
                .str("outcome", outcome);
        });
    };
    for i in 0..1_025 {
        access(&mut traced, i);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..1_000 {
        access(&mut traced, i);
    }
    let per_event = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / 1_000.0;
    // Per event: the four string values and the attribute list growing
    // to four, then eight entries; the event keeps that allocation for
    // its interned list. No key is copied: each is a `'static` literal,
    // interned by reference (copying the keys made it 14).
    assert_eq!(
        per_event, 6.0,
        "a traced access event allocated {per_event} time(s)"
    );
    assert_eq!(traced.trace().map(|t| t.len()), Some(2_025));
}
