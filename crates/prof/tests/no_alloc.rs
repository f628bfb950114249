//! Pins the disabled-profiler guarantee: with no collector enabled, the
//! span and registry entry points perform **zero heap allocations** —
//! instrumented library hot paths (the simulation loop included) pay
//! only a thread-local check. Mirrors the `NullSink` guarantee from the
//! sim crate's event tracing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The allocation counter is process-global, so tests that measure a
/// quiet window must not overlap tests that allocate on purpose (the
/// harness runs tests on parallel threads). Every test below holds
/// this lock around its measured section.
static MEASURE: Mutex<()> = Mutex::new(());

/// The system allocator with a global allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic with no further side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Takes the measurement lock even if a sibling test panicked while
/// holding it — a poisoned gate would turn one failure into three.
fn gate() -> MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The cleanest (minimum) allocation count over a few measured windows.
/// The counter is process-global and the harness runs other tests on
/// sibling threads whose bookkeeping (thread spawn, result channels)
/// allocates outside [`MEASURE`], so a single window can pick up stray
/// counts. One quiet window proves the measured path itself is
/// allocation-free; a real hot-path allocation shows up in *every*
/// window, ten-thousand-fold, and no number of retries can hide it.
fn min_allocs_over_windows(f: impl Fn()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = allocs();
        f();
        best = best.min(allocs() - before);
        if best == 0 {
            break;
        }
    }
    best
}

#[test]
fn disabled_profiling_allocates_nothing() {
    // Touch the thread-local slots once so lazy TLS initialisation is
    // not charged to the measured loop.
    assert!(!ms_prof::is_enabled());
    drop(ms_prof::span("warmup"));
    ms_prof::counter_add("warmup", 1);

    let _gate = gate();
    let counted = min_allocs_over_windows(|| {
        for i in 0..10_000u64 {
            let s = ms_prof::span("hot");
            s.add_items(i);
            ms_prof::counter_add("hot.counter", i);
            drop(s);
        }
    });
    assert_eq!(counted, 0, "disabled span/registry calls must not allocate");
}

#[test]
fn enabled_profiling_does_allocate_so_the_counter_works() {
    // Sanity-check the measurement itself: the enabled path must be
    // visible to the counting allocator, otherwise the test above
    // proves nothing.
    let _gate = gate();
    ms_prof::enable();
    let before = allocs();
    drop(ms_prof::span("live"));
    let after = allocs();
    assert!(after > before, "enabled spans allocate; counter saw {}", after - before);
    ms_prof::disable();
}
