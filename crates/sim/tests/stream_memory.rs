//! Pins a streamed run's heap to its chunk, not its instruction budget.
//!
//! This test binary installs a counting `#[global_allocator]` that
//! tracks the calling thread's live heap bytes and their high-water
//! mark. A streamed run ([`Simulator::run_streamed`]) holds one chunk of
//! trace, its task split and its decoded columns at a time, plus engine
//! state sized by the machine; so eight times the budget may not raise
//! the peak by more than the noise of where the chunks fall. A run that
//! held its whole trace, at 16–22 bytes per instruction, would add
//! about 30 MB at the longer budget.
//!
//! Counts are kept per thread: the harness runs tests on parallel
//! threads, and a process-wide counter would also see the sibling
//! test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ms_analysis::ProgramContext;
use ms_sim::{NullSink, SimConfig, Simulator};
use ms_tasksel::Strategy;

/// Forwards to the system allocator, tracking the calling thread's live
/// bytes and their peak.
struct Tracking;

thread_local! {
    // `const` initialisers with no destructor: touching them never
    // allocates, so the allocator may use them.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: pure pass-through to `System`; the counters have no effect
// on the returned memory.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static TRACKER: Tracking = Tracking;

/// Peak live heap bytes above the starting level while `f` runs.
fn peak_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let base = LIVE.get();
    PEAK.set(base);
    let out = f();
    ((PEAK.get() - base) as u64, out)
}

#[test]
fn streamed_peak_heap_does_not_grow_with_the_budget() {
    let program = ms_workloads::by_name("li").unwrap().build();
    let sel = Strategy::DataDependence.selector(4).select(&ProgramContext::new(program));
    let sim = Simulator::new(SimConfig::eight_pu(), &sel.program, &sel.partition);
    let run = |insts: usize| peak_during(|| sim.run_streamed(0x5eed, insts, &mut NullSink));

    let (short_peak, short) = run(250_000);
    let (long_peak, long) = run(2_000_000);
    assert!(short.total_insts >= 250_000 && long.total_insts >= 2_000_000, "budgets are spent");
    assert!(
        long_peak * 10 <= short_peak * 11,
        "peak heap grew with the budget: {short_peak} B at {} insts, {long_peak} B at {} insts",
        short.total_insts,
        long.total_insts
    );
}
