//! Pins the engine's hot loop allocation-free in steady state.
//!
//! This test binary installs a counting `#[global_allocator]` and
//! measures the allocations made *inside* [`Simulator::run_image`] for
//! the same program at two trace lengths, and inside the streamed
//! [`Simulator::run_streamed`] at two budgets of several chunks each. Everything the engine
//! allocates is front-loaded into engine construction (scratch sized
//! from the [`ProgramImage`] and [`SimConfig`]), so the count may depend
//! on the image's task count — but it must not scale with the
//! instructions simulated: quadrupling the trace may add at most a
//! handful of allocations (amortised `Vec` growth of per-task scratch),
//! never a per-instruction or per-cycle term.
//!
//! Counts are kept per thread: the harness runs tests on parallel
//! threads, and a process-wide counter would also see the sibling
//! test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ms_analysis::ProgramContext;
use ms_sim::{NullSink, ProgramImage, SimConfig, Simulator};
use ms_tasksel::{Selection, SelectorBuilder, Strategy};
use ms_trace::TraceGenerator;

/// Forwards to the system allocator, counting the calling thread's
/// calls and bytes.
struct Counting;

/// Requests of at least this many bytes count as large.
const LARGE: usize = 4096;

thread_local! {
    // `const` initialisers with no destructor: touching them never
    // allocates, so the allocator may use them.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    if bytes >= LARGE {
        let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: pure pass-through to `System`; the counters have no effect
// on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// (allocation calls, bytes requested) on this thread during `f`.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (a0, b0) = (ALLOCS.get(), BYTES.get());
    let out = f();
    (ALLOCS.get() - a0, BYTES.get() - b0, out)
}

fn selection() -> Selection {
    let program = ms_workloads::by_name("compress").unwrap().build();
    SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(program))
}

/// Allocations inside `cells` back-to-back runs of the four-PU config
/// over one shared image of an `insts`-long trace of `sel`.
fn run_allocs(sel: &Selection, insts: usize, cells: usize) -> (u64, u64, u64) {
    let trace = TraceGenerator::new(&sel.program, 7).generate(insts);
    let image = ProgramImage::new(&sel.program, &sel.partition, &trace);
    let sim = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition);
    let (allocs, bytes, total_insts) = counted(|| {
        (0..cells).map(|_| sim.run_image(&image, &mut NullSink).total_insts).sum::<u64>()
    });
    assert!(total_insts > 0, "simulation actually ran");
    (allocs, bytes, total_insts)
}

#[test]
fn hot_loop_is_allocation_free_in_steady_state() {
    let sel = selection();
    // Warm-up run so one-time lazy state (prof registry, etc.) is paid
    // before anything is counted.
    let _ = run_allocs(&sel, 2_000, 1);

    let (small_allocs, small_bytes, small_insts) = run_allocs(&sel, 10_000, 2);
    let (large_allocs, large_bytes, large_insts) = run_allocs(&sel, 40_000, 2);
    assert!(
        large_insts > small_insts * 2,
        "trace lengths diverged: {small_insts} vs {large_insts}"
    );

    // 4x the instructions must not mean 4x the allocations: the only
    // growth allowed is amortised doubling of per-task scratch vectors,
    // a handful of reallocs — not a per-instruction term (which would
    // show up as tens of thousands here).
    let delta = large_allocs.saturating_sub(small_allocs);
    assert!(
        delta <= 16,
        "hot loop allocates per instruction: \
         {small_allocs} allocs at {small_insts} insts -> \
         {large_allocs} allocs at {large_insts} insts (delta {delta})"
    );
    // Scratch *bytes* may scale with the image's task count (per-task
    // columns, about one byte per instruction), but nothing may scale
    // with the trace's instructions or cycles: a per-PU array indexed by
    // cycle costs two bytes per PU per instruction, and a leaky hot loop
    // kilobytes.
    let extra_insts = large_insts - small_insts;
    let delta_bytes = large_bytes.saturating_sub(small_bytes);
    assert!(
        delta_bytes <= extra_insts * 4,
        "runs allocated {delta_bytes} extra bytes for {extra_insts} extra insts"
    );
}

/// Allocations inside one streamed four-PU run of `insts` from `sel`:
/// trace generation, splitting and decoding included.
fn streamed_allocs(sel: &Selection, insts: usize) -> (u64, u64, u64) {
    let sim = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition);
    let (allocs, bytes, stats) = counted(|| sim.run_streamed(7, insts, &mut NullSink));
    (allocs, bytes, stats.total_insts)
}

#[test]
fn streamed_runs_allocate_per_chunk_buffers_once() {
    let sel = selection();
    let _ = streamed_allocs(&sel, 2_000);

    // Two chunks against eight: the chunk buffers, the task split and
    // the decoded columns are reused chunk to chunk, so the extra chunks
    // may only top up capacity a few times.
    let (small_allocs, small_bytes, small_insts) = streamed_allocs(&sel, 150_000);
    let (large_allocs, large_bytes, large_insts) = streamed_allocs(&sel, 600_000);
    assert!(small_insts >= 150_000 && large_insts >= 600_000, "budgets are spent");
    let delta = large_allocs.saturating_sub(small_allocs);
    assert!(
        delta <= 16,
        "streamed runs allocate per chunk: {small_allocs} allocs at {small_insts} insts -> \
         {large_allocs} allocs at {large_insts} insts (delta {delta})"
    );
    // Nothing may scale with the budget: no per-task column outlives its
    // chunk, and no chunk buffer is reallocated from scratch.
    let delta_bytes = large_bytes.saturating_sub(small_bytes);
    assert!(
        delta_bytes <= small_bytes / 4,
        "4x the budget requested {delta_bytes} more bytes (of {small_bytes})"
    );
}

#[test]
fn run_allocations_are_deterministic() {
    // Two identical runs must allocate identically — the hot loop has
    // no load-dependent allocation path (hash-map growth, overflow
    // spill) that only some inputs trigger.
    let sel = selection();
    let _ = run_allocs(&sel, 2_000, 1);
    let (a1, b1, _) = run_allocs(&sel, 20_000, 3);
    let (a2, b2, _) = run_allocs(&sel, 20_000, 3);
    assert_eq!((a1, b1), (a2, b2), "allocation profile is run-to-run stable");
}

#[test]
fn a_further_run_reuses_the_engine_state() {
    // An engine takes over the predictor tables, cache ways, store
    // filter, ring-slot windows and scratch the last engine on its
    // thread left behind, so once one run has warmed this thread up, a
    // short run makes no large allocation: a fresh engine's are
    // 4 x 64 KiB of gshare tables, 128 KiB of task predictor,
    // 2 x 16 KiB of L1 ways, 16 KiB of store filter and 8 KiB of task
    // cache.
    let sel = selection();
    let trace = TraceGenerator::new(&sel.program, 7).generate(1);
    let image = ProgramImage::new(&sel.program, &sel.partition, &trace);
    let sim = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition);
    let _ = sim.run_image(&image, &mut NullSink);
    let large0 = LARGE_ALLOCS.get();
    let stats = sim.run_image(&image, &mut NullSink);
    let large = LARGE_ALLOCS.get() - large0;
    assert!(stats.total_insts > 0, "simulation actually ran");
    assert_eq!(
        large, 0,
        "a warmed-up 1-instruction run made {large} allocation(s) of >= {LARGE} bytes"
    );
}
