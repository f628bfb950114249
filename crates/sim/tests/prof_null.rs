//! Pins the zero-cost-when-off profiling guarantee on the simulator's
//! hot path: with no `ms_prof` collector enabled, the instrumented
//! `sim.run` wrapper (and the per-instruction loop under it) performs
//! exactly the allocations the uninstrumented simulation performs —
//! byte-for-byte the same count, run to run — mirroring the `NullSink`
//! guarantee the event-tracing tests pin.
//!
//! Counts are kept per thread: the harness runs the two tests on
//! parallel threads, and a process-wide counter would also see the
//! sibling test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ms_analysis::ProgramContext;
use ms_sim::{SimConfig, SimStats, Simulator};
use ms_tasksel::{SelectorBuilder, Strategy};
use ms_trace::TraceGenerator;

/// The system allocator with a per-thread allocation counter.
struct CountingAlloc;

thread_local! {
    // A `const` initialiser with no destructor: touching it never
    // allocates, so the allocator may use it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates verbatim to the system allocator; the counter is a
// thread-local cell with no further side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations made so far on the calling thread.
fn allocs() -> u64 {
    ALLOCS.get()
}

/// One full simulation of the compress workload (trace pre-generated so
/// only selection + simulation run inside the measured window).
fn simulate(sel: &ms_tasksel::Selection, trace: &ms_trace::Trace) -> SimStats {
    Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition).run(trace)
}

#[test]
fn disabled_profiling_leaves_simulation_allocations_unchanged() {
    let program = ms_workloads::by_name("compress").unwrap().build();
    let sel = SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(program.clone()));
    let trace = TraceGenerator::new(&sel.program, 7).generate(20_000);

    // Warm-up run: TLS slots, lazy statics, anything one-time.
    assert!(!ms_prof::is_enabled());
    let warm = simulate(&sel, &trace);

    // The simulation is deterministic, so two disabled runs must cost
    // exactly the same number of allocations: if the disabled `sim.run`
    // span (or any instrumentation under it) ever started allocating,
    // the engine's hot loop would no longer be free of profiling cost
    // and this equality is where it shows up first.
    let before_a = allocs();
    let run_a = simulate(&sel, &trace);
    let cost_a = allocs() - before_a;
    let before_b = allocs();
    let run_b = simulate(&sel, &trace);
    let cost_b = allocs() - before_b;
    assert_eq!(run_a, warm);
    assert_eq!(run_a, run_b);
    assert_eq!(cost_a, cost_b, "disabled profiling must have a fixed (zero) allocation cost");

    // And the disabled entry points themselves allocate nothing at all,
    // pinned here against the binary that links the full simulator.
    let before = allocs();
    for i in 0..10_000u64 {
        let span = ms_prof::span("sim.run");
        span.add_items(i);
        ms_prof::counter_add("sim.cycles", i);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "disabled span/counter calls allocated");
}

#[test]
fn enabled_profiling_is_visible_to_the_allocation_counter() {
    // Sanity check for the test above: with a collector enabled the
    // same wrapper does allocate, so the counter is measuring the real
    // code path and a silent always-on regression cannot hide.
    let program = ms_workloads::by_name("li").unwrap().build();
    let sel = SelectorBuilder::new(Strategy::BasicBlock)
        .build()
        .select(&ProgramContext::new(program.clone()));
    let trace = TraceGenerator::new(&sel.program, 7).generate(2_000);
    simulate(&sel, &trace); // warm up

    let before_off = allocs();
    simulate(&sel, &trace);
    let cost_off = allocs() - before_off;

    ms_prof::enable();
    let before_on = allocs();
    simulate(&sel, &trace);
    let cost_on = allocs() - before_on;
    let report = ms_prof::disable().expect("collector was enabled");

    assert!(report.spans.iter().any(|s| s.path == "sim.run"));
    assert!(
        cost_on > cost_off,
        "enabled profiling should allocate (off: {cost_off}, on: {cost_on})"
    );
}
