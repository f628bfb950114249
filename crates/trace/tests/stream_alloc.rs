//! A streamed trace allocates for one chunk, whatever its budget.
//!
//! This test binary installs a counting `#[global_allocator]` and
//! measures the bytes requested while a stream with an unbounded
//! instruction budget fills one chunk. A generator that reserved in
//! proportion to its budget would abort the process here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ms_trace::{Trace, TraceGenerator, TraceStep, TRACE_CHUNK_INSTS};

/// Forwards to the system allocator, counting the calling thread's
/// requested bytes.
struct Counting;

thread_local! {
    // A `const` initialiser with no destructor: touching it never
    // allocates, so the allocator may use it.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: pure pass-through to `System`; the counter has no effect on
// the returned memory.
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

#[test]
fn an_unbounded_budget_fills_one_chunk_in_less_than_a_chunk_of_bytes() {
    // li has the most steps per instruction of the suite.
    let program = ms_workloads::by_name("li").unwrap().build();
    let before = BYTES.get();
    let mut stream = TraceGenerator::new(&program, 7).stream(usize::MAX);
    let mut trace = Trace::default();
    let ended = stream.fill(&mut trace, TRACE_CHUNK_INSTS);
    let bytes = BYTES.get() - before;

    assert!(!ended, "an unbounded stream does not end after one chunk");
    assert!(trace.num_insts() >= TRACE_CHUNK_INSTS, "the chunk is full");
    let last = trace.steps().last().expect("steps").num_insts(&program);
    assert!(trace.num_insts() < TRACE_CHUNK_INSTS + last, "the chunk stops at its size");
    // One chunk's worth: a step per instruction.
    let chunk_bytes = (TRACE_CHUNK_INSTS * std::mem::size_of::<TraceStep>()) as u64;
    assert!(
        bytes < chunk_bytes,
        "filling one chunk requested {bytes} bytes (chunk: {chunk_bytes})"
    );
}
