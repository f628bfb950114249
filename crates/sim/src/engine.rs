//! The cycle-level Multiscalar execution engine.
//!
//! Trace-driven timing simulation: dynamic tasks (from
//! [`ms_trace::TaskSplitter`]) are dispatched in program order to PUs
//! arranged on a ring, one task per PU, with
//!
//! * inter-task control speculation by a path-based target predictor
//!   (misprediction detected when the mispredicted task's exit resolves,
//!   charging wrong-path occupancy + restart),
//! * register values forwarded on a bandwidth-limited ring after the
//!   producing task's dynamically-last write of each register,
//! * memory dependence speculation through an ARB model: a load that
//!   executes before an earlier in-flight task's store to the same
//!   address squashes the loading task (and, implicitly, its successors,
//!   which have not been dispatched past it yet), re-executing it after
//!   the store; the synchronisation table then serialises later instances
//!   of that load. The ARB holds only the stores of tasks in flight: each
//!   PU keeps the stores of the task it last committed, and a table of
//!   store counts by address hash lets most loads skip the lists,
//! * per-PU pipelines: fetch through a shared L1I, 2-wide issue (in-order
//!   or out-of-order within an issue list), ROB occupancy, per-class
//!   functional units, gshare prediction of intra-task branches, and
//!   loads through ARB forwarding or the L1D hierarchy,
//! * in-order task retirement with task start/end overheads — completed
//!   tasks wait for their predecessor (load imbalance).
//!
//! The engine is data-oriented: instructions are decoded once per
//! (program, trace) into a struct-of-arrays [`crate::table::DynInstTable`]
//! held by a [`crate::ProgramImage`], register write sets travel as
//! single-`u64` SWAR masks ([`crate::swar`]), and per-PU mutable state
//! is cache-line aligned. An attempt's memory state is two plain lists:
//! its stores in program order, which its loads scan from the back
//! ([`last_store`], the rule [`inflight_store`] applies to the other
//! PUs' lists), and the distinct cache lines it touched, kept only up
//! to one past the ARB's capacity ([`arb_touch`]). Run state is sized
//! by the machine, not the trace: each PU's ring-port slot table is a
//! window of cycles anchored at the dispatch of the task it last
//! committed (`PuState::ring_slots`), register records carry their
//! producer's retire cycle instead of a per-task retire column, the
//! ARB's stores are the per-PU lists of the tasks in flight
//! ([`inflight_store`]), the ROB and issue-list window is a ring of
//! [`ROB_SIZE`] entries, cache ways hold tags alone, and memory
//! addresses are read as one slice per step from the trace's flat
//! address column. Only the L2's touched sets grow with the trace.
//!
//! The trace itself is streamed: a [`ChunkStream`] generates, splits and
//! decodes about [`TRACE_CHUNK_INSTS`] instructions at a time into one
//! reused [`ProgramImage`], and an [`Engine`] steps chunk after chunk
//! with run-wide task numbers, so a run's memory is set by the chunk,
//! not by its instruction budget. A decoded chunk is immutable, so
//! cells that differ only in machine configuration step their engines
//! one after another over it and pay for the decode once.
//! [`Simulator::start`] is the one place an engine is built; `run`,
//! `run_tasks`, `run_with_sink` and `run_image` are the one-chunk case,
//! and [`Simulator::run_streamed`] the streamed one.

use std::borrow::Cow;
use std::cell::Cell;

use ms_analysis::Liveness;
use ms_ir::{BlockRef, FxMap, Program, NUM_REGS};
use ms_tasksel::{TaskPartition, TaskTarget};
use ms_trace::{
    split_tasks, CtOutcome, DynExit, DynTask, TaskSplitter, Trace, TraceGenerator, TraceStream,
    TRACE_CHUNK_INSTS,
};

use crate::cache::{Cache, Hierarchy};
use crate::config::{
    SimConfig, ARB_HIT_LATENCY, BRANCH_MISPREDICT_PENALTY, FU_COUNTS, GSHARE_HISTORY_BITS,
    GSHARE_TABLE_BITS, ISSUE_LIST, ISSUE_WIDTH, L1_HIT_LATENCY, L1_LINE, L2, MEM_LATENCY,
    RING_HOP_LATENCY, ROB_SIZE, SQUASH_RESTART, TASK_CACHE, TASK_MISPREDICT_RESTART,
    TASK_PRED_HISTORY_BITS, TASK_PRED_TABLE_BITS,
};
use crate::event::{NullSink, SimEvent, SquashCause, TraceSink};
use crate::predictor::{Gshare, TaskPredictor};
use crate::stats::{CycleBreakdown, SimStats};
use crate::swar;
use crate::table::{DynInstTable, CLASS_MASK, F_CT, F_LOAD, F_STORE, F_UNPIPELINED, NO_DST};

/// Maximum squash-and-re-execute attempts per task before the engine
/// forces full memory synchronisation (livelock guard).
const MAX_ATTEMPTS: u32 = 8;

/// Cycles of ring-slot window each PU reserves up front (2 bytes each).
/// The longest window `run sweeps`, 1M-instruction runs and `run fuzz`
/// reach is under 2,700 cycles, so the window never reallocates on
/// those runs; a longer one still grows. The reservation is constant,
/// not scaled by the trace.
const RING_WINDOW_RESERVE: usize = 4096;

/// A configured Multiscalar timing simulator.
///
/// # Example
///
/// ```
/// use ms_analysis::ProgramContext;
/// use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};
/// use ms_sim::{SimConfig, Simulator};
/// use ms_tasksel::{SelectorBuilder, Strategy};
/// use ms_trace::TraceGenerator;
///
/// let mut fb = FunctionBuilder::new("main");
/// let entry = fb.add_block();
/// let body = fb.add_block();
/// let exit = fb.add_block();
/// fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
/// fb.set_terminator(entry, Terminator::Jump { target: body });
/// fb.set_terminator(body, Terminator::Branch {
///     taken: body, fall: exit, cond: vec![Reg::int(1)],
///     behavior: BranchBehavior::exact_loop(32),
/// });
/// fb.set_terminator(exit, Terminator::Halt);
/// let mut pb = ProgramBuilder::new();
/// let m = pb.declare_function("main");
/// pb.define_function(m, fb.finish(entry)?);
/// let program = pb.finish(m)?;
///
/// let ctx = ProgramContext::new(program);
/// let sel = SelectorBuilder::new(Strategy::ControlFlow).max_targets(4).build().select(&ctx);
/// let trace = TraceGenerator::new(&sel.program, 1).generate(5_000);
/// let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition).run(&trace);
/// assert!(stats.ipc() > 0.0);
/// # Ok::<(), ms_ir::BuildError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    config: SimConfig,
    program: &'a Program,
    partition: &'a TaskPartition,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for a partitioned program.
    pub fn new(config: SimConfig, program: &'a Program, partition: &'a TaskPartition) -> Self {
        Simulator { config, program, partition }
    }

    /// Runs the trace to completion and returns the statistics.
    pub fn run(&self, trace: &Trace) -> SimStats {
        self.run_with_sink(trace, &mut NullSink)
    }

    /// Runs a pre-split dynamic task sequence (lets callers reuse a
    /// split across configurations).
    pub fn run_tasks(&self, trace: &Trace, tasks: &[DynTask]) -> SimStats {
        let image = ProgramImage::with_tasks(self.program, self.partition, trace, tasks.to_vec());
        self.run_image(&image, &mut NullSink)
    }

    /// Runs the trace, streaming [`SimEvent`]s into `sink` — the
    /// observability entry point. With [`NullSink`] this is exactly
    /// [`Simulator::run`]: no events are constructed and no attribution
    /// bookkeeping is allocated. An [`crate::EventLog`] records the
    /// stream; its `spans` are the per-task time line (the paper's
    /// Figure 2).
    pub fn run_with_sink<S: TraceSink>(&self, trace: &Trace, sink: &mut S) -> SimStats {
        let image = ProgramImage::new(self.program, self.partition, trace);
        self.run_image(&image, sink)
    }

    /// Runs an already-decoded whole-trace image, streaming events into
    /// `sink`, so cells that differ only in machine configuration share
    /// one decode. The image must come from this simulator's program and
    /// partition. This is the one-chunk case of [`Simulator::start`].
    pub fn run_image<S: TraceSink>(&self, image: &ProgramImage<'_>, sink: &mut S) -> SimStats {
        let mut engine = self.start();
        engine.step(image, sink);
        engine.finish(sink)
    }

    /// Generates `max_insts` instructions of trace from `seed`
    /// ([`ms_trace::TraceGenerator::generate`]'s trace) and simulates it
    /// chunk by chunk ([`ChunkStream`]): the statistics and events equal
    /// [`Simulator::run_with_sink`] over the whole trace, but memory is
    /// set by the chunk, not by `max_insts`.
    pub fn run_streamed<S: TraceSink>(
        &self,
        seed: u64,
        max_insts: usize,
        sink: &mut S,
    ) -> SimStats {
        self.run_chunked(seed, max_insts, TRACE_CHUNK_INSTS, sink)
    }

    /// [`Simulator::run_streamed`] with chunks of `chunk_insts`.
    pub(crate) fn run_chunked<S: TraceSink>(
        &self,
        seed: u64,
        max_insts: usize,
        chunk_insts: usize,
        sink: &mut S,
    ) -> SimStats {
        let mut chunks = ChunkStream::with_chunk_insts(
            self.program,
            self.partition,
            seed,
            max_insts,
            chunk_insts,
        );
        let mut engine = self.start();
        while let Some(chunk) = chunks.next_chunk() {
            engine.step(chunk, sink);
        }
        engine.finish(sink)
    }

    /// A simulation of this configuration at its first task: step it
    /// over a run's chunks in order, then finish it. This is the one
    /// place an engine is built; every `run*` method ends here.
    pub fn start(&self) -> Engine<'_> {
        Engine::new(self)
    }
}

/// A decoded chunk of trace: its dynamic task split plus the
/// struct-of-arrays instruction table, built once and shared by every
/// squash re-attempt of a run, and by every run over the same chunk
/// ([`Simulator::run_image`], [`Engine::step`]).
///
/// [`ProgramImage::new`] decodes a whole trace as one chunk. A
/// [`ChunkStream`] owns one image and refills it chunk by chunk: the
/// decode state that depends only on the program (block rows, static
/// task targets and entry PCs, exit-block live masks, liveness)
/// persists, and the per-step and per-task columns follow the chunk.
#[derive(Debug)]
pub struct ProgramImage<'a> {
    pub(crate) program: &'a Program,
    pub(crate) partition: &'a TaskPartition,
    /// The chunk's steps: borrowed for a whole trace, owned and refilled
    /// by a [`ChunkStream`]. Its last steps may belong to a task that
    /// ends in the next chunk.
    pub(crate) trace: Cow<'a, Trace>,
    /// The tasks that end in this chunk.
    pub(crate) tasks: Vec<DynTask>,
    /// Run-wide number of `tasks[0]`.
    pub(crate) first_task: usize,
    /// Whether this is the run's last chunk.
    pub(crate) last: bool,
    pub(crate) table: DynInstTable,
    /// Per dynamic task: entry PC of its static task (the task
    /// predictor's index and the descriptor cache's address).
    pub(crate) task_entry_pc: Vec<u64>,
    /// Per dynamic task: `(actual target index, target count)` for the
    /// task predictor. Index `u32::MAX` means the actual exit is not
    /// among the static targets (always a mispredict); count 0 means
    /// the exit is not predicted at all (trace end).
    pub(crate) task_pred_arm: Vec<(u32, u32)>,
    /// Per dynamic task: live-out SWAR register mask of its exit block.
    pub(crate) task_live_mask: Vec<u64>,
    /// Per dynamic task: whether dead register filtering may apply at
    /// its exit (liveness is intra-procedural, so call/return exits
    /// conservatively forward everything).
    pub(crate) task_live_filter: Vec<bool>,
    /// Per static task `(func, task)`: its targets and entry PC.
    statics: FxMap<(usize, usize), (Vec<TaskTarget>, u64)>,
    /// Per exit block `(func, block)`: live-out mask and filterability.
    exits: FxMap<(usize, usize), (u64, bool)>,
    /// Per function: its register liveness.
    liveness: FxMap<usize, Liveness>,
}

impl<'a> ProgramImage<'a> {
    /// Splits `trace` into dynamic tasks and decodes the instruction
    /// table.
    pub fn new(program: &'a Program, partition: &'a TaskPartition, trace: &'a Trace) -> Self {
        let tasks = split_tasks(trace, program, partition);
        Self::with_tasks(program, partition, trace, tasks)
    }

    /// [`ProgramImage::new`] over a pre-split task sequence.
    pub fn with_tasks(
        program: &'a Program,
        partition: &'a TaskPartition,
        trace: &'a Trace,
        tasks: Vec<DynTask>,
    ) -> Self {
        let mut image = Self::empty(program, partition, Cow::Borrowed(trace));
        image.tasks = tasks;
        image.last = true;
        image.decode(0, trace.num_insts());
        image
    }

    fn empty(program: &'a Program, partition: &'a TaskPartition, trace: Cow<'a, Trace>) -> Self {
        ProgramImage {
            program,
            partition,
            trace,
            tasks: Vec::new(),
            first_task: 0,
            last: false,
            table: DynInstTable::default(),
            task_entry_pc: Vec::new(),
            task_pred_arm: Vec::new(),
            task_live_mask: Vec::new(),
            task_live_filter: Vec::new(),
            statics: FxMap::default(),
            exits: FxMap::default(),
            liveness: FxMap::default(),
        }
    }

    /// The dynamic tasks that end in this chunk: for a whole-trace image
    /// ([`ProgramImage::new`]), every task of the trace, as
    /// [`split_tasks`] splits it.
    pub fn tasks(&self) -> &[DynTask] {
        &self.tasks
    }

    /// Whether this is the last chunk of its run: an engine stepped over
    /// it has seen every task and can be finished.
    pub fn is_last(&self) -> bool {
        self.last
    }

    /// Decodes the steps from `from` on, which hold the chunk's last
    /// `new_insts` instructions, and refills the per-task columns for
    /// `tasks`.
    fn decode(&mut self, from: usize, new_insts: usize) {
        let prof = ms_prof::span("sim.decode");
        let ProgramImage {
            program,
            partition,
            trace,
            tasks,
            table,
            task_entry_pc,
            task_pred_arm,
            task_live_mask,
            task_live_filter,
            statics,
            exits,
            liveness,
            ..
        } = self;
        let (program, partition) = (*program, *partition);
        let steps = trace.steps();
        table.push_steps(program, &steps[from..]);

        // Per-task data that depends only on (program, partition,
        // trace) — never on the machine configuration — computed once
        // here instead of per cell, per task, per attempt.
        task_entry_pc.clear();
        task_pred_arm.clear();
        task_live_mask.clear();
        task_live_filter.clear();
        for dt in tasks.iter() {
            let key = (dt.func.index(), dt.task.index());
            let (targets, entry_pc) = statics.entry(key).or_insert_with(|| {
                let targets = partition.targets(program, dt.func, dt.task);
                let entry = partition.func(dt.func).task(dt.task).entry();
                (targets, program.block_pc(BlockRef::new(dt.func, entry)))
            });
            task_entry_pc.push(*entry_pc);
            task_pred_arm.push(match dt.exit {
                DynExit::Target(actual) => match targets.iter().position(|t| *t == actual) {
                    Some(idx) => (idx as u32, targets.len() as u32),
                    None => (u32::MAX, targets.len().max(2) as u32),
                },
                DynExit::End => (0, 0),
            });
            let exit = steps[dt.end - 1].block;
            let bkey = (exit.func.index(), exit.block.index());
            let (mask, filterable) = *exits.entry(bkey).or_insert_with(|| {
                let term = program.function(exit.func).block(exit.block).terminator();
                let live = liveness
                    .entry(exit.func.index())
                    .or_insert_with(|| Liveness::compute(program.function(exit.func)));
                let mask = live.live_out(exit.block).iter().fold(0u64, |m, r| m | (1 << r));
                (mask, !term.is_call() && !term.is_return())
            });
            task_live_mask.push(mask);
            task_live_filter.push(filterable);
        }
        prof.add_items(new_insts as u64);
    }
}

/// A run's trace as a stream of decoded chunks: it generates
/// ([`ms_trace::TraceStream`]), splits ([`TaskSplitter`]) and decodes
/// about [`TRACE_CHUNK_INSTS`] instructions at a time into one reused
/// [`ProgramImage`]. Each chunk ends on a dynamic-task boundary: the
/// steps of the unfinished last task move to the front of the next
/// chunk. Step one or more [`Engine`]s over every chunk in order; the
/// chunks together hold exactly the tasks of
/// `split_tasks(&TraceGenerator::new(program, seed).generate(max_insts), ..)`.
#[derive(Debug)]
pub struct ChunkStream<'a> {
    image: ProgramImage<'a>,
    steps: TraceStream<'a>,
    splitter: TaskSplitter<'a>,
    chunk_insts: usize,
    /// Whether the last chunk has been handed out.
    done: bool,
}

impl<'a> ChunkStream<'a> {
    /// A stream of [`TRACE_CHUNK_INSTS`]-instruction chunks of the trace
    /// `seed` generates for `program` within `max_insts`.
    pub fn new(
        program: &'a Program,
        partition: &'a TaskPartition,
        seed: u64,
        max_insts: usize,
    ) -> Self {
        Self::with_chunk_insts(program, partition, seed, max_insts, TRACE_CHUNK_INSTS)
    }

    pub(crate) fn with_chunk_insts(
        program: &'a Program,
        partition: &'a TaskPartition,
        seed: u64,
        max_insts: usize,
        chunk_insts: usize,
    ) -> Self {
        ChunkStream {
            image: ProgramImage::empty(program, partition, Cow::Owned(Trace::default())),
            steps: TraceGenerator::new(program, seed).stream(max_insts),
            splitter: TaskSplitter::new(program, partition),
            chunk_insts,
            done: false,
        }
    }

    /// The next chunk, or `None` after the one that
    /// [`ProgramImage::is_last`]. Every run has at least one chunk; only
    /// an empty trace's has no tasks.
    pub fn next_chunk(&mut self) -> Option<&ProgramImage<'a>> {
        if self.done {
            return None;
        }
        let img = &mut self.image;
        let program = img.program;
        let trace = img.trace.to_mut();
        // Forget the steps of the tasks the previous chunk held.
        let cut = self.splitter.pending_start();
        trace.drop_front(cut, program);
        img.table.step_block.drain(..cut);
        self.splitter.drop_front(cut);
        img.first_task += img.tasks.len();
        img.tasks.clear();
        let (from, kept_insts) = (trace.steps().len(), trace.num_insts());
        loop {
            let ended = self.steps.fill(trace, self.chunk_insts);
            self.splitter.split(trace.steps(), ended, &mut img.tasks);
            if ended || !img.tasks.is_empty() {
                self.done = ended;
                break;
            }
        }
        img.last = self.done;
        let new_insts = img.trace.num_insts() - kept_insts;
        img.decode(from, new_insts);
        Some(&self.image)
    }
}

/// The most recent writer of an architectural register.
#[derive(Debug, Clone, Copy)]
struct RegSrc {
    task: usize,
    /// Cycle the value enters the ring (post bandwidth scheduling).
    send: u64,
    /// Cycle the writing task retired.
    retire: u64,
}

/// The most recent store to an address by a task still in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoreSrc {
    task: usize,
    complete: u64,
    pc: u64,
    /// Cycle the storing task retired.
    retire: u64,
}

/// A task's stores in program order: `(addr, complete, pc)`.
type Stores = Vec<(u64, u64, u64)>;

/// Slots of the [`StoreFilter`].
const STORE_FILTER_SLOTS: usize = 4096;

/// How many stores of the tasks in flight hash to each slot: the ARB's
/// address filter. While task `k` runs on PU `k % P`, the other PUs'
/// store lists (`PuState::stores`) hold the stores of tasks
/// `k − P + 1 .. k − 1`, and the filter counts exactly those. A load
/// whose slot is zero therefore has no in-flight store to forward from
/// and goes straight to the D-cache, without scanning the lists.
#[derive(Debug, Default)]
struct StoreFilter {
    slots: Vec<u32>,
}

impl StoreFilter {
    #[inline]
    fn slot(addr: u64) -> usize {
        const SHIFT: u32 = 64 - STORE_FILTER_SLOTS.trailing_zeros();
        (addr.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> SHIFT) as usize
    }

    fn add(&mut self, stores: &[(u64, u64, u64)]) {
        for &(addr, ..) in stores {
            self.slots[Self::slot(addr)] += 1;
        }
    }

    fn remove(&mut self, stores: &[(u64, u64, u64)]) {
        for &(addr, ..) in stores {
            self.slots[Self::slot(addr)] -= 1;
        }
    }

    /// Whether an in-flight store may be to `addr`.
    #[inline]
    fn may_hold(&self, addr: u64) -> bool {
        self.slots[Self::slot(addr)] != 0
    }

    fn is_clear(&self) -> bool {
        self.slots.iter().all(|&n| n == 0)
    }
}

/// The latest store to `addr` by tasks `k − P + 1 .. k − 1`, the tasks
/// in flight while task `k` runs, searched from `k − 1` back. Each is
/// the last task committed on its PU, so its stores are that PU's list
/// and its retire cycle the PU's `free`. Every older store belongs to a
/// task that retired at or before task `k − P`, which ran on `k`'s own
/// PU and so retired before `k` was dispatched: a load reads it from
/// the D-cache, as if no store were in flight.
fn inflight_store(pus: &[PuState], k: usize, addr: u64) -> Option<StoreSrc> {
    let p = pus.len();
    (1..p.min(k + 1)).find_map(|m| {
        let pu = &pus[(k - m) % p];
        let (complete, pc) = last_store(&pu.stores, addr)?;
        Some(StoreSrc { task: k - m, complete, pc, retire: pu.free })
    })
}

/// The `(complete, pc)` of the last store to `addr` in one task's
/// program-ordered store list: the scan runs from the back, so a later
/// store to the address hides an earlier one.
#[inline]
fn last_store(stores: &[(u64, u64, u64)], addr: u64) -> Option<(u64, u64)> {
    stores.iter().rev().find(|s| s.0 == addr).map(|&(_, complete, pc)| (complete, pc))
}

/// Records a memory access to cache line `line` in `lines`, the
/// distinct lines of one attempt, and returns whether the attempt now
/// holds more than `entries` lines (ARB overflow). Only that answer is
/// read, and once true it stays true, so the list stops growing at
/// `entries + 1` lines.
#[inline]
fn arb_touch(lines: &mut Vec<u64>, line: u64, entries: usize) -> bool {
    if lines.len() <= entries && !lines.contains(&line) {
        lines.push(line);
    }
    lines.len() > entries
}

/// Memory-path work counters, summed over every attempt.
#[derive(Debug, Default, Clone, Copy)]
struct MemCounts {
    loads: u64,
    stores: u64,
    /// Loads that missed their own task's stores and found their
    /// store-filter slot non-zero.
    arb_probes: u64,
    /// Probes that found an in-flight store.
    arb_hits: u64,
}

impl MemCounts {
    fn add(&mut self, o: &MemCounts) {
        self.loads += o.loads;
        self.stores += o.stores;
        self.arb_probes += o.arb_probes;
        self.arb_hits += o.arb_hits;
    }
}

/// A detected memory dependence violation, with attribution.
#[derive(Debug, Clone, Copy)]
struct Violation {
    /// Cycle the violated store completed (squash detection point).
    cycle: u64,
    /// PC of the premature load.
    load_pc: u64,
    /// Dynamic task of the violated store.
    store_task: usize,
    /// PC of the violated store.
    store_pc: u64,
}

/// Result of executing one task attempt. Its buffers live in
/// [`Scratch`] and are reused attempt to attempt, so the steady-state
/// loop performs no heap allocation.
#[derive(Debug, Default)]
struct Attempt {
    complete: u64,
    resolve: u64,
    insts: u64,
    ct_insts: u64,
    br_preds: u64,
    br_hits: u64,
    arb_overflow: bool,
    /// First overflowing access cycle and total head-wait stall (event
    /// detail; only meaningful when `arb_overflow`).
    arb_cycle: u64,
    arb_stall: u64,
    /// Earliest violation.
    violation: Option<Violation>,
    /// SWAR mask of dense registers the attempt wrote; the completion
    /// of each one's last write is in `Scratch::local_reg`.
    write_mask: u64,
    /// The attempt's stores; at commit they become its PU's store list.
    stores: Stores,
    mem: MemCounts,
    /// Per-arc ring-wait attribution `(producer task, reg, cycles)`,
    /// collected only when a trace sink is enabled (stays unallocated
    /// otherwise).
    fwd_stalls: Vec<(usize, usize, u64)>,
    /// Stall blame weights.
    w_intra: u64,
    w_inter: u64,
    w_mem: u64,
    w_front: u64,
    w_res: u64,
}

impl Attempt {
    /// Resets for a new attempt, keeping buffer capacity.
    fn reset(&mut self, fetch_base: u64) {
        let Attempt { stores, fwd_stalls, .. } = std::mem::take(self);
        *self = Attempt {
            complete: fetch_base,
            resolve: fetch_base,
            stores,
            fwd_stalls,
            ..Attempt::default()
        };
        self.stores.clear();
        self.fwd_stalls.clear();
    }
}

/// Per-PU mutable state, cache-line aligned so neighbouring PUs never
/// share a line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PuState {
    gshare: Gshare,
    /// Last-target indirect jump predictor (internal switches).
    indirect: FxMap<u64, u16>,
    /// Outgoing ring slot usage per cycle, `ring_slots[i]` counting the
    /// sends in cycle `ring_base + i` — link bandwidth is a property of
    /// the PU's ring port, shared by consecutive tasks it runs, not per
    /// task. `u16` counts: the effective per-cycle bandwidth is clamped
    /// to 65535, unreachable for any real ring.
    ///
    /// The window starts at the dispatch of the task last committed on
    /// this PU (`commit_regs` slides it there). Nothing behind that
    /// cycle can be claimed again: a PU's dispatches are monotone, and a
    /// task only forwards values it computed, whose ready cycles are at
    /// or after its fetch base and hence its dispatch. So the window
    /// spans one task's sends plus whatever spilled past the next
    /// dispatch — a size set by the machine, not the trace.
    ring_slots: Vec<u16>,
    /// Cycle of `ring_slots[0]`.
    ring_base: u64,
    /// Cycle the PU's current occupant retires.
    free: u64,
    /// The stores of the task last committed on this PU, while that
    /// task is in flight for the task running ([`inflight_store`]);
    /// emptied when the PU's next task starts.
    stores: Stores,
}

impl PuState {
    /// Back to an idle PU at cycle 0, keeping every allocation.
    fn reset(&mut self) {
        self.gshare.reset(GSHARE_HISTORY_BITS, GSHARE_TABLE_BITS);
        self.indirect.clear();
        self.ring_slots.clear();
        self.ring_slots.reserve(RING_WINDOW_RESERVE);
        self.ring_base = 0;
        self.free = 0;
    }
}

/// Reusable buffers for [`Engine::exec_task`], kept from attempt to
/// attempt and engine to engine ([`Machine`]) so the per-instruction hot
/// loop performs no heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// Completion of the task's last write per dense register; only
    /// entries whose bit is set in the attempt's write mask are live.
    local_reg: Vec<u64>,
    /// Issue-slot usage, indexed by cycle − fetch base.
    issue_slots: Vec<u32>,
    /// (issue cycle, running maximum of completion cycles) of the last
    /// [`ROB_SIZE`] instructions, instruction `i` at `i % ROB_SIZE`. The
    /// ROB and issue-list window constraints read the two halves at
    /// different lags, both within the ring.
    window: [(u64, u64); ROB_SIZE as usize],
    /// Distinct cache lines the attempt's memory accesses touched, up to
    /// one past the ARB's capacity ([`arb_touch`]).
    mem_lines: Vec<u64>,
    /// The attempt result buffers, reused across attempts and tasks.
    attempt: Attempt,
    /// Ring-forward staging buffer for `commit_regs`.
    outs: Vec<(usize, u64)>,
}

// The issue list is a window inside the ROB ring, and a class has one or
// two functional units (`exec_task`'s `fu_free`).
const _: () = assert!(ISSUE_LIST <= ROB_SIZE);
const _: () = assert!(matches!(FU_COUNTS, [1..=2, 1..=2, 1..=2, 1..=2]));

/// An engine's machine-sized state: about 0.43 MiB of predictor tables,
/// cache ways and store filter at four PUs, plus the ring-slot windows,
/// per-PU store lists, scratch buffers and maps. Only the L2's touched
/// sets grow with the trace. [`Machine::reset`] re-initialises it in
/// place for a configuration, so an engine can take over the state of
/// the last one its thread finished ([`SPARE`]) instead of allocating
/// and filling the tables again — the fixed cost that dominates short
/// runs.
#[derive(Debug, Default)]
struct Machine {
    icache: Hierarchy,
    dcache: Hierarchy,
    /// Sequencer-side task descriptor cache (paper §4.2).
    task_cache: Cache,
    task_pred: TaskPredictor,
    pus: Vec<PuState>,
    reg_src: Vec<Option<RegSrc>>,
    /// Counts the stores in the PU lists (`PuState::stores`).
    store_filter: StoreFilter,
    /// LRU list of synchronised load PCs.
    sync_table: Vec<u64>,
    scratch: Scratch,
}

impl Machine {
    /// The state of a machine configured by `cfg` before its first
    /// task, keeping every allocation that fits it. Nothing a run reads
    /// survives from the previous one; only capacity does.
    fn reset(&mut self, cfg: &SimConfig) {
        self.icache.reset(cfg.l1(), L2, MEM_LATENCY);
        self.dcache.reset(cfg.l1(), L2, MEM_LATENCY);
        self.task_cache.reset(TASK_CACHE);
        self.task_pred.reset(TASK_PRED_HISTORY_BITS, TASK_PRED_TABLE_BITS);
        // Drain every PU's store list, the last run's PU count of them,
        // out of the filter: that leaves it clear without a sweep.
        self.store_filter.slots.resize(STORE_FILTER_SLOTS, 0);
        for pu in &mut self.pus {
            self.store_filter.remove(&pu.stores);
            pu.stores.clear();
        }
        debug_assert!(self.store_filter.is_clear(), "store filter counts a drained store");
        self.pus.resize_with(cfg.num_pus, PuState::default);
        self.pus.iter_mut().for_each(PuState::reset);
        self.reg_src.clear();
        self.reg_src.resize(NUM_REGS, None);
        self.sync_table.clear();
        self.sync_table.reserve(cfg.sync_table_entries as usize);
        // The rest of the scratch is cleared per attempt or per use.
        self.scratch.local_reg.resize(NUM_REGS, 0);
    }

    /// Frees what grew with the run's trace rather than the machine —
    /// the L2's touched sets — so a spare holds about the tables alone
    /// while its thread does other work.
    fn free_trace_sized(&mut self) {
        self.icache.free_touched_sets();
        self.dcache.free_touched_sets();
    }

    /// A task starts on PU `pu`: the stores of the PU's last task, `P`
    /// tasks back, leave the filter. That task retired before this
    /// one's dispatch.
    fn start_stores(&mut self, pu: usize) {
        let stores = &mut self.pus[pu].stores;
        self.store_filter.remove(stores);
        stores.clear();
    }

    /// The task on PU `pu` commits `stores`: they become the PU's list
    /// (no copy; `stores` takes the emptied list back) and enter the
    /// filter.
    fn commit_stores(&mut self, pu: usize, stores: &mut Stores) {
        std::mem::swap(&mut self.pus[pu].stores, stores);
        self.store_filter.add(&self.pus[pu].stores);
    }
}

thread_local! {
    /// The machine state of the engine this thread finished or dropped
    /// last, for the next engine it builds. One per thread at most, so
    /// what a thread retains is one engine's worth.
    static SPARE: Cell<Option<Machine>> = const { Cell::new(None) };
}

/// One machine configuration's simulation in progress, from
/// [`Simulator::start`]: [`Engine::step`] it over a run's chunks in
/// order, then [`Engine::finish`] it. Its state is sized by the machine,
/// not the trace: register records carry their producer's retire cycle
/// and each PU keeps only its last task's stores, so no per-task column
/// outlives its chunk. That state is reused: a new engine resets the
/// state its thread's last engine left behind instead of allocating its
/// own.
pub struct Engine<'e> {
    sim: &'e Simulator<'e>,
    machine: Machine,
    /// Retire cycle of the last task stepped (the retire token's
    /// position; 0 before the first).
    last_retire: u64,
    /// Run-wide number of the next task to step.
    next_task: usize,
    reg_forwards: u64,
    mem: MemCounts,
    // ---- run state, carried task to task by `step` ----
    stats: SimStats,
    prev_dispatch: u64,
    prev_resolve: u64,
    prev_mispredicted: bool,
    /// Σ insts × residency.
    inflight_span: u64,
    /// Σ (retire − dispatch), for PU idle.
    residency: u64,
}

impl Drop for Engine<'_> {
    /// Hands the machine state to the next engine built on this thread.
    fn drop(&mut self) {
        let mut machine = std::mem::take(&mut self.machine);
        machine.free_trace_sized();
        // During thread teardown the slot may be gone; the state is
        // then simply freed.
        let _ = SPARE.try_with(|spare| spare.set(Some(machine)));
    }
}

impl<'e> Engine<'e> {
    fn new(sim: &'e Simulator<'e>) -> Self {
        let cfg = &sim.config;
        let mut machine = SPARE.with(Cell::take).unwrap_or_default();
        machine.reset(cfg);
        Engine {
            sim,
            machine,
            last_retire: 0,
            next_task: 0,
            reg_forwards: 0,
            mem: MemCounts::default(),
            stats: SimStats { num_pus: cfg.num_pus, ..SimStats::default() },
            prev_dispatch: 0,
            prev_resolve: 0,
            prev_mispredicted: false,
            inflight_span: 0,
            residency: 0,
        }
    }

    /// Steps every task of `chunk`, which must be the run's next chunk:
    /// a [`ChunkStream`]'s, or a whole-trace [`ProgramImage`] as the
    /// only one. Tasks are numbered run-wide, so events and statistics
    /// do not depend on where the chunks were cut.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` does not start at the next task of the run.
    pub fn step<S: TraceSink>(&mut self, chunk: &ProgramImage<'_>, sink: &mut S) {
        debug_assert!(
            std::ptr::eq(chunk.program, self.sim.program)
                && std::ptr::eq(chunk.partition, self.sim.partition),
            "image decoded from a different program or partition"
        );
        assert_eq!(chunk.first_task, self.next_task, "chunks stepped out of order");
        // The span wraps the chunk's tasks; the per-instruction loop
        // inside stays untouched (the `prof_null` test pins that the
        // disabled profiler adds no allocations here).
        let prof = ms_prof::span("sim.run");
        let insts = self.stats.total_insts;
        for i in 0..chunk.tasks.len() {
            self.step_task(chunk, i, sink);
        }
        prof.add_items(self.stats.total_insts - insts);
    }

    /// Advances the cell by one dynamic task, `img.tasks[i]`: dispatch,
    /// execute (with squash re-attempts), retire, commit architectural
    /// effects, predict the exit.
    fn step_task<S: TraceSink>(&mut self, img: &ProgramImage<'_>, i: usize, sink: &mut S) {
        let dt = &img.tasks[i];
        let k = self.next_task;
        self.next_task += 1;
        let p = self.sim.config.num_pus;
        let pu = k % p;
        let natural = self.machine.pus[pu].free.max(self.prev_dispatch + 1);
        let mut dispatch = natural;
        if self.prev_mispredicted {
            // The task speculatively occupying this PU was on the
            // wrong path: squash it and restart from the resolved
            // target.
            self.stats.ctrl_squashes += 1;
            let restart = self.prev_resolve + TASK_MISPREDICT_RESTART as u64;
            let lost = restart.saturating_sub(dispatch);
            if sink.enabled() {
                sink.event(&SimEvent::TaskSquash {
                    task: k,
                    pu,
                    cycle: self.prev_resolve,
                    attempt: 0,
                    cause: SquashCause::Control { predecessor: k - 1, lost_cycles: lost },
                });
            }
            if restart > dispatch {
                self.stats.breakdown.ctrl_misspec += restart - dispatch;
                dispatch = restart;
            }
        }

        // The sequencer reads the task descriptor; a task cache
        // miss delays dispatch by an L2 access.
        let entry_pc = img.task_entry_pc[i];
        let desc_miss = !self.machine.task_cache.access(entry_pc);
        if desc_miss {
            dispatch += L2.hit_latency as u64;
        }
        if sink.enabled() {
            sink.event(&SimEvent::TaskDispatch {
                task: k,
                pu,
                cycle: dispatch,
                func: dt.func.index(),
                static_task: dt.task.index(),
                entry_pc,
                desc_miss,
            });
        }

        // Execute, re-executing on memory dependence violations.
        let head_free = if k == 0 { 0 } else { self.last_retire + 1 };
        self.machine.start_stores(pu);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let force_sync = attempts > MAX_ATTEMPTS;
            self.exec_task(img, k, dt, dispatch, pu, head_free, force_sync, sink.enabled());
            self.mem.add(&self.machine.scratch.attempt.mem);
            match self.machine.scratch.attempt.violation {
                Some(v) if !force_sync => {
                    let insts = self.machine.scratch.attempt.insts;
                    self.stats.violations += 1;
                    self.stats.squashed_insts += insts;
                    let restart = v.cycle + SQUASH_RESTART as u64;
                    let lost = restart.saturating_sub(dispatch);
                    self.stats.breakdown.mem_misspec += lost;
                    if sink.enabled() {
                        let detail = (v.store_task, v.store_pc, v.load_pc, insts, lost);
                        let cause = if attempts == 1 {
                            SquashCause::Memory {
                                store_task: detail.0,
                                store_pc: detail.1,
                                load_pc: detail.2,
                                lost_insts: detail.3,
                                lost_cycles: detail.4,
                            }
                        } else {
                            SquashCause::Cascade {
                                store_task: detail.0,
                                store_pc: detail.1,
                                load_pc: detail.2,
                                lost_insts: detail.3,
                                lost_cycles: detail.4,
                            }
                        };
                        sink.event(&SimEvent::TaskSquash {
                            task: k,
                            pu,
                            cycle: v.cycle,
                            attempt: attempts,
                            cause,
                        });
                    }
                    self.sync_insert(v.load_pc);
                    dispatch = restart.max(dispatch + 1);
                }
                _ => break,
            }
        }
        let mut attempt = std::mem::take(&mut self.machine.scratch.attempt);
        if self.sim.config.inject_commit_undercount && k % 3 == 2 {
            // Test-only fault (see `SimConfig::inject_commit_undercount`):
            // a self-consistent miscount — commit event and counters
            // agree with each other but not with the trace — that only
            // the differential reference model can detect.
            attempt.insts = attempt.insts.saturating_sub(1);
        }

        // Retirement: commit work (end overhead) happens on the
        // task's own PU and overlaps across PUs; the retire token
        // passes in order at one task per cycle. Waiting for the
        // predecessor is the paper's load imbalance.
        let commit_done = attempt.complete + self.sim.config.task_end_overhead as u64;
        let retire = commit_done.max(head_free);
        let imbalance = retire - commit_done;
        if sink.enabled() {
            // The PU-cycles between the previous occupant's retire
            // and this task's final dispatch are not residency —
            // dispatch gaps and squashed-attempt occupancy both land
            // here, mirroring `pu_idle_cycles`.
            if dispatch > self.machine.pus[pu].free {
                sink.event(&SimEvent::PuIdle { pu, from: self.machine.pus[pu].free, to: dispatch });
            }
            for &(producer, reg, cycles) in &attempt.fwd_stalls {
                sink.event(&SimEvent::FwdStall { task: k, producer, reg, cycles });
            }
            if attempt.arb_overflow {
                sink.event(&SimEvent::ArbConflict {
                    task: k,
                    pu,
                    cycle: attempt.arb_cycle,
                    stall: attempt.arb_stall,
                });
            }
            sink.event(&SimEvent::TaskCommit {
                task: k,
                pu,
                dispatch,
                complete: attempt.complete,
                retire,
                insts: attempt.insts,
                attempts,
            });
        }
        self.last_retire = retire;
        self.machine.pus[pu].free = retire;

        // Commit architectural effects: register forwards (ring send
        // scheduling, filtered by dead register analysis) and the
        // PU's store list. The liveness filter is one SWAR mask
        // intersection against the attempt's write mask.
        let filter = self.sim.config.dead_reg_analysis && img.task_live_filter[i];
        let mask =
            if filter { attempt.write_mask & img.task_live_mask[i] } else { attempt.write_mask };
        self.commit_regs(k, pu, dispatch, retire, mask, sink);
        self.machine.commit_stores(pu, &mut attempt.stores);

        // Inter-task prediction for this task's exit (consulted when
        // the successor was speculatively dispatched).
        self.prev_mispredicted = false;
        let (actual_idx, n_targets) = img.task_pred_arm[i];
        if n_targets != 0 {
            let correct = if actual_idx != u32::MAX {
                self.machine.task_pred.predict_and_update(
                    entry_pc,
                    actual_idx as usize,
                    n_targets as usize,
                )
            } else {
                self.machine.task_pred.predict_and_update(entry_pc, 0, n_targets as usize);
                false
            };
            self.stats.task_preds += 1;
            if correct {
                self.stats.task_pred_hits += 1;
            } else {
                self.prev_mispredicted = true;
            }
        }
        self.prev_resolve = attempt.resolve;
        self.prev_dispatch = dispatch;

        // Accounting.
        self.stats.total_insts += attempt.insts;
        self.stats.ct_insts += attempt.ct_insts;
        self.stats.br_preds += attempt.br_preds;
        self.stats.br_pred_hits += attempt.br_hits;
        self.stats.fwd_stall_cycles += attempt.w_inter;
        self.stats.task_size_hist.record(attempt.insts);
        if attempt.arb_overflow {
            self.stats.arb_overflows += 1;
        }
        self.inflight_span += attempt.insts * (retire - dispatch);
        self.residency += retire - dispatch;
        account(&self.sim.config, &mut self.stats.breakdown, &attempt, dispatch, imbalance);
        // Return the attempt's buffers for the next task.
        self.machine.scratch.attempt = attempt;
    }

    /// Final accounting after the run's last chunk stepped. The
    /// machine state passes to the next engine built on this thread.
    pub fn finish<S: TraceSink>(mut self, sink: &mut S) -> SimStats {
        let p = self.sim.config.num_pus;
        self.stats.num_dyn_tasks = self.next_task;
        self.stats.total_cycles = self.last_retire;
        if sink.enabled() {
            // Drain: PUs whose last task retired before the run ended
            // (and PUs that never ran a task) idle to the final cycle.
            for (pu, state) in self.machine.pus.iter().enumerate() {
                if state.free < self.stats.total_cycles {
                    sink.event(&SimEvent::PuIdle {
                        pu,
                        from: state.free,
                        to: self.stats.total_cycles,
                    });
                }
            }
        }
        self.stats.pu_idle_cycles =
            (self.stats.total_cycles * p as u64).saturating_sub(self.residency);
        self.stats.reg_forwards = self.reg_forwards;
        self.stats.l1d = self.machine.dcache.l1_counters();
        self.stats.l1i = self.machine.icache.l1_counters();
        self.stats.window_span_measured = if self.stats.total_cycles == 0 {
            0.0
        } else {
            self.inflight_span as f64 / self.stats.total_cycles as f64
        };
        ms_prof::counter_add("sim.cycles", self.stats.total_cycles);
        ms_prof::counter_add("sim.dyn_tasks", self.stats.num_dyn_tasks as u64);
        ms_prof::counter_add("sim.loads", self.mem.loads);
        ms_prof::counter_add("sim.stores", self.mem.stores);
        ms_prof::counter_add("sim.arb.probes", self.mem.arb_probes);
        ms_prof::counter_add("sim.arb.hits", self.mem.arb_hits);
        std::mem::take(&mut self.stats)
    }

    fn sync_insert(&mut self, pc: u64) {
        if self.sim.config.sync_table_entries == 0 {
            // Synchronisation disabled (the ablation machine): the same
            // load keeps misspeculating, bounded only by MAX_ATTEMPTS.
            return;
        }
        if let Some(pos) = self.machine.sync_table.iter().position(|&x| x == pc) {
            self.machine.sync_table.remove(pos);
        } else if self.machine.sync_table.len() >= self.sim.config.sync_table_entries as usize {
            self.machine.sync_table.remove(0);
        }
        self.machine.sync_table.push(pc);
    }

    /// Schedules the task's register forwards onto the ring (bandwidth
    /// limited) and publishes them. With dead register analysis enabled
    /// (the compiler of \[3\]/\[18\]), only registers live out of the task's
    /// exit block travel; dead values stay put, saving ring bandwidth
    /// (`mask` is the attempt's write mask, already intersected with
    /// the exit's live-out mask when the filter applies; the final
    /// attempt left each written register's completion in
    /// `Scratch::local_reg`). `dispatch` is the task's final dispatch
    /// cycle, where the PU's slot window is re-anchored, and `retire`
    /// its retire cycle.
    fn commit_regs<S: TraceSink>(
        &mut self,
        k: usize,
        pu: usize,
        dispatch: u64,
        retire: u64,
        mask: u64,
        sink: &mut S,
    ) {
        let mut outs = std::mem::take(&mut self.machine.scratch.outs);
        let local_reg = &self.machine.scratch.local_reg;
        outs.clear();
        outs.extend(swar::set_bits(mask).map(|r| (r, local_reg[r])));
        self.reg_forwards += outs.len() as u64;
        outs.sort_by_key(|&(r, c)| (c, r));
        let bw = self.sim.config.ring_bandwidth.max(1).min(u32::from(u16::MAX)) as u16;
        let PuState { ring_slots: slots, ring_base, .. } = &mut self.machine.pus[pu];
        // Slide the window to this dispatch; the slots behind it are
        // unreachable (see `PuState::ring_slots`).
        debug_assert!(dispatch >= *ring_base, "PU {pu} dispatched task {k} before its window");
        let behind = ((dispatch - *ring_base) as usize).min(slots.len());
        slots.drain(..behind);
        *ring_base = dispatch;
        for &(r, ready) in &outs {
            debug_assert!(
                ready >= dispatch,
                "task {k} forwards r{r} ready at {ready}, before its dispatch at {dispatch}"
            );
            let mut off = (ready - dispatch) as usize;
            loop {
                if off >= slots.len() {
                    slots.resize(off + 1, 0);
                }
                if slots[off] < bw {
                    slots[off] += 1;
                    break;
                }
                off += 1;
            }
            let cycle = dispatch + off as u64;
            if sink.enabled() {
                sink.event(&SimEvent::FwdSend { task: k, pu, reg: r, ready, sent: cycle });
            }
            self.machine.reg_src[r] = Some(RegSrc { task: k, send: cycle, retire });
        }
        self.machine.scratch.outs = outs;
    }

    /// Executes one attempt of task `k` starting at `dispatch`, into
    /// `self.machine.scratch.attempt`. `collect` enables per-arc stall
    /// attribution (trace sink active).
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn exec_task(
        &mut self,
        img: &ProgramImage<'_>,
        k: usize,
        dt: &DynTask,
        dispatch: u64,
        pu: usize,
        head_free: u64,
        force_sync: bool,
        collect: bool,
    ) {
        // Disjoint field borrows: the loop below holds the scratch
        // buffers mutably while driving the caches and predictors.
        let Engine { sim, machine, .. } = self;
        let Machine { icache, dcache, pus, reg_src, store_filter, sync_table, scratch, .. } =
            machine;
        let cfg = &sim.config;
        let t = &img.table;
        let trace = &*img.trace;
        let p = cfg.num_pus;
        let fetch_base = dispatch + cfg.task_start_overhead as u64;
        let mut fetch_cycle = fetch_base;
        let mut fetched = 0u32;
        let mut cur_line = u64::MAX;

        let local_reg = &mut scratch.local_reg; // dense reg → complete
        let mut write_mask = 0u64; // SWAR mask of written dense regs
        let issue_slots = &mut scratch.issue_slots; // cycle − fetch_base → issued
        issue_slots.clear();
        // Per-class functional unit free cycles.
        let mut fu_free = [[0u64; 2]; 4];
        let window = &mut scratch.window;
        const ROB: usize = ROB_SIZE as usize;
        let mut last_issue = 0u64;
        // Cache line sizes are asserted powers of two (`Cache::reset`), so
        // line mapping is a shift — not a 64-bit divide per instruction.
        let l1_shift = L1_LINE.trailing_zeros();
        let mem_lines = &mut scratch.mem_lines;
        mem_lines.clear();
        let arb_entries = cfg.arb_entries_per_pu as usize;
        let mut arb_overflow = false;
        let mut violation: Option<Violation> = None;
        let mut exit_ct_complete: Option<u64> = None;

        let a = &mut scratch.attempt;
        a.reset(fetch_base);

        // Accumulators live in registers for the duration of the loop;
        // they flush into the attempt record once at the end.
        let mut w_intra_acc = 0u64;
        let mut w_inter_acc = 0u64;
        let mut w_mem_acc = 0u64;
        let mut w_front_acc = 0u64;
        let mut w_res_acc = 0u64;
        let mut insts_acc = 0u64;
        let mut ct_insts_acc = 0u64;
        let mut br_preds_acc = 0u64;
        let mut br_hits_acc = 0u64;
        let mut mem = MemCounts::default();
        let mut complete_max = fetch_base;
        let mut pmax_last = 0u64;
        let mut i_row = 0usize;

        for step_idx in dt.start..dt.end {
            let outcome = trace.steps()[step_idx].outcome;
            let mem_addrs = trace.mem_addrs(step_idx);
            let is_last_step = step_idx + 1 == dt.end;
            let b = t.step_block[step_idx] as usize;
            let row0 = t.block_off[b] as usize;
            let rows = t.block_len[b] as usize;
            let pc0 = t.block_pc0[b];
            // One bounds check per column per block; the per-row indexes
            // below are all provably in range.
            let flags_col = &t.flags[row0..][..rows];
            let lat_col = &t.lat[row0..][..rows];
            let dst_col = &t.dst[row0..][..rows];
            let mem_col = &t.mem[row0..][..rows];
            for i in 0..rows {
                let r = row0 + i;
                let flags = flags_col[i];
                let pc = pc0 + 4 * i as u64;
                // ---- Fetch ----
                let line = pc >> l1_shift;
                if line != cur_line {
                    cur_line = line;
                    let lat = icache.access(pc);
                    if lat > L1_HIT_LATENCY {
                        let stall = (lat - L1_HIT_LATENCY) as u64;
                        fetch_cycle += stall;
                        fetched = 0;
                        w_front_acc += stall;
                    }
                }
                if fetched >= ISSUE_WIDTH {
                    fetch_cycle += 1;
                    fetched = 0;
                }
                let my_fetch = fetch_cycle;
                fetched += 1;
                let decode_ready = my_fetch + 1;

                // ---- Operands ----
                let mut intra_ready = 0u64;
                let mut inter_ready = 0u64;
                // The producing (task, reg) of the latest-arriving ring
                // value — the arc the stall is blamed on. Operand order
                // is the original program order (the table preserves
                // it), which the `arrival > inter_ready` tie-break
                // depends on.
                let mut inter_src: Option<(usize, usize)> = None;
                for &src in t.srcs_of(r) {
                    let d = src as usize;
                    if write_mask & (1 << d) != 0 {
                        intra_ready = intra_ready.max(local_reg[d]);
                    } else if let Some(rs) = reg_src[d] {
                        if rs.retire > dispatch {
                            let m = (k - rs.task) as u64; // 1..P-1 in flight
                            let hops = m.min(p as u64);
                            let arrival = rs.send + (hops - 1) * RING_HOP_LATENCY as u64;
                            if arrival > inter_ready {
                                inter_ready = arrival;
                                inter_src = Some((rs.task, d));
                            }
                        }
                    }
                }

                let mut ready = decode_ready.max(intra_ready).max(inter_ready);
                w_intra_acc += intra_ready.saturating_sub(decode_ready);
                let inter_stall = inter_ready.saturating_sub(decode_ready);
                w_inter_acc += inter_stall;
                if collect && inter_stall > 0 {
                    if let Some((producer, reg)) = inter_src {
                        a.fwd_stalls.push((producer, reg, inter_stall));
                    }
                }

                // ---- Window constraints ----
                if i_row >= ROB {
                    ready = ready.max(window[i_row % ROB].1);
                }
                if cfg.in_order {
                    ready = ready.max(last_issue);
                } else if i_row >= ISSUE_LIST as usize {
                    ready = ready.max(window[(i_row - ISSUE_LIST as usize) % ROB].0);
                }

                // ---- Issue slot + FU ----
                let class_idx = (flags & CLASS_MASK) as usize;
                let units = &mut fu_free[class_idx];
                // The first unit free soonest.
                let unit = usize::from(FU_COUNTS[class_idx] == 2 && units[1] < units[0]);
                let mut c = ready.max(units[unit]);
                {
                    // Issue cycles never precede the fetch base, so the
                    // slot table is a dense per-attempt offset vector.
                    let mut off = (c - fetch_base) as usize;
                    loop {
                        if off >= issue_slots.len() {
                            issue_slots.resize(off + 8, 0);
                        }
                        if issue_slots[off] < ISSUE_WIDTH {
                            issue_slots[off] += 1;
                            break;
                        }
                        off += 1;
                    }
                    c = fetch_base + off as u64;
                }
                w_res_acc += c - ready;
                // Reserve the unit: divides are unpipelined, everything
                // else accepts a new operation every cycle.
                let base_lat = lat_col[i] as u64;
                let occupancy = if flags & F_UNPIPELINED != 0 { base_lat } else { 1 };
                units[unit] = c + occupancy;

                // ---- Execute / memory ----
                let complete;
                if flags & (F_CT | F_LOAD | F_STORE) == 0 {
                    // Plain ALU op — the common case, kept branch-free.
                    complete = c + base_lat;
                    // Blame long latencies on intra-task deps
                    // only when someone waits; handled via
                    // operand waits of consumers.
                } else if flags & F_CT == 0 {
                    let addr = mem_addrs[mem_col[i] as usize];
                    // ARB capacity.
                    let line = addr >> l1_shift;
                    if arb_touch(mem_lines, line, arb_entries) && c < head_free {
                        let stall = head_free - c;
                        w_mem_acc += stall;
                        if !arb_overflow {
                            a.arb_cycle = c;
                        }
                        a.arb_stall += stall;
                        c = head_free;
                        arb_overflow = true;
                    }
                    if flags & F_LOAD != 0 {
                        mem.loads += 1;
                        let mut lat;
                        if let Some((sc, _)) = last_store(&a.stores, addr) {
                            // Intra-task store → load forward.
                            let wait = sc.saturating_sub(c);
                            w_intra_acc += wait;
                            c += wait;
                            lat = 1;
                        } else {
                            // A zero filter slot: no task in flight
                            // stored to `addr`.
                            let ss = if store_filter.may_hold(addr) {
                                mem.arb_probes += 1;
                                inflight_store(pus, k, addr)
                            } else {
                                None
                            };
                            mem.arb_hits += u64::from(ss.is_some());
                            match ss {
                                Some(ss) if ss.retire > c => {
                                    lat = ARB_HIT_LATENCY as u64;
                                    if sync_table.contains(&pc) || force_sync {
                                        // Synchronised: wait for the store.
                                        let wait = (ss.complete + 1).saturating_sub(c);
                                        w_mem_acc += wait;
                                        c += wait;
                                    } else if ss.complete > c {
                                        // Premature load: violation when
                                        // the store completes.
                                        if violation.map(|v| ss.complete < v.cycle).unwrap_or(true)
                                        {
                                            violation = Some(Violation {
                                                cycle: ss.complete,
                                                load_pc: pc,
                                                store_task: ss.task,
                                                store_pc: ss.pc,
                                            });
                                        }
                                    }
                                    // Otherwise the ARB forwards the
                                    // speculative value.
                                }
                                // Retired (or never stored): memory
                                // holds the value.
                                _ => lat = dcache.access(addr) as u64,
                            }
                        }
                        lat = lat.max(base_lat);
                        w_mem_acc += lat - 1;
                        complete = c + lat;
                    } else {
                        complete = c + base_lat;
                        mem.stores += 1;
                        a.stores.push((addr, complete, pc));
                    }
                } else {
                    complete = c + 1;
                    ct_insts_acc += 1;
                    // Intra-task control transfers run through the
                    // PU's predictors (gshare for conditionals, a
                    // last-target table for switches; jumps, inlined
                    // calls and returns are statically/RAS
                    // predictable). The exit CT is the task
                    // predictor's job.
                    if !is_last_step {
                        let correct = match outcome {
                            CtOutcome::Branch(taken) => {
                                pus[pu].gshare.predict_and_update(pc, taken)
                            }
                            CtOutcome::Switch(arm) => {
                                let slot = pus[pu].indirect.entry(pc).or_insert(arm);
                                let ok = *slot == arm;
                                *slot = arm;
                                ok
                            }
                            _ => true,
                        };
                        br_preds_acc += 1;
                        if correct {
                            br_hits_acc += 1;
                        } else {
                            let redirect = complete + BRANCH_MISPREDICT_PENALTY as u64;
                            if redirect > fetch_cycle {
                                w_front_acc += redirect - fetch_cycle;
                                fetch_cycle = redirect;
                                fetched = 0;
                            }
                        }
                    }
                }

                let dst = dst_col[i];
                if dst != NO_DST {
                    local_reg[dst as usize] = complete;
                    write_mask |= 1 << dst;
                }
                pmax_last = pmax_last.max(complete);
                window[i_row % ROB] = (c, pmax_last);
                last_issue = c;
                i_row += 1;
                insts_acc += 1;
                complete_max = complete_max.max(complete);
                // A step's CT, when emitted, is its final instruction.
                if flags & F_CT != 0 && is_last_step {
                    exit_ct_complete = Some(complete);
                }
            }
        }
        // The exit resolves when the final control transfer completes;
        // a task ending without one (halt) resolves at completion.
        a.w_intra = w_intra_acc;
        a.w_inter = w_inter_acc;
        a.w_mem = w_mem_acc;
        a.w_front = w_front_acc;
        a.w_res = w_res_acc;
        a.insts = insts_acc;
        a.ct_insts = ct_insts_acc;
        a.br_preds = br_preds_acc;
        a.br_hits = br_hits_acc;
        a.complete = complete_max;
        a.resolve = exit_ct_complete.unwrap_or(a.complete);
        a.write_mask = write_mask;
        a.mem = mem;
        a.arb_overflow = arb_overflow;
        a.violation = violation;
    }
}

/// Splits a task's busy span into the §2.3 categories.
fn account(cfg: &SimConfig, b: &mut CycleBreakdown, a: &Attempt, dispatch: u64, imbalance: u64) {
    b.start_overhead += cfg.task_start_overhead as u64;
    b.load_imbalance += imbalance;
    b.end_overhead += cfg.task_end_overhead as u64;
    let exec_span = a.complete.saturating_sub(dispatch + cfg.task_start_overhead as u64);
    let ideal = a.insts.div_ceil(ISSUE_WIDTH as u64).max(1);
    let stall = exec_span.saturating_sub(ideal);
    b.useful += exec_span.min(ideal);
    if stall == 0 {
        return;
    }
    let weights = [a.w_intra, a.w_inter, a.w_mem, a.w_front, a.w_res];
    let wsum: u64 = weights.iter().sum();
    if wsum == 0 {
        b.useful += stall;
        return;
    }
    let [intra, inter, mem, front, res] = weights.map(|w| stall * w / wsum);
    b.intra_dep += intra;
    b.inter_comm += inter;
    b.memory += mem;
    b.frontend += front;
    b.resource += res;
    // Rounding residue → useful, keeping the per-task identity.
    b.useful += stall - (intra + inter + mem + front + res);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventLog;
    use ms_analysis::ProgramContext;
    use ms_tasksel::Strategy;

    /// Instructions per equivalence run: several chunks of every size
    /// below.
    const INSTS: usize = 8_000;

    /// The chunk loop at chunk sizes of one step (a chunk of one
    /// instruction), 1,000 and 7,919 (prime) instructions gives the
    /// statistics and the event stream of the whole trace in one chunk,
    /// on every workload and machine width.
    fn chunked_runs_equal_whole_trace_runs(strategy: Strategy) {
        for w in ms_workloads::suite() {
            let sel = strategy.selector(4).select(&ProgramContext::new(w.build()));
            let trace = TraceGenerator::new(&sel.program, 3).generate(INSTS);
            for cfg in [SimConfig::single_pu(), SimConfig::four_pu(), SimConfig::eight_pu()] {
                let case = format!("{} {} {} PUs", w.name, strategy.label(), cfg.num_pus);
                let sim = Simulator::new(cfg, &sel.program, &sel.partition);
                let whole = sim.run(&trace);
                let mut whole_log = EventLog::new();
                assert_eq!(sim.run_with_sink(&trace, &mut whole_log), whole, "{case}: logged");
                for chunk in [1, 1_000, 7_919] {
                    let mut log = EventLog::new();
                    let chunked = sim.run_chunked(3, INSTS, chunk, &mut log);
                    assert_eq!(chunked, whole, "{case}: chunks of {chunk}");
                    assert!(
                        log.to_jsonl() == whole_log.to_jsonl(),
                        "{case}: chunks of {chunk} emit other events"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_bb_runs_equal_whole_trace_runs() {
        chunked_runs_equal_whole_trace_runs(Strategy::BasicBlock);
    }

    #[test]
    fn chunked_cf_runs_equal_whole_trace_runs() {
        chunked_runs_equal_whole_trace_runs(Strategy::ControlFlow);
    }

    #[test]
    fn chunked_dd_runs_equal_whole_trace_runs() {
        chunked_runs_equal_whole_trace_runs(Strategy::DataDependence);
    }

    #[test]
    fn chunked_ts_runs_equal_whole_trace_runs() {
        chunked_runs_equal_whole_trace_runs(Strategy::TaskSize);
    }

    /// A machine of `p` PUs after tasks `0..stores.len()` committed in
    /// order, task `k`'s `i`-th store going to `stores[k][i]` and
    /// completing at `100 + 10 * k + i`, and task `k` retiring at
    /// `10 * (k + 1)`; then the next task starts.
    fn committed(p: usize, stores: &[&[u64]]) -> Machine {
        let mut m = Machine::default();
        m.reset(&SimConfig::with_pus(p));
        for (k, addrs) in stores.iter().enumerate() {
            m.start_stores(k % p);
            let mut list: Stores = (0..addrs.len())
                .map(|i| (addrs[i], (100 + 10 * k + i) as u64, 4 * addrs[i]))
                .collect();
            m.pus[k % p].free = 10 * (k as u64 + 1);
            m.commit_stores(k % p, &mut list);
        }
        m.start_stores(stores.len() % p);
        m
    }

    /// [`inflight_store`] for task `k` behind the filter, as a load
    /// that missed its own task's stores looks it up.
    fn lookup(m: &Machine, k: usize, addr: u64) -> Option<StoreSrc> {
        m.store_filter.may_hold(addr).then(|| inflight_store(&m.pus, k, addr)).flatten()
    }

    #[test]
    fn a_store_p_minus_1_tasks_back_is_in_flight() {
        // Task 4 runs on 4 PUs: tasks 1..=3 are in flight.
        let m = committed(4, &[&[0x80], &[0x40, 0x100], &[0x100, 0x200], &[0x200, 0x200]]);
        let store = |task: usize, complete: u64, pc: u64| {
            Some(StoreSrc { task, complete, pc, retire: 10 * (task as u64 + 1) })
        };
        assert_eq!(lookup(&m, 4, 0x40), store(1, 110, 0x100), "exactly P - 1 tasks back");
        assert_eq!(lookup(&m, 4, 0x100), store(2, 120, 0x400), "the latest task's store wins");
        assert_eq!(lookup(&m, 4, 0x200), store(3, 131, 0x800), "and its last store");
        assert_eq!(lookup(&m, 4, 0x300), None, "never stored");
    }

    #[test]
    fn a_store_p_tasks_back_reads_from_the_d_cache() {
        // Task 0's store left the filter when task 4 started on its PU:
        // the load does not even scan the lists.
        let m = committed(4, &[&[0x80], &[0x40], &[0x40], &[0x40]]);
        assert!(!m.store_filter.may_hold(0x80), "task 0's store is still counted");
        assert_eq!(inflight_store(&m.pus, 4, 0x80), None);
        // Early in the run fewer than P - 1 tasks precede the load.
        let m = committed(8, &[&[0x80], &[0x40]]);
        assert_eq!(lookup(&m, 2, 0x80).map(|s| s.task), Some(0));
    }

    #[test]
    fn one_pu_never_scans() {
        let stores: Vec<&[u64]> = vec![&[0x40, 0x80]; 5];
        let m = committed(1, &stores);
        assert!(m.store_filter.is_clear(), "a 1-PU task has no store in flight");
        assert_eq!(inflight_store(&m.pus, 5, 0x40), None);
    }

    #[test]
    fn draining_the_store_lists_clears_the_filter() {
        let stores: Vec<Vec<u64>> =
            (0..20).map(|k| (0..k % 5).map(|i| 8 * (k + i)).collect()).collect();
        let stores: Vec<&[u64]> = stores.iter().map(Vec::as_slice).collect();
        let mut m = committed(8, &stores);
        assert!(!m.store_filter.is_clear());
        // Eight PUs' lists drain into a four-PU machine.
        m.reset(&SimConfig::four_pu());
        assert!(m.store_filter.is_clear(), "a drained machine's filter counts a store");
        assert_eq!(m.pus.len(), 4);
        assert!(m.pus.iter().all(|pu| pu.stores.is_empty()));
    }

    #[test]
    fn the_capped_line_list_overflows_when_distinct_lines_pass_capacity() {
        for seed in 0..64u64 {
            let mut rng = ms_ir::SplitMix64::seed_from_u64(0xa4b_0000 ^ seed);
            let entries = [0, 1, 2, 8, 32][seed as usize % 5];
            // A pool of about twice the capacity, so streams both repeat
            // lines and pass the capacity.
            let pool = 2 * entries as u64 + 2;
            let mut lines = Vec::new();
            let mut distinct = std::collections::BTreeSet::new();
            for access in 0..200 {
                let line = rng.next_u64() % pool;
                distinct.insert(line);
                assert_eq!(
                    arb_touch(&mut lines, line, entries),
                    distinct.len() > entries,
                    "seed {seed}, {entries} entries, access {access}: line {line}"
                );
                assert!(lines.len() <= entries + 1, "the list grew past its cap");
            }
        }
    }

    #[test]
    fn a_stream_hands_out_chunks_until_the_last() {
        let program = ms_workloads::by_name("li").unwrap().build();
        let sel = Strategy::ControlFlow.selector(4).select(&ProgramContext::new(program));
        let whole = split_tasks(
            &TraceGenerator::new(&sel.program, 1).generate(INSTS),
            &sel.program,
            &sel.partition,
        );
        let mut chunks = ChunkStream::with_chunk_insts(&sel.program, &sel.partition, 1, INSTS, 999);
        let (mut n, mut tasks) = (0, 0);
        while let Some(chunk) = chunks.next_chunk() {
            assert_eq!(chunk.first_task, tasks, "chunks number tasks run-wide");
            assert!(!chunk.tasks.is_empty(), "only an empty trace has an empty chunk");
            assert_eq!(chunk.tasks.last().unwrap().exit == DynExit::End, chunk.is_last());
            tasks += chunk.tasks.len();
            n += 1;
        }
        assert!(chunks.next_chunk().is_none(), "the stream stays over");
        assert_eq!(tasks, whole.len());
        assert!(n >= INSTS / 999, "{n} chunks");

        // An empty trace is one last chunk without tasks.
        let mut empty = ChunkStream::new(&sel.program, &sel.partition, 1, 0);
        let chunk = empty.next_chunk().expect("one chunk");
        assert!(chunk.is_last() && chunk.tasks.is_empty());
        let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition)
            .run_streamed(1, 0, &mut NullSink);
        assert_eq!((stats.num_dyn_tasks, stats.total_cycles), (0, 0));
    }
}
