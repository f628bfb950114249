//! Seeded dynamic trace generation.
//!
//! Walks a program's CFG sampling branch outcomes from the IR's
//! [`BranchBehavior`] models, concrete memory addresses from its
//! [`AddrSpec`] generators, and maintaining a call stack — producing the
//! correct-path dynamic stream a value-level interpreter would produce,
//! without interpreting values. Fully deterministic for a given seed.

use ms_ir::{
    AddrSpec, BlockId, BlockRef, BranchBehavior, FuncId, FxMap, Program, SplitMix64, Terminator,
};

use crate::step::{addr_offset, CtOutcome, Trace, TraceStep};

/// Instructions per chunk of a streamed run: the trace generator fills,
/// the splitter cuts and the simulator decodes about this many at a
/// time, so a run's trace memory is set by this constant and not by its
/// instruction budget.
pub const TRACE_CHUNK_INSTS: usize = 1 << 17;

/// Base byte address of the simulated stack region (frames grow down).
const STACK_TOP: u64 = 0x7fff_0000;
/// Bytes reserved per call frame.
const FRAME_SIZE: u64 = 512;
/// Calls deeper than this are skipped (recursion guard).
const MAX_CALL_DEPTH: usize = 128;

/// Generates dynamic traces from a program's behaviour models.
///
/// # Example
///
/// ```
/// use ms_ir::{FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};
/// use ms_trace::TraceGenerator;
///
/// let mut pb = ProgramBuilder::new();
/// let m = pb.declare_function("main");
/// let mut fb = FunctionBuilder::new("main");
/// let b = fb.add_block();
/// fb.push_inst(b, Opcode::IAdd.inst().dst(Reg::int(1)));
/// fb.set_terminator(b, Terminator::Halt);
/// pb.define_function(m, fb.finish(b)?);
/// let program = pb.finish(m)?;
///
/// let trace = TraceGenerator::new(&program, 42).generate_once(1_000);
/// assert_eq!(trace.num_insts(), 1); // one instruction, halt emits none
/// # Ok::<(), ms_ir::BuildError>(())
/// ```
#[derive(Debug)]
pub struct TraceGenerator<'p> {
    program: &'p Program,
    seed: u64,
}

impl<'p> TraceGenerator<'p> {
    /// Creates a generator for `program` with the given RNG seed.
    pub fn new(program: &'p Program, seed: u64) -> Self {
        TraceGenerator { program, seed }
    }

    /// Generates a trace of at least `max_insts` dynamic instructions
    /// (the final block completes) or until the program halts, whichever
    /// comes first. The program restarts from its entry if it halts
    /// before `max_insts` *and* made progress, so short programs can fill
    /// long traces (modelling an outer driver loop).
    ///
    /// This is the one-chunk case of [`TraceGenerator::stream`]: the
    /// whole trace is held at once.
    pub fn generate(&self, max_insts: usize) -> Trace {
        self.whole(max_insts, true)
    }

    /// Like [`TraceGenerator::generate`], but never restarts: the trace
    /// ends at the first program halt even if the budget remains.
    pub fn generate_once(&self, max_insts: usize) -> Trace {
        self.whole(max_insts, false)
    }

    /// A resumable stream of the steps [`TraceGenerator::generate`]
    /// would produce for `max_insts`, handed out chunk by chunk through
    /// [`TraceStream::fill`]. Nothing it allocates scales with
    /// `max_insts`.
    pub fn stream(&self, max_insts: usize) -> TraceStream<'p> {
        TraceStream::new(self.program, self.seed, max_insts, true)
    }

    fn whole(&self, max_insts: usize, restart: bool) -> Trace {
        let mut trace = Trace::default();
        TraceStream::new(self.program, self.seed, max_insts, restart).fill(&mut trace, usize::MAX);
        trace
    }
}

/// A trace generation in progress: the walker's state plus the
/// instruction budget left. Each [`TraceStream::fill`] appends the next
/// steps to a caller-owned [`Trace`], so one buffer serves every chunk
/// of an arbitrarily long run.
#[derive(Debug)]
pub struct TraceStream<'p> {
    walker: Walker<'p>,
    restart: bool,
    max_insts: usize,
    /// Instructions generated so far, over every chunk.
    insts: usize,
}

impl<'p> TraceStream<'p> {
    fn new(program: &'p Program, seed: u64, max_insts: usize, restart: bool) -> Self {
        TraceStream { walker: Walker::new(program, seed), restart, max_insts, insts: 0 }
    }

    /// Appends steps to `trace` until it holds at least `chunk_insts`
    /// instructions (at least one step is appended), the budget is spent
    /// or the program ends for good. Returns `true` once the stream is
    /// over: no later call appends anything.
    ///
    /// The steps are exactly those of [`TraceGenerator::generate`] for
    /// the same budget, in order, however the calls chunk them. The
    /// buffers grow for at most [`TRACE_CHUNK_INSTS`] instructions ahead.
    pub fn fill(&mut self, trace: &mut Trace, chunk_insts: usize) -> bool {
        let prof = ms_prof::span("trace.generate");
        let program = self.walker.program;
        // Every workload averages 3.8–24.5 instructions per step, so a
        // third of the chunk in steps never regrows; memory instructions
        // are 22–41% of their dynamic instructions, so half the chunk in
        // addresses never regrows either. Capacity that is never written
        // is never faulted in, and none of it scales with the budget.
        let ahead =
            chunk_insts.min(self.max_insts.saturating_sub(self.insts)).min(TRACE_CHUNK_INSTS);
        trace.steps.reserve((ahead / 3).saturating_sub(trace.steps.len()));
        trace.addr_off.reserve((ahead / 3 + 1).saturating_sub(trace.addr_off.len()));
        trace.addrs.reserve((ahead / 2).saturating_sub(trace.addrs.len()));
        let first = trace.steps.len();
        let before = self.insts;
        let ended = loop {
            if self.insts >= self.max_insts {
                break true;
            }
            if trace.num_insts >= chunk_insts && trace.steps.len() > first {
                break false;
            }
            match self.walker.step(&mut trace.addrs) {
                Some(step) => {
                    let n = step.num_insts(program);
                    self.insts += n;
                    trace.num_insts += n;
                    trace.steps.push(step);
                    trace.addr_off.push(addr_offset(trace.addrs.len()));
                }
                None => {
                    // Program halted. Restart while budget remains; stop
                    // if the program emits nothing (avoid spinning).
                    if !self.restart || self.insts == 0 {
                        break true;
                    }
                    self.walker.restart();
                }
            }
        };
        let added = (self.insts - before) as u64;
        prof.add_items(added);
        ms_prof::counter_add("trace.dyn_insts", added);
        ended
    }
}

/// One call frame of the walker.
#[derive(Debug)]
struct Frame {
    func: FuncId,
    ret_block: BlockId,
}

/// CFG walking state.
#[derive(Debug)]
struct Walker<'p> {
    program: &'p Program,
    rng: SplitMix64,
    cur: Option<BlockRef>,
    stack: Vec<Frame>,
    /// Remaining taken-count for active `Loop` branches, keyed by
    /// (call depth, func, block) so distinct activations have distinct
    /// counters while re-invocations at the same depth reset naturally.
    loop_state: FxMap<(usize, FuncId, BlockId), u32>,
    /// Global position per `Pattern` branch.
    pattern_pos: FxMap<(FuncId, BlockId), usize>,
    /// Per-generator stream positions (for `Stride`).
    stride_pos: Vec<u64>,
}

impl<'p> Walker<'p> {
    fn new(program: &'p Program, seed: u64) -> Self {
        Walker {
            program,
            rng: SplitMix64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            cur: Some(BlockRef::new(program.entry(), program.function(program.entry()).entry())),
            stack: Vec::new(),
            loop_state: FxMap::default(),
            pattern_pos: FxMap::default(),
            stride_pos: vec![0; program.addr_gens().len()],
        }
    }

    fn restart(&mut self) {
        self.cur = Some(BlockRef::new(
            self.program.entry(),
            self.program.function(self.program.entry()).entry(),
        ));
        self.stack.clear();
        self.loop_state.clear();
    }

    /// Executes the current block, appending its memory addresses to
    /// `addrs`, and returns its step and advances. Returns `None` when
    /// the program has halted.
    fn step(&mut self, addrs: &mut Vec<u64>) -> Option<TraceStep> {
        let at = self.cur?;
        let func = self.program.function(at.func);
        let blk = func.block(at.block);
        let depth = self.stack.len() as u32;

        for g in blk.insts().iter().filter_map(|i| i.mem_ref()) {
            addrs.push(self.next_addr(g));
        }

        let (outcome, next) = match blk.terminator() {
            Terminator::Jump { target } => (CtOutcome::Jump, Some(BlockRef::new(at.func, *target))),
            Terminator::Branch { taken, fall, behavior, .. } => {
                let t = self.sample_branch(at, behavior);
                let dst = if t { *taken } else { *fall };
                (CtOutcome::Branch(t), Some(BlockRef::new(at.func, dst)))
            }
            Terminator::Switch { targets, weights, .. } => {
                let idx = self.sample_switch(weights);
                (CtOutcome::Switch(idx as u16), Some(BlockRef::new(at.func, targets[idx])))
            }
            Terminator::Call { callee, ret_to } => {
                if self.stack.len() >= MAX_CALL_DEPTH {
                    (CtOutcome::SkippedCall, Some(BlockRef::new(at.func, *ret_to)))
                } else {
                    self.stack.push(Frame { func: at.func, ret_block: *ret_to });
                    let entry = self.program.function(*callee).entry();
                    (CtOutcome::Call, Some(BlockRef::new(*callee, entry)))
                }
            }
            Terminator::Return => match self.stack.pop() {
                Some(frame) => {
                    (CtOutcome::Return, Some(BlockRef::new(frame.func, frame.ret_block)))
                }
                None => (CtOutcome::Return, None), // return from entry ends the run
            },
            Terminator::Halt => (CtOutcome::Halt, None),
        };
        self.cur = next;
        Some(TraceStep { block: at, outcome, depth })
    }

    fn sample_branch(&mut self, at: BlockRef, behavior: &BranchBehavior) -> bool {
        match behavior {
            BranchBehavior::Taken(p) => self.rng.gen_bool((*p).clamp(0.0, 1.0)),
            BranchBehavior::Pattern(v) => {
                if v.is_empty() {
                    return self.rng.gen_bool(0.5);
                }
                let pos = self.pattern_pos.entry((at.func, at.block)).or_insert(0);
                let out = v[*pos % v.len()];
                *pos += 1;
                out
            }
            BranchBehavior::Loop { avg_trips, jitter } => {
                let key = (self.stack.len(), at.func, at.block);
                let remaining = match self.loop_state.get(&key).copied() {
                    Some(r) => r,
                    None => {
                        let base = (*avg_trips).max(1);
                        let j = *jitter;
                        let trips = if j == 0 {
                            base
                        } else {
                            let lo = base.saturating_sub(j).max(1);
                            let hi = base + j;
                            self.rng.gen_range(lo..=hi)
                        };
                        trips - 1 // latch is taken trips-1 times
                    }
                };
                if remaining > 0 {
                    self.loop_state.insert(key, remaining - 1);
                    true
                } else {
                    self.loop_state.remove(&key);
                    false
                }
            }
        }
    }

    fn sample_switch(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        if total == 0 {
            return 0;
        }
        let mut pick = self.rng.gen_range(0..total);
        for (i, &w) in weights.iter().enumerate() {
            if pick < w as u64 {
                return i;
            }
            pick -= w as u64;
        }
        weights.len() - 1
    }

    fn next_addr(&mut self, g: ms_ir::AddrGenId) -> u64 {
        match &self.program.addr_gens()[g.index()] {
            AddrSpec::Global { addr } => *addr & !7,
            AddrSpec::Stride { base, stride, len } => {
                let pos = self.stride_pos[g.index()];
                self.stride_pos[g.index()] = pos + 1;
                let span = (*len).max(1) * 8;
                let off = (pos as i64 * *stride).rem_euclid(span as i64) as u64;
                (base + off) & !7
            }
            AddrSpec::Indexed { base, len } => {
                let i = self.rng.gen_range(0..(*len).max(1));
                (base + i * 8) & !7
            }
            AddrSpec::Stack { slot } => {
                let depth = self.stack.len() as u64;
                let frame_base = STACK_TOP - depth * FRAME_SIZE;
                (frame_base + *slot as u64 * 8) & !7
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::CtOutcome;
    use ms_ir::{FunctionBuilder, Opcode, ProgramBuilder, Reg};

    fn loop_program(trips: u32) -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let body = fb.add_block();
        let exit = fb.add_block();
        fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
        fb.set_terminator(entry, Terminator::Jump { target: body });
        fb.set_terminator(
            body,
            Terminator::Branch {
                taken: body,
                fall: exit,
                cond: vec![Reg::int(1)],
                behavior: BranchBehavior::exact_loop(trips),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        pb.define_function(m, fb.finish(entry).unwrap());
        pb.finish(m).unwrap()
    }

    #[test]
    fn loop_trip_counts_are_exact() {
        let p = loop_program(7);
        let t = TraceGenerator::new(&p, 1).generate_once(30);
        // entry + 7 body executions + exit.
        let body_steps = t.steps().iter().filter(|s| s.block.block == BlockId::new(1)).count();
        assert_eq!(body_steps, 7);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = loop_program(5);
        let a = TraceGenerator::new(&p, 9).generate(200);
        let b = TraceGenerator::new(&p, 9).generate(200);
        assert_eq!(a, b);
    }

    #[test]
    fn generated_columns_pass_the_checked_constructor() {
        // Restarts interleave steps with and without addresses.
        let p = stride_program();
        let t = TraceGenerator::new(&p, 4).generate(500);
        let addrs: Vec<u64> = (0..t.steps().len()).flat_map(|i| t.mem_addrs(i).to_vec()).collect();
        assert!(!addrs.is_empty());
        assert_eq!(Trace::new(t.steps().to_vec(), addrs, &p), t);
    }

    #[test]
    fn restart_refills_long_traces() {
        let p = loop_program(3);
        let t = TraceGenerator::new(&p, 2).generate(200);
        assert!(t.num_insts() >= 200, "got {}", t.num_insts());
        // More than one Halt outcome means the program restarted.
        let halts = t.steps().iter().filter(|s| s.outcome == CtOutcome::Halt).count();
        assert!(halts >= 2);
    }

    #[test]
    fn calls_and_returns_balance() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let leaf = pb.declare_function("leaf");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        fb.set_terminator(b0, Terminator::Call { callee: leaf, ret_to: b1 });
        fb.set_terminator(b1, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let mut fb = FunctionBuilder::new("leaf");
        let l0 = fb.add_block();
        fb.push_inst(l0, Opcode::IAdd.inst().dst(Reg::int(1)));
        fb.set_terminator(l0, Terminator::Return);
        pb.define_function(leaf, fb.finish(l0).unwrap());
        let p = pb.finish(m).unwrap();
        let t = TraceGenerator::new(&p, 3).generate_once(10);
        let calls = t.steps().iter().filter(|s| s.outcome == CtOutcome::Call).count();
        let rets = t.steps().iter().filter(|s| s.outcome == CtOutcome::Return).count();
        assert_eq!(calls, rets);
        // Depth is 1 inside the callee.
        let leaf_step = t.steps().iter().find(|s| s.block.func == leaf).unwrap();
        assert_eq!(leaf_step.depth, 1);
    }

    /// A six-trip loop whose body loads through a 4-element stride.
    fn stride_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.add_addr_gen(AddrSpec::Stride { base: 0x1000, stride: 8, len: 4 });
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let body = fb.add_block();
        let exit = fb.add_block();
        fb.push_inst(body, Opcode::Load.inst().dst(Reg::int(1)).mem(g));
        fb.set_terminator(entry, Terminator::Jump { target: body });
        fb.set_terminator(
            body,
            Terminator::Branch {
                taken: body,
                fall: exit,
                cond: vec![],
                behavior: BranchBehavior::exact_loop(6),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        pb.define_function(m, fb.finish(entry).unwrap());
        pb.finish(m).unwrap()
    }

    #[test]
    fn stride_addresses_advance_and_wrap() {
        let p = stride_program();
        let t = TraceGenerator::new(&p, 5).generate_once(100);
        let addrs: Vec<u64> = (0..t.steps().len())
            .map(|i| t.mem_addrs(i))
            .filter(|a| !a.is_empty())
            .map(|a| a[0])
            .take(6)
            .collect();
        assert_eq!(addrs, vec![0x1000, 0x1008, 0x1010, 0x1018, 0x1000, 0x1008]);
    }

    #[test]
    fn stack_slots_differ_by_depth_not_by_call_site() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let leaf = pb.declare_function("leaf");
        let slot = pb.add_addr_gen(AddrSpec::Stack { slot: 2 });
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        fb.push_inst(b0, Opcode::Store.inst().src(Reg::int(1)).mem(slot));
        fb.set_terminator(b0, Terminator::Call { callee: leaf, ret_to: b1 });
        fb.set_terminator(b1, Terminator::Call { callee: leaf, ret_to: b2 });
        fb.set_terminator(b2, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let mut fb = FunctionBuilder::new("leaf");
        let l0 = fb.add_block();
        fb.push_inst(l0, Opcode::Load.inst().dst(Reg::int(3)).mem(slot));
        fb.set_terminator(l0, Terminator::Return);
        pb.define_function(leaf, fb.finish(l0).unwrap());
        let p = pb.finish(m).unwrap();
        let t = TraceGenerator::new(&p, 7).generate_once(20);
        let main_addr = t.mem_addrs(0)[0];
        let leaf_addrs: Vec<u64> = (0..t.steps().len())
            .filter(|&i| t.steps()[i].block.func == leaf)
            .map(|i| t.mem_addrs(i)[0])
            .collect();
        assert_eq!(leaf_addrs.len(), 2);
        // Same depth → the two sibling activations reuse the frame.
        assert_eq!(leaf_addrs[0], leaf_addrs[1]);
        assert_ne!(main_addr, leaf_addrs[0]);
    }

    #[test]
    fn pattern_branches_cycle() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let a = fb.add_block();
        let b = fb.add_block();
        fb.set_terminator(
            entry,
            Terminator::Branch {
                taken: a,
                fall: b,
                cond: vec![],
                behavior: BranchBehavior::Pattern(vec![true, false]),
            },
        );
        fb.set_terminator(a, Terminator::Halt);
        fb.set_terminator(b, Terminator::Halt);
        pb.define_function(m, fb.finish(entry).unwrap());
        let p = pb.finish(m).unwrap();
        // Each restart samples the next pattern element: T, F, T, F...
        let t = TraceGenerator::new(&p, 11).generate(8);
        let outcomes: Vec<CtOutcome> = t
            .steps()
            .iter()
            .filter(|s| s.block.block == BlockId::new(0))
            .map(|s| s.outcome)
            .collect();
        assert!(outcomes.len() >= 2);
        assert_eq!(outcomes[0], CtOutcome::Branch(true));
        assert_eq!(outcomes[1], CtOutcome::Branch(false));
    }
}
