//! Reusable CFG-construction primitives for the synthetic benchmarks.
//!
//! Each primitive appends structure to a [`FunctionBuilder`] using a
//! seeded RNG, so whole programs are deterministic per seed. The
//! primitives are deliberately close to the shapes the paper's
//! heuristics care about: straight-line blocks with register dependence
//! chains, reconverging diamonds, switch dispatch regions, counted
//! loops, and call sites.

use ms_ir::{
    AddrGenId, BlockId, BranchBehavior, FuncId, FunctionBuilder, Opcode, Reg, SplitMix64,
    Terminator,
};

/// Instruction mix knobs for [`fill_block`].
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Fraction of ALU operations that are floating point.
    pub fp: f64,
    /// Probability an ALU op is a multiply.
    pub mul: f64,
    /// Probability an ALU op is a divide.
    pub div: f64,
    /// Probability an instruction is a load (given memory generators).
    pub load: f64,
    /// Probability an instruction is a store (given memory generators).
    pub store: f64,
    /// Probability a source operand is drawn from registers already
    /// written *in the same block* (when any exist) rather than from the
    /// shared window. High locality models loop iterations that load
    /// their operands and compute on them (FP kernels); low locality
    /// creates the cross-block register dependences the data dependence
    /// heuristic targets (integer codes).
    pub local_src: f64,
    /// When a source is *not* block-local: probability it reads the
    /// shared window (a true cross-block value, produced who-knows-where)
    /// instead of the induction register `r1`, which every block updates
    /// first (the paper's §3.2 induction-at-loop-top scheduling).
    pub window_read: f64,
}

impl OpMix {
    /// A typical integer mix: no FP, some multiplies, ~25% loads, ~10%
    /// stores, moderate cross-block register traffic.
    pub fn int() -> Self {
        OpMix {
            fp: 0.0,
            mul: 0.08,
            div: 0.01,
            load: 0.25,
            store: 0.10,
            local_src: 0.70,
            window_read: 0.5,
        }
    }

    /// A typical FP-kernel mix: mostly FP arithmetic over streamed data,
    /// operands overwhelmingly block-local.
    pub fn fp() -> Self {
        OpMix {
            fp: 0.75,
            mul: 0.35,
            div: 0.03,
            load: 0.28,
            store: 0.12,
            local_src: 0.92,
            window_read: 0.15,
        }
    }
}

/// The register window random code draws operands from. Small windows
/// create dense dependence chains (within and across blocks); distinct
/// windows decouple regions.
#[derive(Debug, Clone, Copy)]
pub struct RegPool {
    /// First integer register (inclusive).
    pub int_lo: u8,
    /// Last integer register (exclusive).
    pub int_hi: u8,
    /// First FP register (inclusive).
    pub fp_lo: u8,
    /// Last FP register (exclusive).
    pub fp_hi: u8,
}

impl RegPool {
    /// A default window over r2..r14 / f2..f14.
    pub fn default_window() -> Self {
        RegPool { int_lo: 2, int_hi: 14, fp_lo: 2, fp_hi: 14 }
    }

    fn int_reg(&self, rng: &mut SplitMix64) -> Reg {
        Reg::int(rng.gen_range(self.int_lo..self.int_hi))
    }

    fn fp_reg(&self, rng: &mut SplitMix64) -> Reg {
        Reg::fp(rng.gen_range(self.fp_lo..self.fp_hi))
    }
}

/// Fills `blk` with `n` random instructions drawn from `mix`, using the
/// register window `pool` and the memory generators `mems` (loads and
/// stores pick among them uniformly).
///
/// Equivalent to [`fill_block_flow`] with no incoming dataflow.
pub fn fill_block(
    fb: &mut FunctionBuilder,
    blk: BlockId,
    rng: &mut SplitMix64,
    n: usize,
    mix: OpMix,
    mems: &[AddrGenId],
    pool: RegPool,
) {
    let _ = fill_block_flow(fb, blk, rng, n, mix, mems, pool, &[]);
}

/// Like [`fill_block`], but with explicit cross-block dataflow: sources
/// prefer block-local definitions, then the `flow_in` registers (values
/// computed by the preceding block — the def-use chains the data
/// dependence heuristic chases and the register ring must carry when a
/// partition splits them), then the induction register / shared window.
/// Returns the block's outgoing flow (its last few definitions).
#[allow(clippy::too_many_arguments)]
pub fn fill_block_flow(
    fb: &mut FunctionBuilder,
    blk: BlockId,
    rng: &mut SplitMix64,
    n: usize,
    mix: OpMix,
    mems: &[AddrGenId],
    pool: RegPool,
    flow_in: &[Reg],
) -> Vec<Reg> {
    // The induction register is read as the cheap fallback source; it is
    // *written* only at loop headers (see [`push_induction`]), early in
    // its producing task, exactly as the paper's compiler schedules
    // induction updates (§3.2).
    let induction: Reg = Reg::int(1);
    // Registers defined earlier in this block, per class — preferred
    // operand sources under `mix.local_src` (recency-biased).
    let mut local_int: Vec<Reg> = Vec::new();
    let mut local_fp: Vec<Reg> = Vec::new();
    // Uniform choice over all block-local definitions keeps dependence
    // DAGs shallow (logarithmic depth), modelling the instruction-level
    // parallelism real compiler-scheduled blocks have.
    let flow_int: Vec<Reg> =
        flow_in.iter().copied().filter(|r| r.class() == ms_ir::RegClass::Int).collect();
    let flow_fp: Vec<Reg> =
        flow_in.iter().copied().filter(|r| r.class() == ms_ir::RegClass::Fp).collect();
    let src_int = |rng: &mut SplitMix64, local: &Vec<Reg>| -> Reg {
        if !local.is_empty() && rng.gen_bool(mix.local_src) {
            local[rng.gen_range(0..local.len())]
        } else if !flow_int.is_empty() && rng.gen_bool(0.75) {
            flow_int[rng.gen_range(0..flow_int.len())]
        } else if rng.gen_bool(mix.window_read) {
            pool.int_reg(rng)
        } else {
            induction
        }
    };
    let src_fp = |rng: &mut SplitMix64, local: &Vec<Reg>| -> Reg {
        if !local.is_empty() && rng.gen_bool(mix.local_src) {
            local[rng.gen_range(0..local.len())]
        } else if !flow_fp.is_empty() && rng.gen_bool(0.75) {
            flow_fp[rng.gen_range(0..flow_fp.len())]
        } else if !local.is_empty() {
            // FP values never come from far away: fall back to the block
            // itself before touching the shared window (whose producer
            // could be arbitrarily late in an arbitrary predecessor).
            local[rng.gen_range(0..local.len())]
        } else {
            pool.fp_reg(rng)
        }
    };
    for i in 0..n {
        // Compiler-style scheduling: loads cluster toward the top of the
        // block, stores toward the bottom, so consumers rarely stall on
        // a just-issued load (especially on in-order PUs).
        let frac = i as f64 / n.max(1) as f64;
        let p_load = (mix.load * (1.8 - 1.6 * frac)).max(0.02);
        let p_store = mix.store * (0.3 + 1.4 * frac);
        let r = rng.next_f64();
        if !mems.is_empty() && r < p_load {
            let g = mems[rng.gen_range(0..mems.len())];
            if rng.gen_bool(mix.fp) {
                let dst = pool.fp_reg(rng);
                let a = src_int(rng, &local_int);
                fb.push_inst(blk, Opcode::FLoad.inst().dst(dst).src(a).mem(g));
                local_fp.push(dst);
            } else {
                let dst = pool.int_reg(rng);
                let a = src_int(rng, &local_int);
                fb.push_inst(blk, Opcode::Load.inst().dst(dst).src(a).mem(g));
                local_int.push(dst);
            }
        } else if !mems.is_empty() && r < p_load + p_store {
            let g = mems[rng.gen_range(0..mems.len())];
            if rng.gen_bool(mix.fp) {
                let s = src_fp(rng, &local_fp);
                let a = src_int(rng, &local_int);
                fb.push_inst(blk, Opcode::FStore.inst().src(s).src(a).mem(g));
            } else {
                let s = src_int(rng, &local_int);
                let a = src_int(rng, &local_int);
                fb.push_inst(blk, Opcode::Store.inst().src(s).src(a).mem(g));
            }
        } else if rng.gen_bool(mix.fp) {
            if local_fp.is_empty() && flow_fp.is_empty() && !mems.is_empty() {
                // FP arithmetic with nothing to compute on yet: real
                // blocks load their operands first.
                let g = mems[rng.gen_range(0..mems.len())];
                let dst = pool.fp_reg(rng);
                let a = src_int(rng, &local_int);
                fb.push_inst(blk, Opcode::FLoad.inst().dst(dst).src(a).mem(g));
                local_fp.push(dst);
                continue;
            }
            let op = if rng.gen_bool(mix.div) {
                Opcode::FDiv
            } else if rng.gen_bool(mix.mul) {
                Opcode::FMul
            } else {
                Opcode::FAdd
            };
            let (a, b) = (src_fp(rng, &local_fp), src_fp(rng, &local_fp));
            let dst = pool.fp_reg(rng);
            fb.push_inst(blk, op.inst().dst(dst).src(a).src(b));
            local_fp.push(dst);
        } else {
            let op = if rng.gen_bool(mix.div) {
                Opcode::IDiv
            } else if rng.gen_bool(mix.mul) {
                Opcode::IMul
            } else if rng.gen_bool(0.25) {
                Opcode::ILogic
            } else {
                Opcode::IAdd
            };
            let (a, b) = (src_int(rng, &local_int), src_int(rng, &local_int));
            let dst = pool.int_reg(rng);
            fb.push_inst(blk, op.inst().dst(dst).src(a).src(b));
            local_int.push(dst);
        }
    }
    // Outgoing flow: the last couple of definitions of each class
    // (skipping the induction register, which is always early).
    let mut out: Vec<Reg> = Vec::new();
    out.extend(local_int.iter().rev().filter(|r| r.index() != 1).take(2));
    out.extend(local_fp.iter().rev().take(2));
    out
}

/// Emits the per-iteration induction update (`r1 += ...`) — call this
/// first on loop header blocks. Placing the increment at the loop top
/// means successor tasks get the value almost immediately (the paper's
/// §3.2 register communication scheduling for induction variables).
pub fn push_induction(fb: &mut FunctionBuilder, blk: BlockId) {
    let r1 = Reg::int(1);
    fb.push_inst(blk, Opcode::IAdd.inst().dst(r1).src(r1));
}

/// Opens a `main` with an `entry → head` driver loop; returns
/// `(builder, entry, head)`. Close with [`close_driver`].
pub fn open_driver() -> (FunctionBuilder, BlockId, BlockId) {
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let head = fb.add_block();
    push_induction(&mut fb, head);
    fb.set_terminator(entry, Terminator::Jump { target: head });
    (fb, entry, head)
}

/// Closes the driver loop: `latch` loops back to `head` about `trips`
/// times, with a jitter of `trips / jitter_div`, then halts.
pub fn close_driver(
    fb: &mut FunctionBuilder,
    head: BlockId,
    latch: BlockId,
    trips: u32,
    jitter_div: u32,
) {
    let exit = fb.add_block();
    fb.set_terminator(
        latch,
        Terminator::Branch {
            taken: head,
            fall: exit,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::Loop { avg_trips: trips, jitter: trips / jitter_div },
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
}

/// Appends a two-way diamond after `from`: `from` branches (taken with
/// probability `p_taken`) to two filled arms that reconverge at a fresh
/// empty join block, which is returned. `from` must not have a
/// terminator yet.
#[allow(clippy::too_many_arguments)]
pub fn diamond(
    fb: &mut FunctionBuilder,
    rng: &mut SplitMix64,
    from: BlockId,
    p_taken: f64,
    arm_size: (usize, usize),
    mix: OpMix,
    mems: &[AddrGenId],
    pool: RegPool,
) -> BlockId {
    let then_b = fb.add_block();
    let else_b = fb.add_block();
    let join = fb.add_block();
    let _ = fill_block_flow(fb, then_b, rng, arm_size.0, mix, mems, pool, &[]);
    let _ = fill_block_flow(fb, else_b, rng, arm_size.1, mix, mems, pool, &[]);
    fb.set_terminator(
        from,
        Terminator::Branch {
            taken: then_b,
            fall: else_b,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::Taken(p_taken),
        },
    );
    fb.set_terminator(then_b, Terminator::Jump { target: join });
    fb.set_terminator(else_b, Terminator::Jump { target: join });
    join
}

/// Appends a switch dispatch after `from`: `arms` filled arm blocks with
/// the given relative `weights` (cycled if shorter), all reconverging at
/// a fresh join block, which is returned.
#[allow(clippy::too_many_arguments)]
pub fn dispatch(
    fb: &mut FunctionBuilder,
    rng: &mut SplitMix64,
    from: BlockId,
    arms: usize,
    weights: &[u32],
    arm_size: usize,
    mix: OpMix,
    mems: &[AddrGenId],
    pool: RegPool,
) -> BlockId {
    let join = fb.add_block();
    let mut targets = Vec::with_capacity(arms);
    let mut ws = Vec::with_capacity(arms);
    for i in 0..arms {
        let a = fb.add_block();
        fill_block(fb, a, rng, arm_size, mix, mems, pool);
        fb.set_terminator(a, Terminator::Jump { target: join });
        targets.push(a);
        ws.push(weights[i % weights.len()]);
    }
    fb.set_terminator(from, Terminator::Switch { targets, weights: ws, cond: vec![Reg::int(1)] });
    join
}

/// Appends a counted single-block loop after `from`: the body block is
/// filled with `body_size` instructions and loops `trips ± jitter`
/// times. Returns the fresh empty exit block. `from` must not have a
/// terminator yet.
#[allow(clippy::too_many_arguments)]
pub fn counted_loop(
    fb: &mut FunctionBuilder,
    rng: &mut SplitMix64,
    from: BlockId,
    body_size: usize,
    trips: u32,
    jitter: u32,
    mix: OpMix,
    mems: &[AddrGenId],
    pool: RegPool,
) -> BlockId {
    let body = fb.add_block();
    let exit = fb.add_block();
    push_induction(fb, body);
    fill_block(fb, body, rng, body_size, mix, mems, pool);
    fb.set_terminator(from, Terminator::Jump { target: body });
    fb.set_terminator(
        body,
        Terminator::Branch {
            taken: body,
            fall: exit,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::Loop { avg_trips: trips, jitter },
        },
    );
    exit
}

/// Appends a counted loop whose body is a diamond (`head → arms → latch`)
/// — the shape the control flow heuristic merges into one loop-body
/// task. Returns the fresh exit block.
#[allow(clippy::too_many_arguments)]
pub fn branchy_loop(
    fb: &mut FunctionBuilder,
    rng: &mut SplitMix64,
    from: BlockId,
    head_size: usize,
    arm_size: (usize, usize),
    latch_size: usize,
    p_taken: f64,
    trips: u32,
    jitter: u32,
    mix: OpMix,
    mems: &[AddrGenId],
    pool: RegPool,
) -> BlockId {
    let head = fb.add_block();
    let exit = fb.add_block();
    // Flow resets at the header: iterations compute on freshly loaded
    // values, so the only loop-carried register dependence is the
    // induction register, updated first.
    push_induction(fb, head);
    let head_flow = fill_block_flow(fb, head, rng, head_size, mix, mems, pool, &[]);
    fb.set_terminator(from, Terminator::Jump { target: head });
    let then_b = fb.add_block();
    let else_b = fb.add_block();
    let latch = fb.add_block();
    let then_flow = fill_block_flow(fb, then_b, rng, arm_size.0, mix, mems, pool, &head_flow);
    let _ = fill_block_flow(fb, else_b, rng, arm_size.1, mix, mems, pool, &head_flow);
    fb.set_terminator(
        head,
        Terminator::Branch {
            taken: then_b,
            fall: else_b,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::Taken(p_taken),
        },
    );
    fb.set_terminator(then_b, Terminator::Jump { target: latch });
    fb.set_terminator(else_b, Terminator::Jump { target: latch });
    let mut latch_in = head_flow.clone();
    latch_in.extend(then_flow);
    let _ = fill_block_flow(fb, latch, rng, latch_size, mix, mems, pool, &latch_in);
    fb.set_terminator(
        latch,
        Terminator::Branch {
            taken: head,
            fall: exit,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::Loop { avg_trips: trips, jitter },
        },
    );
    exit
}

/// Appends an *irregular*, partially-reconverging region after `from`:
/// `n` filled stages where stage `i` branches ahead to stage `i + 1`
/// (fall) or skips ahead up to three stages (taken), with per-stage
/// taken probabilities drawn uniformly from `pred`. Unlike [`diamond`],
/// paths do not immediately reconverge, so task growth is forced to
/// expose branch targets of middling predictability — the shape that
/// makes integer codes hard on the task predictor. Returns the fresh
/// exit block.
#[allow(clippy::too_many_arguments)]
pub fn tangle(
    fb: &mut FunctionBuilder,
    rng: &mut SplitMix64,
    from: BlockId,
    n: usize,
    stage_size: (usize, usize),
    pred: (f64, f64),
    mix: OpMix,
    mems: &[AddrGenId],
    pool: RegPool,
) -> BlockId {
    assert!(n >= 2, "a tangle needs at least two stages");
    let stages: Vec<BlockId> = (0..n).map(|_| fb.add_block()).collect();
    let exit = fb.add_block();
    fb.set_terminator(from, Terminator::Jump { target: stages[0] });
    let mut flow: Vec<Reg> = Vec::new();
    for (i, &s) in stages.iter().enumerate() {
        let size = rng.gen_range(stage_size.0..=stage_size.1.max(stage_size.0 + 1));
        flow = fill_block_flow(fb, s, rng, size, mix, mems, pool, &flow);
        let next = stages.get(i + 1).copied().unwrap_or(exit);
        let skip_to = {
            let lo = i + 2;
            let hi = (i + 4).min(n);
            if lo >= hi {
                exit
            } else {
                stages[rng.gen_range(lo..hi)]
            }
        };
        let p = rng.gen_range(pred.0..pred.1);
        // A third of the skip edges detour through a tiny loop (a scan /
        // retry idiom). Loop entries are terminal for task growth, so
        // tasks genuinely end here with an uncertain choice exposed —
        // reconvergence cannot hide it.
        let taken_target = if i + 2 < n && rng.gen_bool(0.34) {
            let scan = fb.add_block();
            let scan_size = rng.gen_range(2usize..5);
            fill_block(fb, scan, rng, scan_size, mix, mems, pool);
            fb.set_terminator(
                scan,
                Terminator::Branch {
                    taken: scan,
                    fall: skip_to,
                    cond: vec![Reg::int(1)],
                    behavior: BranchBehavior::Loop { avg_trips: rng.gen_range(2u32..5), jitter: 1 },
                },
            );
            scan
        } else {
            skip_to
        };
        // The stage's branch tests a flag the stage itself computed (its
        // most recent definition), so it resolves once the stage's own
        // chain is done — not on an arbitrarily late producer.
        let cond_reg = flow.first().copied().unwrap_or(Reg::int(1));
        fb.set_terminator(
            s,
            Terminator::Branch {
                taken: taken_target,
                fall: next,
                cond: vec![cond_reg],
                // Biased toward falling through; `1 - p` skips ahead.
                behavior: BranchBehavior::Taken(1.0 - p),
            },
        );
    }
    exit
}

/// Appends a call to `callee` after `from` and returns the fresh return
/// block. `from` must not have a terminator yet.
pub fn call(fb: &mut FunctionBuilder, from: BlockId, callee: FuncId) -> BlockId {
    let ret = fb.add_block();
    fb.set_terminator(from, Terminator::Call { callee, ret_to: ret });
    ret
}

/// Builds a straight-line leaf function of `n` instructions.
pub fn leaf_function(
    name: &str,
    rng: &mut SplitMix64,
    n: usize,
    mix: OpMix,
    mems: &[AddrGenId],
    pool: RegPool,
) -> ms_ir::Function {
    let mut fb = FunctionBuilder::new(name);
    let b = fb.add_block();
    fill_block(&mut fb, b, rng, n, mix, mems, pool);
    fb.set_terminator(b, Terminator::Return);
    fb.finish(b).expect("leaf function is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_ir::ProgramBuilder;

    fn rng() -> SplitMix64 {
        SplitMix64::seed_from_u64(7)
    }

    #[test]
    fn fill_block_respects_count_and_pools() {
        let mut fb = FunctionBuilder::new("f");
        let b = fb.add_block();
        let mut r = rng();
        fill_block(&mut fb, b, &mut r, 20, OpMix::int(), &[], RegPool::default_window());
        fb.set_terminator(b, Terminator::Halt);
        let f = fb.finish(b).unwrap();
        assert_eq!(f.block(b).insts().len(), 20);
        // No memory generators → no memory instructions.
        assert!(f.block(b).insts().iter().all(|i| !i.opcode().is_mem()));
    }

    #[test]
    fn diamond_reconverges() {
        let mut fb = FunctionBuilder::new("f");
        let b = fb.add_block();
        let mut r = rng();
        let join =
            diamond(&mut fb, &mut r, b, 0.5, (3, 4), OpMix::int(), &[], RegPool::default_window());
        fb.set_terminator(join, Terminator::Halt);
        let f = fb.finish(b).unwrap();
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.predecessors(join).len(), 2);
    }

    #[test]
    fn counted_loop_has_back_edge() {
        let mut fb = FunctionBuilder::new("f");
        let entry = fb.add_block();
        let mut r = rng();
        let exit = counted_loop(
            &mut fb,
            &mut r,
            entry,
            10,
            16,
            2,
            OpMix::fp(),
            &[],
            RegPool::default_window(),
        );
        fb.set_terminator(exit, Terminator::Halt);
        let f = fb.finish(entry).unwrap();
        let body = BlockId::new(1);
        assert!(f.successors(body).contains(&body));
        // 10 random instructions plus the induction update.
        assert_eq!(f.block(body).insts().len(), 11);
    }

    #[test]
    fn dispatch_builds_weighted_switch() {
        let mut fb = FunctionBuilder::new("f");
        let b = fb.add_block();
        let mut r = rng();
        let join = dispatch(
            &mut fb,
            &mut r,
            b,
            6,
            &[10, 1],
            5,
            OpMix::int(),
            &[],
            RegPool::default_window(),
        );
        fb.set_terminator(join, Terminator::Halt);
        let f = fb.finish(b).unwrap();
        assert_eq!(f.successors(b).len(), 6);
        assert_eq!(f.predecessors(join).len(), 6);
    }

    #[test]
    fn whole_program_from_primitives_validates() {
        let mut pb = ProgramBuilder::new();
        let mut r = rng();
        let g = pb.add_addr_gen(ms_ir::AddrSpec::Stride { base: 0x1000, stride: 8, len: 64 });
        let leaf = pb.declare_function("leaf");
        let main = pb.declare_function("main");
        pb.define_function(
            leaf,
            leaf_function("leaf", &mut r, 8, OpMix::int(), &[g], RegPool::default_window()),
        );
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let after_loop = counted_loop(
            &mut fb,
            &mut r,
            entry,
            12,
            20,
            4,
            OpMix::int(),
            &[g],
            RegPool::default_window(),
        );
        let after_call = call(&mut fb, after_loop, leaf);
        fb.set_terminator(after_call, Terminator::Halt);
        pb.define_function(main, fb.finish(entry).unwrap());
        let p = pb.finish(main).unwrap();
        assert!(p.validate().is_ok());
    }
}
