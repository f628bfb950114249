//! The task-size heuristic's IR transforms (§3.2 of the paper).
//!
//! * **Loop unrolling** — loops whose static body is smaller than
//!   `loop_thresh` (the paper's `LOOP_THRESH` = 30) are unrolled until the
//!   body reaches the threshold, so short loop bodies form tasks big
//!   enough to amortise task overhead.
//! * **Call inclusion** — calls to functions whose expected *dynamic* size
//!   is below `call_thresh` (the paper's `CALL_THRESH` = 30) are marked
//!   *included*: the callee executes inside the calling task instead of
//!   terminating it. The paper includes whole calls rather than inlining
//!   to avoid code bloat; we mark the call site the same way.

use std::collections::BTreeSet;

use ms_analysis::{Dominators, Loop, LoopForest, Profile};
use ms_ir::{
    BlockId, BranchBehavior, FuncId, Function, FunctionBuilder, Program, ProgramBuilder, Terminator,
};

/// Thresholds for the task-size heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSizeParams {
    /// Calls to functions with fewer expected dynamic instructions than
    /// this are included within the calling task (paper: 30).
    pub call_thresh: f64,
    /// Loops with fewer static body instructions than this are unrolled
    /// up to this size (paper: 30).
    pub loop_thresh: usize,
}

impl Default for TaskSizeParams {
    /// The paper's `CALL_THRESH = 30`, `LOOP_THRESH = 30`.
    fn default() -> Self {
        TaskSizeParams { call_thresh: 30.0, loop_thresh: 30 }
    }
}

/// Applies the task-size heuristic to a whole program.
///
/// Returns the transformed program, `None` when no loop was unrolled
/// (the input program stands as it is), and the set of call sites
/// marked for inclusion.
pub fn apply_task_size(
    program: &Program,
    params: &TaskSizeParams,
) -> (Option<Program>, BTreeSet<(FuncId, BlockId)>) {
    let _prof = ms_prof::span("select.task_size");
    // 1. Unroll small loops, function by function; rebuild the program
    //    only if some function changed.
    let unrolled: Vec<Option<Function>> = program
        .func_ids()
        .map(|f| unroll_small_loops(program.function(f), params.loop_thresh))
        .collect();
    let transformed = unrolled.iter().any(Option::is_some).then(|| {
        let mut pb = ProgramBuilder::new();
        for g in program.addr_gens() {
            pb.add_addr_gen(g.clone());
        }
        let ids: Vec<FuncId> =
            program.func_ids().map(|f| pb.declare_function(program.function(f).name())).collect();
        for ((fid, f), id) in program.func_ids().zip(unrolled).zip(ids) {
            pb.define_function(id, f.unwrap_or_else(|| program.function(fid).clone()));
        }
        pb.finish(program.entry()).expect("unrolling preserves validity")
    });
    let target = transformed.as_ref().unwrap_or(program);

    // 2. Mark small calls for inclusion, using a fresh profile of the
    //    transformed program. Callees on any call-graph cycle (direct or
    //    mutual recursion) are never included: the inlined region would
    //    be unbounded.
    let profile = Profile::estimate(target);
    let callgraph = ms_analysis::CallGraph::compute(target);
    let mut included = BTreeSet::new();
    for fid in target.func_ids() {
        let f = target.function(fid);
        for b in f.block_ids() {
            if let Terminator::Call { callee, .. } = f.block(b).terminator() {
                if *callee != fid
                    && !callgraph.is_recursive(*callee)
                    && profile.func_dynamic_size(*callee) < params.call_thresh
                {
                    included.insert((fid, b));
                }
            }
        }
    }
    (transformed, included)
}

/// Unrolls every candidate loop of `func` until none is smaller than
/// `loop_thresh` static instructions. Returns `None` when `func` has no
/// candidate loop.
pub fn unroll_small_loops(func: &Function, loop_thresh: usize) -> Option<Function> {
    let mut current: Option<Function> = None;
    // Each unroll pushes the loop's size to >= loop_thresh, so this
    // terminates; cap defensively anyway.
    for _ in 0..32 {
        let f = current.as_ref().unwrap_or(func);
        let dom = Dominators::compute(f);
        let loops = LoopForest::compute(f, &dom);
        let candidate = loops
            .loops()
            .iter()
            .filter(|l| l.static_size < loop_thresh && l.static_size > 0)
            .filter(|l| is_simple_unrollable(f, &loops, l))
            .min_by_key(|l| l.header);
        let Some(l) = candidate else { break };
        let factor = loop_thresh.div_ceil(l.static_size).max(2);
        current = Some(unroll_once(f, l, factor));
    }
    current
}

/// A loop is unrollable when it has a single latch whose terminator is a
/// two-way branch with `Loop` behaviour taken to the header, and no inner
/// loop nests inside it.
fn is_simple_unrollable(func: &Function, forest: &LoopForest, l: &Loop) -> bool {
    if l.latches.len() != 1 {
        return false;
    }
    let latch = l.latches[0];
    let shape_ok = matches!(
        func.block(latch).terminator(),
        Terminator::Branch { taken, behavior: BranchBehavior::Loop { .. }, .. } if *taken == l.header
    );
    if !shape_ok {
        return false;
    }
    // Innermost only: no other loop's header inside this body (except
    // the loop's own header).
    !forest.loops().iter().any(|other| other.header != l.header && l.contains(other.header))
}

/// Replicates the body of `l` `factor - 1` times. Copy `c`'s latch jumps
/// to copy `c + 1`'s header (always taken); the final copy's latch keeps
/// the loop behaviour, scaled to `avg_trips / factor`, back to the
/// original header.
fn unroll_once(func: &Function, l: &Loop, factor: usize) -> Function {
    let latch = l.latches[0];
    let (orig_trips, orig_jitter, exit_fall, cond) = match func.block(latch).terminator() {
        Terminator::Branch {
            fall,
            cond,
            behavior: BranchBehavior::Loop { avg_trips, jitter },
            ..
        } => (*avg_trips, *jitter, *fall, cond.clone()),
        _ => unreachable!("checked by is_simple_unrollable"),
    };

    let mut fb = FunctionBuilder::new(func.name());
    // Original blocks keep their ids.
    let orig_ids: Vec<BlockId> = (0..func.num_blocks()).map(|_| fb.add_block()).collect();
    // Copies: map[c][body index] for c in 1..factor.
    let body: Vec<BlockId> = l.body.clone();
    let mut copy_ids: Vec<Vec<BlockId>> = Vec::new();
    for _ in 1..factor {
        copy_ids.push(body.iter().map(|_| fb.add_block()).collect());
    }
    let body_pos = |b: BlockId| body.binary_search(&b).ok();
    // header of copy c (copy "factor" wraps to the original header).
    let header_of_copy = |c: usize| -> BlockId {
        if c == 0 || c >= factor {
            l.header
        } else {
            copy_ids[c - 1][body_pos(l.header).expect("header in body")]
        }
    };
    let map_target = |c: usize, t: BlockId| -> BlockId {
        match body_pos(t) {
            Some(pos) if c > 0 => copy_ids[c - 1][pos],
            _ => t, // exits and copy 0 stay put
        }
    };

    // Per-copy register renaming: copies compute on rotated register
    // names (r0/r1 and f0/f1 are preserved — zero and induction), as a
    // real unroller renames temporaries so copies do not serialise
    // through reused registers.
    let rename = |c: usize, r: ms_ir::Reg| -> ms_ir::Reg {
        use ms_ir::{Reg, RegClass, NUM_FP_REGS, NUM_INT_REGS};
        if c == 0 || r.index() < 2 {
            return r;
        }
        match r.class() {
            RegClass::Int => {
                let span = NUM_INT_REGS - 2;
                Reg::int(2 + (r.index() - 2 + (c as u8) * 7) % span)
            }
            RegClass::Fp => {
                let span = NUM_FP_REGS - 2;
                Reg::fp(2 + (r.index() - 2 + (c as u8) * 7) % span)
            }
        }
    };

    // Emit copy `c` of block `b` (c = 0 is the original id).
    let emit = |fb: &mut FunctionBuilder, c: usize, b: BlockId| {
        let new_id =
            if c == 0 { orig_ids[b.index()] } else { copy_ids[c - 1][body_pos(b).unwrap()] };
        for inst in func.block(b).insts() {
            let mut ni = inst.opcode().inst();
            if let Some(d) = inst.dst_reg() {
                ni = ni.dst(rename(c, d));
            }
            for &sr in inst.srcs() {
                ni = ni.src(rename(c, sr));
            }
            if let Some(g) = inst.mem_ref() {
                ni = ni.mem(g);
            }
            fb.push_inst(new_id, ni);
        }
        let in_body = body_pos(b).is_some();
        let term = if in_body && b == latch {
            if c + 1 == factor {
                // Final copy: carries the (scaled) loop behaviour.
                Terminator::Branch {
                    taken: l.header,
                    fall: exit_fall,
                    cond: cond.clone(),
                    behavior: BranchBehavior::Loop {
                        avg_trips: (orig_trips.max(1)).div_ceil(factor as u32).max(1),
                        jitter: orig_jitter / factor as u32,
                    },
                }
            } else {
                // Intermediate copies always continue to the next copy.
                Terminator::Branch {
                    taken: header_of_copy(c + 1),
                    fall: exit_fall,
                    cond: cond.iter().map(|&r| rename(c, r)).collect(),
                    behavior: BranchBehavior::Pattern(vec![true]),
                }
            }
        } else {
            match func.block(b).terminator() {
                Terminator::Jump { target } => Terminator::Jump { target: map_target(c, *target) },
                Terminator::Branch { taken, fall, cond, behavior } => Terminator::Branch {
                    taken: map_target(c, *taken),
                    fall: map_target(c, *fall),
                    cond: cond.iter().map(|&r| rename(c, r)).collect(),
                    behavior: behavior.clone(),
                },
                Terminator::Switch { targets, weights, cond } => Terminator::Switch {
                    targets: targets.iter().map(|&t| map_target(c, t)).collect(),
                    weights: weights.clone(),
                    cond: cond.iter().map(|&r| rename(c, r)).collect(),
                },
                Terminator::Call { callee, ret_to } => {
                    Terminator::Call { callee: *callee, ret_to: map_target(c, *ret_to) }
                }
                Terminator::Return => Terminator::Return,
                Terminator::Halt => Terminator::Halt,
            }
        };
        fb.set_terminator(new_id, term);
    };

    for b in func.block_ids() {
        emit(&mut fb, 0, b);
    }
    for c in 1..factor {
        for &b in &body {
            emit(&mut fb, c, b);
        }
    }
    fb.finish(func.entry()).expect("unroll produces a valid function")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_analysis::Profile;
    use ms_ir::{Opcode, ProgramBuilder, Reg};

    /// entry → head(2 insts) → latch branch (10 trips) → exit.
    fn small_loop_fn(trips: u32) -> Function {
        let mut fb = FunctionBuilder::new("f");
        let entry = fb.add_block();
        let head = fb.add_block();
        let exit = fb.add_block();
        fb.push_inst(head, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
        fb.push_inst(head, Opcode::IMul.inst().dst(Reg::int(2)).src(Reg::int(1)));
        fb.set_terminator(entry, Terminator::Jump { target: head });
        fb.set_terminator(
            head,
            Terminator::Branch {
                taken: head,
                fall: exit,
                cond: vec![Reg::int(1)],
                behavior: BranchBehavior::Loop { avg_trips: trips, jitter: 0 },
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        fb.finish(entry).unwrap()
    }

    #[test]
    fn unrolling_reaches_the_threshold() {
        let f = small_loop_fn(40);
        // Body = 3 instructions (2 + branch); threshold 12 → factor 4.
        let u = unroll_small_loops(&f, 12).expect("the loop is below the threshold");
        let dom = Dominators::compute(&u);
        let loops = LoopForest::compute(&u, &dom);
        assert_eq!(loops.loops().len(), 1);
        assert!(loops.loops()[0].static_size >= 12, "size {}", loops.loops()[0].static_size);
        // The unrolled loop's expected total body executions stay ~40:
        // 4 copies × 10 trips.
        let latch = loops.loops()[0].latches[0];
        match u.block(latch).terminator() {
            Terminator::Branch { behavior: BranchBehavior::Loop { avg_trips, .. }, .. } => {
                assert_eq!(*avg_trips, 10);
            }
            t => panic!("unexpected terminator {t}"),
        }
    }

    #[test]
    fn large_loops_are_untouched() {
        let f = small_loop_fn(10);
        assert!(unroll_small_loops(&f, 3).is_none()); // body is already 3
    }

    #[test]
    fn unrolled_function_frequency_is_preserved() {
        // Total body executions (≈ trips) should be invariant under
        // unrolling: frequencies just move into the copies.
        let f = small_loop_fn(40);
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("f");
        pb.define_function(m, f.clone());
        let before = Profile::estimate(&pb.finish(m).unwrap());

        let mut pb = ProgramBuilder::new();
        let m2 = pb.declare_function("f");
        pb.define_function(m2, unroll_small_loops(&f, 12).unwrap());
        let after = Profile::estimate(&pb.finish(m2).unwrap());

        let b = before.func_dynamic_size(m);
        let a = after.func_dynamic_size(m2);
        assert!((a - b).abs() / b < 0.15, "dynamic size before {b} after {a}");
    }

    #[test]
    fn call_inclusion_respects_threshold_and_recursion() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let tiny = pb.declare_function("tiny");
        let big = pb.declare_function("big");

        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        fb.set_terminator(b0, Terminator::Call { callee: tiny, ret_to: b1 });
        fb.set_terminator(b1, Terminator::Call { callee: big, ret_to: b2 });
        fb.set_terminator(b2, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());

        let mut fb = FunctionBuilder::new("tiny");
        let t0 = fb.add_block();
        for _ in 0..3 {
            fb.push_inst(t0, Opcode::IAdd.inst().dst(Reg::int(1)));
        }
        fb.set_terminator(t0, Terminator::Return);
        pb.define_function(tiny, fb.finish(t0).unwrap());

        let mut fb = FunctionBuilder::new("big");
        let g0 = fb.add_block();
        for _ in 0..100 {
            fb.push_inst(g0, Opcode::IAdd.inst().dst(Reg::int(1)));
        }
        fb.set_terminator(g0, Terminator::Return);
        pb.define_function(big, fb.finish(g0).unwrap());

        let p = pb.finish(m).unwrap();
        let (_, included) = apply_task_size(&p, &TaskSizeParams::default());
        assert!(included.contains(&(m, b0)), "tiny call included");
        assert!(!included.contains(&(m, b1)), "big call not included");
    }

    #[test]
    fn self_recursive_calls_are_never_included() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        fb.set_terminator(b0, Terminator::Call { callee: m, ret_to: b1 });
        fb.set_terminator(b1, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let p = pb.finish(m).unwrap();
        let (_, included) = apply_task_size(&p, &TaskSizeParams::default());
        assert!(included.is_empty());
    }

    #[test]
    fn default_params_match_the_paper() {
        let p = TaskSizeParams::default();
        assert_eq!(p.call_thresh, 30.0);
        assert_eq!(p.loop_thresh, 30);
    }
}
