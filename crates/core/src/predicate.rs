//! If-conversion (predication) — the extension the paper names but does
//! not explore (§3.2: "techniques like predication can be employed to
//! improve the heuristics but … need extra hardware support").
//!
//! [`if_convert`] collapses small two-arm diamonds into straight-line
//! predicated code: both arms' instructions execute unconditionally
//! (the predication cost), the branch disappears (no misprediction, no
//! exposed targets), and reconvergence becomes trivial. Applied before
//! task selection it trades dynamic instructions for control flow — the
//! ablation `sweep_predication` measures when that wins.

use ms_ir::{BlockId, Function, FunctionBuilder, Opcode, Program, ProgramBuilder, Terminator};

/// Applies if-conversion to every function of `program`: any diamond
/// whose arms have at most `max_arm` instructions (and no calls or
/// further control flow) is flattened. Runs to a fixpoint, so nested
/// diamonds collapse inside-out.
pub fn if_convert(program: &Program, max_arm: usize) -> Program {
    let _prof = ms_prof::span("select.if_convert");
    let mut pb = ProgramBuilder::new();
    for g in program.addr_gens() {
        pb.add_addr_gen(g.clone());
    }
    let ids: Vec<_> =
        program.func_ids().map(|f| pb.declare_function(program.function(f).name())).collect();
    for (i, fid) in program.func_ids().enumerate() {
        let mut func = program.function(fid).clone();
        // Fixpoint: each pass flattens all currently-flattenable
        // diamonds; conversion can expose new ones (nested diamonds).
        for _ in 0..16 {
            match convert_once(&func, max_arm) {
                Some(next) => func = next,
                None => break,
            }
        }
        pb.define_function(ids[i], func);
    }
    pb.finish(program.entry()).expect("if-conversion preserves validity")
}

/// A flattenable region: a diamond (two arms) or a triangle (one arm,
/// the other branch edge going straight to the join).
#[derive(Debug, Clone, Copy)]
struct Region {
    root: BlockId,
    arms: [Option<BlockId>; 2],
    join: BlockId,
}

/// One flattening pass; `None` when nothing was flattenable.
fn convert_once(func: &Function, max_arm: usize) -> Option<Function> {
    // A diamond rooted at b: Branch{t, f}, t ≠ f, both arms have b as
    // their only predecessor, both end in Jump to the same join; or a
    // triangle: one such arm whose join is the other branch target.
    // Arms are small and straight-line (predicated stores are assumed
    // supported by the hardware).
    let mut roots: Vec<Region> = Vec::new();
    let mut consumed: Vec<bool> = vec![false; func.num_blocks()];
    for b in func.block_ids() {
        if consumed[b.index()] {
            continue;
        }
        let Terminator::Branch { taken, fall, .. } = func.block(b).terminator() else {
            continue;
        };
        let (t, f) = (*taken, *fall);
        if t == f || t == b || f == b || consumed[t.index()] || consumed[f.index()] {
            continue;
        }
        let arm_ok = |a: BlockId| {
            func.predecessors(a) == [b]
                && func.block(a).insts().len() <= max_arm
                && matches!(func.block(a).terminator(), Terminator::Jump { .. })
        };
        let jump_target = |a: BlockId| match func.block(a).terminator() {
            Terminator::Jump { target } => Some(*target),
            _ => None,
        };
        let region = if arm_ok(t) && arm_ok(f) {
            // Diamond: both arms must reconverge.
            match (jump_target(t), jump_target(f)) {
                (Some(jt), Some(jf)) if jt == jf && jt != t && jt != f => {
                    Some(Region { root: b, arms: [Some(t), Some(f)], join: jt })
                }
                _ => None,
            }
        } else if arm_ok(t) && jump_target(t) == Some(f) && f != b {
            // Triangle: taken arm falls into the fall-through target.
            Some(Region { root: b, arms: [Some(t), None], join: f })
        } else if arm_ok(f) && jump_target(f) == Some(t) && t != b {
            // Triangle the other way around.
            Some(Region { root: b, arms: [Some(f), None], join: t })
        } else {
            None
        };
        let Some(region) = region else { continue };
        roots.push(region);
        consumed[b.index()] = true;
        for a in region.arms.into_iter().flatten() {
            consumed[a.index()] = true;
        }
    }
    if roots.is_empty() {
        return None;
    }

    let mut fb = FunctionBuilder::new(func.name());
    for _ in func.block_ids() {
        fb.add_block();
    }
    let root_of: std::collections::HashMap<BlockId, Region> =
        roots.iter().map(|r| (r.root, *r)).collect();
    let arm_blocks: std::collections::HashSet<BlockId> =
        roots.iter().flat_map(|r| r.arms.into_iter().flatten()).collect();
    for b in func.block_ids() {
        if arm_blocks.contains(&b) {
            // Dead arm: keep the block (ids stay stable) but empty it.
            fb.set_terminator(b, Terminator::Halt);
            continue;
        }
        for inst in func.block(b).insts() {
            fb.push_inst(b, inst.clone());
        }
        if let Some(&Region { arms, join, .. }) = root_of.get(&b) {
            // Predicated region: the arm(s) execute unconditionally; the
            // old condition feeds a select-style op so its dependence
            // survives.
            let cond = func.block(b).terminator().cond_regs().to_vec();
            for arm in arms.into_iter().flatten() {
                for inst in func.block(arm).insts() {
                    fb.push_inst(b, inst.clone());
                }
            }
            if let Some(&c) = cond.first() {
                fb.push_inst(b, Opcode::ILogic.inst().dst(c).src(c));
            }
            fb.set_terminator(b, Terminator::Jump { target: join });
        } else {
            fb.set_terminator(b, func.block(b).terminator().clone());
        }
    }
    Some(fb.finish(func.entry()).expect("flattened function is valid"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_ir::{BranchBehavior, Reg};

    fn diamond_program(arm_len: usize) -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let t = fb.add_block();
        let f = fb.add_block();
        let j = fb.add_block();
        fb.push_inst(b0, Opcode::IMov.inst().dst(Reg::int(2)));
        for i in 0..arm_len {
            fb.push_inst(t, Opcode::IAdd.inst().dst(Reg::int(3 + i as u8)).src(Reg::int(2)));
            fb.push_inst(f, Opcode::IMul.inst().dst(Reg::int(3 + i as u8)).src(Reg::int(2)));
        }
        fb.push_inst(j, Opcode::IAdd.inst().dst(Reg::int(9)).src(Reg::int(3)));
        fb.set_terminator(
            b0,
            Terminator::Branch {
                taken: t,
                fall: f,
                cond: vec![Reg::int(2)],
                behavior: BranchBehavior::Taken(0.5),
            },
        );
        fb.set_terminator(t, Terminator::Jump { target: j });
        fb.set_terminator(f, Terminator::Jump { target: j });
        fb.set_terminator(j, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        pb.finish(m).unwrap()
    }

    #[test]
    fn small_diamond_flattens() {
        let p = diamond_program(2);
        let q = if_convert(&p, 4);
        let func = q.function(q.entry());
        // Root block now holds its inst + both arms (2 + 2) + the select.
        let root = func.block(BlockId::new(0));
        assert_eq!(root.insts().len(), 1 + 2 + 2 + 1);
        assert!(matches!(root.terminator(), Terminator::Jump { .. }));
        // The join is the only successor; no conditional branch remains
        // on the hot path.
        assert_eq!(func.successors(BlockId::new(0)), vec![BlockId::new(3)]);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn oversized_arms_are_left_alone() {
        let p = diamond_program(6);
        let q = if_convert(&p, 4);
        let func = q.function(q.entry());
        assert!(matches!(func.block(BlockId::new(0)).terminator(), Terminator::Branch { .. }));
    }

    #[test]
    fn arms_with_extra_predecessors_are_left_alone() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let t = fb.add_block();
        let f = fb.add_block();
        let j = fb.add_block();
        fb.set_terminator(
            b0,
            Terminator::Branch {
                taken: t,
                fall: f,
                cond: vec![Reg::int(2)],
                behavior: BranchBehavior::Taken(0.5),
            },
        );
        fb.set_terminator(t, Terminator::Jump { target: j });
        // f loops back into t: t has two predecessors.
        fb.set_terminator(
            f,
            Terminator::Branch {
                taken: t,
                fall: j,
                cond: vec![Reg::int(2)],
                behavior: BranchBehavior::Taken(0.3),
            },
        );
        fb.set_terminator(j, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let p = pb.finish(m).unwrap();
        let q = if_convert(&p, 8);
        assert!(matches!(
            q.function(q.entry()).block(BlockId::new(0)).terminator(),
            Terminator::Branch { .. }
        ));
    }

    #[test]
    fn converted_programs_run_end_to_end() {
        use crate::{SelectorBuilder, Strategy};
        use ms_analysis::ProgramContext;
        let p = diamond_program(3);
        let q = if_convert(&p, 4);
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(q.clone()));
        assert!(sel.partition.validate(&sel.program).is_ok());
        // Fewer reachable blocks ⇒ at most as many tasks as before.
        let before = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        assert!(sel.partition.num_tasks() <= before.partition.num_tasks());
    }

    #[test]
    fn triangles_flatten_too() {
        // b0 branches to a small then-arm or straight to the join.
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let t = fb.add_block();
        let j = fb.add_block();
        fb.push_inst(b0, Opcode::IMov.inst().dst(Reg::int(2)));
        fb.push_inst(t, Opcode::IAdd.inst().dst(Reg::int(3)).src(Reg::int(2)));
        fb.push_inst(t, Opcode::IMul.inst().dst(Reg::int(4)).src(Reg::int(3)));
        fb.push_inst(j, Opcode::IAdd.inst().dst(Reg::int(5)).src(Reg::int(2)));
        fb.set_terminator(
            b0,
            Terminator::Branch {
                taken: t,
                fall: j,
                cond: vec![Reg::int(2)],
                behavior: BranchBehavior::Taken(0.4),
            },
        );
        fb.set_terminator(t, Terminator::Jump { target: j });
        fb.set_terminator(j, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let p = pb.finish(m).unwrap();
        let q = if_convert(&p, 4);
        let func = q.function(q.entry());
        let root = func.block(BlockId::new(0));
        // Root = its own inst + the arm's 2 + the select.
        assert_eq!(root.insts().len(), 1 + 2 + 1);
        assert!(matches!(root.terminator(), Terminator::Jump { .. }));
        assert!(q.validate().is_ok());
    }

    #[test]
    fn nested_diamonds_collapse_to_fixpoint() {
        // Outer diamond whose join is itself the root of another
        // diamond; two passes are needed.
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let ids: Vec<BlockId> = (0..7).map(|_| fb.add_block()).collect();
        let branch = |t: BlockId, f: BlockId| Terminator::Branch {
            taken: t,
            fall: f,
            cond: vec![Reg::int(2)],
            behavior: BranchBehavior::Taken(0.5),
        };
        fb.set_terminator(ids[0], branch(ids[1], ids[2]));
        fb.set_terminator(ids[1], Terminator::Jump { target: ids[3] });
        fb.set_terminator(ids[2], Terminator::Jump { target: ids[3] });
        fb.set_terminator(ids[3], branch(ids[4], ids[5]));
        fb.set_terminator(ids[4], Terminator::Jump { target: ids[6] });
        fb.set_terminator(ids[5], Terminator::Jump { target: ids[6] });
        fb.set_terminator(ids[6], Terminator::Halt);
        pb.define_function(m, fb.finish(ids[0]).unwrap());
        let p = pb.finish(m).unwrap();
        let q = if_convert(&p, 4);
        let func = q.function(q.entry());
        // Entry now reaches the final block without any branch.
        let mut cur = func.entry();
        let mut hops = 0;
        loop {
            match func.block(cur).terminator() {
                Terminator::Jump { target } => {
                    cur = *target;
                    hops += 1;
                    assert!(hops < 10);
                }
                Terminator::Halt => break,
                t => panic!("unexpected control flow after conversion: {t}"),
            }
        }
    }
}
