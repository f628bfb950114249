//! Strategy round-trips and oracle-vs-heuristic agreement.
//!
//! The oracle's claim is *exactness* for the boundary objective
//! (Σ task-entry global frequencies): on CFGs small enough that the
//! greedy control-flow growth is provably optimal — straight lines and
//! reconverging diamonds collapse to one task — the oracle must agree
//! with it, and on every CFG the oracle's objective must never exceed
//! any other strategy's.

use std::collections::BTreeSet;

use ms_analysis::ProgramContext;
use ms_ir::{
    BlockId, BlockRef, BranchBehavior, FunctionBuilder, Opcode, Program, ProgramBuilder, Reg,
    Terminator,
};
use ms_tasksel::{SelectError, Selection, SelectorBuilder, Strategy};

fn build(fb: FunctionBuilder, entry: BlockId) -> Program {
    let mut pb = ProgramBuilder::new();
    let m = pb.declare_function("main");
    pb.define_function(m, fb.finish(entry).unwrap());
    pb.finish(m).unwrap()
}

fn branch(taken: BlockId, fall: BlockId) -> Terminator {
    Terminator::Branch { taken, fall, cond: vec![], behavior: BranchBehavior::Taken(0.5) }
}

fn select(strategy: Strategy, program: &Program) -> Selection {
    strategy.selector(4).select(&ProgramContext::new(program.clone()))
}

/// Σ task-entry global frequencies — the oracle's objective.
fn objective(sel: &Selection) -> f64 {
    let profile = sel.context().profile();
    let mut sum = 0.0;
    for fp in sel.partition.funcs() {
        for task in fp.tasks() {
            sum += profile.global_block_freq(BlockRef::new(fp.func(), task.entry()));
        }
    }
    sum
}

fn diamond() -> Program {
    let mut fb = FunctionBuilder::new("main");
    let top = fb.add_block();
    let left = fb.add_block();
    let right = fb.add_block();
    let join = fb.add_block();
    fb.push_inst(left, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
    fb.set_terminator(top, branch(left, right));
    fb.set_terminator(left, Terminator::Jump { target: join });
    fb.set_terminator(right, Terminator::Jump { target: join });
    fb.set_terminator(join, Terminator::Halt);
    build(fb, top)
}

fn straight_line(n: usize) -> Program {
    let mut fb = FunctionBuilder::new("main");
    let blocks: Vec<BlockId> = (0..n).map(|_| fb.add_block()).collect();
    for w in blocks.windows(2) {
        fb.push_inst(w[0], Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
        fb.set_terminator(w[0], Terminator::Jump { target: w[1] });
    }
    fb.set_terminator(*blocks.last().unwrap(), Terminator::Halt);
    build(fb, blocks[0])
}

fn looped() -> Program {
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let head = fb.add_block();
    let latch = fb.add_block();
    let exit = fb.add_block();
    fb.push_inst(head, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
    fb.set_terminator(entry, Terminator::Jump { target: head });
    fb.set_terminator(head, Terminator::Jump { target: latch });
    fb.set_terminator(
        latch,
        Terminator::Branch {
            taken: head,
            fall: exit,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::exact_loop(12),
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    build(fb, entry)
}

/// Every strategy selects a valid partition on a canonical program.
#[test]
fn every_listed_policy_selects_on_a_canonical_program() {
    let programs = [diamond(), straight_line(6), looped()];
    for program in &programs {
        for strategy in Strategy::extended() {
            let name = strategy.label();
            let sel = select(strategy, program);
            assert!(
                sel.partition.validate(&sel.program).is_ok(),
                "policy `{name}` produced an invalid partition"
            );
            // Every reachable block is covered.
            for fp in sel.partition.funcs() {
                let func = sel.program.function(fp.func());
                for b in func.reachable_blocks() {
                    assert!(fp.task_of(b).is_some(), "`{name}` left {b} uncovered");
                }
            }
        }
    }
}

#[test]
fn unknown_policy_names_suggest_the_nearest() {
    match "oracel".parse::<Strategy>() {
        Err(SelectError::UnknownPolicy { name, suggestion }) => {
            assert_eq!(name, "oracel");
            assert_eq!(suggestion, Some("oracle"));
        }
        other => panic!("expected a suggestion, got {other:?}"),
    }
    match "qqqqqqqqqqqq".parse::<Strategy>() {
        Err(SelectError::UnknownPolicy { suggestion, .. }) => assert_eq!(suggestion, None),
        other => panic!("expected no suggestion, got {other:?}"),
    }
}

/// On a reconverging diamond the greedy cf growth is provably optimal
/// (one task, one entry): the oracle must agree exactly.
#[test]
fn oracle_agrees_with_greedy_on_a_diamond() {
    let p = diamond();
    let cf = select(Strategy::ControlFlow, &p);
    let oracle = select(Strategy::Oracle, &p);
    assert_eq!(cf.partition.num_tasks(), 1);
    assert_eq!(oracle.partition.num_tasks(), 1);
    assert_eq!(objective(&cf), objective(&oracle));
}

/// On a straight line both collapse to a single task.
#[test]
fn oracle_agrees_with_greedy_on_a_straight_line() {
    let p = straight_line(8);
    let cf = select(Strategy::ControlFlow, &p);
    let oracle = select(Strategy::Oracle, &p);
    assert_eq!(cf.partition.num_tasks(), 1);
    assert_eq!(oracle.partition.num_tasks(), 1);
    assert_eq!(objective(&cf), objective(&oracle));
}

/// The oracle is a true lower bound: on every shape, its objective is
/// at most every other policy's.
#[test]
fn oracle_objective_is_a_lower_bound() {
    for program in [diamond(), straight_line(5), looped()] {
        let oracle_obj = objective(&select(Strategy::Oracle, &program));
        for strategy in
            [Strategy::BasicBlock, Strategy::ControlFlow, Strategy::DataDependence, Strategy::Cost]
        {
            let obj = objective(&select(strategy, &program));
            assert!(
                oracle_obj <= obj + 1e-9,
                "oracle objective {oracle_obj} exceeds `{}`'s {obj}",
                strategy.label()
            );
        }
    }
}

/// Loops force the loop head to be a task entry in the oracle's search
/// (retreating edges are always boundaries), so each iteration is a
/// dynamic task, never a serialised whole-loop blob.
#[test]
fn oracle_keeps_loop_iterations_as_tasks() {
    let p = looped();
    let sel = select(Strategy::Oracle, &p);
    let fp = &sel.partition.funcs()[0];
    let head = BlockId::new(1);
    let head_task = fp.task_of(head).unwrap();
    assert_eq!(
        fp.task(head_task).entry(),
        head,
        "the loop head must head its own task (got {:?})",
        fp.task(head_task)
    );
}

/// A wide switch cannot hide inside a multi-block oracle task: the
/// target-limit check rejects it, leaving the switch a singleton.
#[test]
fn oracle_respects_the_target_limit() {
    let mut fb = FunctionBuilder::new("main");
    let pre = fb.add_block();
    let s = fb.add_block();
    let arms: Vec<BlockId> = (0..6).map(|_| fb.add_block()).collect();
    let join = fb.add_block();
    fb.set_terminator(pre, Terminator::Jump { target: s });
    fb.set_terminator(
        s,
        Terminator::Switch { targets: arms.clone(), weights: vec![1; 6], cond: vec![] },
    );
    for &a in &arms {
        fb.set_terminator(a, Terminator::Jump { target: join });
    }
    fb.set_terminator(join, Terminator::Halt);
    let p = build(fb, pre);
    let sel = select(Strategy::Oracle, &p);
    assert!(sel.partition.validate(&sel.program).is_ok());
    let included = BTreeSet::new();
    for fp in sel.partition.funcs() {
        let func = sel.program.function(fp.func());
        for task in fp.tasks() {
            if task.blocks().len() > 1 {
                assert!(
                    task.targets(func, &included).len() <= 4,
                    "multi-block task exceeds the target limit: {task:?}"
                );
            }
        }
    }
}

/// Shrinking the cutoff flips a function from exact search to cf
/// fallback — both must validate, and the exact result can only be
/// at least as good.
#[test]
fn oracle_cutoff_gates_the_exact_search() {
    let p = looped();
    let ctx = ProgramContext::new(p.clone());
    let exact = Strategy::Oracle.selector(4).select(&ctx);
    let fallback = SelectorBuilder::new(Strategy::Oracle)
        .max_targets(4)
        .oracle_max_blocks(1)
        .build()
        .select(&ctx);
    assert!(exact.partition.validate(&exact.program).is_ok());
    assert!(fallback.partition.validate(&fallback.program).is_ok());
    assert!(objective(&exact) <= objective(&fallback) + 1e-9);
}
