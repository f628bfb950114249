//! The task selector: orchestration around the [`Strategy`]
//! partitioning functions — optional task-size preprocessing,
//! per-function dispatch, and single-entry repair.

use std::collections::BTreeSet;
use std::sync::Arc;

use ms_analysis::ProgramContext;
use ms_ir::{BlockId, FuncId, Program};

use crate::cost::CostModel;
use crate::grow::GrowCtx;
use crate::oracle::DEFAULT_ORACLE_MAX_BLOCKS;
use crate::policy::{self, repair_single_entry, PartitionState, PolicyView, Strategy};
use crate::task::{FuncPartition, Task, TaskPartition};
use crate::transform::{apply_task_size, TaskSizeParams};

/// The result of task selection: the (possibly transformed) program and
/// its partition. The transformed program must be the one traced and
/// simulated, since loop unrolling changes the CFG.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The program the partition refers to (unrolled if the task-size
    /// heuristic ran; otherwise the very program the input context
    /// wraps, shared by `Arc`).
    pub program: Arc<Program>,
    /// The task partition.
    pub partition: TaskPartition,
    /// The analysis context of `program` (the input context when the
    /// program was not transformed, a fresh one otherwise).
    ctx: ProgramContext,
}

impl Selection {
    /// The analysis context of the selected program — every analysis
    /// consulted during selection, already computed, plus lazy slots for
    /// the rest. Downstream consumers (statistics, simulation) should
    /// read analyses from here instead of recomputing.
    pub fn context(&self) -> &ProgramContext {
        &self.ctx
    }
}

/// Builds a [`TaskSelector`] from named parts.
///
/// # Example
///
/// ```
/// use ms_tasksel::{SelectorBuilder, Strategy};
///
/// let selector = SelectorBuilder::new(Strategy::ControlFlow).max_targets(4).build();
/// assert_eq!(selector.max_targets(), 4);
/// // A strategy also parses from its label:
/// assert_eq!("oracle".parse::<Strategy>(), Ok(Strategy::Oracle));
/// ```
#[derive(Debug, Clone)]
pub struct SelectorBuilder {
    strategy: Strategy,
    max_targets: usize,
    task_size: Option<TaskSizeParams>,
    cost_model: Option<CostModel>,
    oracle_max_blocks: usize,
}

impl SelectorBuilder {
    /// Starts a builder for `strategy` with the paper's defaults:
    /// target limit 4, and task-size preprocessing only for
    /// [`Strategy::TaskSize`] (with the default [`TaskSizeParams`]).
    pub fn new(strategy: Strategy) -> Self {
        SelectorBuilder {
            strategy,
            max_targets: 4,
            task_size: (strategy == Strategy::TaskSize).then(TaskSizeParams::default),
            cost_model: None,
            oracle_max_blocks: DEFAULT_ORACLE_MAX_BLOCKS,
        }
    }

    /// The hardware successor-target limit `N` (the paper evaluates 4).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn max_targets(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one task target is required");
        self.max_targets = n;
        self
    }

    /// Enables the task-size heuristic (loop unrolling + call inclusion)
    /// as preprocessing.
    #[must_use]
    pub fn task_size(mut self, params: TaskSizeParams) -> Self {
        self.task_size = Some(params);
        self
    }

    /// Supplies the measured cost model steering the `cost` policy
    /// (ignored by the other policies). Without one, the `cost` policy
    /// scores from the static profile.
    #[must_use]
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// Overrides the `oracle` policy's exact-search size cutoff
    /// (default [`DEFAULT_ORACLE_MAX_BLOCKS`] reachable blocks; larger
    /// functions fall back to `cf` growth).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn oracle_max_blocks(mut self, n: usize) -> Self {
        assert!(n > 0, "the oracle needs at least one block");
        self.oracle_max_blocks = n;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> TaskSelector {
        TaskSelector {
            strategy: self.strategy,
            max_targets: self.max_targets,
            task_size: self.task_size,
            cost_model: self.cost_model,
            oracle_max_blocks: self.oracle_max_blocks,
        }
    }
}

/// Configures and runs task selection.
///
/// Construct one with [`SelectorBuilder`]; run it with
/// [`TaskSelector::select`] over a shared [`ProgramContext`].
///
/// # Example
///
/// ```
/// use ms_analysis::ProgramContext;
/// use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};
/// use ms_tasksel::{SelectorBuilder, Strategy};
///
/// let mut fb = FunctionBuilder::new("main");
/// let entry = fb.add_block();
/// let body = fb.add_block();
/// let exit = fb.add_block();
/// fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
/// fb.set_terminator(entry, Terminator::Jump { target: body });
/// fb.set_terminator(body, Terminator::Branch {
///     taken: body, fall: exit, cond: vec![Reg::int(1)],
///     behavior: BranchBehavior::exact_loop(8),
/// });
/// fb.set_terminator(exit, Terminator::Halt);
/// let mut pb = ProgramBuilder::new();
/// let m = pb.declare_function("main");
/// pb.define_function(m, fb.finish(entry)?);
/// let ctx = ProgramContext::new(pb.finish(m)?);
///
/// let sel = SelectorBuilder::new(Strategy::ControlFlow).max_targets(4).build().select(&ctx);
/// assert!(sel.partition.validate(&sel.program).is_ok());
/// # Ok::<(), ms_ir::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TaskSelector {
    strategy: Strategy,
    max_targets: usize,
    task_size: Option<TaskSizeParams>,
    cost_model: Option<CostModel>,
    oracle_max_blocks: usize,
}

impl TaskSelector {
    /// The configured target limit `N`.
    pub fn max_targets(&self) -> usize {
        self.max_targets
    }

    /// Partitions the context's program into tasks, reading every CFG
    /// analysis from the shared cache instead of recomputing.
    ///
    /// The returned [`Selection`] carries the program the partition is
    /// valid for — the context's own program (shared, not cloned) unless
    /// the task-size heuristic transformed it.
    pub fn select(&self, ctx: &ProgramContext) -> Selection {
        let prof = ms_prof::span("select");
        let (ctx, included_calls) = match &self.task_size {
            Some(p) => {
                let (transformed, included) = apply_task_size(ctx.program(), p);
                (ProgramContext::new(transformed), included)
            }
            None => (ctx.clone(), BTreeSet::new()),
        };
        let program = Arc::clone(ctx.program_arc());
        let mut funcs = Vec::with_capacity(program.num_functions());
        for fid in program.func_ids() {
            let func = program.function(fid);
            let included: BTreeSet<BlockId> =
                included_calls.iter().filter(|(f, _)| *f == fid).map(|(_, b)| *b).collect();
            let tasks = self.partition_function(fid, &ctx, included);
            funcs.push(FuncPartition::new(fid, tasks, func.num_blocks()));
        }
        // `ts` partitions with `dd`, so its label is `dd+ts`.
        let base = match self.strategy {
            Strategy::TaskSize => Strategy::DataDependence,
            s => s,
        };
        let label = match &self.task_size {
            None => base.label().to_string(),
            Some(_) => format!("{}+ts", base.label()),
        };
        let partition = TaskPartition::new(funcs, included_calls, label);
        debug_assert_eq!(partition.validate(&program).map_err(|e| e.to_string()), Ok(()));
        if ms_prof::is_enabled() {
            let mut blocks = 0u64;
            let mut tasks = 0u64;
            for fp in partition.funcs() {
                for task in fp.tasks() {
                    tasks += 1;
                    blocks += task.blocks().len() as u64;
                }
            }
            prof.add_items(blocks);
            ms_prof::counter_add("select.tasks", tasks);
        }
        Selection { program, partition, ctx }
    }

    fn partition_function(
        &self,
        fid: FuncId,
        ctx: &ProgramContext,
        included: BTreeSet<BlockId>,
    ) -> Vec<Task> {
        let func = ctx.function(fid);
        let grow = GrowCtx::new(func, ctx.order(fid), ctx.loops(fid), included, self.max_targets);
        let view = PolicyView {
            fid,
            ctx,
            grow: &grow,
            max_targets: self.max_targets,
            cost_model: self.cost_model.as_ref(),
            oracle_max_blocks: self.oracle_max_blocks,
        };
        let mut state = PartitionState::new(func.num_blocks());
        let tasks = match self.strategy {
            Strategy::BasicBlock => policy::basic_block(&view),
            Strategy::ControlFlow => policy::control_flow(&view),
            Strategy::DataDependence | Strategy::TaskSize => policy::data_dependence(&view),
            Strategy::Cost => policy::cost(&view),
            Strategy::Oracle => policy::oracle(&view),
        };
        for task in tasks {
            state.push(task);
        }
        repair_single_entry(func, &grow, &mut state);
        state.tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};

    fn ctx(p: &Program) -> ProgramContext {
        ProgramContext::new(p.clone())
    }

    fn selector(strategy: Strategy) -> TaskSelector {
        SelectorBuilder::new(strategy).max_targets(4).build()
    }

    fn build(fb: FunctionBuilder, entry: BlockId) -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        pb.define_function(m, fb.finish(entry).unwrap());
        pb.finish(m).unwrap()
    }

    fn branch(taken: BlockId, fall: BlockId) -> Terminator {
        Terminator::Branch { taken, fall, cond: vec![], behavior: BranchBehavior::Taken(0.5) }
    }

    /// Basic block selection: one task per reachable block.
    #[test]
    fn basic_block_tasks_are_singletons() {
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        fb.set_terminator(b0, branch(b1, b2));
        fb.set_terminator(b1, Terminator::Halt);
        fb.set_terminator(b2, Terminator::Halt);
        let p = build(fb, b0);
        let sel = selector(Strategy::BasicBlock).select(&ctx(&p));
        assert!(sel.partition.validate(&sel.program).is_ok());
        assert_eq!(sel.partition.num_tasks(), 3);
        for fp in sel.partition.funcs() {
            for t in fp.tasks() {
                assert_eq!(t.len(), 1);
            }
        }
    }

    /// Control flow selection merges a diamond into one task.
    #[test]
    fn control_flow_merges_reconverging_paths() {
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        let b3 = fb.add_block();
        fb.set_terminator(b0, branch(b1, b2));
        fb.set_terminator(b1, Terminator::Jump { target: b3 });
        fb.set_terminator(b2, Terminator::Jump { target: b3 });
        fb.set_terminator(b3, Terminator::Halt);
        let p = build(fb, b0);
        let sel = selector(Strategy::ControlFlow).select(&ctx(&p));
        assert!(sel.partition.validate(&sel.program).is_ok());
        assert_eq!(sel.partition.num_tasks(), 1);
    }

    /// The paper's Figure 4 scenario: a dependence from a producer block
    /// to a consumer block several blocks downstream. The data dependence
    /// heuristic includes the codependent set in one task.
    #[test]
    fn figure4_dependence_is_included_within_a_task() {
        let mut fb = FunctionBuilder::new("main");
        // producer → {a, b} → join(consumer) → exit; producer defines r9,
        // join uses it.
        let producer = fb.add_block();
        let a = fb.add_block();
        let b = fb.add_block();
        let join = fb.add_block();
        let exit = fb.add_block();
        fb.push_inst(producer, Opcode::IMov.inst().dst(Reg::int(9)));
        fb.push_inst(join, Opcode::IAdd.inst().dst(Reg::int(10)).src(Reg::int(9)));
        fb.set_terminator(producer, branch(a, b));
        fb.set_terminator(a, Terminator::Jump { target: join });
        fb.set_terminator(b, Terminator::Jump { target: join });
        fb.set_terminator(join, Terminator::Jump { target: exit });
        fb.set_terminator(exit, Terminator::Halt);
        let p = build(fb, producer);
        let sel = selector(Strategy::DataDependence).select(&ctx(&p));
        assert!(sel.partition.validate(&sel.program).is_ok());
        let fp = &sel.partition.funcs()[0];
        let t_prod = fp.task_of(producer).unwrap();
        let t_join = fp.task_of(join).unwrap();
        assert_eq!(t_prod, t_join, "dependence split across tasks");
    }

    /// Selection respects the target limit on a wide switch: the switch
    /// block cannot merge with anything that would exceed N.
    #[test]
    fn switch_with_many_targets_bounds_tasks() {
        let mut fb = FunctionBuilder::new("main");
        let s = fb.add_block();
        let arms: Vec<BlockId> = (0..6).map(|_| fb.add_block()).collect();
        let join = fb.add_block();
        fb.set_terminator(
            s,
            Terminator::Switch { targets: arms.clone(), weights: vec![1; 6], cond: vec![] },
        );
        for &a in &arms {
            fb.set_terminator(a, Terminator::Jump { target: join });
        }
        fb.set_terminator(join, Terminator::Halt);
        let p = build(fb, s);
        let sel = selector(Strategy::ControlFlow).select(&ctx(&p));
        assert!(sel.partition.validate(&sel.program).is_ok());
        // Everything still covered despite the infeasible fork.
        let fp = &sel.partition.funcs()[0];
        for blk in p.function(p.entry()).reachable_blocks() {
            assert!(fp.task_of(blk).is_some());
        }
    }

    /// Loops: the loop body becomes one task targeting itself.
    #[test]
    fn loop_bodies_become_self_targeting_tasks() {
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
                behavior: BranchBehavior::exact_loop(10),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        let p = build(fb, entry);
        let sel = selector(Strategy::ControlFlow).select(&ctx(&p));
        assert!(sel.partition.validate(&sel.program).is_ok());
        let fp = &sel.partition.funcs()[0];
        let t = fp.task_of(head).unwrap();
        assert_eq!(fp.task_of(latch), Some(t));
        let targets = sel.partition.targets(&sel.program, p.entry(), t);
        assert!(targets.contains(&crate::task::TaskTarget::Block(head)));
    }

    /// Multi-function program with calls: everything validates and call
    /// return blocks are task entries, under every strategy.
    #[test]
    fn calls_split_tasks_and_validate() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let leaf = pb.declare_function("leaf");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        fb.push_inst(b0, Opcode::IMov.inst().dst(Reg::int(1)));
        fb.set_terminator(b0, Terminator::Call { callee: leaf, ret_to: b1 });
        fb.set_terminator(b1, Terminator::Jump { target: b2 });
        fb.set_terminator(b2, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let mut fb = FunctionBuilder::new("leaf");
        let l0 = fb.add_block();
        for _ in 0..40 {
            fb.push_inst(l0, Opcode::IAdd.inst().dst(Reg::int(2)).src(Reg::int(1)));
        }
        fb.set_terminator(l0, Terminator::Return);
        pb.define_function(leaf, fb.finish(l0).unwrap());
        let p = pb.finish(m).unwrap();
        for strategy in Strategy::extended() {
            let sel = strategy.selector(4).select(&ctx(&p));
            assert!(sel.partition.validate(&sel.program).is_ok(), "{}", sel.partition.strategy());
        }
    }

    /// Task size preprocessing transforms the program: the selection's
    /// program differs from the input (the small loop was unrolled).
    #[test]
    fn task_size_returns_the_transformed_program() {
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
                behavior: BranchBehavior::exact_loop(30),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        let p = build(fb, entry);
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .task_size(TaskSizeParams::default())
            .build()
            .select(&ctx(&p));
        assert!(sel.program.function(p.entry()).num_blocks() > 3);
        assert!(sel.partition.validate(&sel.program).is_ok());
        assert_eq!(sel.partition.strategy(), "cf+ts");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_targets_is_rejected() {
        let _ = SelectorBuilder::new(Strategy::ControlFlow).max_targets(0);
    }
}
