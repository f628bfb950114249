//! Splitting a dynamic trace into dynamic tasks.
//!
//! A dynamic task (§2.2) is a contiguous fragment of the dynamic
//! instruction stream entered only at its first instruction. Given a
//! static [`TaskPartition`], this module chops a [`Trace`] into the exact
//! dynamic task sequence the Multiscalar sequencer would dispatch:
//!
//! * a dynamic task starts at a static task's entry block and continues
//!   while execution stays inside that static task,
//! * reaching the task's own entry again starts a *new* invocation,
//! * an **included** call keeps executing inside the same dynamic task
//!   through the whole callee (nested calls too),
//! * a non-included call ends the task; the callee's entry task follows;
//!   the matching return ends *its* task and the caller's return-block
//!   task follows.

use ms_ir::{BlockRef, FuncId, Program, Terminator};
use ms_tasksel::{TaskId, TaskPartition, TaskTarget};

use crate::step::{CtOutcome, Trace, TraceStep};

/// How a dynamic task ended — what the sequencer must have predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynExit {
    /// Control moved to another task of the same function (its entry
    /// block identifies it).
    Target(TaskTarget),
    /// The trace ended (program halt or instruction budget).
    End,
}

/// One dynamic task: a contiguous run of trace steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynTask {
    /// Function owning the static task.
    pub func: FuncId,
    /// The static task this invocation instantiates.
    pub task: TaskId,
    /// Step range `[start, end)` into the trace.
    pub start: usize,
    /// End of the step range (exclusive).
    pub end: usize,
    /// How the task exited.
    pub exit: DynExit,
}

impl DynTask {
    /// Number of trace steps in the task.
    pub fn num_steps(&self) -> usize {
        self.end - self.start
    }

    /// Number of dynamic instructions in the task.
    pub fn num_insts(&self, trace: &Trace, program: &Program) -> usize {
        trace.steps()[self.start..self.end].iter().map(|s| s.num_insts(program)).sum()
    }
}

/// Splits `trace` into the dynamic task sequence induced by `partition`.
/// This is the one-chunk case of [`TaskSplitter`].
///
/// # Panics
///
/// Panics if the trace visits a block the partition does not cover —
/// which [`TaskPartition::validate`] rules out.
pub fn split_tasks(trace: &Trace, program: &Program, partition: &TaskPartition) -> Vec<DynTask> {
    let mut out = Vec::new();
    TaskSplitter::new(program, partition).split(trace.steps(), true, &mut out);
    out
}

/// A resumable [`split_tasks`]: it is fed a trace piece by piece and
/// emits each dynamic task as soon as the step after it is known (one
/// step of lookahead). The unfinished last task is held back; the caller
/// keeps its steps, from [`TaskSplitter::pending_start`] on, at the front
/// of the next piece. However the trace is cut, the tasks are exactly
/// those [`split_tasks`] finds in the whole trace.
#[derive(Debug)]
pub struct TaskSplitter<'a> {
    program: &'a Program,
    partition: &'a TaskPartition,
    /// Next step to decide a boundary after.
    pos: usize,
    /// First step of the unfinished task.
    start: usize,
    /// Entry block and static task of the unfinished task (`None`
    /// before the first step).
    cur: Option<(BlockRef, TaskId)>,
    /// While `Some(d)`, the current task is inside an included call made
    /// at depth `d`: every step stays in it until the return to `d`.
    inline_floor: Option<u32>,
}

impl<'a> TaskSplitter<'a> {
    /// A splitter at the start of a trace.
    pub fn new(program: &'a Program, partition: &'a TaskPartition) -> Self {
        TaskSplitter { program, partition, pos: 0, start: 0, cur: None, inline_floor: None }
    }

    /// Appends to `out` every task that ends within `steps`, which must
    /// extend the steps of the previous call (less what
    /// [`TaskSplitter::drop_front`] dropped). With `last`, the trace ends
    /// after `steps` and the final task is emitted with [`DynExit::End`];
    /// otherwise the final step waits for its successor.
    ///
    /// # Panics
    ///
    /// Panics if a step visits a block the partition does not cover.
    pub fn split(&mut self, steps: &[TraceStep], last: bool, out: &mut Vec<DynTask>) {
        let prof = ms_prof::span("trace.split");
        let end = if last { steps.len() } else { steps.len().saturating_sub(1) };
        prof.add_items(end.saturating_sub(self.pos) as u64);
        if self.cur.is_none() && self.start < steps.len() {
            self.begin(&steps[self.start]);
        }
        while self.pos < end {
            let i = self.pos;
            self.pos += 1;
            self.decide(i, &steps[i], steps.get(i + 1), out);
        }
    }

    /// First step of the task not yet emitted: the steps before it are
    /// done with.
    pub fn pending_start(&self) -> usize {
        self.start
    }

    /// Renumbers the steps after the caller dropped the first `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`TaskSplitter::pending_start`].
    pub fn drop_front(&mut self, n: usize) {
        assert!(n <= self.start, "dropped steps of an unfinished task");
        self.start -= n;
        self.pos -= n;
    }

    /// Decides whether a task ends after step `i`, given its successor.
    fn decide(
        &mut self,
        i: usize,
        step: &TraceStep,
        next: Option<&TraceStep>,
        out: &mut Vec<DynTask>,
    ) {
        let term = self.program.function(step.block.func).block(step.block.block).terminator();

        // Track included-call inlining.
        if self.inline_floor.is_none()
            && matches!((term, step.outcome), (Terminator::Call { .. }, CtOutcome::Call))
            && self.partition.is_included_call(step.block.func, step.block.block)
        {
            self.inline_floor = Some(step.depth);
        }
        if let (CtOutcome::Return, Some(floor)) = (step.outcome, self.inline_floor) {
            if step.depth == floor + 1 {
                // Returned to the inlining depth: inlining over. The same
                // dynamic task continues at the caller's return block
                // unless that block starts another task.
                self.inline_floor = None;
                match next {
                    Some(n) if !self.continues(n) => {
                        self.flush(i + 1, DynExit::Target(TaskTarget::Block(n.block.block)), out);
                        self.begin(n);
                    }
                    Some(_) => {}
                    None => self.flush(i + 1, DynExit::End, out),
                }
                return;
            }
        }
        if self.inline_floor.is_some() {
            // Inside an included call: everything stays in this task.
            if next.is_none() {
                self.flush(i + 1, DynExit::End, out);
            }
            return;
        }
        let Some(n) = next else {
            self.flush(i + 1, DynExit::End, out);
            return;
        };

        // Non-inline boundaries.
        let exit = match (term, step.outcome) {
            (Terminator::Call { callee, .. }, CtOutcome::Call) => {
                DynExit::Target(TaskTarget::Call(*callee))
            }
            (_, CtOutcome::Return) => DynExit::Target(TaskTarget::Return),
            // Program restarted inside the trace.
            (_, CtOutcome::Halt) => DynExit::End,
            // Intra-function edge: same static task and not the entry
            // ⇒ same dynamic task.
            _ if self.continues(n) => return,
            _ => DynExit::Target(TaskTarget::Block(n.block.block)),
        };
        self.flush(i + 1, exit, out);
        self.begin(n);
    }

    /// Whether step `n` continues the current task along an intra-function
    /// edge: same function, same static task, and not its entry block.
    fn continues(&self, n: &TraceStep) -> bool {
        let (at, task) = self.cur.expect("a task is open");
        let fp = self.partition.func(n.block.func);
        n.block.func == at.func
            && fp.task_of(n.block.block) == Some(task)
            && fp.task(task).entry() != n.block.block
    }

    /// Emits the current task as ending before step `end`.
    fn flush(&mut self, end: usize, exit: DynExit, out: &mut Vec<DynTask>) {
        let (at, task) = self.cur.expect("a task is open");
        out.push(DynTask { func: at.func, task, start: self.start, end, exit });
        self.start = end;
    }

    /// Opens a task at step `n`.
    fn begin(&mut self, n: &TraceStep) {
        self.cur = Some((n.block, expect_task(self.partition, n.block)));
    }
}

fn expect_task(partition: &TaskPartition, at: BlockRef) -> TaskId {
    partition
        .func(at.func)
        .task_of(at.block)
        .expect("trace visits a block the partition does not cover")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;
    use ms_analysis::ProgramContext;
    use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, Program, ProgramBuilder, Reg};
    use ms_tasksel::{SelectorBuilder, Strategy};

    fn loop_program(trips: u32) -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let head = fb.add_block();
        let latch = fb.add_block();
        let exit = fb.add_block();
        fb.push_inst(head, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
        fb.push_inst(latch, Opcode::IMul.inst().dst(Reg::int(2)).src(Reg::int(1)));
        fb.set_terminator(entry, Terminator::Jump { target: head });
        fb.set_terminator(head, Terminator::Jump { target: latch });
        fb.set_terminator(
            latch,
            Terminator::Branch {
                taken: head,
                fall: exit,
                cond: vec![Reg::int(2)],
                behavior: BranchBehavior::exact_loop(trips),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        pb.define_function(m, fb.finish(entry).unwrap());
        pb.finish(m).unwrap()
    }

    #[test]
    fn loop_iterations_become_separate_dynamic_tasks() {
        let p = loop_program(5);
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let trace = TraceGenerator::new(&sel.program, 1).generate_once(100);
        let tasks = split_tasks(&trace, &sel.program, &sel.partition);
        // entry task + 5 loop-body invocations + exit task.
        let fp = &sel.partition.funcs()[0];
        let head_task = fp.task_of(ms_ir::BlockId::new(1)).unwrap();
        let body_invocations = tasks.iter().filter(|t| t.task == head_task).count();
        assert_eq!(body_invocations, 5);
        // Each loop-body invocation exits to the header (itself) except
        // the last, which exits to the exit block's task.
        let body: Vec<&DynTask> = tasks.iter().filter(|t| t.task == head_task).collect();
        for t in &body[..4] {
            assert_eq!(t.exit, DynExit::Target(TaskTarget::Block(ms_ir::BlockId::new(1))));
        }
    }

    #[test]
    fn dynamic_tasks_tile_the_trace_exactly() {
        let p = loop_program(8);
        for sel in [
            SelectorBuilder::new(Strategy::BasicBlock)
                .build()
                .select(&ProgramContext::new(p.clone())),
            SelectorBuilder::new(Strategy::ControlFlow)
                .max_targets(4)
                .build()
                .select(&ProgramContext::new(p.clone())),
            SelectorBuilder::new(Strategy::DataDependence)
                .max_targets(4)
                .build()
                .select(&ProgramContext::new(p.clone())),
        ] {
            let trace = TraceGenerator::new(&sel.program, 3).generate(300);
            let tasks = split_tasks(&trace, &sel.program, &sel.partition);
            let mut pos = 0usize;
            for t in &tasks {
                assert_eq!(t.start, pos, "tasks must tile contiguously");
                assert!(t.end > t.start);
                pos = t.end;
            }
            assert_eq!(pos, trace.steps().len());
        }
    }

    #[test]
    fn every_dynamic_task_starts_at_its_static_entry() {
        let p = loop_program(6);
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let trace = TraceGenerator::new(&sel.program, 5).generate(400);
        let tasks = split_tasks(&trace, &sel.program, &sel.partition);
        for t in &tasks {
            let entry = sel.partition.func(t.func).task(t.task).entry();
            assert_eq!(trace.steps()[t.start].block.block, entry);
        }
    }

    #[test]
    fn call_boundaries_produce_call_and_return_exits() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let leaf = pb.declare_function("leaf");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        fb.push_inst(b0, Opcode::IMov.inst().dst(Reg::int(1)));
        fb.set_terminator(b0, Terminator::Call { callee: leaf, ret_to: b1 });
        fb.set_terminator(b1, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let mut fb = FunctionBuilder::new("leaf");
        let l0 = fb.add_block();
        for _ in 0..40 {
            fb.push_inst(l0, Opcode::IAdd.inst().dst(Reg::int(2)).src(Reg::int(1)));
        }
        fb.set_terminator(l0, Terminator::Return);
        pb.define_function(leaf, fb.finish(l0).unwrap());
        let p = pb.finish(m).unwrap();

        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let trace = TraceGenerator::new(&sel.program, 1).generate_once(100);
        let tasks = split_tasks(&trace, &sel.program, &sel.partition);
        assert_eq!(tasks.len(), 3);
        assert_eq!(tasks[0].exit, DynExit::Target(TaskTarget::Call(leaf)));
        assert_eq!(tasks[1].func, leaf);
        assert_eq!(tasks[1].exit, DynExit::Target(TaskTarget::Return));
        assert_eq!(tasks[2].exit, DynExit::End);
    }

    #[test]
    fn included_calls_stay_in_one_dynamic_task() {
        use ms_tasksel::TaskSizeParams;
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let tiny = pb.declare_function("tiny");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        fb.push_inst(b0, Opcode::IMov.inst().dst(Reg::int(1)));
        fb.set_terminator(b0, Terminator::Call { callee: tiny, ret_to: b1 });
        fb.push_inst(b1, Opcode::IAdd.inst().dst(Reg::int(3)).src(Reg::int(1)));
        fb.set_terminator(b1, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let mut fb = FunctionBuilder::new("tiny");
        let l0 = fb.add_block();
        fb.push_inst(l0, Opcode::IAdd.inst().dst(Reg::int(2)).src(Reg::int(1)));
        fb.set_terminator(l0, Terminator::Return);
        pb.define_function(tiny, fb.finish(l0).unwrap());
        let p = pb.finish(m).unwrap();

        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .task_size(TaskSizeParams::default())
            .build()
            .select(&ProgramContext::new(p.clone()));
        assert!(sel.partition.is_included_call(m, ms_ir::BlockId::new(0)));
        let trace = TraceGenerator::new(&sel.program, 1).generate_once(50);
        let tasks = split_tasks(&trace, &sel.program, &sel.partition);
        // main's b0 + the whole callee + b1 are one dynamic task.
        assert_eq!(tasks.len(), 1, "tasks: {tasks:?}");
        assert_eq!(tasks[0].num_steps(), 3);
    }
}
