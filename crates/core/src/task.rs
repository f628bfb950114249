//! Tasks and partitions.

use std::collections::BTreeSet;
use std::fmt;

use ms_ir::{BlockId, FuncId, Function, Program, Terminator};

use crate::error::PartitionError;

/// Identifier of a task within one function's partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u32);

impl TaskId {
    /// Creates an identifier from a raw index.
    pub fn new(index: u32) -> Self {
        TaskId(index)
    }

    /// The raw index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A place the sequencer can go after a task: the hardware's prediction
/// tables track up to `N` of these per task (§2.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TaskTarget {
    /// Another task (or the same task again, for loop bodies) within the
    /// same function, named by its entry block.
    Block(BlockId),
    /// The entry task of a called function.
    Call(FuncId),
    /// A return to the caller (predicted by the sequencer's return
    /// address stack; counts as one target).
    Return,
}

impl fmt::Display for TaskTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskTarget::Block(b) => write!(f, "{b}"),
            TaskTarget::Call(func) => write!(f, "call:{func}"),
            TaskTarget::Return => write!(f, "ret"),
        }
    }
}

/// A static task: a connected, single-entry subgraph of one function's CFG
/// (§2.2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    entry: BlockId,
    blocks: BTreeSet<BlockId>,
}

impl Task {
    /// Creates a task from its entry and block set.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` does not contain `entry`.
    pub fn new(entry: BlockId, blocks: BTreeSet<BlockId>) -> Self {
        assert!(blocks.contains(&entry), "task blocks must contain the entry");
        Task { entry, blocks }
    }

    /// Creates a single-block task.
    pub fn singleton(entry: BlockId) -> Self {
        Task { entry, blocks: BTreeSet::from([entry]) }
    }

    /// The task's entry block (the only block dynamic control may enter
    /// the task at).
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The task's blocks, in ascending id order.
    pub fn blocks(&self) -> &BTreeSet<BlockId> {
        &self.blocks
    }

    /// Whether the task contains `b`.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the task has exactly its entry block.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Static instruction count of the task (terminators included).
    pub fn static_size(&self, func: &Function) -> usize {
        self.blocks.iter().map(|&b| func.block(b).len_with_ct()).sum()
    }

    /// The task's successor targets given the surrounding function and
    /// the set of *included* call blocks (whose callees execute inside
    /// the task and therefore contribute the call block's return
    /// successor instead of a `Call` target).
    pub fn targets(&self, func: &Function, included_calls: &BTreeSet<BlockId>) -> Vec<TaskTarget> {
        let mut out: BTreeSet<TaskTarget> = BTreeSet::new();
        for &b in &self.blocks {
            match func.block(b).terminator() {
                Terminator::Call { callee, ret_to } => {
                    if included_calls.contains(&b) {
                        // Included call: execution continues inside the
                        // task at ret_to (after running the callee).
                        if !self.blocks.contains(ret_to) || *ret_to == self.entry {
                            out.insert(TaskTarget::Block(*ret_to));
                        }
                    } else {
                        out.insert(TaskTarget::Call(*callee));
                    }
                }
                Terminator::Return => {
                    out.insert(TaskTarget::Return);
                }
                Terminator::Halt => {}
                _ => {
                    for s in func.successors(b) {
                        // An edge leaving the task — or re-entering it at
                        // the entry (a new dynamic invocation) — is a
                        // task target.
                        if !self.blocks.contains(&s) || s == self.entry {
                            out.insert(TaskTarget::Block(s));
                        }
                    }
                }
            }
        }
        out.into_iter().collect()
    }
}

/// The partition of one function into tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncPartition {
    func: FuncId,
    tasks: Vec<Task>,
    /// `task_of[b]`: task containing block `b`, `None` for unreachable
    /// blocks that were never assigned.
    task_of: Vec<Option<TaskId>>,
}

impl FuncPartition {
    /// Assembles a function partition.
    ///
    /// # Panics
    ///
    /// Panics if two tasks claim the same block.
    pub fn new(func: FuncId, tasks: Vec<Task>, num_blocks: usize) -> Self {
        let mut task_of = vec![None; num_blocks];
        for (i, t) in tasks.iter().enumerate() {
            for &b in t.blocks() {
                assert!(task_of[b.index()].is_none(), "block {b} claimed by two tasks in {func}");
                task_of[b.index()] = Some(TaskId::new(i as u32));
            }
        }
        FuncPartition { func, tasks, task_of }
    }

    /// The function this partition covers.
    pub fn func(&self) -> FuncId {
        self.func
    }

    /// The tasks, indexable by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Accesses a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// The task containing block `b`, if `b` was assigned.
    pub fn task_of(&self, b: BlockId) -> Option<TaskId> {
        self.task_of.get(b.index()).copied().flatten()
    }

    /// The task whose *entry* is `b`, if any.
    pub fn task_at_entry(&self, b: BlockId) -> Option<TaskId> {
        match self.task_of(b) {
            Some(t) if self.tasks[t.index()].entry() == b => Some(t),
            _ => None,
        }
    }
}

/// A whole-program task partition: one [`FuncPartition`] per function plus
/// the set of call sites whose callees are *included* (executed inside the
/// calling task — the task-size heuristic's `CALL_THRESH` rule).
#[derive(Debug, Clone)]
pub struct TaskPartition {
    funcs: Vec<FuncPartition>,
    included_calls: BTreeSet<(FuncId, BlockId)>,
    strategy: String,
}

impl TaskPartition {
    /// Assembles a program partition.
    ///
    /// # Panics
    ///
    /// Panics if the per-function partitions are not densely indexed by
    /// function id.
    pub fn new(
        funcs: Vec<FuncPartition>,
        included_calls: BTreeSet<(FuncId, BlockId)>,
        strategy: impl Into<String>,
    ) -> Self {
        for (i, fp) in funcs.iter().enumerate() {
            assert_eq!(fp.func().index(), i, "function partitions must be dense");
        }
        TaskPartition { funcs, included_calls, strategy: strategy.into() }
    }

    /// The partition of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn func(&self, f: FuncId) -> &FuncPartition {
        &self.funcs[f.index()]
    }

    /// All per-function partitions.
    pub fn funcs(&self) -> &[FuncPartition] {
        &self.funcs
    }

    /// Whether the call terminating `(f, b)` is included in its task.
    pub fn is_included_call(&self, f: FuncId, b: BlockId) -> bool {
        self.included_calls.contains(&(f, b))
    }

    /// The included call sites.
    pub fn included_calls(&self) -> &BTreeSet<(FuncId, BlockId)> {
        &self.included_calls
    }

    /// Name of the heuristic that produced this partition (for reports).
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// Whether `other` selects the same tasks: equal per-function tasks
    /// in the same order, equal block-to-task maps and equal included
    /// calls. The [`strategy`](Self::strategy) label is not compared, so
    /// two heuristics that pick the same tasks give equal partitions.
    pub fn same_tasks(&self, other: &TaskPartition) -> bool {
        self.funcs == other.funcs && self.included_calls == other.included_calls
    }

    /// Included call blocks of `f` (helper for [`Task::targets`]).
    pub fn included_in(&self, f: FuncId) -> BTreeSet<BlockId> {
        self.included_calls.iter().filter(|(ff, _)| *ff == f).map(|(_, b)| *b).collect()
    }

    /// The targets of task `t` of function `f`.
    pub fn targets(&self, program: &Program, f: FuncId, t: TaskId) -> Vec<TaskTarget> {
        let included = self.included_in(f);
        self.func(f).task(t).targets(program.function(f), &included)
    }

    /// Total number of tasks across all functions.
    pub fn num_tasks(&self) -> usize {
        self.funcs.iter().map(|fp| fp.tasks().len()).sum()
    }

    /// A stable, human-readable label for a task boundary:
    /// `"<function>/t<task>@b<entry>"` (e.g. `"main/t2@b5"`). The label
    /// depends only on the program and the partition — not on any
    /// dynamic execution — so attribution tables and traces produced
    /// from the same selection always agree on names.
    ///
    /// # Panics
    ///
    /// Panics if `f` or `t` is out of range for this partition.
    pub fn boundary_label(&self, program: &Program, f: FuncId, t: TaskId) -> String {
        let entry = self.func(f).task(t).entry();
        format!("{}/{}@{}", program.function(f).name(), t, entry)
    }

    /// Checks the Multiscalar task invariants against `program`:
    ///
    /// 1. every block reachable from each function's entry belongs to
    ///    exactly one task (exact cover is enforced at construction; this
    ///    checks coverage),
    /// 2. each task is connected: every block is reachable from the task
    ///    entry *within* the task,
    /// 3. single entry: edges from outside a task may only target the
    ///    task's entry block,
    /// 4. function entries are task entries (callers jump to them), and
    ///    return blocks' successors (`ret_to`) of non-included calls are
    ///    task entries.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, program: &Program) -> Result<(), PartitionError> {
        for fid in program.func_ids() {
            let func = program.function(fid);
            let fp = self.func(fid);
            let included = self.included_in(fid);
            // 1. Coverage of reachable blocks.
            for b in func.reachable_blocks() {
                if fp.task_of(b).is_none() {
                    return Err(PartitionError::Uncovered { func: fid, block: b });
                }
            }
            // 4a. Function entry is a task entry.
            if fp.task_at_entry(func.entry()).is_none() {
                return Err(PartitionError::EntryNotTaskEntry { func: fid, block: func.entry() });
            }
            for (ti, task) in fp.tasks().iter().enumerate() {
                let tid = TaskId::new(ti as u32);
                // 2. Connectivity within the task.
                let mut seen: BTreeSet<BlockId> = BTreeSet::from([task.entry()]);
                let mut stack = vec![task.entry()];
                while let Some(x) = stack.pop() {
                    let succs: Vec<BlockId> = match func.block(x).terminator() {
                        Terminator::Call { ret_to, .. } if included.contains(&x) => vec![*ret_to],
                        Terminator::Call { .. } => Vec::new(),
                        _ => func.successors(x),
                    };
                    for s in succs {
                        if task.contains(s) && seen.insert(s) {
                            stack.push(s);
                        }
                    }
                }
                for &b in task.blocks() {
                    if !seen.contains(&b) {
                        return Err(PartitionError::Disconnected {
                            func: fid,
                            task: tid,
                            block: b,
                        });
                    }
                }
                // 3. Single entry: internal blocks may not be targeted
                // from outside the task.
                for &b in task.blocks() {
                    if b == task.entry() {
                        continue;
                    }
                    for &p in func.predecessors(b) {
                        if !task.contains(p) {
                            return Err(PartitionError::SideEntry {
                                func: fid,
                                task: tid,
                                block: b,
                                from: p,
                            });
                        }
                    }
                }
                // 4b. Non-included call return blocks are task entries.
                for &b in task.blocks() {
                    if let Terminator::Call { ret_to, .. } = func.block(b).terminator() {
                        if !included.contains(&b) && fp.task_at_entry(*ret_to).is_none() {
                            return Err(PartitionError::ReturnNotTaskEntry {
                                func: fid,
                                block: *ret_to,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};

    fn two_block_program() -> (Program, FuncId) {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        fb.push_inst(b0, Opcode::IAdd.inst().dst(Reg::int(1)));
        fb.set_terminator(b0, Terminator::Jump { target: b1 });
        fb.set_terminator(b1, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        (pb.finish(m).unwrap(), m)
    }

    #[test]
    fn singleton_tasks_validate() {
        let (p, m) = two_block_program();
        let tasks = vec![Task::singleton(BlockId::new(0)), Task::singleton(BlockId::new(1))];
        let fp = FuncPartition::new(m, tasks, 2);
        let part = TaskPartition::new(vec![fp], BTreeSet::new(), "bb");
        assert!(part.validate(&p).is_ok());
        assert_eq!(part.num_tasks(), 2);
    }

    /// `same_tasks` ignores the label and nothing else: a reordered
    /// task list, a different block-to-task map and a different
    /// included-call set each tell two partitions apart.
    #[test]
    fn same_tasks_ignores_only_the_label() {
        let (b0, b1) = (BlockId::new(0), BlockId::new(1));
        let m = FuncId::new(0);
        let part = |tasks: Vec<Task>, blocks: usize, calls: &[(FuncId, BlockId)], label: &str| {
            let fp = FuncPartition::new(m, tasks, blocks);
            TaskPartition::new(vec![fp], calls.iter().copied().collect(), label)
        };
        let singles = || vec![Task::singleton(b0), Task::singleton(b1)];
        let base = part(singles(), 2, &[], "bb");
        assert!(base.same_tasks(&part(singles(), 2, &[], "dd+ts")));
        let reordered = part(vec![Task::singleton(b1), Task::singleton(b0)], 2, &[], "bb");
        assert!(!base.same_tasks(&reordered));
        // Same tasks in the same order, one more (unassigned) block.
        let wider = part(singles(), 3, &[], "bb");
        assert_eq!(wider.funcs()[0].tasks(), base.funcs()[0].tasks());
        assert!(!base.same_tasks(&wider));
        assert!(!base.same_tasks(&part(singles(), 2, &[(m, b0)], "bb")));
    }

    #[test]
    fn uncovered_block_is_rejected() {
        let (p, m) = two_block_program();
        let fp = FuncPartition::new(m, vec![Task::singleton(BlockId::new(0))], 2);
        let part = TaskPartition::new(vec![fp], BTreeSet::new(), "bb");
        assert!(matches!(part.validate(&p), Err(PartitionError::Uncovered { .. })));
    }

    #[test]
    #[should_panic(expected = "two tasks")]
    fn overlapping_tasks_are_rejected_at_construction() {
        let mut blocks = BTreeSet::new();
        blocks.insert(BlockId::new(0));
        blocks.insert(BlockId::new(1));
        let t0 = Task::new(BlockId::new(0), blocks);
        let t1 = Task::singleton(BlockId::new(1));
        let _ = FuncPartition::new(FuncId::new(0), vec![t0, t1], 2);
    }

    #[test]
    fn side_entry_is_detected() {
        // 0 → {1, 2}; 1 → 3; 2 → 3. Put {1, 3} in one task: 2 → 3 enters
        // the task at a non-entry block.
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        let b3 = fb.add_block();
        fb.set_terminator(
            b0,
            Terminator::Branch {
                taken: b1,
                fall: b2,
                cond: vec![],
                behavior: BranchBehavior::Taken(0.5),
            },
        );
        fb.set_terminator(b1, Terminator::Jump { target: b3 });
        fb.set_terminator(b2, Terminator::Jump { target: b3 });
        fb.set_terminator(b3, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let p = pb.finish(m).unwrap();
        let tasks =
            vec![Task::singleton(b0), Task::new(b1, BTreeSet::from([b1, b3])), Task::singleton(b2)];
        let fp = FuncPartition::new(m, tasks, 4);
        let part = TaskPartition::new(vec![fp], BTreeSet::new(), "x");
        assert!(matches!(part.validate(&p), Err(PartitionError::SideEntry { .. })));
    }

    #[test]
    fn loop_task_targets_include_itself() {
        // entry → head; head/body loop; body → exit.
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let head = fb.add_block();
        let exit = fb.add_block();
        fb.push_inst(head, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
        fb.set_terminator(entry, Terminator::Jump { target: head });
        fb.set_terminator(
            head,
            Terminator::Branch {
                taken: head,
                fall: exit,
                cond: vec![],
                behavior: BranchBehavior::exact_loop(9),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        pb.define_function(m, fb.finish(entry).unwrap());
        let p = pb.finish(m).unwrap();
        let t = Task::singleton(head);
        let targets = t.targets(p.function(m), &BTreeSet::new());
        assert!(targets.contains(&TaskTarget::Block(head)), "loop task re-targets itself");
        assert!(targets.contains(&TaskTarget::Block(exit)));
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn call_targets_depend_on_inclusion() {
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
        fb.set_terminator(l0, Terminator::Return);
        pb.define_function(leaf, fb.finish(l0).unwrap());
        let p = pb.finish(m).unwrap();

        let t = Task::singleton(BlockId::new(0));
        // Not included: the target is the callee.
        let targets = t.targets(p.function(m), &BTreeSet::new());
        assert_eq!(targets, vec![TaskTarget::Call(leaf)]);
        // Included: the target is the return block.
        let included = BTreeSet::from([BlockId::new(0)]);
        let targets = t.targets(p.function(m), &included);
        assert_eq!(targets, vec![TaskTarget::Block(BlockId::new(1))]);
    }

    #[test]
    fn return_block_not_task_entry_is_detected() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let leaf = pb.declare_function("leaf");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        fb.set_terminator(b0, Terminator::Call { callee: leaf, ret_to: b1 });
        fb.set_terminator(b1, Terminator::Jump { target: b2 });
        fb.set_terminator(b2, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let mut fb = FunctionBuilder::new("leaf");
        let l0 = fb.add_block();
        fb.set_terminator(l0, Terminator::Return);
        pb.define_function(leaf, fb.finish(l0).unwrap());
        let p = pb.finish(m).unwrap();

        // b1 buried inside b0's task: the callee's return has nowhere to
        // re-enter. (This also violates connectivity for non-included
        // calls, but the return-entry check fires first via coverage of
        // b1 through the side-entry rule; assert it errors at all.)
        let tasks = vec![Task::new(b0, BTreeSet::from([b0, b1])), Task::singleton(b2)];
        let fp = FuncPartition::new(m, tasks, 3);
        let lp = FuncPartition::new(leaf, vec![Task::singleton(l0)], 1);
        let part = TaskPartition::new(vec![fp, lp], BTreeSet::new(), "x");
        assert!(part.validate(&p).is_err());
    }
}
