//! The greedy task-growth traversal of the paper's Figure 3.
//!
//! Tasks are grown from a seed block by breadth-first exploration of the
//! CFG. *Terminal* nodes are included but end exploration of their paths;
//! *terminal* edges are never crossed (their targets become task
//! successors). While exploring, the traversal tracks the largest prefix
//! of included blocks whose successor-target count stays within the
//! hardware limit `N` — the **feasible task** — and keeps exploring
//! greedily past infeasible points in the hope that reconverging paths
//! bring the count back down (§3.3).

use std::collections::{BTreeSet, VecDeque};

use ms_analysis::{DfsOrder, LoopForest};
use ms_ir::{BlockId, Function, Terminator};

use crate::task::Task;

/// Safety cap on blocks explored per task growth.
const EXPLORE_LIMIT: usize = 64;

/// Per-function context shared by all growth operations.
///
/// Borrows its analyses (DFS order, loops) rather than computing them,
/// so repeated selections over one program share a single computation
/// through [`ms_analysis::ProgramContext`].
#[derive(Debug)]
pub struct GrowCtx<'a> {
    func: &'a Function,
    order: &'a DfsOrder,
    loops: &'a LoopForest,
    /// Call blocks whose callees execute inside the task (task-size
    /// heuristic's `CALL_THRESH` rule): such blocks are *not* terminal.
    included_calls: BTreeSet<BlockId>,
    /// Hardware successor-target limit `N`.
    max_targets: usize,
}

impl<'a> GrowCtx<'a> {
    /// Builds the context over already-computed analyses of `func`
    /// (typically served by a [`ms_analysis::ProgramContext`]).
    pub fn new(
        func: &'a Function,
        order: &'a DfsOrder,
        loops: &'a LoopForest,
        included_calls: BTreeSet<BlockId>,
        max_targets: usize,
    ) -> Self {
        GrowCtx { func, order, loops, included_calls, max_targets }
    }

    /// The function being partitioned.
    pub fn func(&self) -> &Function {
        self.func
    }

    /// The included call blocks.
    pub fn included_calls(&self) -> &BTreeSet<BlockId> {
        &self.included_calls
    }

    /// The loop forest (exposed for the task-size transform's tests).
    pub fn loops(&self) -> &LoopForest {
        self.loops
    }

    /// Whether `blk` ends the exploration of its path once included
    /// (the paper's `is_a_terminal_node`): blocks ending in non-included
    /// calls or returns, loop latches, and loop headers reached from
    /// outside their loop (`blk != root`).
    pub fn is_terminal_node(&self, blk: BlockId, root: BlockId) -> bool {
        match self.func.block(blk).terminator() {
            Terminator::Call { .. } if !self.included_calls.contains(&blk) => return true,
            Terminator::Return | Terminator::Halt => return true,
            _ => {}
        }
        if self.loops.is_latch(blk) {
            return true;
        }
        if self.loops.is_header(blk) && blk != root {
            return true;
        }
        false
    }

    /// Whether edge `u → v` may not be crossed during growth (the paper's
    /// `is_a_terminal_edge`): retreating (loop back) edges, edges
    /// entering a loop from outside it, and edges exiting the innermost
    /// loop containing `u`.
    pub fn is_terminal_edge(&self, u: BlockId, v: BlockId) -> bool {
        if self.order.is_retreating_edge(u, v) {
            return true;
        }
        if let Some(l) = self.loops.loop_of_header(v) {
            if !l.contains(u) {
                return true; // entry into a loop
            }
        }
        if let Some(l) = self.loops.innermost(u) {
            if !l.contains(v) {
                return true; // exit out of a loop
            }
        }
        false
    }

    /// Grows a task.
    ///
    /// * `seed` — the task entry (when `initial` is empty) or the entry
    ///   of the task being expanded.
    /// * `initial` — blocks the task already owns (empty for fresh
    ///   growth; the current task for data-dependence expansion). Must be
    ///   connected from `seed` when non-empty.
    /// * `taken` — predicate: blocks already owned by *other* tasks
    ///   (never included; edges to them are exposed).
    /// * `steer` — optional predicate restricting which children are
    ///   explored (the data dependence heuristic passes the codependent
    ///   set); children failing it become exposed targets.
    ///
    /// Returns the feasible task: the largest explored prefix with at
    /// most `max_targets` successor targets (never smaller than
    /// `initial ∪ {seed}`).
    pub fn grow(
        &self,
        seed: BlockId,
        initial: &BTreeSet<BlockId>,
        taken: &dyn Fn(BlockId) -> bool,
        steer: Option<&dyn Fn(BlockId) -> bool>,
    ) -> Task {
        let mut potential: Vec<BlockId> = Vec::new();
        let mut in_potential: BTreeSet<BlockId> = BTreeSet::new();
        let mut queue: VecDeque<BlockId> = VecDeque::new();

        let enqueue_children =
            |blk: BlockId, in_potential: &BTreeSet<BlockId>, queue: &mut VecDeque<BlockId>| {
                if self.is_terminal_node(blk, seed) {
                    return;
                }
                let succs: Vec<BlockId> = match self.func.block(blk).terminator() {
                    // Included call: growth continues at the return block.
                    Terminator::Call { ret_to, .. } => vec![*ret_to],
                    _ => self.func.successors(blk),
                };
                for ch in succs {
                    if in_potential.contains(&ch) || taken(ch) {
                        continue;
                    }
                    if self.is_terminal_edge(blk, ch) {
                        continue;
                    }
                    if let Some(s) = steer {
                        if !s(ch) {
                            continue;
                        }
                    }
                    queue.push_back(ch);
                }
            };

        // Seed with the initial set (expansion) or the seed block.
        if initial.is_empty() {
            potential.push(seed);
            in_potential.insert(seed);
            enqueue_children(seed, &in_potential, &mut queue);
        } else {
            debug_assert!(initial.contains(&seed), "expansion must include the seed");
            for &b in initial {
                potential.push(b);
                in_potential.insert(b);
            }
            for &b in initial {
                enqueue_children(b, &in_potential, &mut queue);
            }
        }
        let floor = potential.len();
        let mut feasible_len = floor;
        if self.count_targets(&in_potential) <= self.max_targets {
            feasible_len = potential.len();
        }

        while let Some(blk) = queue.pop_front() {
            if in_potential.contains(&blk) || taken(blk) {
                continue;
            }
            if potential.len() >= EXPLORE_LIMIT {
                break;
            }
            potential.push(blk);
            in_potential.insert(blk);
            if self.count_targets(&in_potential) <= self.max_targets {
                feasible_len = potential.len();
            }
            enqueue_children(blk, &in_potential, &mut queue);
        }

        let blocks: BTreeSet<BlockId> =
            potential[..feasible_len.max(floor.max(1))].iter().copied().collect();
        Task::new(seed, blocks)
    }

    /// Number of distinct successor targets of a candidate block set.
    fn count_targets(&self, blocks: &BTreeSet<BlockId>) -> usize {
        // The entry is irrelevant to the count; use any member.
        let entry = *blocks.iter().next().expect("candidate set is never empty");
        Task::new(entry, blocks.clone()).targets(self.func, &self.included_calls).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskTarget;
    use ms_analysis::Dominators;
    use ms_ir::{BranchBehavior, FuncId, FunctionBuilder, Opcode, Reg, Terminator};

    fn analyses(f: &Function) -> (DfsOrder, LoopForest) {
        let dom = Dominators::compute(f);
        (DfsOrder::compute(f), LoopForest::compute(f, &dom))
    }

    fn branch(taken: BlockId, fall: BlockId) -> Terminator {
        Terminator::Branch { taken, fall, cond: vec![], behavior: BranchBehavior::Taken(0.5) }
    }

    fn no_taken(_: BlockId) -> bool {
        false
    }

    /// Diamond 0→{1,2}→3→return: reconvergence lets one task hold all
    /// four blocks with a single target (the return).
    #[test]
    fn reconverging_paths_fit_in_one_task() {
        let mut fb = FunctionBuilder::new("d");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        let b3 = fb.add_block();
        fb.set_terminator(b0, branch(b1, b2));
        fb.set_terminator(b1, Terminator::Jump { target: b3 });
        fb.set_terminator(b2, Terminator::Jump { target: b3 });
        fb.set_terminator(b3, Terminator::Return);
        let f = fb.finish(b0).unwrap();
        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::new(), 4);
        let task = ctx.grow(b0, &BTreeSet::new(), &no_taken, None);
        assert_eq!(task.len(), 4);
        let targets = task.targets(&f, ctx.included_calls());
        assert_eq!(targets, vec![TaskTarget::Return]);
    }

    /// A loop body seeded at its header grows to the whole body and
    /// stops at the latch; targets are the header itself and the exit.
    #[test]
    fn loop_body_task_stops_at_latch() {
        let mut fb = FunctionBuilder::new("l");
        let entry = fb.add_block();
        let head = fb.add_block();
        let mid = fb.add_block();
        let latch = fb.add_block();
        let exit = fb.add_block();
        fb.push_inst(head, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
        fb.set_terminator(entry, Terminator::Jump { target: head });
        fb.set_terminator(head, Terminator::Jump { target: mid });
        fb.set_terminator(mid, Terminator::Jump { target: latch });
        fb.set_terminator(
            latch,
            Terminator::Branch {
                taken: head,
                fall: exit,
                cond: vec![],
                behavior: BranchBehavior::exact_loop(10),
            },
        );
        fb.set_terminator(exit, Terminator::Return);
        let f = fb.finish(entry).unwrap();
        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::new(), 4);
        let task = ctx.grow(head, &BTreeSet::new(), &no_taken, None);
        assert_eq!(task.blocks().iter().copied().collect::<Vec<_>>(), vec![head, mid, latch]);
        let targets = task.targets(&f, ctx.included_calls());
        assert!(targets.contains(&TaskTarget::Block(head)));
        assert!(targets.contains(&TaskTarget::Block(exit)));
    }

    /// Growth from outside a loop stops at the loop header (entry into a
    /// loop is terminal).
    #[test]
    fn growth_does_not_enter_loops() {
        let mut fb = FunctionBuilder::new("e");
        let entry = fb.add_block();
        let pre = fb.add_block();
        let head = fb.add_block();
        let exit = fb.add_block();
        fb.set_terminator(entry, Terminator::Jump { target: pre });
        fb.set_terminator(pre, Terminator::Jump { target: head });
        fb.set_terminator(
            head,
            Terminator::Branch {
                taken: head,
                fall: exit,
                cond: vec![],
                behavior: BranchBehavior::exact_loop(5),
            },
        );
        fb.set_terminator(exit, Terminator::Return);
        let f = fb.finish(entry).unwrap();
        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::new(), 4);
        let task = ctx.grow(entry, &BTreeSet::new(), &no_taken, None);
        assert!(!task.contains(head));
        assert_eq!(task.blocks().iter().copied().collect::<Vec<_>>(), vec![entry, pre]);
    }

    /// Non-included calls are terminal; included calls grow through.
    #[test]
    fn call_inclusion_controls_termination() {
        let mut fb = FunctionBuilder::new("c");
        let b0 = fb.add_block();
        let call = fb.add_block();
        let after = fb.add_block();
        fb.set_terminator(b0, Terminator::Jump { target: call });
        fb.set_terminator(call, Terminator::Call { callee: FuncId::new(1), ret_to: after });
        fb.set_terminator(after, Terminator::Return);
        let f = fb.finish(b0).unwrap();

        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::new(), 4);
        let task = ctx.grow(b0, &BTreeSet::new(), &no_taken, None);
        assert!(task.contains(call) && !task.contains(after));
        assert_eq!(task.targets(&f, ctx.included_calls()), vec![TaskTarget::Call(FuncId::new(1))]);

        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::from([call]), 4);
        let task = ctx.grow(b0, &BTreeSet::new(), &no_taken, None);
        assert!(task.contains(after), "included call grows through to the return block");
    }

    /// With N = 1 the feasible prefix shrinks: a fork into two loops
    /// that never reconverge exposes two targets, so only the seed fits.
    #[test]
    fn target_limit_bounds_the_feasible_task() {
        let mut fb = FunctionBuilder::new("n");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        let b3 = fb.add_block();
        let l4 = fb.add_block();
        let l5 = fb.add_block();
        let b6 = fb.add_block();
        fb.set_terminator(b0, Terminator::Jump { target: b1 });
        fb.set_terminator(b1, branch(b2, b3));
        fb.set_terminator(b2, Terminator::Jump { target: l4 });
        fb.set_terminator(b3, Terminator::Jump { target: l5 });
        fb.set_terminator(
            l4,
            Terminator::Branch {
                taken: l4,
                fall: b6,
                cond: vec![],
                behavior: BranchBehavior::exact_loop(4),
            },
        );
        fb.set_terminator(
            l5,
            Terminator::Branch {
                taken: l5,
                fall: b6,
                cond: vec![],
                behavior: BranchBehavior::exact_loop(4),
            },
        );
        fb.set_terminator(b6, Terminator::Return);
        let f = fb.finish(b0).unwrap();
        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::new(), 1);
        let task = ctx.grow(b0, &BTreeSet::new(), &no_taken, None);
        // {b0} has one target (b1): feasible. Adding b1 exposes {b2, b3};
        // the arms lead into distinct loops (terminal), so the count
        // never drops back to 1 and the task is just the seed.
        assert_eq!(task.blocks().iter().copied().collect::<Vec<_>>(), vec![b0]);
        // The same region is a single task at N = 2.
        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::new(), 2);
        let task = ctx.grow(b0, &BTreeSet::new(), &no_taken, None);
        assert!(task.len() >= 4);
    }

    /// Greedy exploration recovers reconvergence past an infeasible
    /// point: with N = 2 the diamond plus tail collapses back to few
    /// targets.
    #[test]
    fn greedy_exploration_recovers_reconvergence() {
        let mut fb = FunctionBuilder::new("g");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        let b3 = fb.add_block();
        fb.set_terminator(b0, branch(b1, b2));
        fb.set_terminator(b1, Terminator::Jump { target: b3 });
        fb.set_terminator(b2, Terminator::Jump { target: b3 });
        fb.set_terminator(b3, Terminator::Return);
        let f = fb.finish(b0).unwrap();
        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::new(), 2);
        let task = ctx.grow(b0, &BTreeSet::new(), &no_taken, None);
        // After {b0, b1}: targets {b2, b3} = 2 ≤ 2 feasible; after
        // {b0,b1,b2}: target {b3} = 1; after all four: {Return} = 1.
        assert_eq!(task.len(), 4);
    }

    /// Blocks owned by other tasks are not re-included.
    #[test]
    fn taken_blocks_are_boundaries() {
        let mut fb = FunctionBuilder::new("t");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        fb.set_terminator(b0, Terminator::Jump { target: b1 });
        fb.set_terminator(b1, Terminator::Jump { target: b2 });
        fb.set_terminator(b2, Terminator::Return);
        let f = fb.finish(b0).unwrap();
        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::new(), 4);
        let task = ctx.grow(b0, &BTreeSet::new(), &|b| b == b1, None);
        assert_eq!(task.blocks().iter().copied().collect::<Vec<_>>(), vec![b0]);
    }

    /// The steer predicate prunes exploration (data dependence mode).
    #[test]
    fn steer_limits_exploration() {
        let mut fb = FunctionBuilder::new("s");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        let b3 = fb.add_block();
        fb.set_terminator(b0, branch(b1, b2));
        fb.set_terminator(b1, Terminator::Jump { target: b3 });
        fb.set_terminator(b2, Terminator::Jump { target: b3 });
        fb.set_terminator(b3, Terminator::Return);
        let f = fb.finish(b0).unwrap();
        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::new(), 4);
        let allow = |b: BlockId| b != b2;
        let task = ctx.grow(b0, &BTreeSet::new(), &no_taken, Some(&allow));
        assert!(!task.contains(b2));
        assert!(task.contains(b1));
    }

    /// Expansion keeps the initial set even if infeasible, and can grow
    /// beyond it.
    #[test]
    fn expansion_preserves_initial_blocks() {
        let mut fb = FunctionBuilder::new("x");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        fb.set_terminator(b0, Terminator::Jump { target: b1 });
        fb.set_terminator(b1, Terminator::Jump { target: b2 });
        fb.set_terminator(b2, Terminator::Return);
        let f = fb.finish(b0).unwrap();
        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::new(), 4);
        let initial = BTreeSet::from([b0]);
        let task = ctx.grow(b0, &initial, &no_taken, None);
        assert!(task.contains(b0) && task.contains(b1) && task.contains(b2));
    }

    /// The explore limit bounds runaway growth.
    #[test]
    fn explore_limit_caps_task_size() {
        let mut fb = FunctionBuilder::new("big");
        let blocks: Vec<BlockId> = (0..2 * EXPLORE_LIMIT).map(|_| fb.add_block()).collect();
        for w in blocks.windows(2) {
            fb.set_terminator(w[0], Terminator::Jump { target: w[1] });
        }
        fb.set_terminator(*blocks.last().unwrap(), Terminator::Return);
        let f = fb.finish(blocks[0]).unwrap();
        let an = analyses(&f);
        let ctx = GrowCtx::new(&f, &an.0, &an.1, BTreeSet::new(), 4);
        let task = ctx.grow(blocks[0], &BTreeSet::new(), &no_taken, None);
        assert!(task.len() <= EXPLORE_LIMIT);
    }
}
