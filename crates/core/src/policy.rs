//! The selection strategies: the closed set of partitioning policies as
//! one [`Strategy`] enum, and the partitioning function behind each.
//!
//! A partitioning function turns **one function** into candidate tasks;
//! the surrounding [`TaskSelector`] owns everything common to all of
//! them — the optional task-size preprocessing, the per-function
//! [`GrowCtx`], and the single-entry repair pass that restores the
//! partition invariants afterwards. Per-run inputs (the measured
//! [`CostModel`], the oracle's size cutoff) travel through the
//! [`PolicyView`].
//!
//! The strategies, in listing order ([`Strategy::extended`]):
//!
//! | label    | selection                                                    |
//! |----------|--------------------------------------------------------------|
//! | `bb`     | one task per basic block (the paper's baseline)              |
//! | `cf`     | greedy control-flow growth within the target limit (§3.3)    |
//! | `dd`     | `cf` steered to include profiled register dependences (§3.4) |
//! | `ts`     | `dd` after task-size preprocessing (§3.2)                    |
//! | `cost`   | `cf` steered by measured squash/stall attribution            |
//! | `oracle` | exact minimum-boundary partition of small CFGs               |
//!
//! `ts` is *preprocessing* — loop unrolling plus call inclusion before
//! `dd` runs — so it partitions with the `dd` function and labels its
//! partitions `dd+ts`. See `docs/POLICIES.md` for per-policy semantics
//! and the cost model's inputs.
//!
//! [`TaskSelector`]: crate::TaskSelector

use std::collections::BTreeSet;
use std::str::FromStr;

use ms_analysis::ProgramContext;
use ms_ir::{BlockId, BlockRef, FuncId, Function, Terminator};

use crate::cost::CostModel;
use crate::error::{closest, SelectError};
use crate::grow::GrowCtx;
use crate::selector::{SelectorBuilder, TaskSelector};
use crate::task::{Task, TaskTarget};

/// A task-selection policy: the paper's four evaluation bars plus the
/// measured-cost policy and the exact-partition oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// One task per basic block (the paper's baseline).
    BasicBlock,
    /// Multi-block tasks grown greedily, exploiting reconvergence to stay
    /// within the hardware target limit (§3.3).
    ControlFlow,
    /// Control-flow growth steered to include profiled register
    /// dependences and their codependent sets (§3.4). Applied *on top of*
    /// the control flow heuristic, as in the paper's evaluation.
    DataDependence,
    /// Data dependence after the default task-size preprocessing (§3.2);
    /// the paper applies this fourth bar to 129.compress and 145.fpppp.
    TaskSize,
    /// Control-flow growth steered by a *measured* [`CostModel`] from a
    /// pilot simulation's squash/stall attribution; without a model it
    /// scores from the static profile.
    Cost,
    /// Exact-partition oracle for small functions, `cf` fallback above
    /// the size cutoff (the `run -- gap` upper-bound baseline).
    Oracle,
}

impl Strategy {
    /// The paper's four, in Figure 5 bar order.
    pub fn all() -> [Strategy; 4] {
        [Strategy::BasicBlock, Strategy::ControlFlow, Strategy::DataDependence, Strategy::TaskSize]
    }

    /// Every strategy: the paper's four, then `cost` and `oracle`.
    pub fn extended() -> [Strategy; 6] {
        [
            Strategy::BasicBlock,
            Strategy::ControlFlow,
            Strategy::DataDependence,
            Strategy::TaskSize,
            Strategy::Cost,
            Strategy::Oracle,
        ]
    }

    /// Short label ("bb", "cf", "dd", "ts", "cost", "oracle"), as
    /// `--strategy` takes it and reports print it.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::BasicBlock => "bb",
            Strategy::ControlFlow => "cf",
            Strategy::DataDependence => "dd",
            Strategy::TaskSize => "ts",
            Strategy::Cost => "cost",
            Strategy::Oracle => "oracle",
        }
    }

    /// One-line description for `run -- policies`.
    pub fn summary(&self) -> &'static str {
        match self {
            Strategy::BasicBlock => "one task per basic block (the paper's baseline)",
            Strategy::ControlFlow => {
                "greedy growth exploiting reconvergence within the target limit (paper 3.3)"
            }
            Strategy::DataDependence => {
                "cf growth steered to include profiled register dependences (paper 3.4)"
            }
            Strategy::TaskSize => {
                "dd after task-size preprocessing (unroll small loops, include small calls)"
            }
            Strategy::Cost => {
                "cf growth steered by measured squash/stall attribution (simulate, attribute, reselect)"
            }
            Strategy::Oracle => {
                "exact minimum-boundary partition of small CFGs (upper-bound oracle)"
            }
        }
    }

    /// The selector with target limit `n` and every other setting at its
    /// default. `bb` keeps the default limit: its one-block tasks never
    /// grow, so the limit cannot matter.
    pub fn selector(&self, n: usize) -> TaskSelector {
        let builder = SelectorBuilder::new(*self);
        match self {
            Strategy::BasicBlock => builder.build(),
            _ => builder.max_targets(n).build(),
        }
    }
}

impl FromStr for Strategy {
    type Err = SelectError;

    /// Parses a label; an unknown one reports the nearest label.
    fn from_str(name: &str) -> Result<Self, SelectError> {
        Strategy::extended().into_iter().find(|s| s.label() == name).ok_or_else(|| {
            let labels = Strategy::extended().map(|s| s.label());
            SelectError::UnknownPolicy {
                name: name.to_string(),
                suggestion: closest(name, &labels),
            }
        })
    }
}

/// Everything a partitioning function may consult while partitioning
/// one function: the shared analysis context, the growth context
/// (terminal rules, target limit, included calls), and the per-run
/// policy inputs.
#[derive(Debug)]
pub(crate) struct PolicyView<'a> {
    /// The function being partitioned.
    pub(crate) fid: FuncId,
    /// Analyses of the (possibly task-size-transformed) program.
    pub(crate) ctx: &'a ProgramContext,
    /// The growth context over `fid`'s CFG.
    pub(crate) grow: &'a GrowCtx<'a>,
    /// The hardware successor-target limit `N`.
    pub(crate) max_targets: usize,
    /// The measured cost model, when the selector carries one (the
    /// `cost` policy falls back to profile estimates otherwise).
    pub(crate) cost_model: Option<&'a CostModel>,
    /// Largest reachable-block count the `oracle` policy partitions
    /// exactly; bigger functions fall back to `cf` growth.
    pub(crate) oracle_max_blocks: usize,
}

impl PolicyView<'_> {
    /// The function being partitioned.
    pub(crate) fn func(&self) -> &Function {
        self.ctx.function(self.fid)
    }
}

// The partitioning functions. Each covers every reachable block; the
// selector's repair pass restores single entry afterwards, so the raw
// tasks may still have side entries.

/// `bb`: one task per basic block.
pub(crate) fn basic_block(view: &PolicyView<'_>) -> Vec<Task> {
    let mut state = PartitionState::new(view.func().num_blocks());
    cover(view, &mut state, true, None);
    state.tasks
}

/// `cf`: greedy control-flow growth within the target limit (§3.3).
pub(crate) fn control_flow(view: &PolicyView<'_>) -> Vec<Task> {
    let mut state = PartitionState::new(view.func().num_blocks());
    cover(view, &mut state, false, None);
    state.tasks
}

/// `dd`: control-flow growth steered to include profiled register
/// dependences and their codependent sets (§3.4).
pub(crate) fn data_dependence(view: &PolicyView<'_>) -> Vec<Task> {
    let fid = view.fid;
    let profile = view.ctx.profile();
    let mut deps = view.ctx.defuse(fid).block_deps();
    // Quantise frequencies before comparing so that floating point
    // noise from the profile estimator cannot reorder effectively
    // tied dependences; ties then break deterministically by ids,
    // which puts dominating producers (lower block ids in builder
    // order) first.
    let qfreq = |b: BlockId| (profile.block_freq(BlockRef::new(fid, b)) * 1024.0).round() as u64;
    deps.sort_by(|a, b| qfreq(b.1).cmp(&qfreq(a.1)).then_with(|| a.cmp(b)));
    // The heuristic prioritises by profiled frequency and only acts
    // on the dependences worth acting on: chasing every cold
    // dependence would shred the control-flow tasks that already
    // include most chains (the paper notes the heuristic "has fewer
    // opportunities" beyond the control flow heuristic, §4.3.1).
    let cutoff =
        deps.first().map(|d| profile.block_freq(BlockRef::new(fid, d.1)) * 0.25).unwrap_or(0.0);
    deps.retain(|d| profile.block_freq(BlockRef::new(fid, d.1)) >= cutoff);

    let mut state = PartitionState::new(view.func().num_blocks());
    let arcs: Vec<(BlockId, BlockId)> = deps.iter().map(|d| (d.0, d.1)).collect();
    expand_dependences(view, &mut state, &arcs);
    cover(view, &mut state, false, None);
    state.tasks
}

/// `cost`: control-flow growth steered by *measured* costs: the squash
/// and stall attribution of a pilot traced run ([`CostModel`]) replaces
/// the static profile as the steering signal. Stall-heavy def-use arcs
/// are included within tasks first (the tracer's stall-attribution
/// table), then cover growth seeds squash-heavy boundaries before cheap
/// ones so the costly tasks capture their mispredicted exits. Without a
/// model (or for functions the model never measured) the scores fall
/// back to profile estimates, which keeps the policy total — fuzzing
/// exercises exactly that path.
pub(crate) fn cost(view: &PolicyView<'_>) -> Vec<Task> {
    let fid = view.fid;
    let profile = view.ctx.profile();
    let measured = view.cost_model.filter(|m| m.has_func(fid));
    let qfreq = |b: BlockId| (profile.block_freq(BlockRef::new(fid, b)) * 1024.0).round() as u64;
    let arc_score = |p: BlockId, c: BlockId| match measured {
        Some(m) => m.arc_cost(fid, p, c),
        None => qfreq(c),
    };
    let mut deps = view.ctx.defuse(fid).block_deps();
    deps.sort_by(|a, b| arc_score(b.0, b.1).cmp(&arc_score(a.0, a.1)).then_with(|| a.cmp(b)));
    // Act on the arcs carrying at least a quarter of the worst
    // arc's cost (the dd cutoff, applied to measured cycles), and
    // never on arcs that measured zero — an unmeasured arc caused
    // no stalls, so there is nothing to include.
    let max_score = deps.first().map(|d| arc_score(d.0, d.1)).unwrap_or(0);
    deps.retain(|d| {
        let s = arc_score(d.0, d.1);
        s > 0 && 4 * s >= max_score
    });

    let mut state = PartitionState::new(view.func().num_blocks());
    let arcs: Vec<(BlockId, BlockId)> = deps.iter().map(|d| (d.0, d.1)).collect();
    expand_dependences(view, &mut state, &arcs);
    let boundary_score = |b: BlockId| match measured {
        Some(m) => m.boundary_cost(fid, b),
        None => (profile.global_block_freq(BlockRef::new(fid, b)) * 1024.0).round() as u64,
    };
    cover(view, &mut state, false, Some(&boundary_score));
    state.tasks
}

/// `oracle`: enumerates every valid task partition of a small function
/// and keeps one minimising expected task-boundary crossings
/// (equivalently, maximising expected dynamic task size). Functions
/// above [`PolicyView::oracle_max_blocks`] reachable blocks fall back
/// to `cf` growth — the cutoff and the search's objective are
/// documented in `docs/POLICIES.md`.
pub(crate) fn oracle(view: &PolicyView<'_>) -> Vec<Task> {
    crate::oracle::exact_partition(view).unwrap_or_else(|| control_flow(view))
}

/// Mutable bookkeeping during one function's partitioning.
#[derive(Debug)]
pub(crate) struct PartitionState {
    pub(crate) tasks: Vec<Task>,
    owner: Vec<Option<usize>>,
}

impl PartitionState {
    pub(crate) fn new(num_blocks: usize) -> Self {
        PartitionState { tasks: Vec::new(), owner: vec![None; num_blocks] }
    }

    pub(crate) fn owner(&self, b: BlockId) -> Option<usize> {
        self.owner[b.index()]
    }

    fn owned_by_other(&self, b: BlockId, ti: usize) -> bool {
        matches!(self.owner[b.index()], Some(o) if o != ti)
    }

    pub(crate) fn push(&mut self, task: Task) {
        let ti = self.tasks.len();
        for &b in task.blocks() {
            debug_assert!(self.owner[b.index()].is_none());
            self.owner[b.index()] = Some(ti);
        }
        self.tasks.push(task);
    }

    /// Replaces task `ti` with a grown/shrunk version, fixing ownership.
    pub(crate) fn replace(&mut self, ti: usize, task: Task) {
        for &b in self.tasks[ti].blocks() {
            self.owner[b.index()] = None;
        }
        for &b in task.blocks() {
            debug_assert!(self.owner[b.index()].is_none());
            self.owner[b.index()] = Some(ti);
        }
        self.tasks[ti] = task;
    }
}

/// The paper's `task_selection()` dependence loop: for each
/// (producer, consumer) arc, in the caller's priority order, expand the
/// producer's task (or start one at the producer) along the codependent
/// set. Shared by the `dd` (profile-scored) and `cost`
/// (attribution-scored) policies.
fn expand_dependences(
    view: &PolicyView<'_>,
    state: &mut PartitionState,
    arcs: &[(BlockId, BlockId)],
) {
    let func = view.func();
    let reach = view.ctx.reach(view.fid);
    for &(producer, consumer) in arcs {
        #[cfg(feature = "selector-debug")]
        eprintln!("dep {producer} -> {consumer} owner={:?}", state.owner(producer));
        // The function entry must stay a task entry: dependences
        // whose codependent set would swallow it are grown from it
        // during cover instead.
        match state.owner(producer) {
            Some(ti) => {
                let task = &state.tasks[ti];
                if task.contains(consumer) {
                    continue;
                }
                let entry = task.entry();
                let initial = task.blocks().clone();
                let taken = |b: BlockId| state.owned_by_other(b, ti);
                let steer =
                    |b: BlockId| reach.is_codependent(b, producer, consumer) && b != func.entry();
                let grown = view.grow.grow(entry, &initial, &taken, Some(&steer));
                #[cfg(feature = "selector-debug")]
                eprintln!("  expanded task {ti} to {:?}", grown.blocks());
                state.replace(ti, grown);
            }
            None => {
                if producer == func.entry() {
                    continue;
                }
                let taken = |b: BlockId| state.owner(b).is_some();
                let steer =
                    |b: BlockId| reach.is_codependent(b, producer, consumer) && b != func.entry();
                let grown = view.grow.grow(producer, &BTreeSet::new(), &taken, Some(&steer));
                #[cfg(feature = "selector-debug")]
                eprintln!("  new task at {producer}: {:?}", grown.blocks());
                state.push(grown);
            }
        }
    }
}

/// Covers every remaining reachable block by growing tasks from the
/// function entry and from each exposed target. `singleton` makes every
/// task one block (the bb policy); `priority` orders the seed queue by
/// descending score (the cost policy grows squash-heavy boundaries
/// first), ties and the default falling back to ascending block id.
fn cover(
    view: &PolicyView<'_>,
    state: &mut PartitionState,
    singleton: bool,
    priority: Option<&dyn Fn(BlockId) -> u64>,
) {
    let func = view.func();
    let ctx = view.grow;
    let mut seeds: BTreeSet<BlockId> = BTreeSet::from([func.entry()]);
    for t in &state.tasks {
        collect_seeds(func, ctx, t, &mut seeds);
    }
    let pop = |seeds: &mut BTreeSet<BlockId>| -> Option<BlockId> {
        let s = match priority {
            // max_by_key returns the *last* maximum; iterate descending
            // so ties resolve to the lowest block id.
            Some(p) => seeds.iter().rev().copied().max_by_key(|&b| p(b))?,
            None => seeds.iter().next().copied()?,
        };
        seeds.remove(&s);
        Some(s)
    };
    // The function entry must be a task *entry*: if a dependence task
    // absorbed it as an interior block, repair will split it out; as
    // a precaution the dependence phase never includes it.
    while let Some(s) = pop(&mut seeds) {
        if state.owner(s).is_some() {
            continue;
        }
        let task = if singleton {
            Task::singleton(s)
        } else {
            let taken = |b: BlockId| state.owner(b).is_some();
            ctx.grow(s, &BTreeSet::new(), &taken, None)
        };
        collect_seeds(func, ctx, &task, &mut seeds);
        state.push(task);
    }
    // Safety net: any reachable block not yet covered becomes a
    // singleton task (should not trigger; kept for robustness).
    for b in func.reachable_blocks() {
        if state.owner(b).is_none() {
            state.push(Task::singleton(b));
        }
    }
}

/// Seeds from a finished task: every exposed internal target plus the
/// return blocks of its non-included calls.
fn collect_seeds(func: &Function, ctx: &GrowCtx<'_>, task: &Task, seeds: &mut BTreeSet<BlockId>) {
    for target in task.targets(func, ctx.included_calls()) {
        if let TaskTarget::Block(b) = target {
            seeds.insert(b);
        }
    }
    for &b in task.blocks() {
        if let Terminator::Call { ret_to, .. } = func.block(b).terminator() {
            if !ctx.included_calls().contains(&b) {
                seeds.insert(*ret_to);
            }
        }
    }
}

/// Successors of `b` *within* a task, honouring included calls (the same
/// walk `TaskPartition::validate` uses for connectivity).
pub(crate) fn intra_task_successors(
    func: &Function,
    b: BlockId,
    included: &BTreeSet<BlockId>,
) -> Vec<BlockId> {
    match func.block(b).terminator() {
        Terminator::Call { ret_to, .. } if included.contains(&b) => vec![*ret_to],
        Terminator::Call { .. } => Vec::new(),
        _ => func.successors(b),
    }
}

/// Restores the single-entry invariant: while some task has a non-entry
/// block targeted from outside, split that block (and everything in the
/// task only reachable through it) into fresh tasks grown within the
/// removed set. Each split strictly shrinks an existing task, so this
/// terminates.
pub(crate) fn repair_single_entry(func: &Function, ctx: &GrowCtx<'_>, state: &mut PartitionState) {
    while let Some((ti, split_at)) = find_side_entry(func, state) {
        let task = &state.tasks[ti];
        let entry = task.entry();
        // Blocks still reachable from the entry without passing split_at.
        let mut keep: BTreeSet<BlockId> = BTreeSet::from([entry]);
        let mut stack = vec![entry];
        while let Some(x) = stack.pop() {
            for s in intra_task_successors(func, x, ctx.included_calls()) {
                if s != split_at && task.contains(s) && keep.insert(s) {
                    stack.push(s);
                }
            }
        }
        let removed: BTreeSet<BlockId> =
            task.blocks().iter().copied().filter(|b| !keep.contains(b)).collect();
        debug_assert!(removed.contains(&split_at));
        state.replace(ti, Task::new(entry, keep));
        // Re-cover the removed blocks with fresh tasks confined to the
        // removed set (split_at first, so it becomes an entry).
        let mut order: Vec<BlockId> = vec![split_at];
        order.extend(removed.iter().copied().filter(|&b| b != split_at));
        for seed in order {
            if state.owner(seed).is_some() {
                continue;
            }
            let taken = |b: BlockId| state.owner(b).is_some();
            let steer = |b: BlockId| removed.contains(&b);
            let grown = ctx.grow(seed, &BTreeSet::new(), &taken, Some(&steer));
            state.push(grown);
        }
    }
}

/// Finds a `(task index, block)` violating single entry, if any.
fn find_side_entry(func: &Function, state: &PartitionState) -> Option<(usize, BlockId)> {
    for (ti, task) in state.tasks.iter().enumerate() {
        for &b in task.blocks() {
            if b == task.entry() {
                continue;
            }
            for &p in func.predecessors(b) {
                if !task.contains(p) {
                    return Some((ti, b));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_distinct_and_ordered() {
        let labels = Strategy::extended().map(|s| s.label());
        assert_eq!(labels, ["bb", "cf", "dd", "ts", "cost", "oracle"]);
        assert_eq!(Strategy::all(), Strategy::extended()[..4]);
    }

    #[test]
    fn from_str_resolves_and_suggests() {
        for s in Strategy::extended() {
            assert_eq!(s.label().parse::<Strategy>(), Ok(s));
        }
        let err = "oracel".parse::<Strategy>().unwrap_err();
        assert_eq!(
            err,
            SelectError::UnknownPolicy { name: "oracel".into(), suggestion: Some("oracle") }
        );
        // Far-off names get no suggestion.
        match "zzzzzzzzzz".parse::<Strategy>().unwrap_err() {
            SelectError::UnknownPolicy { suggestion: None, .. } => {}
            other => panic!("expected no suggestion, got {other:?}"),
        }
    }

    #[test]
    fn summaries_are_nonempty() {
        for s in Strategy::extended() {
            assert!(!s.summary().is_empty(), "{} needs a summary", s.label());
        }
    }
}
