//! The sequential reference model: a program-order walk of the trace
//! that computes, per dynamic task, everything the pipelined engine must
//! agree with — independently of any timing model.
//!
//! The walk is deliberately naive: one pass over the trace steps in
//! order, one map from byte address to the last store that wrote it.
//! There is no ring, no ARB, no speculation — which is the point. If the
//! engine's committed outcome (task identities, instruction counts,
//! forwarded registers, blamed memory conflicts) disagrees with this
//! model, the engine is wrong, however plausible its cycle counts look.
//!
//! Nothing the walk learns depends on where tasks begin, so it runs
//! once per trace ([`TraceFacts`]) and each partition of that trace
//! folds the per-step facts over its own task ranges
//! ([`TraceFacts::fold`]). A load conflicts when the last store to its
//! address lies in a step before its task's first.

use std::collections::BTreeSet;

use ms_ir::{FxMap, Program};
use ms_tasksel::TaskPartition;
use ms_trace::{split_tasks, DynInstKind, DynTask, Trace};

/// What one dynamic task must commit, per the sequential semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefTask {
    /// Owning function index.
    pub func: usize,
    /// Static task index within the function's partition.
    pub static_task: usize,
    /// Dynamic instructions (control transfers included).
    pub insts: u64,
    /// Control-transfer instructions.
    pub ct_insts: u64,
    /// Bitmask (by dense register index) of registers the task writes —
    /// the superset of what the ring may forward.
    pub writes: u64,
}

/// The canonical outcome of a run: per-task facts, totals, and the
/// memory conflict set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Per-task outcomes in dynamic (sequential) order.
    pub tasks: Vec<RefTask>,
    /// Total dynamic instructions (equals `trace.num_insts()`).
    pub total_insts: u64,
    /// Total control-transfer instructions.
    pub total_ct_insts: u64,
    /// Every `(store_pc, load_pc)` pair where a load's most recent
    /// program-order store to the same address lies in an *earlier*
    /// dynamic task. Memory squashes the engine reports must blame a
    /// pair from this set; timing decides *which* pairs actually
    /// misspeculate, so the set is a superset of the squashes.
    pub mem_conflicts: BTreeSet<(u64, u64)>,
}

/// Walks `trace` in program order under `partition`'s task boundaries.
pub fn reference(program: &Program, partition: &TaskPartition, trace: &Trace) -> Reference {
    TraceFacts::walk(program, trace).fold(&split_tasks(trace, program, partition))
}

/// One trace step's share of its task's [`RefTask`] counts.
#[derive(Debug, Clone, Copy)]
struct StepFacts {
    insts: u32,
    ct_insts: u32,
    writes: u64,
}

/// A load whose most recent program-order store to its address lies in
/// an earlier step.
#[derive(Debug, Clone, Copy)]
struct LoadFacts {
    step: usize,
    store_step: usize,
    store_pc: u64,
    load_pc: u64,
}

/// The program-order walk of one trace, before any task boundary: what
/// each step counts and writes, and every load whose last store came
/// from an earlier step (a load fed within its own step can never
/// conflict).
#[derive(Debug, Clone)]
pub(crate) struct TraceFacts {
    steps: Vec<StepFacts>,
    /// In step order.
    loads: Vec<LoadFacts>,
}

impl TraceFacts {
    /// Walks every step of `trace` in program order.
    pub(crate) fn walk(program: &Program, trace: &Trace) -> Self {
        let mut steps = Vec::with_capacity(trace.steps().len());
        let mut loads = Vec::new();
        // addr → (step, store pc) of the last store, in program order.
        let mut last_store: FxMap<u64, (usize, u64)> = FxMap::default();
        for idx in 0..trace.steps().len() {
            let mut s = StepFacts { insts: 0, ct_insts: 0, writes: 0 };
            for inst in trace.inst_refs(idx, program) {
                s.insts += 1;
                if inst.is_ct() {
                    s.ct_insts += 1;
                }
                if let Some(dst) = inst.dst {
                    s.writes |= 1u64 << dst.dense();
                }
                let (Some(addr), DynInstKind::Op(op)) = (inst.addr, inst.kind) else { continue };
                if op.is_load() {
                    if let Some(&(store_step, store_pc)) = last_store.get(&addr) {
                        if store_step != idx {
                            loads.push(LoadFacts {
                                step: idx,
                                store_step,
                                store_pc,
                                load_pc: inst.pc,
                            });
                        }
                    }
                } else if op.is_store() {
                    last_store.insert(addr, (idx, inst.pc));
                }
            }
            steps.push(s);
        }
        TraceFacts { steps, loads }
    }

    /// The [`Reference`] of the walked trace split into `dyn_tasks`,
    /// which must tile its steps in order (as `split_tasks` and
    /// [`ms_sim::ProgramImage`] do).
    pub(crate) fn fold(&self, dyn_tasks: &[DynTask]) -> Reference {
        debug_assert!(
            dyn_tasks.windows(2).all(|w| w[0].end == w[1].start)
                && dyn_tasks.first().map_or(0, |t| t.start) == 0
                && dyn_tasks.last().map_or(0, |t| t.end) == self.steps.len(),
            "dynamic tasks do not tile the walked trace"
        );
        let mut tasks = Vec::with_capacity(dyn_tasks.len());
        let mut mem_conflicts = BTreeSet::new();
        let mut loads = self.loads.iter().peekable();
        let mut total_insts = 0u64;
        let mut total_ct_insts = 0u64;
        for dt in dyn_tasks {
            let mut t = RefTask {
                func: dt.func.index(),
                static_task: dt.task.index(),
                insts: 0,
                ct_insts: 0,
                writes: 0,
            };
            for s in &self.steps[dt.start..dt.end] {
                t.insts += u64::from(s.insts);
                t.ct_insts += u64::from(s.ct_insts);
                t.writes |= s.writes;
            }
            while let Some(l) = loads.next_if(|l| l.step < dt.end) {
                if l.store_step < dt.start {
                    mem_conflicts.insert((l.store_pc, l.load_pc));
                }
            }
            total_insts += t.insts;
            total_ct_insts += t.ct_insts;
            tasks.push(t);
        }
        Reference { tasks, total_insts, total_ct_insts, mem_conflicts }
    }
}

/// The walk [`TraceFacts`] replaces, kept as its oracle: one pass over
/// `dyn_tasks` in order, conflicts judged by dynamic task.
#[cfg(test)]
pub(crate) fn walk_per_task(program: &Program, trace: &Trace, dyn_tasks: &[DynTask]) -> Reference {
    let mut tasks = Vec::with_capacity(dyn_tasks.len());
    let mut mem_conflicts = BTreeSet::new();
    // addr → (dynamic task, store pc) of the last store, in program order.
    let mut last_store: FxMap<u64, (usize, u64)> = FxMap::default();
    for (k, dt) in dyn_tasks.iter().enumerate() {
        let mut t = RefTask {
            func: dt.func.index(),
            static_task: dt.task.index(),
            insts: 0,
            ct_insts: 0,
            writes: 0,
        };
        for idx in dt.start..dt.end {
            for inst in trace.inst_refs(idx, program) {
                t.insts += 1;
                if inst.is_ct() {
                    t.ct_insts += 1;
                }
                if let Some(dst) = inst.dst {
                    t.writes |= 1u64 << dst.dense();
                }
                let (Some(addr), DynInstKind::Op(op)) = (inst.addr, inst.kind) else { continue };
                if op.is_load() {
                    if let Some(&(store_task, store_pc)) = last_store.get(&addr) {
                        if store_task != k {
                            mem_conflicts.insert((store_pc, inst.pc));
                        }
                    }
                } else if op.is_store() {
                    last_store.insert(addr, (k, inst.pc));
                }
            }
        }
        tasks.push(t);
    }
    let total_insts = tasks.iter().map(|t| t.insts).sum();
    let total_ct_insts = tasks.iter().map(|t| t.ct_insts).sum();
    Reference { tasks, total_insts, total_ct_insts, mem_conflicts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_analysis::ProgramContext;
    use ms_tasksel::{SelectorBuilder, Strategy};
    use ms_trace::TraceGenerator;

    #[test]
    fn totals_match_the_trace() {
        let program = ms_workloads::by_name("compress").unwrap().build();
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .build()
            .select(&ProgramContext::new(program));
        let trace = TraceGenerator::new(&sel.program, 7).generate(5_000);
        let r = reference(&sel.program, &sel.partition, &trace);
        assert_eq!(r.total_insts, trace.num_insts() as u64);
        assert_eq!(r.total_insts, r.tasks.iter().map(|t| t.insts).sum::<u64>());
        assert!(r.tasks.iter().all(|t| t.insts >= t.ct_insts));
    }

    #[test]
    fn intra_task_stores_shadow_conflicts() {
        // A store and a load of the same address inside one dynamic task
        // must not produce a conflict pair.
        let program = ms_workloads::by_name("compress").unwrap().build();
        // Whole-program = one function partition per block still splits
        // tasks; instead assert the weaker structural property on the
        // real conflict set: every pair has distinct PCs.
        let sel = SelectorBuilder::new(Strategy::BasicBlock)
            .build()
            .select(&ProgramContext::new(program));
        let trace = TraceGenerator::new(&sel.program, 3).generate(5_000);
        let r = reference(&sel.program, &sel.partition, &trace);
        for &(store_pc, load_pc) in &r.mem_conflicts {
            assert_ne!(store_pc, load_pc);
        }
    }
}
