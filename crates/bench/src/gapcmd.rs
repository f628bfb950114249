//! The `run -- gap <benchmark>` subcommand: the heuristic-vs-optimal
//! table. Every selection policy is run against the exact-partition
//! oracle on one benchmark, and the table reports how far each greedy
//! heuristic's task boundaries land from the provably-minimal ones.
//!
//! The comparison ground is the oracle's own objective — the expected
//! number of task invocations, Σ over task entries of the profiled
//! global entry frequency — restricted to the **oracle-eligible**
//! functions (reachable blocks ≤ the size cutoff), since that is where
//! the oracle is exact rather than a `cf` fallback. Simulated IPC over
//! the whole program is reported alongside as the ground truth the
//! static objective approximates. The `ts` bar is excluded: task-size
//! preprocessing transforms the program, so its boundary objective is
//! not comparable against partitions of the original CFG (see
//! `docs/POLICIES.md`).
//!
//! The pilot for the `cost` policy is a traced `cf` run: its
//! squash/stall attribution tables become the [`CostModel`] steering the
//! re-selection (simulate → attribute → reselect).

use ms_ir::{BlockRef, FuncId};
use ms_sim::{EventLog, SimConfig, Simulator};
use ms_tasksel::{CostModel, PartitionStats, Selection, SelectorBuilder, Strategy, TaskId};
use ms_workloads::Workload;

use crate::run_selection;

/// Cycles charged per squash event on top of the measured restart
/// cycles when converting attribution counts into boundary costs
/// (dispatch/rollback overhead the event log does not time directly).
pub const SQUASH_PENALTY_CYCLES: u64 = 8;

/// Everything `run -- gap` needs besides the workload.
#[derive(Debug, Clone)]
pub struct GapOptions {
    /// Hardware successor-target limit `N`.
    pub targets: usize,
    /// Oracle exact-search size cutoff (reachable blocks).
    pub oracle_max_blocks: usize,
    /// Dynamic instructions per simulation.
    pub insts: usize,
    /// Trace seed.
    pub seed: u64,
    /// Machine configuration for the IPC column and the pilot.
    pub config: SimConfig,
}

impl Default for GapOptions {
    fn default() -> Self {
        GapOptions {
            targets: 4,
            oracle_max_blocks: ms_tasksel::DEFAULT_ORACLE_MAX_BLOCKS,
            insts: crate::DEFAULT_TRACE_INSTS,
            seed: crate::DEFAULT_SEED,
            config: SimConfig::four_pu(),
        }
    }
}

/// One policy's row of the gap table.
#[derive(Debug, Clone)]
pub struct GapRow {
    /// Policy-registry name.
    pub policy: &'static str,
    /// Static tasks over the whole program.
    pub tasks: usize,
    /// Frequency-weighted expected dynamic instructions per task.
    pub avg_dyn_size: f64,
    /// Σ entry global frequencies over the oracle-eligible functions.
    pub objective: f64,
    /// Percent above the oracle's objective (`None` when the oracle's
    /// objective is zero).
    pub gap_pct: Option<f64>,
    /// Simulated IPC of the whole program under this policy.
    pub ipc: f64,
}

/// The rendered table plus its rows for programmatic use.
#[derive(Debug, Clone)]
pub struct GapReport {
    /// One row per policy, oracle last.
    pub rows: Vec<GapRow>,
    /// Functions the oracle partitioned exactly.
    pub eligible_funcs: usize,
    /// Functions in the program.
    pub total_funcs: usize,
    /// The rendered text table.
    pub text: String,
}

/// Converts a pilot run's attribution tables into the [`CostModel`]
/// steering the `cost` policy:
///
/// * each squash-attribution row `(func, task) → counts` becomes
///   boundary cost `total squashes × SQUASH_PENALTY_CYCLES +
///   lost cycles` on the pilot task's entry block;
/// * each stall-attribution row `(producer task, consumer task, reg) →
///   cycles` is mapped back to the static def-use arcs between those two
///   pilot tasks carrying that register, accumulating the cycles onto
///   every matching `(producer block, consumer block)` arc.
pub fn cost_model_from_pilot(pilot: &Selection, log: &EventLog) -> CostModel {
    let mut model = CostModel::new();
    let partition = &pilot.partition;
    for ((f, t), counts) in log.top_squash_boundaries(usize::MAX) {
        if f >= partition.funcs().len() {
            continue;
        }
        let fid = FuncId::new(f as u32);
        let fp = partition.func(fid);
        if t >= fp.tasks().len() {
            continue;
        }
        let entry = fp.task(TaskId::new(t as u32)).entry();
        let cost = counts.total() * SQUASH_PENALTY_CYCLES + counts.lost_cycles;
        model.add_boundary_cost(fid, entry, cost);
    }
    for (((pf, pt), (cf, ct), reg), cycles) in log.top_stall_arcs(usize::MAX) {
        // Static def-use arcs are intra-function; cross-function
        // forwarding (through calls/returns) has no single CFG arc to
        // charge, so those rows stay with the boundary costs alone.
        if pf != cf || pf >= partition.funcs().len() {
            continue;
        }
        let fid = FuncId::new(pf as u32);
        let fp = partition.func(fid);
        for (producer, consumer, r) in pilot.context().defuse(fid).block_deps() {
            if r.dense() != reg {
                continue;
            }
            if fp.task_of(producer) == Some(TaskId::new(pt as u32))
                && fp.task_of(consumer) == Some(TaskId::new(ct as u32))
            {
                model.add_arc_cost(fid, producer, consumer, cycles);
            }
        }
    }
    model
}

/// The policies compared by the gap table, oracle last (`ts` excluded —
/// its transformed program is not comparable; see the module docs).
pub fn gap_policies() -> Vec<Strategy> {
    Strategy::extended().into_iter().filter(|&s| s != Strategy::TaskSize).collect()
}

/// Runs the full gap comparison for one workload.
pub fn run_gap(workload: &Workload, opts: &GapOptions) -> GapReport {
    let ctx = ms_analysis::ProgramContext::new(workload.build());

    // Pilot: a traced cf run whose attribution becomes the cost model.
    let pilot = Strategy::ControlFlow.selector(opts.targets).select(&ctx);
    let mut log = EventLog::new();
    Simulator::new(opts.config.clone(), &pilot.program, &pilot.partition)
        .run_streamed(opts.seed, opts.insts, &mut log);
    let model = cost_model_from_pilot(&pilot, &log);

    // Oracle eligibility is a property of the shared program, not of any
    // one selection (no policy here transforms the program).
    let eligible: Vec<FuncId> = ctx
        .program()
        .func_ids()
        .filter(|&fid| ctx.order(fid).rpo().len() <= opts.oracle_max_blocks)
        .collect();
    let total_funcs = ctx.program().num_functions();

    let mut rows = Vec::new();
    for h in gap_policies() {
        let mut builder = SelectorBuilder::new(h)
            .max_targets(opts.targets)
            .oracle_max_blocks(opts.oracle_max_blocks);
        if h == Strategy::Cost {
            builder = builder.cost_model(model.clone());
        }
        let sel = builder.build().select(&ctx);
        let stats = PartitionStats::compute(
            &sel.program,
            &sel.partition,
            sel.context().profile(),
            opts.targets,
        );
        let objective = boundary_objective(&sel, &eligible);
        let ipc = run_selection(&sel, opts.config.clone(), opts.insts, opts.seed).ipc();
        rows.push(GapRow {
            policy: h.label(),
            tasks: stats.num_tasks,
            avg_dyn_size: stats.expected_dynamic_size,
            objective,
            gap_pct: None,
            ipc,
        });
    }
    let oracle_obj = rows.last().expect("oracle row").objective;
    for row in &mut rows {
        if oracle_obj > 0.0 {
            row.gap_pct = Some(100.0 * (row.objective - oracle_obj) / oracle_obj);
        }
    }
    let text = render(workload.name, &rows, eligible.len(), total_funcs, opts);
    GapReport { rows, eligible_funcs: eligible.len(), total_funcs, text }
}

/// Σ over the eligible functions of each task entry's profiled global
/// frequency — the oracle's objective, evaluated on any partition.
fn boundary_objective(sel: &Selection, eligible: &[FuncId]) -> f64 {
    let profile = sel.context().profile();
    let mut sum = 0.0;
    for &fid in eligible {
        for task in sel.partition.func(fid).tasks() {
            sum += profile.global_block_freq(BlockRef::new(fid, task.entry()));
        }
    }
    sum
}

fn render(name: &str, rows: &[GapRow], eligible: usize, total: usize, opts: &GapOptions) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "── gap {name} [N={}, oracle ≤ {} blocks] ──",
        opts.targets, opts.oracle_max_blocks
    );
    let _ = writeln!(
        out,
        "oracle-eligible functions: {eligible}/{total} (objective restricted to these; \
         cf fallback elsewhere)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>9} {:>12} {:>8} {:>6}",
        "policy", "tasks", "avg-dyn", "boundary", "gap", "ipc"
    );
    for r in rows {
        let gap = match r.gap_pct {
            Some(g) => format!("{g:+.1}%"),
            None => "n/a".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>9.2} {:>12.1} {:>8} {:>6.2}",
            r.policy, r.tasks, r.avg_dyn_size, r.objective, gap, r.ipc
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> GapOptions {
        GapOptions { insts: 4_000, ..GapOptions::default() }
    }

    #[test]
    fn oracle_row_is_the_lower_bound() {
        let w = ms_workloads::by_name("compress").unwrap();
        let report = run_gap(&w, &quick_opts());
        assert_eq!(report.rows.len(), 5);
        assert!(report.eligible_funcs >= 1, "compress main must be oracle-eligible");
        let oracle = report.rows.last().unwrap();
        assert_eq!(oracle.policy, "oracle");
        assert_eq!(oracle.gap_pct, Some(0.0));
        for row in &report.rows {
            assert!(
                row.objective >= oracle.objective - 1e-9,
                "{} beats the oracle: {} < {}",
                row.policy,
                row.objective,
                oracle.objective
            );
            if let Some(g) = row.gap_pct {
                assert!(g >= -1e-9);
            }
        }
        assert!(report.text.contains("oracle"));
    }

    #[test]
    fn cost_model_from_pilot_charges_boundaries() {
        let w = ms_workloads::by_name("li").unwrap();
        let ctx = ms_analysis::ProgramContext::new(w.build());
        let pilot = Strategy::ControlFlow.selector(4).select(&ctx);
        let mut log = EventLog::new();
        Simulator::new(SimConfig::four_pu(), &pilot.program, &pilot.partition)
            .run_streamed(1, 20_000, &mut log);
        let model = cost_model_from_pilot(&pilot, &log);
        // A 20k-instruction li run always squashes somewhere.
        assert!(!model.is_empty(), "pilot attribution produced an empty model");
    }
}
