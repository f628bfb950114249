//! Shared harness for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Every experiment follows the same pipeline: build a synthetic
//! workload, select tasks with one of the paper's heuristics, generate a
//! trace of the (possibly transformed) program, split it into dynamic
//! tasks, and run the cycle-level simulator. [`run_one`] packages that
//! pipeline; [`sweeps`] describes every figure/table/ablation grid as
//! data; the single `run` binary fans the grids out over worker threads
//! ([`harness`]), prints the tables, and writes one schema-versioned
//! JSON metrics artifact per cell ([`json`]) under `target/experiments/`.
//! The `run -- trace` subcommand ([`tracecmd`]) runs one cell with the
//! simulator's event trace on, writing a JSONL event trace plus a Chrome
//! `trace_event` file and printing squash/stall attribution tables.
//! The `run -- perf` subcommand ([`perfcmd`]) runs the canonical cells
//! under the `ms-prof` pipeline profiler, prints per-phase and per-cell
//! median tables, and writes a Chrome `trace_event` view of the
//! pipeline (see `docs/PROFILING.md`). The `run -- fuzz` subcommand
//! ([`fuzzcmd`]) drives the `ms-conform` differential fuzz loop —
//! random programs through every heuristic under the conformance
//! checker, minimal reproducers written as `.msir` artifacts (see
//! `docs/CONFORMANCE.md`).
//! The `run -- gap` subcommand ([`gapcmd`]) compares every selection
//! policy against the exact-partition oracle on one benchmark, and
//! `run -- policies` lists the policy registry (see
//! `docs/POLICIES.md`). With `--cache-dir`, sweeps probe and fill a
//! content-addressed cell cache ([`cache`]), so a repeated grid
//! re-renders byte-identical artifacts without simulating. Every
//! subcommand shares one flag parser ([`cli`]) and one timing policy
//! ([`microbench`]).
//!
//! This crate is the *reporting* stage of the data flow — everything
//! upstream (IR → selection → trace → simulation) stays in the library
//! crates; everything downstream (tables, JSON artifacts, event traces,
//! golden tests) lives here. See `EXPERIMENTS.md` for the one-command
//! regeneration pipeline, `docs/METRICS.md` for the metric glossary and
//! `docs/TRACING.md` for the event-trace walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod error;
pub mod fuzzcmd;
pub mod gapcmd;
pub mod harness;
pub mod json;
pub mod microbench;
pub mod perfcmd;
pub mod progress;
pub mod runscmd;
pub mod sweeps;
pub mod tracecmd;

pub use error::BenchError;

use ms_analysis::ProgramContext;
use ms_sim::{SimConfig, SimStats, Simulator};
use ms_tasksel::{SelectorBuilder, Strategy, TaskSelector, TaskSizeParams};
use ms_trace::TraceGenerator;
use ms_workloads::Workload;

/// Default dynamic instruction budget per run (big enough for warmed-up
/// predictors and caches, small enough to sweep 18 × 4 × 4 configs).
pub const DEFAULT_TRACE_INSTS: usize = 100_000;

/// Default trace seed (experiments are exactly reproducible).
pub const DEFAULT_SEED: u64 = 0x5eed;

/// The partitioning strategies of the paper's evaluation, in Figure 5's
/// bar order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heuristic {
    /// Basic block tasks.
    BasicBlock,
    /// Control flow heuristic (N = 4).
    ControlFlow,
    /// Data dependence heuristic on top of control flow (N = 4).
    DataDependence,
    /// Data dependence + task size heuristic (the paper applies this
    /// fourth bar to 129.compress and 145.fpppp).
    TaskSize,
    /// Cost-model policy: dependence-style growth steered by a measured
    /// squash/stall cost model from a pilot simulation (see
    /// `docs/POLICIES.md`). Without a model it scores from the static
    /// profile.
    Cost,
    /// Exact-partition oracle for small functions, `cf` fallback above
    /// the size cutoff (the `run -- gap` upper-bound baseline).
    Oracle,
}

impl Heuristic {
    /// The paper's four, in Figure 5 bar order.
    pub fn all() -> [Heuristic; 4] {
        [
            Heuristic::BasicBlock,
            Heuristic::ControlFlow,
            Heuristic::DataDependence,
            Heuristic::TaskSize,
        ]
    }

    /// Every heuristic the harness can run: the paper's four plus the
    /// registry's `cost` and `oracle` policies.
    pub fn extended() -> [Heuristic; 6] {
        [
            Heuristic::BasicBlock,
            Heuristic::ControlFlow,
            Heuristic::DataDependence,
            Heuristic::TaskSize,
            Heuristic::Cost,
            Heuristic::Oracle,
        ]
    }

    /// Short label ("bb", "cf", "dd", "ts", "cost", "oracle") — the
    /// policy-registry name.
    pub fn label(&self) -> &'static str {
        match self {
            Heuristic::BasicBlock => "bb",
            Heuristic::ControlFlow => "cf",
            Heuristic::DataDependence => "dd",
            Heuristic::TaskSize => "ts",
            Heuristic::Cost => "cost",
            Heuristic::Oracle => "oracle",
        }
    }

    /// The configured selector (target limit `n`).
    pub fn selector(&self, n: usize) -> TaskSelector {
        match self {
            Heuristic::BasicBlock => SelectorBuilder::new(Strategy::BasicBlock).build(),
            Heuristic::ControlFlow => {
                SelectorBuilder::new(Strategy::ControlFlow).max_targets(n).build()
            }
            Heuristic::DataDependence => {
                SelectorBuilder::new(Strategy::DataDependence).max_targets(n).build()
            }
            Heuristic::TaskSize => SelectorBuilder::new(Strategy::DataDependence)
                .max_targets(n)
                .task_size(TaskSizeParams::default())
                .build(),
            Heuristic::Cost => {
                SelectorBuilder::named("cost").expect("registered").max_targets(n).build()
            }
            Heuristic::Oracle => {
                SelectorBuilder::named("oracle").expect("registered").max_targets(n).build()
            }
        }
    }
}

/// Runs one (workload, heuristic, machine) experiment.
pub fn run_one(
    workload: &Workload,
    heuristic: Heuristic,
    config: SimConfig,
    trace_insts: usize,
    seed: u64,
) -> SimStats {
    let ctx = ProgramContext::new(workload.build());
    let sel = heuristic.selector(4).select(&ctx);
    run_selection(&sel, config, trace_insts, seed)
}

/// Runs one experiment for an already-made selection.
pub fn run_selection(
    sel: &ms_tasksel::Selection,
    config: SimConfig,
    trace_insts: usize,
    seed: u64,
) -> SimStats {
    let trace = TraceGenerator::new(&sel.program, seed).generate(trace_insts);
    Simulator::new(config, &sel.program, &sel.partition).run(&trace)
}

/// Formats a ratio as a signed percentage ("+23%").
pub fn pct_change(base: f64, new: f64) -> String {
    if base <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.0}%", 100.0 * (new - base) / base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_labels_are_distinct() {
        let labels: Vec<&str> = Heuristic::all().iter().map(|h| h.label()).collect();
        assert_eq!(labels, vec!["bb", "cf", "dd", "ts"]);
        let ext: Vec<&str> = Heuristic::extended().iter().map(|h| h.label()).collect();
        assert_eq!(ext, vec!["bb", "cf", "dd", "ts", "cost", "oracle"]);
        // Every extended label resolves through the selector path.
        for h in Heuristic::extended() {
            let _ = h.selector(4);
        }
    }

    #[test]
    fn pct_change_formats() {
        assert_eq!(pct_change(2.0, 2.5), "+25%");
        assert_eq!(pct_change(0.0, 2.5), "n/a");
    }

    #[test]
    fn run_one_produces_stats() {
        let w = ms_workloads::by_name("compress").unwrap();
        let s = run_one(&w, Heuristic::ControlFlow, SimConfig::four_pu(), 5_000, 1);
        assert!(s.ipc() > 0.0);
        assert!(s.total_insts >= 5_000);
    }
}
