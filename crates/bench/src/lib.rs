//! Shared harness for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Every experiment follows the same pipeline: build a synthetic
//! workload, select tasks with one of the paper's heuristics, generate a
//! trace of the (possibly transformed) program, split it into dynamic
//! tasks, and run the cycle-level simulator. [`run_selection`] runs the
//! trace and simulation steps for a finished selection; [`sweeps`]
//! describes every figure/table/ablation grid as data; the single `run`
//! binary fans the grids out over worker threads ([`harness`]), prints
//! the tables, and writes one schema-versioned JSON metrics artifact per
//! cell ([`json`]) under `target/experiments/`.
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
//! `run -- policies` lists the selection strategies (see
//! `docs/POLICIES.md`). With `--cache-dir`, sweeps probe and fill a
//! content-addressed cell cache ([`cache`]), so a repeated grid
//! re-renders byte-identical artifacts without simulating. Every
//! subcommand shares one flag parser ([`cli`]). Timing this code is the
//! repository benchmark's job (`BENCHMARK.json`, `benchmark/`).
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
pub mod perfcmd;
pub mod progress;
pub mod runscmd;
pub mod sweeps;
pub mod tracecmd;

pub use error::BenchError;

use ms_sim::{SimConfig, SimStats, Simulator};
use ms_trace::TraceGenerator;

/// Default dynamic instruction budget per run (big enough for warmed-up
/// predictors and caches, small enough to sweep 18 × 4 × 4 configs).
pub const DEFAULT_TRACE_INSTS: usize = 100_000;

/// Default trace seed (experiments are exactly reproducible).
pub const DEFAULT_SEED: u64 = 0x5eed;

/// The old name of [`ms_tasksel::Strategy`], kept because the
/// repository benchmark's traced replay names it.
pub use ms_tasksel::Strategy as Heuristic;

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
    use ms_analysis::ProgramContext;
    use ms_tasksel::Strategy;

    /// Every strategy label round-trips through `FromStr` and
    /// `--strategy`, and every list of strategies the harness prints or
    /// runs is `Strategy::extended()` (minus `ts` for the gap table).
    #[test]
    fn strategy_names_round_trip() {
        let policies = cli::policies_text();
        for s in Strategy::extended() {
            assert_eq!(s.label().parse::<Strategy>(), Ok(s));
            let argv = ["compress", "--strategy", s.label()].map(String::from);
            let (_, flags) = cli::parse(argv.into_iter()).expect("valid strategy");
            assert_eq!(flags.strategy, s);
            assert!(
                policies.lines().any(|l| l.split_whitespace().next() == Some(s.label())),
                "`run -- policies` must list `{}`",
                s.label()
            );
        }
        let labels = Strategy::extended().map(|s| s.label());
        assert_eq!(ms_conform::strategies().map(|(label, _)| label), labels);
        let gap: Vec<Strategy> =
            Strategy::extended().into_iter().filter(|&s| s != Strategy::TaskSize).collect();
        assert_eq!(gapcmd::gap_policies(), gap);
    }

    #[test]
    fn pct_change_formats() {
        assert_eq!(pct_change(2.0, 2.5), "+25%");
        assert_eq!(pct_change(0.0, 2.5), "n/a");
    }

    #[test]
    fn run_selection_produces_stats() {
        let program = ms_workloads::by_name("compress").unwrap().build();
        let sel = Strategy::ControlFlow.selector(4).select(&ProgramContext::new(program));
        let s = run_selection(&sel, SimConfig::four_pu(), 5_000, 1);
        assert!(s.ipc() > 0.0);
        assert!(s.total_insts >= 5_000);
    }
}
