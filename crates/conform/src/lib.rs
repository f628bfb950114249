//! Differential conformance harness for the Multiscalar simulator.
//!
//! The timing engine in `ms-sim` is intricate — speculative dispatch,
//! squash/replay, a register ring, an ARB — but what it must *commit* is
//! simple: the sequential execution of the trace, chopped into tasks.
//! This crate checks exactly that, three ways at once:
//!
//! 1. **Sequential reference model** ([`reference()`]): a program-order
//!    walk of the trace computing per-task instruction counts, register
//!    write sets, task identities, and the cross-task memory conflict
//!    set — with no timing model at all.
//! 2. **Event-stream checker** ([`ms_sim::EventLog::check`]):
//!    cycle-level invariants replayed over the run's recorded events, plus
//!    reconciliation against the run's [`SimStats`].
//! 3. **Differential diff** ([`diff`]): the engine's recorded outcome
//!    against the reference model — the only layer that catches
//!    *self-consistent* engine bugs, where events and counters agree
//!    with each other but not with sequential semantics.
//!
//! [`check_selection`] / [`check_trace`] bundle all three into one call;
//! [`fuzz::fuzz_seed`] drives them from randomly generated programs
//! ([`ms_ir::gen`]) across every selection strategy, shrinking
//! any failure to a minimal reproducer. The `run -- fuzz` subcommand and
//! `docs/CONFORMANCE.md` document the workflow.
//!
//! ```
//! use ms_analysis::ProgramContext;
//! use ms_conform::check_selection;
//! use ms_sim::SimConfig;
//! use ms_tasksel::{SelectorBuilder, Strategy};
//!
//! let program = ms_workloads::by_name("compress").unwrap().build();
//! let sel = SelectorBuilder::new(Strategy::ControlFlow)
//!     .max_targets(4)
//!     .build()
//!     .select(&ProgramContext::new(program));
//! let run = check_selection(&sel, SimConfig::four_pu(), 5_000, 1);
//! assert_eq!(run.errors, Vec::<String>::new());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
pub mod fuzz;
mod reference;

pub use diff::diff;
pub use fuzz::{fuzz_seed, strategies, FuzzCase, FuzzFailure, FuzzParams};
pub use reference::{reference, RefTask, Reference};

use ms_ir::Program;
use ms_sim::{EventLog, ProgramImage, SimConfig, SimStats, Simulator};
use ms_tasksel::{Selection, TaskPartition};
use ms_trace::{Trace, TraceGenerator};

/// The outcome of one fully-checked simulator run.
#[derive(Debug, Clone)]
pub struct CheckRun {
    /// The run's aggregate statistics (the simulated outcome is
    /// unchanged by checking).
    pub stats: SimStats,
    /// Every violation found, across all three check layers. Empty
    /// means the run conforms.
    pub errors: Vec<String>,
}

/// Generates a trace for `sel` and runs the full conformance check.
pub fn check_selection(sel: &Selection, cfg: SimConfig, insts: usize, seed: u64) -> CheckRun {
    let trace = TraceGenerator::new(&sel.program, seed).generate(insts);
    check_trace(&sel.program, &sel.partition, &trace, cfg)
}

/// Runs `trace` through the engine into an [`EventLog`], checks the log,
/// then diffs the recorded outcome against the sequential reference
/// model. The trace is split into tasks once: the decoded
/// [`ProgramImage`] the engine runs hands its tasks to the reference
/// walk.
pub fn check_trace(
    program: &Program,
    partition: &TaskPartition,
    trace: &Trace,
    cfg: SimConfig,
) -> CheckRun {
    let image = ProgramImage::new(program, partition, trace);
    let oracle = reference::walk(program, trace, image.tasks());
    let mut log = EventLog::new();
    let stats = Simulator::new(cfg, program, partition).run_image(&image, &mut log);
    let mut errors = log.check(&stats);
    errors.extend(diff(&oracle, &log, &stats));
    CheckRun { stats, errors }
}
