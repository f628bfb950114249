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
//! 2. **Event-stream checker** ([`ms_sim::EventChecker`]):
//!    cycle-level invariants over the run's events, plus
//!    reconciliation against the run's [`SimStats`].
//! 3. **Differential diff** ([`diff`]): the engine's committed outcome
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
use diff::Diff;
pub use fuzz::{fuzz_seed, strategies, FuzzCase, FuzzFailure, FuzzParams};
use reference::TraceFacts;
pub use reference::{reference, RefTask, Reference};

use ms_ir::Program;
use ms_sim::{EventChecker, ProgramImage, SimConfig, SimEvent, SimStats, Simulator, TraceSink};
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

/// Runs `trace` through the engine and checks it in one streamed pass:
/// the engine's events go to the event-stream checker and the
/// differential diff as they are emitted, with nothing recorded. The
/// messages are those of [`EventLog::check`] followed by [`diff`] over a
/// recorded log of the same run. The trace is split into tasks once:
/// the decoded [`ProgramImage`] the engine runs hands its tasks to the
/// reference fold.
///
/// [`EventLog::check`]: ms_sim::EventLog::check
pub fn check_trace(
    program: &Program,
    partition: &TaskPartition,
    trace: &Trace,
    cfg: SimConfig,
) -> CheckRun {
    check_walked(program, partition, trace, &TraceFacts::walk(program, trace), cfg)
}

/// [`check_trace`] with the reference walk of `trace` already done
/// (`facts`), as a fuzz case shares it among the policies that check
/// one trace.
fn check_walked(
    program: &Program,
    partition: &TaskPartition,
    trace: &Trace,
    facts: &TraceFacts,
    cfg: SimConfig,
) -> CheckRun {
    let image = ProgramImage::new(program, partition, trace);
    let oracle = facts.fold(image.tasks());
    let mut sink = CheckSink { events: EventChecker::default(), diff: Diff::new(&oracle) };
    let stats = Simulator::new(cfg, program, partition).run_image(&image, &mut sink);
    let mut errors = sink.events.finish(&stats);
    errors.extend(sink.diff.finish(&stats));
    CheckRun { stats, errors }
}

/// Both event-level checks of one run, fed each event as the engine
/// emits it.
struct CheckSink<'r> {
    events: EventChecker,
    diff: Diff<'r>,
}

impl TraceSink for CheckSink<'_> {
    fn event(&mut self, ev: &SimEvent) {
        self.events.event(ev);
        self.diff.event(ev);
    }
}
