//! Cycle-level Multiscalar processor timing simulator.
//!
//! Models the machine of *Task Selection for a Multiscalar Processor*
//! (MICRO-31, 1998), §4.2: a ring of narrow processing units (2-way
//! issue, 16-entry ROB, 8-entry issue list, 2 int / 1 fp / 1 branch /
//! 1 mem units), a sequencer with a path-based inter-task target
//! predictor (16-bit history, 64K entries) and per-PU gshare intra-task
//! predictors, a register communication ring (2 values/cycle, same-cycle
//! adjacent bypass), an Address Resolution Buffer with a 256-entry memory
//! dependence synchronisation table, and an L1/L2/memory hierarchy.
//!
//! The paper evaluates one machine, so those parameters are constants
//! of the timing model. [`SimConfig`] holds only the ones its
//! experiments vary: the PU count, in-order issue, dead register
//! analysis, ring bandwidth, ARB entries and sync-table entries, plus
//! the two task overheads and a test-only fault switch.
//!
//! The simulator is trace-driven: it consumes the correct-path dynamic
//! task sequence (from [`ms_trace`]) and models control misspeculation as
//! wrong-path occupancy + restart, and memory dependence misspeculation
//! as squash-and-re-execute of correct-path work — the two scenarios of
//! the paper's §2.3 time line. Cycle accounting follows the same
//! categories (task start/end overhead, useful, intra-task dependence,
//! inter-task communication, load imbalance, misspeculation penalties).
//!
//! # Role in the data flow
//!
//! This crate is the *measurement* stage of the pipeline: `ms_workloads`
//! builds a program, `ms_tasksel` partitions it, `ms_trace` turns it
//! into a dynamic instruction trace, and this crate charges cycles to
//! that trace. Results leave in two forms:
//!
//! * **aggregates** — [`SimStats`] counters and the §2.3
//!   [`CycleBreakdown`], consumed by the tables, JSON artifacts and
//!   golden tests in `ms_bench` (field glossary: `docs/METRICS.md`),
//! * **events** — an optional [`SimEvent`] stream with squash/stall
//!   *attribution* (which task boundary, which def-use arc), emitted
//!   through a [`TraceSink`] passed to [`Simulator::run_with_sink`].
//!   There are two sinks. [`NullSink`] turns tracing off (the default,
//!   zero cost). [`EventLog`] records the stream, and every view is
//!   read from that one record: the schema-versioned JSONL
//!   ([`EventLog::to_jsonl`]), the per-task time line
//!   ([`EventLog::spans`]), the attribution tables
//!   ([`EventLog::render`]) and the invariant checker with stats
//!   reconciliation ([`EventLog::check`] — the engine half of the
//!   `ms-conform` differential harness, see `docs/CONFORMANCE.md`).
//!   Event semantics and the reconciliation invariants against
//!   [`SimStats`] are documented in `docs/TRACING.md`.
//!
//! # Execution
//!
//! The hot loop is data-oriented: instructions are decoded once per
//! (program, trace chunk) into a struct-of-arrays table held by a
//! [`ProgramImage`], register write sets travel as single-`u64` SWAR
//! masks, and an attempt's stores and ARB lines are plain lists.
//! [`Simulator`] is the one driver: each `run*` call simulates
//! one configuration through an [`Engine`] built by
//! [`Simulator::start`]. [`Simulator::run_streamed`] streams the trace
//! in chunks ([`ChunkStream`]), so memory does not grow with the
//! instruction budget; the whole-trace entry points (`run`,
//! `run_with_sink`, `run_image`) are the one-chunk case. Sweeps whose
//! cells differ only in machine configuration step one engine per cell
//! over each decoded chunk.
//!
//! Entry points: [`SimConfig`] (presets [`SimConfig::four_pu`],
//! [`SimConfig::eight_pu`], [`SimConfig::single_pu`]), [`Simulator`],
//! [`SimStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod check;
mod config;
mod engine;
mod event;
mod predictor;
mod sink;
mod stats;
mod swar;
mod table;

pub use config::SimConfig;
pub use engine::{ChunkStream, Engine, ProgramImage, Simulator};

/// Version of the timing model itself. Bump whenever a change alters
/// the statistics a given (program, config, trace) produces — content
/// caches keyed on program and configuration also key on this, so a
/// model change can never serve stale cached results. Version 2: the
/// data-oriented engine rewrite (struct-of-arrays decode, SWAR masks,
/// shared decoded images) — statistics are bit-identical to version 1, but the
/// bump conservatively invalidates cached cells across the rewrite.
pub const ENGINE_VERSION: u32 = 2;
pub use event::{NullSink, SimEvent, SquashCause, TraceSink, TRACE_SCHEMA_VERSION};
pub use sink::{CauseCounts, EventLog, TaskSpan};
pub use stats::{CycleBreakdown, SimStats, TaskSizeHist};
