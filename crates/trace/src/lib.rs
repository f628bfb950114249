//! Dynamic trace generation and dynamic-task splitting for the
//! Multiscalar task-selection reproduction.
//!
//! The paper's simulator executed SPEC95 binaries; this crate plays the
//! same role against the synthetic IR: [`TraceGenerator`] walks a
//! program's CFG with a seeded RNG, sampling branch outcomes from the
//! [`BranchBehavior`](ms_ir::BranchBehavior) models and concrete memory
//! addresses from the [`AddrSpec`](ms_ir::AddrSpec) generators, yielding
//! a deterministic correct-path [`Trace`]. Given a static
//! [`TaskPartition`](ms_tasksel::TaskPartition), [`split_tasks`] chops
//! the trace into the exact [`DynTask`] sequence the Multiscalar
//! sequencer dispatches. Both also work on a stream: a
//! [`TraceStream`] refills one [`Trace`] about [`TRACE_CHUNK_INSTS`]
//! instructions at a time and a [`TaskSplitter`] cuts each piece, so a
//! long run never holds its whole trace.
//!
//! # Role in the data flow
//!
//! This crate is the bridge between the *static* and *dynamic* halves
//! of the pipeline: `ms_workloads` builds a program, `ms_tasksel`
//! partitions it statically, this crate turns the partitioned program
//! into a deterministic dynamic task sequence, and `ms_sim` charges
//! cycles to that sequence (aggregates in `SimStats`, optional
//! attribution events through its `TraceSink`). Everything downstream
//! — tables, JSON artifacts, event traces — lives in `ms_bench`. The
//! same (program, seed, instruction budget) triple always yields the
//! same trace, which is what makes the experiment grids and golden
//! tests reproducible (see `EXPERIMENTS.md`).
//!
//! # Example
//!
//! ```
//! use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};
//! use ms_analysis::ProgramContext;
//! use ms_tasksel::{SelectorBuilder, Strategy};
//! use ms_trace::{split_tasks, TraceGenerator};
//!
//! let mut fb = FunctionBuilder::new("main");
//! let entry = fb.add_block();
//! let body = fb.add_block();
//! let exit = fb.add_block();
//! fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
//! fb.set_terminator(entry, Terminator::Jump { target: body });
//! fb.set_terminator(body, Terminator::Branch {
//!     taken: body, fall: exit, cond: vec![Reg::int(1)],
//!     behavior: BranchBehavior::exact_loop(12),
//! });
//! fb.set_terminator(exit, Terminator::Halt);
//! let mut pb = ProgramBuilder::new();
//! let m = pb.declare_function("main");
//! pb.define_function(m, fb.finish(entry)?);
//! let program = pb.finish(m)?;
//!
//! let ctx = ProgramContext::new(program);
//! let sel = SelectorBuilder::new(Strategy::ControlFlow).max_targets(4).build().select(&ctx);
//! let trace = TraceGenerator::new(&sel.program, 7).generate(100);
//! let tasks = split_tasks(&trace, &sel.program, &sel.partition);
//! assert!(!tasks.is_empty());
//! # Ok::<(), ms_ir::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod split;
mod stats;
mod step;

pub use gen::{TraceGenerator, TraceStream, TRACE_CHUNK_INSTS};
pub use split::{split_tasks, DynExit, DynTask, TaskSplitter};
pub use stats::measure_profile;
pub use step::{step_is_return, CtOutcome, DynInstKind, DynInstRef, Trace, TraceStep};
