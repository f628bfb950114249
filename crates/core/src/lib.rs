//! Multiscalar task selection — the primary contribution of
//! *Task Selection for a Multiscalar Processor* (Vijaykumar & Sohi,
//! MICRO-31, 1998).
//!
//! A Multiscalar processor executes a sequential program as a sequence of
//! speculatively-dispatched **tasks**: connected, single-entry subgraphs
//! of the control flow graph. How the compiler draws the task boundaries
//! determines control-flow speculation accuracy, inter-task data
//! communication, memory dependence misspeculation, load imbalance and
//! task overhead. Every heuristic is one variant of the [`Strategy`]
//! enum, which also parses from its label (`"dd".parse()`):
//!
//! * `bb` / [`Strategy::BasicBlock`] — one task per basic block
//!   (baseline),
//! * `cf` / [`Strategy::ControlFlow`] — greedy multi-block growth that
//!   exploits reconvergence to keep at most `N` successor targets,
//!   terminating at loop boundaries, calls and returns,
//! * `dd` / [`Strategy::DataDependence`] — the same growth steered to
//!   include profiled register def-use dependences (and their codependent
//!   sets) within tasks,
//! * `ts` / [`Strategy::TaskSize`] — `dd` after the task-size
//!   preprocessing: unroll loops smaller than `LOOP_THRESH` and include
//!   calls to functions dynamically smaller than `CALL_THRESH` (any
//!   strategy takes it through [`SelectorBuilder::task_size`]),
//! * `cost` / [`Strategy::Cost`] — dependence-style growth steered by a
//!   *measured* [`CostModel`] from a pilot simulation's squash/stall
//!   attribution,
//! * `oracle` / [`Strategy::Oracle`] — an exact branch-and-bound
//!   partitioner for small functions, the upper-bound baseline behind
//!   `run -- gap`.
//!
//! Selection runs over a shared [`ms_analysis::ProgramContext`], so the
//! CFG analyses every heuristic consumes (dominators, loops, DFS order,
//! def-use, reachability, the profile) are computed once per program and
//! reused across selectors, sweep cells and threads.
//!
//! The result is a [`TaskPartition`] whose invariants (exact cover,
//! connectivity, single entry) are machine-checked by
//! [`TaskPartition::validate`], plus the (possibly loop-unrolled) program
//! it refers to.
//!
//! # Example
//!
//! ```
//! use ms_analysis::ProgramContext;
//! use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};
//! use ms_tasksel::{PartitionStats, SelectorBuilder, Strategy};
//!
//! // A loop whose body is several blocks.
//! let mut fb = FunctionBuilder::new("main");
//! let entry = fb.add_block();
//! let head = fb.add_block();
//! let latch = fb.add_block();
//! let exit = fb.add_block();
//! fb.push_inst(head, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
//! fb.set_terminator(entry, Terminator::Jump { target: head });
//! fb.set_terminator(head, Terminator::Jump { target: latch });
//! fb.set_terminator(latch, Terminator::Branch {
//!     taken: head, fall: exit, cond: vec![Reg::int(1)],
//!     behavior: BranchBehavior::exact_loop(50),
//! });
//! fb.set_terminator(exit, Terminator::Halt);
//! let mut pb = ProgramBuilder::new();
//! let m = pb.declare_function("main");
//! pb.define_function(m, fb.finish(entry)?);
//! let ctx = ProgramContext::new(pb.finish(m)?);
//!
//! let sel = SelectorBuilder::new(Strategy::ControlFlow).max_targets(4).build().select(&ctx);
//! sel.partition.validate(&sel.program).expect("invariants hold");
//! let stats = PartitionStats::compute(&sel.program, &sel.partition, sel.context().profile(), 4);
//! assert!(stats.avg_static_size > 1.0); // bigger than basic blocks
//! # Ok::<(), ms_ir::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod dot;
mod error;
mod grow;
mod oracle;
mod policy;
mod predicate;
mod selector;
mod stats;
mod task;
mod transform;

pub use cost::CostModel;
pub use dot::to_dot;
pub use error::{closest, PartitionError, SelectError};
pub use grow::GrowCtx;
pub use oracle::DEFAULT_ORACLE_MAX_BLOCKS;
pub use policy::Strategy;
pub use predicate::if_convert;
pub use selector::{Selection, SelectorBuilder, TaskSelector};
pub use stats::{PartitionStats, SIZE_HIST_BUCKETS};
pub use task::{FuncPartition, Task, TaskId, TaskPartition, TaskTarget};
pub use transform::{apply_task_size, unroll_small_loops, TaskSizeParams};
