//! Facade crate for the Multiscalar task-selection reproduction.
//!
//! Re-exports the workspace crates under one roof so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! * [`ir`] — the RISC-like compiler IR and CFGs,
//! * [`analysis`] — dominators, loops, dataflow, def-use chains, profiles,
//! * [`tasksel`] — the paper's task-selection heuristics,
//! * [`trace`] — dynamic instruction trace generation,
//! * [`sim`] — the cycle-level Multiscalar timing simulator,
//! * [`workloads`] — the synthetic SPEC95-shaped benchmark suite.
//!
//! # Quickstart
//!
//! ```
//! use multiscalar::prelude::*;
//!
//! // A SPEC95-shaped synthetic workload.
//! let program = multiscalar::workloads::by_name("tomcatv").unwrap().build();
//! // Analyses are computed lazily and shared through the context.
//! let ctx = ProgramContext::new(program);
//! // Partition with the control flow heuristic (max 4 task targets).
//! let sel = SelectorBuilder::new(Strategy::ControlFlow).max_targets(4).build().select(&ctx);
//! // Generate a dynamic trace and simulate the paper's 4-PU machine.
//! let trace = TraceGenerator::new(&sel.program, 7).generate(20_000);
//! let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition).run(&trace);
//! assert!(stats.ipc() > 0.0);
//! ```

// `cargo test` compiles and runs the README's Rust blocks, so the
// README cannot name an API that is gone.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme {}

pub use ms_analysis as analysis;
pub use ms_ir as ir;
pub use ms_sim as sim;
pub use ms_tasksel as tasksel;
pub use ms_trace as trace;
pub use ms_workloads as workloads;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use ms_analysis::{Profile, ProgramContext};
    pub use ms_ir::{Program, ProgramBuilder};
    pub use ms_sim::{SimConfig, SimStats, Simulator};
    pub use ms_tasksel::{
        CostModel, Selection, SelectorBuilder, Strategy, TaskPartition, TaskSelector,
        TaskSizeParams,
    };
    pub use ms_trace::{split_tasks, Trace, TraceGenerator};
}
