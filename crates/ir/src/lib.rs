//! A small RISC-like compiler intermediate representation (IR) used by the
//! Multiscalar task-selection reproduction.
//!
//! The IR models exactly what task selection and trace-driven timing
//! simulation need and nothing more:
//!
//! * **Instructions** ([`Inst`]) carry an opcode class, destination and
//!   source registers, and — for memory operations — a reference to a
//!   symbolic [address generator](AddrSpec) instead of a concrete address
//!   computation. Dependence *structure* is explicit; values are not
//!   interpreted.
//! * **Basic blocks** ([`BasicBlock`]) end in a [`Terminator`] that both
//!   defines the control flow graph edges and carries a
//!   [`BranchBehavior`] model from which a trace generator can sample
//!   dynamic outcomes (probability, repeating pattern, or loop trip count).
//! * **Functions** ([`Function`]) are CFGs of basic blocks;
//!   **programs** ([`Program`]) are collections of functions with a
//!   designated entry and a table of address generators.
//!
//! Programs are constructed with [`ProgramBuilder`] / [`FunctionBuilder`]
//! and are immutable afterwards; [`Program::validate`] checks structural
//! invariants. Instruction addresses ("PCs") are assigned by the program
//! layout so that predictors and instruction caches in the simulator have
//! realistic indices to work with.
//!
//! # Example
//!
//! ```
//! use ms_ir::{FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};
//!
//! let mut pb = ProgramBuilder::new();
//! let main = pb.declare_function("main");
//! let mut fb = FunctionBuilder::new("main");
//! let entry = fb.add_block();
//! fb.push_inst(entry, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(2)));
//! fb.set_terminator(entry, Terminator::Halt);
//! pb.define_function(main, fb.finish(entry).unwrap());
//! let program = pb.finish(main).unwrap();
//! assert!(program.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod builder;
mod display;
mod error;
mod fxhash;
pub mod gen;
mod inst;
mod mem;
mod program;
mod reg;
pub mod rng;
pub mod text;

pub use block::{BasicBlock, BranchBehavior, Terminator};
pub use builder::{FunctionBuilder, ProgramBuilder};
pub use error::BuildError;
pub use fxhash::{FxHasher, FxMap};
pub use inst::{FuClass, Inst, Opcode, MAX_SRCS};
pub use mem::{AddrGenId, AddrSpec};
pub use program::{BlockId, BlockRef, FuncId, Function, Program};
pub use reg::{Reg, RegClass, NUM_FP_REGS, NUM_INT_REGS, NUM_REGS};
pub use rng::SplitMix64;
pub use text::{parse_program, write_program, ParseError};
