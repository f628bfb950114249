//! Construction and validation errors.

use std::error::Error;
use std::fmt;

use crate::mem::AddrGenId;
use crate::program::{BlockId, FuncId};

/// Error produced while building or validating IR.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildError {
    /// A block id referenced a block that does not exist.
    BadBlockId {
        /// Function in which the reference occurred.
        func: String,
        /// The offending block id.
        block: BlockId,
    },
    /// A function id referenced a function that does not exist.
    BadFuncId {
        /// The offending function id.
        func: FuncId,
    },
    /// A `Switch` terminator has empty or mismatched target/weight lists.
    BadSwitch {
        /// Function containing the switch.
        func: String,
        /// Block whose terminator is malformed.
        block: BlockId,
    },
    /// A `Branch` or `Switch` terminator reads more than
    /// [`MAX_SRCS`](crate::MAX_SRCS) condition registers, which an
    /// instruction cannot.
    TooManyCondRegs {
        /// Function containing the terminator.
        func: String,
        /// Block whose terminator is malformed.
        block: BlockId,
    },
    /// A branch probability was outside `[0, 1]`.
    BadProbability {
        /// Function containing the branch.
        func: String,
        /// Block whose branch is malformed.
        block: BlockId,
    },
    /// A block was finished without a terminator.
    MissingTerminator {
        /// Function being built.
        func: String,
        /// Block missing its terminator.
        block: BlockId,
    },
    /// A memory instruction referenced an address generator that does not
    /// exist in the program's table.
    BadAddrGen {
        /// Function containing the instruction.
        func: FuncId,
        /// Block containing the instruction.
        block: BlockId,
        /// The offending generator id.
        gen: AddrGenId,
    },
    /// A memory instruction carries no address generator.
    MissingAddrGen {
        /// Function containing the instruction.
        func: FuncId,
        /// Block containing the instruction.
        block: BlockId,
    },
    /// A declared function was never defined.
    UndefinedFunction {
        /// The declared-but-undefined function.
        func: FuncId,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::BadBlockId { func, block } => {
                write!(f, "function `{func}` references nonexistent block {block}")
            }
            BuildError::BadFuncId { func } => write!(f, "reference to nonexistent function {func}"),
            BuildError::BadSwitch { func, block } => {
                write!(f, "function `{func}` block {block} has a malformed switch")
            }
            BuildError::TooManyCondRegs { func, block } => write!(
                f,
                "function `{func}` block {block} reads more than {} condition registers",
                crate::MAX_SRCS
            ),
            BuildError::BadProbability { func, block } => {
                write!(f, "function `{func}` block {block} has a branch probability outside [0, 1]")
            }
            BuildError::MissingTerminator { func, block } => {
                write!(f, "function `{func}` block {block} has no terminator")
            }
            BuildError::BadAddrGen { func, block, gen } => {
                write!(f, "{func}:{block} references nonexistent address generator {gen}")
            }
            BuildError::MissingAddrGen { func, block } => {
                write!(f, "{func}:{block} has a memory instruction without an address generator")
            }
            BuildError::UndefinedFunction { func } => {
                write!(f, "function {func} was declared but never defined")
            }
        }
    }
}

impl Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let cases = [
            BuildError::BadBlockId { func: "f".into(), block: BlockId::new(1) },
            BuildError::BadFuncId { func: FuncId::new(2) },
            BuildError::BadSwitch { func: "f".into(), block: BlockId::new(1) },
            BuildError::TooManyCondRegs { func: "f".into(), block: BlockId::new(1) },
            BuildError::BadProbability { func: "f".into(), block: BlockId::new(1) },
            BuildError::MissingTerminator { func: "f".into(), block: BlockId::new(1) },
            BuildError::BadAddrGen {
                func: FuncId::new(0),
                block: BlockId::new(1),
                gen: AddrGenId::new(3),
            },
            BuildError::MissingAddrGen { func: FuncId::new(0), block: BlockId::new(1) },
            BuildError::UndefinedFunction { func: FuncId::new(4) },
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }
}
