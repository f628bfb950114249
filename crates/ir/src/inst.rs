//! Instructions and opcodes.

use std::fmt;

use crate::mem::AddrGenId;
use crate::reg::Reg;

/// The functional unit class an instruction executes on.
///
/// The paper's processing units (§4.2) have two integer units, one floating
/// point unit, one branch unit and one memory unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// Integer ALU operations.
    Int,
    /// Floating point operations.
    Fp,
    /// Control transfer operations.
    Branch,
    /// Loads and stores.
    Mem,
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuClass::Int => write!(f, "int"),
            FuClass::Fp => write!(f, "fp"),
            FuClass::Branch => write!(f, "branch"),
            FuClass::Mem => write!(f, "mem"),
        }
    }
}

/// Operation codes of the RISC-like IR.
///
/// Control transfers are *not* opcodes: they live in each block's
/// [`Terminator`](crate::Terminator). The trace generator materialises
/// terminators as dynamic control-transfer instructions so the simulator
/// and statistics (e.g. Table 1's "#ct inst") see them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Opcode {
    /// Integer addition / subtraction / comparison (1-cycle ALU class).
    IAdd,
    /// Integer logical operation (and/or/xor; 1 cycle).
    ILogic,
    /// Integer shift (1 cycle).
    IShift,
    /// Integer multiply (pipelined, 3 cycles).
    IMul,
    /// Integer divide (unpipelined, 12 cycles).
    IDiv,
    /// Load immediate / register move (1 cycle).
    IMov,
    /// Integer load from memory.
    Load,
    /// Integer store to memory.
    Store,
    /// Floating point add / subtract / compare (2 cycles).
    FAdd,
    /// Floating point multiply (4 cycles).
    FMul,
    /// Floating point divide (12 cycles, unpipelined).
    FDiv,
    /// Floating point move / convert (1 cycle).
    FMov,
    /// Floating point load from memory.
    FLoad,
    /// Floating point store to memory.
    FStore,
}

impl Opcode {
    /// The functional unit class this opcode executes on.
    pub fn fu_class(&self) -> FuClass {
        use Opcode::*;
        match self {
            IAdd | ILogic | IShift | IMul | IDiv | IMov => FuClass::Int,
            FAdd | FMul | FDiv | FMov => FuClass::Fp,
            Load | Store | FLoad | FStore => FuClass::Mem,
        }
    }

    /// Execution latency in cycles, excluding memory hierarchy time for
    /// loads and stores (which is added by the simulator's cache model).
    pub fn latency(&self) -> u32 {
        use Opcode::*;
        match self {
            IAdd | ILogic | IShift | IMov | FMov => 1,
            IMul => 3,
            IDiv => 12,
            FAdd => 2,
            FMul => 4,
            FDiv => 12,
            Load | FLoad => 1,
            Store | FStore => 1,
        }
    }

    /// Whether the opcode reads memory.
    pub fn is_load(&self) -> bool {
        matches!(self, Opcode::Load | Opcode::FLoad)
    }

    /// Whether the opcode writes memory.
    pub fn is_store(&self) -> bool {
        matches!(self, Opcode::Store | Opcode::FStore)
    }

    /// Whether the opcode accesses memory at all.
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Starts building an [`Inst`] with this opcode.
    ///
    /// ```
    /// use ms_ir::{Opcode, Reg};
    /// let i = Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(2)).src(Reg::int(3));
    /// assert_eq!(i.srcs().len(), 2);
    /// ```
    pub fn inst(self) -> Inst {
        Inst::new(self)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Opcode::*;
        let s = match self {
            IAdd => "iadd",
            ILogic => "ilogic",
            IShift => "ishift",
            IMul => "imul",
            IDiv => "idiv",
            IMov => "imov",
            Load => "load",
            Store => "store",
            FAdd => "fadd",
            FMul => "fmul",
            FDiv => "fdiv",
            FMov => "fmov",
            FLoad => "fload",
            FStore => "fstore",
        };
        write!(f, "{s}")
    }
}

/// The most registers an instruction, or a terminator's condition,
/// reads.
pub const MAX_SRCS: usize = 3;

/// A static IR instruction.
///
/// Instructions have at most one destination register and up to three
/// source registers. Memory instructions carry an [`AddrGenId`] naming the
/// symbolic address stream they access; the trace generator turns it into
/// concrete dynamic addresses.
///
/// Constructed fluently from an opcode:
///
/// ```
/// use ms_ir::{AddrGenId, Opcode, Reg};
/// let ld = Opcode::Load.inst().dst(Reg::int(4)).src(Reg::int(5)).mem(AddrGenId::new(0));
/// assert!(ld.opcode().is_load());
/// assert_eq!(ld.mem_ref(), Some(AddrGenId::new(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Inst {
    opcode: Opcode,
    dst: Option<Reg>,
    srcs: Vec<Reg>,
    mem: Option<AddrGenId>,
}

impl Inst {
    /// Creates an instruction with no operands.
    pub fn new(opcode: Opcode) -> Self {
        Inst { opcode, dst: None, srcs: Vec::new(), mem: None }
    }

    /// Sets the destination register (builder style).
    #[must_use]
    pub fn dst(mut self, reg: Reg) -> Self {
        self.dst = Some(reg);
        self
    }

    /// Appends a source register (builder style).
    ///
    /// # Panics
    ///
    /// Panics if more than three sources are added.
    #[must_use]
    pub fn src(mut self, reg: Reg) -> Self {
        assert!(self.srcs.len() < MAX_SRCS, "instructions have at most three sources");
        self.srcs.push(reg);
        self
    }

    /// Attaches a memory address generator (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the opcode is not a load or store.
    #[must_use]
    pub fn mem(mut self, gen: AddrGenId) -> Self {
        assert!(self.opcode.is_mem(), "only memory opcodes take an address generator");
        self.mem = Some(gen);
        self
    }

    /// The instruction's opcode.
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// The destination register, if any.
    pub fn dst_reg(&self) -> Option<Reg> {
        self.dst
    }

    /// The source registers.
    pub fn srcs(&self) -> &[Reg] {
        &self.srcs
    }

    /// The memory address generator, if this is a memory instruction.
    pub fn mem_ref(&self) -> Option<AddrGenId> {
        self.mem
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
        }
        for (i, s) in self.srcs.iter().enumerate() {
            if i == 0 && self.dst.is_none() {
                write!(f, " {s}")?;
            } else {
                write!(f, ", {s}")?;
            }
        }
        if let Some(m) = self.mem {
            write!(f, " [{m}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opcode_has_consistent_fu_and_latency() {
        use Opcode::*;
        for op in [
            IAdd, ILogic, IShift, IMul, IDiv, IMov, Load, Store, FAdd, FMul, FDiv, FMov, FLoad,
            FStore,
        ] {
            assert!(op.latency() >= 1, "{op} must take at least one cycle");
            if op.is_mem() {
                assert_eq!(op.fu_class(), FuClass::Mem);
            }
        }
    }

    #[test]
    fn loads_and_stores_are_disjoint() {
        assert!(Opcode::Load.is_load() && !Opcode::Load.is_store());
        assert!(Opcode::FStore.is_store() && !Opcode::FStore.is_load());
        assert!(!Opcode::IAdd.is_mem());
    }

    #[test]
    #[should_panic(expected = "at most three")]
    fn source_count_is_limited() {
        let _ =
            Opcode::IAdd.inst().src(Reg::int(1)).src(Reg::int(2)).src(Reg::int(3)).src(Reg::int(4));
    }

    #[test]
    #[should_panic(expected = "only memory opcodes")]
    fn non_mem_opcodes_reject_address_generators() {
        let _ = Opcode::IAdd.inst().mem(AddrGenId::new(0));
    }

    #[test]
    fn display_formats_operands() {
        let i = Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(2)).src(Reg::int(3));
        assert_eq!(i.to_string(), "iadd r1, r2, r3");
        let s = Opcode::Store.inst().src(Reg::int(9)).mem(AddrGenId::new(2));
        assert_eq!(s.to_string(), "store r9 [g2]");
    }
}
