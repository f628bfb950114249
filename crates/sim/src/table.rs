//! Packed dynamic instruction storage, decoded once per (program,
//! trace) and shared by every attempt — and every run over a shared
//! [`crate::ProgramImage`] — that executes the trace.
//!
//! The engine's previous hot loop re-derived each instruction from the
//! IR on every squash re-attempt of every task: a
//! [`ms_trace::Trace::inst_refs`] call chases `Program → Function →
//! Block → Inst` per step and rebuilds the operand views per
//! instruction. This table performs that decode exactly once per
//! distinct block and stores each instruction as one packed [`Row`]
//! (flags, latency, destination, up to three sources, memory slot), so
//! an attempt's instruction walk reads one slice per step and each
//! instruction with one load. Decoded rows reproduce
//! [`ms_trace::DynInstRef`] field for field — including the original
//! source-operand order, which inter-task stall attribution tie-breaks
//! on — so timing statistics are bit-identical to the chased path.

use ms_ir::{BlockRef, FuClass, FxMap, Opcode, Program, Reg, MAX_SRCS};
use ms_trace::TraceStep;

/// [`Row::dst`] value for "no destination register".
pub(crate) const NO_DST: u8 = u8::MAX;
/// [`Row::mem`] value for "not a memory instruction".
pub(crate) const NO_MEM: u16 = u16::MAX;

/// Packed per-instruction flags: functional-unit class in bits 0–1,
/// booleans above.
pub(crate) const CLASS_MASK: u8 = 0b11;
pub(crate) const F_LOAD: u8 = 1 << 2;
pub(crate) const F_STORE: u8 = 1 << 3;
pub(crate) const F_CT: u8 = 1 << 4;
/// Unpipelined (divide): occupies its unit for the full latency.
pub(crate) const F_UNPIPELINED: u8 = 1 << 5;

/// One decoded static instruction: everything the engine reads of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct Row {
    /// Packed flags (see the `F_*` constants).
    pub flags: u8,
    /// Execution latency.
    pub lat: u8,
    /// Dense destination register ([`NO_DST`] = none).
    pub dst: u8,
    /// How many of `srcs` are sources.
    pub nsrc: u8,
    /// Dense source registers in program order; the first `nsrc` count.
    pub srcs: [u8; MAX_SRCS],
    /// Index into the step's [`ms_trace::Trace::mem_addrs`] slice
    /// ([`NO_MEM`] = not a memory access) — addresses themselves are
    /// dynamic, per step.
    pub mem: u16,
}

const _: () = assert!(std::mem::size_of::<Row>() == 10);

impl Row {
    fn new(flags: u8, lat: u8, dst: u8, mem: u16, srcs: &[Reg]) -> Row {
        // The IR rejects a fourth source (`BuildError::TooManyCondRegs`
        // for terminators, `Inst::src` for instructions).
        assert!(srcs.len() <= MAX_SRCS, "more than {MAX_SRCS} sources");
        let mut row = Row { flags, lat, dst, nsrc: srcs.len() as u8, srcs: [0; MAX_SRCS], mem };
        for (slot, r) in row.srcs.iter_mut().zip(srcs) {
            *slot = r.dense() as u8;
        }
        row
    }

    /// The dense source registers, in program order.
    #[inline]
    pub fn srcs(&self) -> &[u8] {
        &self.srcs[..usize::from(self.nsrc)]
    }
}

/// A decoded block: its rows, `rows[off..off + len]`, and the pc of the
/// first, read with one load per step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedBlock {
    pub off: u32,
    pub len: u32,
    pub pc0: u64,
}

/// The decoded program image: one [`Row`] per static instruction of
/// every block the trace executes, plus the step → block mapping. The
/// rows depend only on the program and persist across the chunks of a
/// streamed run; the step column follows the chunk's steps.
#[derive(Debug, Default)]
pub(crate) struct DynInstTable {
    /// The instruction rows, block after block.
    pub rows: Vec<Row>,
    /// Per decoded block: its rows and entry pc.
    pub blocks: Vec<DecodedBlock>,
    /// Decoded-block index per block already decoded.
    block_index: FxMap<BlockRef, u32>,
    /// Decoded-block index per trace step.
    pub step_block: Vec<u32>,
}

impl DynInstTable {
    /// Appends the decoded-block index of every step in `steps`,
    /// decoding each block the first time a step executes it.
    pub fn push_steps(&mut self, program: &Program, steps: &[TraceStep]) {
        self.step_block.reserve(steps.len());
        for step in steps {
            let b = match self.block_index.get(&step.block) {
                Some(&b) => b,
                None => {
                    let b = self.decode_block(program, step.block);
                    self.block_index.insert(step.block, b);
                    b
                }
            };
            self.step_block.push(b);
        }
    }

    /// Decodes one block into rows, returning its block index.
    fn decode_block(&mut self, program: &Program, block: BlockRef) -> u32 {
        let blk = program.function(block.func).block(block.block);
        let off = self.rows.len() as u32;
        let mut mem_i = 0u16;
        for inst in blk.insts() {
            let op = inst.opcode();
            let mut flags = class_bits(op.fu_class());
            if op.is_load() {
                flags |= F_LOAD;
            }
            if op.is_store() {
                flags |= F_STORE;
            }
            if matches!(op, Opcode::IDiv | Opcode::FDiv) {
                flags |= F_UNPIPELINED;
            }
            let mem = if op.is_mem() {
                let i = mem_i;
                mem_i += 1;
                i
            } else {
                NO_MEM
            };
            let dst = inst.dst_reg().map_or(NO_DST, |r| r.dense() as u8);
            self.rows.push(Row::new(flags, op.latency() as u8, dst, mem, inst.srcs()));
        }
        let term = blk.terminator();
        if term.emits_ct_inst() {
            let flags = class_bits(FuClass::Branch) | F_CT;
            self.rows.push(Row::new(flags, 1, NO_DST, NO_MEM, term.cond_regs()));
        }
        self.blocks.push(DecodedBlock {
            off,
            len: self.rows.len() as u32 - off,
            pc0: program.block_pc(block),
        });
        self.blocks.len() as u32 - 1
    }
}

fn class_bits(class: FuClass) -> u8 {
    match class {
        FuClass::Int => 0,
        FuClass::Fp => 1,
        FuClass::Branch => 2,
        FuClass::Mem => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_trace::{DynInstKind, TraceGenerator};

    #[test]
    fn flag_constants_are_disjoint() {
        for f in [F_LOAD, F_STORE, F_CT, F_UNPIPELINED] {
            assert_eq!(f & CLASS_MASK, 0);
        }
        assert_eq!(F_LOAD & F_STORE, 0);
        assert_eq!(F_CT & F_UNPIPELINED, 0);
    }

    /// Every decoded row must reproduce the chased [`DynInstRef`] view
    /// field for field — pc, class, latency, flags, destination, source
    /// count and order, and memory-address slot — with the unused
    /// source slots zero.
    #[test]
    fn decoded_rows_match_inst_refs() {
        for name in ["compress", "tomcatv"] {
            let program = ms_workloads::by_name(name).unwrap().build();
            let trace = TraceGenerator::new(&program, 3).generate(5_000);
            let mut table = DynInstTable::default();
            table.push_steps(&program, trace.steps());
            assert_eq!(table.step_block.len(), trace.steps().len());
            for si in 0..trace.steps().len() {
                let mem_addrs = trace.mem_addrs(si);
                let b = table.step_block[si] as usize;
                let DecodedBlock { off, len, pc0 } = table.blocks[b];
                let (off, len) = (off as usize, len as usize);
                let refs: Vec<_> = trace.inst_refs(si, &program).collect();
                assert_eq!(len, refs.len(), "{name}: row count of step {si}");
                for (i, di) in refs.iter().enumerate() {
                    let row = table.rows[off + i];
                    let case = format!("{name}: step {si} row {i}");
                    assert_eq!(pc0 + 4 * i as u64, di.pc, "{case}: pc");
                    match di.kind {
                        DynInstKind::Op(op) => {
                            assert_eq!(row.flags & F_CT, 0, "{case}");
                            assert_eq!(row.flags & CLASS_MASK, class_bits(op.fu_class()), "{case}");
                            assert_eq!(row.flags & F_LOAD != 0, op.is_load(), "{case}");
                            assert_eq!(row.flags & F_STORE != 0, op.is_store(), "{case}");
                            assert_eq!(
                                row.flags & F_UNPIPELINED != 0,
                                matches!(op, Opcode::IDiv | Opcode::FDiv),
                                "{case}"
                            );
                            assert_eq!(u32::from(row.lat), op.latency(), "{case}: latency");
                            let addr = (row.mem != NO_MEM)
                                .then(|| mem_addrs.get(usize::from(row.mem)).copied())
                                .flatten();
                            assert_eq!(addr, di.addr, "{case}: address");
                            assert_eq!(row.mem != NO_MEM, op.is_mem(), "{case}: memory slot");
                        }
                        DynInstKind::Ct => {
                            assert_eq!(row.flags, class_bits(FuClass::Branch) | F_CT, "{case}");
                            assert_eq!((row.lat, row.mem), (1, NO_MEM), "{case}");
                        }
                    }
                    assert_eq!(row.dst, di.dst.map_or(NO_DST, |d| d.dense() as u8), "{case}: dst");
                    let srcs: Vec<u8> = di.srcs.iter().map(|s| s.dense() as u8).collect();
                    assert_eq!(usize::from(row.nsrc), srcs.len(), "{case}: source count");
                    assert_eq!(row.srcs(), srcs.as_slice(), "{case}: sources in program order");
                    assert!(row.srcs[srcs.len()..].iter().all(|&s| s == 0), "{case}: unused slots");
                }
            }
        }
    }
}
