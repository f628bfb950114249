//! Struct-of-arrays dynamic instruction storage, decoded once per
//! (program, trace) and shared by every attempt — and every run over a
//! shared [`crate::ProgramImage`] — that executes the trace.
//!
//! The engine's previous hot loop re-derived each instruction from the
//! IR on every squash re-attempt of every task: a
//! [`ms_trace::Trace::inst_refs`] call chases `Program → Function →
//! Block → Inst` per step and rebuilds the operand views per
//! instruction. This table performs that decode exactly once per
//! distinct block and stores the result in parallel arrays (flags,
//! latency, destination, operand ranges), so an attempt's instruction
//! walk is a linear scan of dense `u8`/`u16` columns. Decoded rows
//! reproduce [`ms_trace::DynInstRef`] field for field — including the
//! original source-operand order, which inter-task stall attribution
//! tie-breaks on — so timing statistics are bit-identical to the
//! chased path.

use ms_ir::{BlockRef, FuClass, FxMap, Opcode, Program};
use ms_trace::TraceStep;

/// `dst` column value for "no destination register".
pub(crate) const NO_DST: u8 = u8::MAX;
/// `mem` column value for "not a memory instruction".
pub(crate) const NO_MEM: u16 = u16::MAX;

/// Packed per-instruction flags: functional-unit class in bits 0–1,
/// booleans above.
pub(crate) const CLASS_MASK: u8 = 0b11;
pub(crate) const F_LOAD: u8 = 1 << 2;
pub(crate) const F_STORE: u8 = 1 << 3;
pub(crate) const F_CT: u8 = 1 << 4;
/// Unpipelined (divide): occupies its unit for the full latency.
pub(crate) const F_UNPIPELINED: u8 = 1 << 5;

/// The decoded program image: one row per static instruction of every
/// block the trace executes, in struct-of-arrays layout, plus the
/// step → block mapping. The rows depend only on the program and
/// persist across the chunks of a streamed run; the step column follows
/// the chunk's steps.
#[derive(Debug, Default)]
pub(crate) struct DynInstTable {
    /// Packed flags per instruction row (see the `F_*` constants).
    pub flags: Vec<u8>,
    /// Execution latency per row.
    pub lat: Vec<u8>,
    /// Dense destination register per row ([`NO_DST`] = none).
    pub dst: Vec<u8>,
    /// Index into the step's [`Trace::mem_addrs`] slice per row
    /// ([`NO_MEM`] = not a memory access) — addresses themselves are
    /// dynamic, per step.
    pub mem: Vec<u16>,
    /// Source-operand range per row: `srcs[src_off[r] ..
    /// src_off[r] + src_len[r]]`, in original program order.
    pub src_off: Vec<u32>,
    pub src_len: Vec<u16>,
    /// Flattened dense source registers, program order per row.
    pub srcs: Vec<u8>,
    /// Per decoded block: first row, row count, entry pc.
    pub block_off: Vec<u32>,
    pub block_len: Vec<u32>,
    pub block_pc0: Vec<u64>,
    /// Decoded-block index per block already decoded.
    blocks: FxMap<BlockRef, u32>,
    /// Decoded-block index per trace step.
    pub step_block: Vec<u32>,
}

impl DynInstTable {
    /// Appends the decoded-block index of every step in `steps`,
    /// decoding each block the first time a step executes it.
    pub fn push_steps(&mut self, program: &Program, steps: &[TraceStep]) {
        self.step_block.reserve(steps.len());
        for step in steps {
            let b = match self.blocks.get(&step.block) {
                Some(&b) => b,
                None => {
                    let b = self.decode_block(program, step.block);
                    self.blocks.insert(step.block, b);
                    b
                }
            };
            self.step_block.push(b);
        }
    }

    /// Decodes one block into the arrays, returning its block index.
    fn decode_block(&mut self, program: &Program, block: BlockRef) -> u32 {
        let blk = program.function(block.func).block(block.block);
        let off = self.flags.len() as u32;
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
            self.push_row(
                flags,
                op.latency() as u8,
                inst.dst_reg().map_or(NO_DST, |r| r.dense() as u8),
                mem,
                inst.srcs().iter().map(|r| r.dense() as u8),
            );
        }
        if blk.terminator().emits_ct_inst() {
            self.push_row(
                class_bits(FuClass::Branch) | F_CT,
                1,
                NO_DST,
                NO_MEM,
                blk.terminator().cond_regs().iter().map(|r| r.dense() as u8),
            );
        }
        self.block_off.push(off);
        self.block_len.push(self.flags.len() as u32 - off);
        self.block_pc0.push(program.block_pc(block));
        self.block_off.len() as u32 - 1
    }

    fn push_row(&mut self, flags: u8, lat: u8, dst: u8, mem: u16, srcs: impl Iterator<Item = u8>) {
        self.flags.push(flags);
        self.lat.push(lat);
        self.dst.push(dst);
        self.mem.push(mem);
        self.src_off.push(self.srcs.len() as u32);
        self.srcs.extend(srcs);
        self.src_len
            .push((self.srcs.len() - self.src_off.last().copied().unwrap() as usize) as u16);
    }

    /// The dense source registers of row `r`.
    #[inline]
    pub fn srcs_of(&self, r: usize) -> &[u8] {
        &self.srcs[self.src_off[r] as usize..][..self.src_len[r] as usize]
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
    /// order and memory-address slot.
    #[test]
    fn decoded_rows_match_inst_refs() {
        let program = ms_workloads::by_name("compress").unwrap().build();
        let trace = TraceGenerator::new(&program, 3).generate(5_000);
        let mut table = DynInstTable::default();
        table.push_steps(&program, trace.steps());
        assert_eq!(table.step_block.len(), trace.steps().len());
        for si in 0..trace.steps().len() {
            let mem_addrs = trace.mem_addrs(si);
            let b = table.step_block[si] as usize;
            let off = table.block_off[b] as usize;
            let len = table.block_len[b] as usize;
            let refs: Vec<_> = trace.inst_refs(si, &program).collect();
            assert_eq!(len, refs.len(), "row count of step {si}");
            for (i, di) in refs.iter().enumerate() {
                let r = off + i;
                assert_eq!(table.block_pc0[b] + 4 * i as u64, di.pc);
                let f = table.flags[r];
                match di.kind {
                    DynInstKind::Op(op) => {
                        assert_eq!(f & F_CT, 0);
                        assert_eq!(f & F_LOAD != 0, op.is_load());
                        assert_eq!(f & F_STORE != 0, op.is_store());
                        assert_eq!(u64::from(table.lat[r]), u64::from(op.latency()));
                        let addr = (table.mem[r] != NO_MEM)
                            .then(|| mem_addrs.get(table.mem[r] as usize).copied())
                            .flatten();
                        assert_eq!(addr, di.addr);
                    }
                    DynInstKind::Ct => assert_ne!(f & F_CT, 0),
                }
                assert_eq!(
                    table.dst[r],
                    di.dst.map_or(NO_DST, |d| d.dense() as u8),
                    "dst of row {r}"
                );
                let srcs: Vec<u8> = di.srcs.iter().map(|s| s.dense() as u8).collect();
                assert_eq!(table.srcs_of(r), srcs.as_slice(), "srcs of row {r}");
            }
        }
    }
}
