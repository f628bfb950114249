//! Dynamic traces: the correct-path execution record a timing simulator
//! consumes.

use ms_ir::{BlockRef, Opcode, Program, Reg, Terminator};

/// The outcome of one block's terminator in a dynamic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtOutcome {
    /// A conditional branch resolved taken (`true`) or not (`false`).
    Branch(bool),
    /// A switch selected target index `i`.
    Switch(u16),
    /// An unconditional jump.
    Jump,
    /// A call was performed.
    Call,
    /// A call was *skipped* by the recursion guard (control went straight
    /// to the return block).
    SkippedCall,
    /// A return to the caller.
    Return,
    /// Program end.
    Halt,
}

/// One dynamic basic-block execution: the block and its control
/// transfer outcome. The concrete addresses its memory instructions
/// touched live in the owning [`Trace`]'s address column
/// ([`Trace::mem_addrs`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// The executed block.
    pub block: BlockRef,
    /// How the block's terminator resolved.
    pub outcome: CtOutcome,
    /// Call nesting depth at which the block ran (0 = program entry
    /// function).
    pub depth: u32,
}

impl TraceStep {
    /// Number of dynamic instructions this step contributes (straight-line
    /// instructions plus the control transfer, if it emits one).
    pub fn num_insts(&self, program: &Program) -> usize {
        let blk = program.function(self.block.func).block(self.block.block);
        blk.insts().len() + usize::from(blk.terminator().emits_ct_inst())
    }
}

/// What a dynamic instruction is, from the simulator's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynInstKind {
    /// A straight-line operation.
    Op(Opcode),
    /// The block's control transfer.
    Ct,
}

/// A borrowed view of one dynamic instruction, with its operands
/// resolved against the program. [`Trace::inst_refs`] yields these so
/// the simulator's per-instruction loop allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct DynInstRef<'p> {
    /// Instruction address.
    pub pc: u64,
    /// Operation kind.
    pub kind: DynInstKind,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Source registers, borrowed from the program.
    pub srcs: &'p [Reg],
    /// Concrete memory address for loads/stores.
    pub addr: Option<u64>,
}

impl DynInstRef<'_> {
    /// Whether this is a control transfer.
    pub fn is_ct(&self) -> bool {
        matches!(self.kind, DynInstKind::Ct)
    }
}

/// A correct-path dynamic instruction stream, stored as a sequence of
/// block executions plus one flat column of memory addresses.
///
/// Step `i`'s addresses are `addrs[addr_off[i]..addr_off[i + 1]]`, one
/// per memory instruction of its block in program order, so a trace is
/// three allocations however many steps it has.
///
/// Produced by [`TraceGenerator`](crate::TraceGenerator); consumed by the
/// dynamic-task splitter and the simulator. A streamed trace is one
/// chunk at a time: [`TraceStream::fill`](crate::TraceStream::fill)
/// appends to it and [`Trace::drop_front`] forgets the steps already
/// simulated, so the buffers keep their capacity from chunk to chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub(crate) steps: Vec<TraceStep>,
    /// Every step's memory addresses, concatenated in step order.
    pub(crate) addrs: Vec<u64>,
    /// Per step: where its addresses start in `addrs`, plus one trailing
    /// entry equal to `addrs.len()`.
    pub(crate) addr_off: Vec<u32>,
    pub(crate) num_insts: usize,
}

impl Default for Trace {
    /// An empty trace, ready to be filled by a [`crate::TraceStream`].
    fn default() -> Self {
        Trace { steps: Vec::new(), addrs: Vec::new(), addr_off: vec![0], num_insts: 0 }
    }
}

/// Narrows an address-column position to a step offset.
///
/// # Panics
///
/// Panics if the column outgrows `u32` offsets (over four billion
/// memory accesses in one trace) rather than wrapping.
pub(crate) fn addr_offset(len: usize) -> u32 {
    u32::try_from(len).expect("trace address column exceeds u32::MAX entries")
}

impl Trace {
    /// Builds a trace from its steps and the concatenation of their
    /// memory addresses, counting instructions against `program`.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` does not hold exactly one address per memory
    /// instruction of every step's block, or if it has more entries than
    /// a `u32` offset can address.
    pub fn new(steps: Vec<TraceStep>, addrs: Vec<u64>, program: &Program) -> Self {
        let mut addr_off = Vec::with_capacity(steps.len() + 1);
        let mut num_insts = 0;
        let mut end = 0usize;
        addr_off.push(0);
        for step in &steps {
            let blk = program.function(step.block.func).block(step.block.block);
            num_insts += step.num_insts(program);
            end += blk.insts().iter().filter(|i| i.opcode().is_mem()).count();
            addr_off.push(addr_offset(end));
        }
        assert_eq!(
            end,
            addrs.len(),
            "the steps' memory instructions and the address column differ in length"
        );
        Trace { steps, addrs, addr_off, num_insts }
    }

    /// Forgets the first `n` steps and their addresses, keeping the
    /// buffers' capacity; step `n` becomes step 0. The instruction count
    /// is recounted over the steps that remain.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the number of steps.
    pub fn drop_front(&mut self, n: usize, program: &Program) {
        if n == 0 {
            return;
        }
        let base = self.addr_off[n];
        self.num_insts = self.steps[n..].iter().map(|s| s.num_insts(program)).sum();
        self.steps.drain(..n);
        self.addrs.drain(..base as usize);
        self.addr_off.drain(..n);
        for off in &mut self.addr_off {
            *off -= base;
        }
    }

    /// The memory addresses step `idx` touched: one per memory
    /// instruction of its block, in program order.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn mem_addrs(&self, idx: usize) -> &[u64] {
        &self.addrs[self.addr_off[idx] as usize..self.addr_off[idx + 1] as usize]
    }

    /// The block-execution steps.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Total dynamic instructions (control transfers included).
    pub fn num_insts(&self) -> usize {
        self.num_insts
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The dynamic instructions of step `idx` as borrowed views. The
    /// simulator's hot loop runs on this; a step's control transfer, if
    /// it emits one, is always the final instruction yielded.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn inst_refs<'p>(
        &'p self,
        idx: usize,
        program: &'p Program,
    ) -> impl Iterator<Item = DynInstRef<'p>> {
        let step = &self.steps[idx];
        let mem_addrs = self.mem_addrs(idx);
        let blk = program.function(step.block.func).block(step.block.block);
        let pc0 = program.block_pc(step.block);
        let mut mem_i = 0usize;
        let ops = blk.insts().iter().enumerate().map(move |(i, inst)| {
            let addr = if inst.opcode().is_mem() {
                let a = mem_addrs.get(mem_i).copied();
                mem_i += 1;
                a
            } else {
                None
            };
            DynInstRef {
                pc: pc0 + 4 * i as u64,
                kind: DynInstKind::Op(inst.opcode()),
                dst: inst.dst_reg(),
                srcs: inst.srcs(),
                addr,
            }
        });
        let ct = blk.terminator().emits_ct_inst().then(|| DynInstRef {
            pc: pc0 + 4 * blk.insts().len() as u64,
            kind: DynInstKind::Ct,
            dst: None,
            srcs: blk.terminator().cond_regs(),
            addr: None,
        });
        ops.chain(ct)
    }
}

/// Whether a step's terminator ends the enclosing function.
pub fn step_is_return(program: &Program, step: &TraceStep) -> bool {
    matches!(
        program.function(step.block.func).block(step.block.block).terminator(),
        Terminator::Return
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_ir::{AddrSpec, BlockId, FuncId, FunctionBuilder, Opcode, ProgramBuilder, Reg};

    fn program_with_mem() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.add_addr_gen(AddrSpec::Global { addr: 0x100 });
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let b = fb.add_block();
        fb.push_inst(b, Opcode::IMov.inst().dst(Reg::int(1)));
        fb.push_inst(b, Opcode::Load.inst().dst(Reg::int(2)).src(Reg::int(1)).mem(g));
        fb.push_inst(b, Opcode::Store.inst().src(Reg::int(2)).mem(g));
        fb.set_terminator(b, Terminator::Return);
        pb.define_function(m, fb.finish(b).unwrap());
        pb.finish(m).unwrap()
    }

    /// One execution of `program_with_mem`'s only block.
    fn one_step() -> TraceStep {
        TraceStep {
            block: BlockRef::new(FuncId::new(0), BlockId::new(0)),
            outcome: CtOutcome::Return,
            depth: 0,
        }
    }

    #[test]
    fn inst_refs_assign_addresses_in_order() {
        let p = program_with_mem();
        let trace = Trace::new(vec![one_step()], vec![0x100, 0x108], &p);
        assert_eq!(trace.num_insts(), 4); // 3 ops + return
        assert_eq!(trace.mem_addrs(0), &[0x100, 0x108]);
        let insts: Vec<_> = trace.inst_refs(0, &p).collect();
        assert_eq!(insts.len(), 4);
        assert_eq!(insts[0].addr, None);
        assert_eq!(insts[1].addr, Some(0x100));
        assert!(matches!(insts[1].kind, DynInstKind::Op(op) if op.is_load()));
        assert_eq!(insts[2].addr, Some(0x108));
        assert!(matches!(insts[2].kind, DynInstKind::Op(op) if op.is_store()));
        assert!(matches!(insts[3].kind, DynInstKind::Ct));
        // PCs advance by 4.
        assert_eq!(insts[3].pc, insts[0].pc + 12);
    }

    #[test]
    fn step_is_return_matches_terminator() {
        let p = program_with_mem();
        assert!(step_is_return(&p, &one_step()));
    }

    #[test]
    fn address_column_ranges_tile_the_steps() {
        let p = program_with_mem();
        let trace = Trace::new(vec![one_step(); 3], vec![1, 2, 3, 4, 5, 6], &p);
        assert_eq!(trace.mem_addrs(0), &[1, 2]);
        assert_eq!(trace.mem_addrs(1), &[3, 4]);
        assert_eq!(trace.mem_addrs(2), &[5, 6]);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn short_address_column_is_rejected() {
        let p = program_with_mem();
        let _ = Trace::new(vec![one_step(); 2], vec![1, 2, 3], &p);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn long_address_column_is_rejected() {
        let p = program_with_mem();
        let _ = Trace::new(vec![one_step()], vec![1, 2, 3], &p);
    }

    #[test]
    fn address_offsets_narrow_checked() {
        assert_eq!(addr_offset(u32::MAX as usize), u32::MAX);
        #[cfg(target_pointer_width = "64")]
        assert!(std::panic::catch_unwind(|| addr_offset(u32::MAX as usize + 1)).is_err());
    }
}
