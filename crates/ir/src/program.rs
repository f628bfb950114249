//! Functions, programs and instruction address layout.

use std::collections::VecDeque;
use std::fmt;

use crate::block::{BasicBlock, BranchBehavior, Terminator};
use crate::error::BuildError;
use crate::inst::MAX_SRCS;
use crate::mem::AddrSpec;

/// Identifier of a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates an identifier from a raw index.
    pub fn new(index: u32) -> Self {
        BlockId(index)
    }

    /// The raw index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Identifier of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(u32);

impl FuncId {
    /// Creates an identifier from a raw index.
    pub fn new(index: u32) -> Self {
        FuncId(index)
    }

    /// The raw index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// A (function, block) pair: the global name of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockRef {
    /// The function the block belongs to.
    pub func: FuncId,
    /// The block within that function.
    pub block: BlockId,
}

impl BlockRef {
    /// Creates a block reference.
    pub fn new(func: FuncId, block: BlockId) -> Self {
        BlockRef { func, block }
    }
}

impl fmt::Display for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.func, self.block)
    }
}

/// A function: a control flow graph of basic blocks with a single entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    name: String,
    blocks: Vec<BasicBlock>,
    entry: BlockId,
    preds: Vec<Vec<BlockId>>,
}

impl Function {
    /// Assembles a function from parts, computing predecessor lists.
    ///
    /// Prefer [`FunctionBuilder`](crate::FunctionBuilder); this is the
    /// low-level constructor it uses.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the entry or any edge target is out of
    /// range, if a `Switch` has mismatched target/weight lists, or if a
    /// terminator reads more than [`MAX_SRCS`] condition registers.
    pub fn from_parts(
        name: impl Into<String>,
        blocks: Vec<BasicBlock>,
        entry: BlockId,
    ) -> Result<Self, BuildError> {
        let name = name.into();
        let n = blocks.len();
        if entry.index() >= n {
            return Err(BuildError::BadBlockId { func: name, block: entry });
        }
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for (i, blk) in blocks.iter().enumerate() {
            if let Terminator::Switch { targets, weights, .. } = blk.terminator() {
                if targets.is_empty() || targets.len() != weights.len() {
                    return Err(BuildError::BadSwitch {
                        func: name,
                        block: BlockId::new(i as u32),
                    });
                }
            }
            if blk.terminator().cond_regs().len() > MAX_SRCS {
                return Err(BuildError::TooManyCondRegs {
                    func: name,
                    block: BlockId::new(i as u32),
                });
            }
            if let Terminator::Branch { behavior: BranchBehavior::Taken(p), .. } = blk.terminator()
            {
                if !(0.0..=1.0).contains(p) {
                    return Err(BuildError::BadProbability {
                        func: name,
                        block: BlockId::new(i as u32),
                    });
                }
            }
            for s in blk.successors() {
                if s.index() >= n {
                    return Err(BuildError::BadBlockId { func: name, block: s });
                }
                let from = BlockId::new(i as u32);
                if !preds[s.index()].contains(&from) {
                    preds[s.index()].push(from);
                }
            }
        }
        Ok(Function { name, blocks, entry, preds })
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// All block ids, in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId::new)
    }

    /// Accesses a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// CFG successors of `id`.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        self.blocks[id.index()].successors()
    }

    /// CFG predecessors of `id` (deduplicated).
    pub fn predecessors(&self, id: BlockId) -> &[BlockId] {
        &self.preds[id.index()]
    }

    /// Total static instruction count (terminators included when they emit
    /// a control transfer).
    pub fn static_size(&self) -> usize {
        self.blocks.iter().map(BasicBlock::len_with_ct).sum()
    }

    /// Blocks reachable from the entry, in breadth-first order.
    pub fn reachable_blocks(&self) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut order = Vec::new();
        let mut q = VecDeque::new();
        seen[self.entry.index()] = true;
        q.push_back(self.entry);
        while let Some(b) = q.pop_front() {
            order.push(b);
            for s in self.successors(b) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    q.push_back(s);
                }
            }
        }
        order
    }
}

/// A whole program: functions, an entry function, and the table of
/// [address generators](AddrSpec) its memory instructions reference.
///
/// Programs are immutable once built; every consumer (analyses, task
/// selection, tracing, simulation) shares one by reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    functions: Vec<Function>,
    entry: FuncId,
    addr_gens: Vec<AddrSpec>,
    /// pc of the first instruction of each block: `block_pc[f][b]`.
    block_pc: Vec<Vec<u64>>,
}

impl Program {
    pub(crate) fn from_parts(
        functions: Vec<Function>,
        entry: FuncId,
        addr_gens: Vec<AddrSpec>,
    ) -> Result<Self, BuildError> {
        if entry.index() >= functions.len() {
            return Err(BuildError::BadFuncId { func: entry });
        }
        // Lay out instruction addresses: functions back to back, blocks in
        // index order, 4 bytes per instruction, terminator included.
        let mut block_pc = Vec::with_capacity(functions.len());
        let mut pc = 0x1000u64;
        for f in &functions {
            let mut pcs = Vec::with_capacity(f.num_blocks());
            for b in f.block_ids() {
                pcs.push(pc);
                pc += 4 * f.block(b).len_with_ct().max(1) as u64;
            }
            block_pc.push(pcs);
        }
        let prog = Program { functions, entry, addr_gens, block_pc };
        prog.validate()?;
        Ok(prog)
    }

    /// The entry function.
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// Number of functions.
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    /// All function ids, in index order.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.functions.len() as u32).map(FuncId::new)
    }

    /// Accesses a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// The address generator table.
    pub fn addr_gens(&self) -> &[AddrSpec] {
        &self.addr_gens
    }

    /// The byte address ("PC") of the first instruction of a block.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    pub fn block_pc(&self, blk: BlockRef) -> u64 {
        self.block_pc[blk.func.index()][blk.block.index()]
    }

    /// The PC of instruction `idx` within a block (the terminator's
    /// control transfer sits right after the last straight-line
    /// instruction).
    pub fn inst_pc(&self, blk: BlockRef, idx: usize) -> u64 {
        self.block_pc(blk) + 4 * idx as u64
    }

    /// Total static instruction count across all functions.
    pub fn static_size(&self) -> usize {
        self.functions.iter().map(Function::static_size).sum()
    }

    /// Checks structural invariants beyond what construction enforced:
    /// call targets exist, memory instructions reference valid address
    /// generators, entry function's reachable exits are `Halt`-compatible.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), BuildError> {
        for (fi, f) in self.functions.iter().enumerate() {
            let fid = FuncId::new(fi as u32);
            for b in f.block_ids() {
                let blk = f.block(b);
                if let Terminator::Call { callee, .. } = blk.terminator() {
                    if callee.index() >= self.functions.len() {
                        return Err(BuildError::BadFuncId { func: *callee });
                    }
                }
                for inst in blk.insts() {
                    if let Some(g) = inst.mem_ref() {
                        if g.index() >= self.addr_gens.len() {
                            return Err(BuildError::BadAddrGen { func: fid, block: b, gen: g });
                        }
                    } else if inst.opcode().is_mem() {
                        return Err(BuildError::MissingAddrGen { func: fid, block: b });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::inst::Opcode;
    use crate::mem::AddrGenId;
    use crate::reg::Reg;

    fn diamond() -> Function {
        // 0 -> {1,2} -> 3 -> return
        let mut fb = FunctionBuilder::new("diamond");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        let b3 = fb.add_block();
        fb.push_inst(b0, Opcode::IAdd.inst().dst(Reg::int(1)));
        fb.set_terminator(
            b0,
            Terminator::Branch {
                taken: b1,
                fall: b2,
                cond: vec![Reg::int(1)],
                behavior: BranchBehavior::Taken(0.5),
            },
        );
        fb.set_terminator(b1, Terminator::Jump { target: b3 });
        fb.set_terminator(b2, Terminator::Jump { target: b3 });
        fb.set_terminator(b3, Terminator::Return);
        fb.finish(b0).unwrap()
    }

    #[test]
    fn predecessors_are_computed() {
        let f = diamond();
        assert_eq!(f.predecessors(BlockId::new(3)), &[BlockId::new(1), BlockId::new(2)]);
        assert_eq!(f.predecessors(BlockId::new(0)), &[] as &[BlockId]);
    }

    #[test]
    fn reachable_blocks_is_breadth_first_from_entry() {
        let f = diamond();
        let r = f.reachable_blocks();
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], BlockId::new(0));
    }

    #[test]
    fn edge_targets_are_validated() {
        let blk = BasicBlock::new(vec![], Terminator::Jump { target: BlockId::new(9) });
        let err = Function::from_parts("bad", vec![blk], BlockId::new(0)).unwrap_err();
        assert!(matches!(err, BuildError::BadBlockId { .. }));
    }

    #[test]
    fn branch_probability_is_validated() {
        let blk = BasicBlock::new(
            vec![],
            Terminator::Branch {
                taken: BlockId::new(0),
                fall: BlockId::new(0),
                cond: vec![],
                behavior: BranchBehavior::Taken(1.5),
            },
        );
        let err = Function::from_parts("bad", vec![blk], BlockId::new(0)).unwrap_err();
        assert!(matches!(err, BuildError::BadProbability { .. }));
    }

    /// A branch or switch reads at most three registers, as an
    /// instruction does: a fourth is a typed error, never a panic.
    #[test]
    fn terminators_read_at_most_three_registers() {
        let regs = |n: u8| (1..=n).map(Reg::int).collect::<Vec<_>>();
        let terminators = |cond: Vec<Reg>| {
            [
                Terminator::Branch {
                    taken: BlockId::new(1),
                    fall: BlockId::new(1),
                    cond: cond.clone(),
                    behavior: BranchBehavior::Taken(0.5),
                },
                Terminator::Switch { targets: vec![BlockId::new(1)], weights: vec![1], cond },
            ]
        };
        for (n, ok) in [(3, true), (4, false)] {
            for term in terminators(regs(n)) {
                let mut fb = FunctionBuilder::new("main");
                let b0 = fb.add_block();
                let b1 = fb.add_block();
                fb.set_terminator(b0, term.clone());
                fb.set_terminator(b1, Terminator::Halt);
                match fb.finish(b0) {
                    Ok(f) => {
                        assert!(ok, "{n} registers accepted: {term:?}");
                        let mut pb = ProgramBuilder::new();
                        let m = pb.declare_function("main");
                        pb.define_function(m, f);
                        pb.finish(m).unwrap();
                    }
                    Err(e) => {
                        assert!(!ok, "{n} registers rejected: {e}");
                        assert_eq!(
                            e,
                            BuildError::TooManyCondRegs { func: "main".into(), block: b0 }
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pc_layout_is_disjoint_and_ordered() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let f = diamond();
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        fb.push_inst(b0, Opcode::IAdd.inst().dst(Reg::int(1)));
        fb.set_terminator(b0, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let d = pb.declare_function("diamond");
        pb.define_function(d, f);
        let p = pb.finish(m).unwrap();
        let pc_main = p.block_pc(BlockRef::new(m, BlockId::new(0)));
        let pc_d0 = p.block_pc(BlockRef::new(d, BlockId::new(0)));
        assert!(pc_d0 > pc_main);
        // Instruction PCs advance by 4 within a block.
        assert_eq!(p.inst_pc(BlockRef::new(d, BlockId::new(0)), 1), pc_d0 + 4);
    }

    #[test]
    fn mem_inst_without_generator_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        fb.push_inst(b0, Opcode::Load.inst().dst(Reg::int(1)));
        fb.set_terminator(b0, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        assert!(matches!(pb.finish(m), Err(BuildError::MissingAddrGen { .. })));
    }

    #[test]
    fn mem_inst_with_out_of_range_generator_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        fb.push_inst(b0, Opcode::Load.inst().dst(Reg::int(1)).mem(AddrGenId::new(5)));
        fb.set_terminator(b0, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        assert!(matches!(pb.finish(m), Err(BuildError::BadAddrGen { .. })));
    }
}
