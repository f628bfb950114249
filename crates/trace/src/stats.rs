//! Measured statistics over traces.

use ms_analysis::Profile;
use ms_ir::Program;

use crate::step::{CtOutcome, Trace};

/// Measures an execution [`Profile`] from a trace — the dynamic analogue
/// of [`Profile::estimate`], used to validate the static estimator and to
/// drive profile-guided selection from real runs.
pub fn measure_profile(trace: &Trace, program: &Program) -> Profile {
    let mut block_counts: Vec<Vec<f64>> =
        program.func_ids().map(|f| vec![0.0; program.function(f).num_blocks()]).collect();
    let mut invocations: Vec<f64> = vec![0.0; program.num_functions()];
    // Dynamic size per invocation including callees: every instruction
    // counts toward all active frames.
    let mut size_totals: Vec<f64> = vec![0.0; program.num_functions()];
    let mut active: Vec<usize> = Vec::new(); // stack of func indices

    invocations[program.entry().index()] += 1.0;
    active.push(program.entry().index());
    let mut prev_depth = 0u32;
    for (i, step) in trace.steps().iter().enumerate() {
        // Maintain the frame stack from depth changes.
        if step.depth > prev_depth {
            // Entered a callee (depth grows by exactly 1 per call).
            invocations[step.block.func.index()] += 1.0;
            active.push(step.block.func.index());
        } else if step.depth < prev_depth {
            for _ in 0..(prev_depth - step.depth) {
                active.pop();
            }
        }
        prev_depth = step.depth;
        if matches!(step.outcome, CtOutcome::Halt) && i + 1 < trace.steps().len() {
            // Restart: a fresh activation of the entry function.
            invocations[program.entry().index()] += 1.0;
            active.clear();
            active.push(program.entry().index());
            prev_depth = 0;
        }

        block_counts[step.block.func.index()][step.block.block.index()] += 1.0;
        let insts = step.num_insts(program) as f64;
        for &f in &active {
            size_totals[f] += insts;
        }
    }

    let nf = program.num_functions();
    let mut block_freq = Vec::with_capacity(nf);
    let mut dyn_size = Vec::with_capacity(nf);
    for f in 0..nf {
        let inv = invocations[f].max(1.0);
        block_freq.push(block_counts[f].iter().map(|c| c / inv).collect());
        dyn_size.push(size_totals[f] / inv);
    }
    Profile::from_raw(block_freq, invocations, dyn_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;
    use ms_ir::{
        BlockRef, BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator,
    };

    fn looped_call_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let leaf = pb.declare_function("leaf");
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let callb = fb.add_block();
        let latch = fb.add_block();
        let exit = fb.add_block();
        fb.set_terminator(entry, Terminator::Jump { target: callb });
        fb.set_terminator(callb, Terminator::Call { callee: leaf, ret_to: latch });
        fb.set_terminator(
            latch,
            Terminator::Branch {
                taken: callb,
                fall: exit,
                cond: vec![],
                behavior: BranchBehavior::exact_loop(10),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        pb.define_function(m, fb.finish(entry).unwrap());
        let mut fb = FunctionBuilder::new("leaf");
        let l0 = fb.add_block();
        for _ in 0..5 {
            fb.push_inst(l0, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
        }
        fb.set_terminator(l0, Terminator::Return);
        pb.define_function(leaf, fb.finish(l0).unwrap());
        pb.finish(m).unwrap()
    }

    #[test]
    fn measured_profile_matches_static_estimate() {
        let p = looped_call_program();
        let trace = TraceGenerator::new(&p, 1).generate(2_000);
        let measured = measure_profile(&trace, &p);
        let estimated = ms_analysis::Profile::estimate(&p);
        let leaf = ms_ir::FuncId::new(1);
        // Leaf invocations per main invocation: 10.
        let ratio = measured.func_invocations(leaf) / measured.func_invocations(p.entry());
        assert!((ratio - 10.0).abs() < 0.5, "ratio {ratio}");
        // Dynamic size of leaf: 5 + return = 6 in both.
        assert!((measured.func_dynamic_size(leaf) - 6.0).abs() < 1e-9);
        assert!((estimated.func_dynamic_size(leaf) - 6.0).abs() < 1e-6);
        // Per-invocation block frequency of the call block ≈ 10.
        let callb = BlockRef::new(p.entry(), ms_ir::BlockId::new(1));
        assert!((measured.block_freq(callb) - estimated.block_freq(callb)).abs() < 0.5);
    }
}
