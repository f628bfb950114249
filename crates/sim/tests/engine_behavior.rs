//! Targeted behavioural tests of engine mechanisms: per-task time lines,
//! ARB capacity, dead register filtering, and squash accounting.

use ms_analysis::ProgramContext;
use ms_ir::{
    AddrSpec, BranchBehavior, FunctionBuilder, Opcode, Program, ProgramBuilder, Reg, Terminator,
};
use ms_sim::{EventLog, SimConfig, Simulator};
use ms_tasksel::{SelectorBuilder, Strategy};
use ms_trace::TraceGenerator;

fn loop_program(body: usize, trips: u32, mem: Option<(u64, u64)>) -> Program {
    let mut pb = ProgramBuilder::new();
    let gen = mem.map(|(base, len)| pb.add_addr_gen(AddrSpec::Stride { base, stride: 8, len }));
    let m = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let blk = fb.add_block();
    let exit = fb.add_block();
    for i in 0..body {
        if let (Some(g), true) = (gen, i % 2 == 0) {
            fb.push_inst(blk, Opcode::Load.inst().dst(Reg::int(2 + (i % 8) as u8)).mem(g));
        } else {
            fb.push_inst(
                blk,
                Opcode::IAdd.inst().dst(Reg::int(2 + (i % 8) as u8)).src(Reg::int(2)),
            );
        }
    }
    fb.set_terminator(entry, Terminator::Jump { target: blk });
    fb.set_terminator(
        blk,
        Terminator::Branch {
            taken: blk,
            fall: exit,
            cond: vec![Reg::int(2)],
            behavior: BranchBehavior::Loop { avg_trips: trips, jitter: 0 },
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(m, fb.finish(entry).unwrap());
    pb.finish(m).unwrap()
}

#[test]
fn timeline_is_well_ordered() {
    let p = loop_program(12, 20, None);
    let sel = SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(p.clone()));
    let trace = TraceGenerator::new(&sel.program, 5).generate(5_000);
    let mut log = EventLog::new();
    let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition)
        .run_with_sink(&trace, &mut log);
    let timeline = log.spans();

    assert_eq!(timeline.len(), stats.num_dyn_tasks);
    let mut prev_dispatch = 0;
    let mut prev_retire = 0;
    let total_insts: u64 = timeline.iter().map(|t| t.insts).sum();
    assert_eq!(total_insts, stats.total_insts);
    for (i, t) in timeline.iter().enumerate() {
        assert!(t.dispatch <= t.complete, "task {i}: dispatch after complete");
        assert!(t.complete <= t.retire, "task {i}: complete after retire");
        assert!(t.dispatch > prev_dispatch || i == 0, "dispatch order must be strict");
        assert!(t.retire > prev_retire || i == 0, "retire order must be strict");
        assert_eq!(t.pu, i % 4, "round-robin PU assignment");
        assert_eq!(t.task, i, "spans come in dynamic task order");
        assert!(t.attempts >= 1);
        prev_dispatch = t.dispatch;
        prev_retire = t.retire;
    }
    assert_eq!(timeline.last().unwrap().retire, stats.total_cycles);
}

#[test]
fn arb_overflow_fires_on_huge_memory_footprints() {
    // One loop body with ~40 loads striding 64 B apart: > 32 distinct
    // lines per task once the control flow heuristic merges iterations…
    // actually a single block of 80 insts with every other one a load
    // touching a new line.
    let mut pb = ProgramBuilder::new();
    let g = pb.add_addr_gen(AddrSpec::Stride { base: 0x10_0000, stride: 64, len: 1 << 14 });
    let m = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let blk = fb.add_block();
    let exit = fb.add_block();
    for i in 0..80 {
        if i % 2 == 0 {
            fb.push_inst(blk, Opcode::Load.inst().dst(Reg::int(2 + (i % 8) as u8)).mem(g));
        } else {
            fb.push_inst(blk, Opcode::IAdd.inst().dst(Reg::int(2)).src(Reg::int(2)));
        }
    }
    fb.set_terminator(entry, Terminator::Jump { target: blk });
    fb.set_terminator(
        blk,
        Terminator::Branch {
            taken: blk,
            fall: exit,
            cond: vec![Reg::int(2)],
            behavior: BranchBehavior::Loop { avg_trips: 30, jitter: 0 },
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(m, fb.finish(entry).unwrap());
    let p = pb.finish(m).unwrap();

    let sel =
        SelectorBuilder::new(Strategy::BasicBlock).build().select(&ProgramContext::new(p.clone()));
    let trace = TraceGenerator::new(&sel.program, 1).generate(8_000);
    let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition).run(&trace);
    // 40 loads × 64 B stride = 40 distinct 32 B lines > 32 ARB entries.
    assert!(stats.arb_overflows > 0, "expected ARB overflows, got none");
}

#[test]
fn dead_reg_analysis_only_removes_forwards() {
    let p = loop_program(16, 25, Some((0x2000, 64)));
    let sel = SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(p.clone()));
    let trace = TraceGenerator::new(&sel.program, 9).generate(6_000);
    let dead = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition).run(&trace);
    let naive = Simulator::new(
        SimConfig::four_pu().without_dead_reg_analysis(),
        &sel.program,
        &sel.partition,
    )
    .run(&trace);
    assert!(dead.reg_forwards <= naive.reg_forwards);
    assert_eq!(dead.total_insts, naive.total_insts);
    // Fewer values on the ring can only help (or not hurt) timing.
    assert!(dead.total_cycles <= naive.total_cycles + naive.total_cycles / 20);
}

#[test]
fn squashed_work_is_accounted() {
    // Conflicting global: store late, load early in every iteration.
    let mut pb = ProgramBuilder::new();
    let g = pb.add_addr_gen(AddrSpec::Global { addr: 0x4000 });
    let m = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let blk = fb.add_block();
    let exit = fb.add_block();
    fb.push_inst(blk, Opcode::Load.inst().dst(Reg::int(2)).mem(g));
    for _ in 0..10 {
        fb.push_inst(blk, Opcode::IAdd.inst().dst(Reg::int(3)).src(Reg::int(2)));
    }
    fb.push_inst(blk, Opcode::Store.inst().src(Reg::int(3)).mem(g));
    fb.set_terminator(entry, Terminator::Jump { target: blk });
    fb.set_terminator(
        blk,
        Terminator::Branch {
            taken: blk,
            fall: exit,
            cond: vec![Reg::int(3)],
            behavior: BranchBehavior::Loop { avg_trips: 50, jitter: 0 },
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(m, fb.finish(entry).unwrap());
    let p = pb.finish(m).unwrap();

    let sel =
        SelectorBuilder::new(Strategy::BasicBlock).build().select(&ProgramContext::new(p.clone()));
    let trace = TraceGenerator::new(&sel.program, 2).generate(6_000);
    let mut log = EventLog::new();
    let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition)
        .run_with_sink(&trace, &mut log);
    assert!(stats.violations > 0);
    assert!(stats.squashed_insts > 0);
    assert!(stats.breakdown.mem_misspec > 0);
    // The squashed tasks show attempts > 1 in the time line.
    assert!(log.spans().iter().any(|t| t.attempts > 1));
    // But correct-path retirement is unaffected.
    assert_eq!(stats.total_insts, trace.num_insts() as u64);
}

#[test]
fn cache_counters_accumulate() {
    let p = loop_program(16, 25, Some((0x8000, 4096)));
    let sel = SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(p.clone()));
    let trace = TraceGenerator::new(&sel.program, 4).generate(10_000);
    let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition).run(&trace);
    let (h, m) = stats.l1d;
    assert!(h + m > 0, "loads must touch the D-cache");
    assert!(m > 0, "a 32 KiB stream must miss a cold 64 KiB L1 at least once");
    let (ih, im) = stats.l1i;
    assert!(ih > 0 && im > 0, "instruction fetch must touch the I-cache");
    assert!(stats.l1d_hit_rate() > 0.5, "strided loads mostly hit after the cold pass");
}
