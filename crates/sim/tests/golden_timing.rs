//! Golden timing tests: tiny programs whose steady-state cost can be
//! reasoned out by hand pin down the PU model's arithmetic (issue width,
//! functional unit latencies, dependence chains, ring forwarding, and
//! the ARB's capacity and store forwarding at their boundaries).
//!
//! Cold-start effects (instruction cache fills, predictor warmup) are
//! cancelled by measuring *marginal* cycles: the same loop at two trip
//! counts, divided by the trip difference.

use ms_analysis::ProgramContext;
use ms_ir::{
    AddrSpec, BranchBehavior, FunctionBuilder, Inst, Opcode, Program, ProgramBuilder, Reg,
    Terminator,
};
use ms_sim::{EventLog, SimConfig, SimStats, Simulator};
use ms_tasksel::{SelectorBuilder, Strategy};
use ms_trace::TraceGenerator;

/// Builds `entry → body(loop, exact trips) → exit` with the given body.
fn loop_program(body_insts: &[Inst], trips: u32) -> Program {
    let mut pb = ProgramBuilder::new();
    let m = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let body = fb.add_block();
    let exit = fb.add_block();
    for i in body_insts {
        fb.push_inst(body, i.clone());
    }
    fb.set_terminator(entry, Terminator::Jump { target: body });
    fb.set_terminator(
        body,
        Terminator::Branch {
            taken: body,
            fall: exit,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::exact_loop(trips),
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(m, fb.finish(entry).unwrap());
    pb.finish(m).unwrap()
}

fn cycles(p: &Program, cfg: SimConfig) -> u64 {
    let sel =
        SelectorBuilder::new(Strategy::BasicBlock).build().select(&ProgramContext::new(p.clone()));
    let trace = TraceGenerator::new(&sel.program, 1).generate_once(100_000);
    Simulator::new(cfg, &sel.program, &sel.partition).run(&trace).total_cycles
}

/// Marginal cycles per loop iteration on one PU, cold effects cancelled.
fn per_iteration(body: &[Inst]) -> f64 {
    let lo = cycles(&loop_program(body, 4), SimConfig::single_pu());
    let hi = cycles(&loop_program(body, 20), SimConfig::single_pu());
    (hi - lo) as f64 / 16.0
}

/// A serial multiply chain runs at one 3-cycle multiply per step.
#[test]
fn serial_multiply_chain_runs_at_latency() {
    const K: usize = 40;
    let mut body = vec![Opcode::IMov.inst().dst(Reg::int(9))];
    for _ in 0..K {
        body.push(Opcode::IMul.inst().dst(Reg::int(9)).src(Reg::int(9)).src(Reg::int(9)));
    }
    let per = per_iteration(&body);
    let lower = (3 * K) as f64;
    assert!(per >= lower, "chain of {K} 3-cycle muls cannot run at {per:.1}/iter");
    assert!(per <= lower + 25.0, "constant overhead only: {per:.1} vs {lower}");
}

/// Independent single-cycle adds are bounded by 2-wide issue.
#[test]
fn independent_adds_run_at_issue_width() {
    const K: usize = 60;
    let mut body = vec![Opcode::IMov.inst().dst(Reg::int(9))];
    for i in 0..K {
        body.push(Opcode::IAdd.inst().dst(Reg::int(10 + (i % 20) as u8)).src(Reg::int(9)));
    }
    let per = per_iteration(&body);
    let lower = (K / 2) as f64;
    assert!(per >= lower, "2-wide issue bounds {K} adds below {per:.1}");
    assert!(per <= lower + 20.0, "got {per:.1}, expected ≈{lower} + overheads");
}

/// Unpipelined divides occupy their unit for the full 12 cycles: with
/// two integer units, each extra *pair* of divides adds ≥ 12 cycles.
#[test]
fn unpipelined_divides_serialise_per_unit() {
    let mk = |n: usize| {
        let mut body = vec![Opcode::IMov.inst().dst(Reg::int(9))];
        for i in 0..n {
            body.push(Opcode::IDiv.inst().dst(Reg::int(10 + i as u8)).src(Reg::int(9)));
        }
        per_iteration(&body)
    };
    let two = mk(2);
    let six = mk(6);
    assert!(
        six >= two + 2.0 * 12.0 - 4.0,
        "6 divides ({six:.1}) vs 2 divides ({two:.1}): two more rounds of 12 cycles each"
    );
}

/// `entry → head → task → exit`, run once as basic-block tasks on four
/// PUs with `arb_entries_per_pu` ARB entries. `head` is a 200-multiply
/// chain, so `task` issues all its memory accesses while `head` is
/// still in flight; `pb` holds their address generators.
fn behind_a_long_task(
    mut pb: ProgramBuilder,
    task: Vec<Inst>,
    arb_entries_per_pu: u32,
) -> (SimStats, EventLog) {
    let m = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let head = fb.add_block();
    let body = fb.add_block();
    let exit = fb.add_block();
    fb.push_inst(head, Opcode::IMov.inst().dst(Reg::int(9)));
    for _ in 0..200 {
        fb.push_inst(head, Opcode::IMul.inst().dst(Reg::int(9)).src(Reg::int(9)));
    }
    for i in task {
        fb.push_inst(body, i);
    }
    fb.set_terminator(entry, Terminator::Jump { target: head });
    fb.set_terminator(head, Terminator::Jump { target: body });
    fb.set_terminator(body, Terminator::Jump { target: exit });
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(m, fb.finish(entry).unwrap());
    let p = pb.finish(m).unwrap();

    let sel = SelectorBuilder::new(Strategy::BasicBlock).build().select(&ProgramContext::new(p));
    let trace = TraceGenerator::new(&sel.program, 1).generate_once(10_000);
    let cfg = SimConfig { arb_entries_per_pu, ..SimConfig::four_pu() };
    let mut log = EventLog::new();
    let stats = Simulator::new(cfg, &sel.program, &sel.partition).run_with_sink(&trace, &mut log);
    (stats, log)
}

/// ARB capacity at its boundary: a task loading exactly as many
/// distinct lines as the PU has ARB entries does not overflow; one more
/// line does.
#[test]
fn arb_capacity_overflows_one_line_past_its_entries() {
    for entries in [1u32, 8, 32] {
        for lines in [entries, entries + 1] {
            let mut pb = ProgramBuilder::new();
            let g = pb.add_addr_gen(AddrSpec::Stride { base: 0x10_0000, stride: 32, len: 1 << 14 });
            let task = (0..lines)
                .map(|i| Opcode::Load.inst().dst(Reg::int(10 + (i % 8) as u8)).mem(g))
                .collect();
            let (stats, _) = behind_a_long_task(pb, task, entries);
            assert_eq!(stats.l1d, (0, u64::from(lines)), "every load misses a distinct cold line");
            assert_eq!(
                stats.arb_overflows,
                u64::from(lines > entries),
                "{lines} lines, {entries} entries"
            );
        }
    }
}

/// Intra-task store forwarding takes the *last* earlier store to the
/// address. The memory unit is reserved in program order, so a load
/// issues after every earlier store has completed and waits for none of
/// them, except when an ARB overflow holds the stores back to the
/// predecessor's retire. This pins that case with one ARB entry: the
/// task behind the long one stores to X (one line, no stall), to Y on
/// the next line (two lines, overflow: issue moves to `head_free`, the
/// predecessor's retire + 1, completing at `head_free + 1`), to X again
/// (held the same way), then loads X and runs a `K`-multiply chain on
/// the loaded value. Loading from the second store to X, the load
/// issues at `head_free + 1` and completes at `head_free + 2`, so the
/// task completes at `head_free + 2 + 3K`; loading from the first, it
/// would complete a cycle earlier.
#[test]
fn a_load_waits_for_the_last_store_to_its_address() {
    const K: u64 = 4;
    let mut pb = ProgramBuilder::new();
    let x = pb.add_addr_gen(AddrSpec::Global { addr: 0x4000 });
    let y = pb.add_addr_gen(AddrSpec::Global { addr: 0x4020 });
    let mut task: Vec<Inst> =
        [x, y, x].map(|g| Opcode::Store.inst().src(Reg::int(20)).mem(g)).into();
    task.push(Opcode::Load.inst().dst(Reg::int(10)).mem(x));
    for _ in 0..K {
        task.push(Opcode::IMul.inst().dst(Reg::int(10)).src(Reg::int(10)));
    }
    let (stats, log) = behind_a_long_task(pb, task, 1);
    assert_eq!(stats.arb_overflows, 1, "only the store task overflows");
    let spans = log.spans();
    // The store task: three stores, the load, K multiplies and the jump.
    let i = spans.iter().position(|t| t.insts == K + 5).expect("the store task");
    let head_free = spans[i - 1].retire + 1;
    assert_eq!(spans[i].complete, head_free + 2 + 3 * K, "the load forwards the second store");
}

/// Inter-task register forwarding: a consumer whose chain *starts* from
/// the producer's late value completes later than one computing on an
/// architecturally-ready register, by roughly the producer's tail.
#[test]
fn ring_forwarding_delays_dependent_consumers() {
    // Producer block a (10-multiply chain into r9, last write late) and
    // consumer block b (20-multiply chain seeded from r9 or from an
    // architecturally-ready register), wrapped in an outer loop so the
    // marginal iteration is measured with warm caches.
    let build = |dependent: bool, trips: u32| {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let a = fb.add_block();
        let b = fb.add_block();
        let exit = fb.add_block();
        fb.push_inst(a, Opcode::IMov.inst().dst(Reg::int(9)));
        for _ in 0..10 {
            fb.push_inst(a, Opcode::IMul.inst().dst(Reg::int(9)).src(Reg::int(9)));
        }
        let seed = if dependent { Reg::int(9) } else { Reg::int(20) };
        fb.push_inst(b, Opcode::IMul.inst().dst(Reg::int(10)).src(seed));
        for _ in 0..19 {
            fb.push_inst(b, Opcode::IMul.inst().dst(Reg::int(10)).src(Reg::int(10)));
        }
        fb.set_terminator(entry, Terminator::Jump { target: a });
        fb.set_terminator(a, Terminator::Jump { target: b });
        fb.set_terminator(
            b,
            Terminator::Branch {
                taken: a,
                fall: exit,
                cond: vec![Reg::int(10)],
                behavior: BranchBehavior::exact_loop(trips),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        pb.define_function(m, fb.finish(entry).unwrap());
        pb.finish(m).unwrap()
    };
    // Pipelining and late dispatch absorb most of the added latency in
    // steady state, so assert on the mechanism itself: the dependent
    // consumer accumulates inter-task communication cycles, the
    // independent one none, and its spans never get *shorter*.
    let run = |dependent: bool| {
        let p = build(dependent, 10);
        let sel = SelectorBuilder::new(Strategy::BasicBlock)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let trace = TraceGenerator::new(&sel.program, 1).generate_once(10_000);
        let mut log = EventLog::new();
        let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition)
            .run_with_sink(&trace, &mut log);
        // Consumer tasks carry 21 instructions (20 muls + branch).
        let spans: Vec<u64> =
            log.spans().iter().filter(|t| t.insts == 21).map(|t| t.complete - t.dispatch).collect();
        assert!(spans.len() >= 8, "expected consumer tasks");
        (stats, spans.iter().sum::<u64>() as f64 / spans.len() as f64)
    };
    let (dep_stats, dep_span) = run(true);
    let (indep_stats, indep_span) = run(false);
    assert_eq!(
        indep_stats.breakdown.inter_comm, 0,
        "independent consumer must never wait on the ring"
    );
    assert!(
        dep_stats.breakdown.inter_comm > 0,
        "dependent consumer must wait on forwarded r9 at least once"
    );
    assert!(
        dep_span >= indep_span,
        "dependent spans ({dep_span:.1}) must not beat independent ({indep_span:.1})"
    );
}

/// Loop-carried forwarding across PUs: iterations pipeline around the
/// ring at close to the carried chain latency, far below the per-task
/// cost a single PU pays.
#[test]
fn cross_pu_loop_pipeline_beats_single_pu() {
    let body = vec![Opcode::IMul.inst().dst(Reg::int(1)).src(Reg::int(1)).src(Reg::int(1))];
    let p = loop_program(&body, 200);
    let sel =
        SelectorBuilder::new(Strategy::BasicBlock).build().select(&ProgramContext::new(p.clone()));
    let trace = TraceGenerator::new(&sel.program, 1).generate_once(10_000);
    let one = Simulator::new(SimConfig::single_pu(), &sel.program, &sel.partition).run(&trace);
    let four = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition).run(&trace);
    let per_iter_4 = four.total_cycles as f64 / 200.0;
    let per_iter_1 = one.total_cycles as f64 / 200.0;
    assert!(per_iter_4 < per_iter_1, "pipelining must help: {per_iter_4:.1} vs {per_iter_1:.1}");
    // The carried chain is one 3-cycle multiply plus a ring hop.
    assert!(per_iter_4 <= 8.0, "per-iteration cost too high: {per_iter_4:.1}");
    assert!(per_iter_1 >= 8.0, "a single PU pays full per-task overheads: {per_iter_1:.1}");
}
