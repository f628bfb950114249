//! Event/counter reconciliation: the event stream emitted through a
//! [`TraceSink`] must account for the aggregate [`SimStats`] counters
//! *exactly* — same totals, no double counting across squashed attempts,
//! no dropped events. These identities are the acceptance criteria of
//! the attribution tables: a table whose rows don't sum to the counters
//! it claims to explain is worse than no table.
//!
//! Workloads are chosen so the interesting paths are actually exercised:
//! `compress` and `go` produce control squashes and memory-dependence
//! violations at the default seed; `fpppp` stresses register forwarding.

use ms_analysis::ProgramContext;
use ms_sim::{EventLog, NullSink, SimConfig, SimEvent, SimStats, Simulator, SquashCause};
use ms_tasksel::{Selection, SelectorBuilder, Strategy};
use ms_trace::TraceGenerator;

const INSTS: usize = 30_000;
const SEED: u64 = 0x5eed;

fn select(workload: &str) -> Selection {
    let program = ms_workloads::by_name(workload).unwrap().build();
    SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(program.clone()))
}

fn run_traced(sel: &Selection, cfg: SimConfig, insts: usize) -> (SimStats, EventLog) {
    let trace = TraceGenerator::new(&sel.program, SEED).generate(insts);
    let mut log = EventLog::new();
    let stats = Simulator::new(cfg, &sel.program, &sel.partition).run_with_sink(&trace, &mut log);
    (stats, log)
}

/// Every event total in the log equals the matching `SimStats`
/// counter, for several workloads covering squashes, violations and
/// forwarding.
#[test]
fn aggregator_reconciles_with_stats() {
    let mut saw_ctrl = false;
    let mut saw_mem = false;
    for workload in ["compress", "go", "fpppp"] {
        let sel = select(workload);
        let (stats, log) = run_traced(&sel, SimConfig::four_pu(), INSTS);
        let (mut ctrl, mut mem, mut stall, mut idle, mut sends, mut arb, mut commits) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0usize);
        for ev in log.events() {
            match *ev {
                SimEvent::TaskSquash { cause: SquashCause::Control { .. }, .. } => ctrl += 1,
                SimEvent::TaskSquash { .. } => mem += 1,
                SimEvent::FwdStall { cycles, .. } => stall += cycles,
                SimEvent::PuIdle { from, to, .. } => idle += to - from,
                SimEvent::FwdSend { .. } => sends += 1,
                SimEvent::ArbConflict { .. } => arb += 1,
                SimEvent::TaskCommit { .. } => commits += 1,
                SimEvent::TaskDispatch { .. } => {}
            }
        }
        assert_eq!(ctrl, stats.ctrl_squashes, "{workload}: ctrl squash events");
        assert_eq!(mem, stats.violations, "{workload}: mem + cascade squash events = violations");
        assert_eq!(stall, stats.fwd_stall_cycles, "{workload}: fwd stall cycles");
        assert_eq!(idle, stats.pu_idle_cycles, "{workload}: pu idle cycles");
        assert_eq!(sends, stats.reg_forwards, "{workload}: fwd_send events");
        assert_eq!(arb, stats.arb_overflows, "{workload}: arb conflict events");
        assert_eq!(commits, stats.num_dyn_tasks, "{workload}: one commit per task");
        saw_ctrl |= stats.ctrl_squashes > 0;
        saw_mem |= stats.violations > 0;
    }
    assert!(saw_ctrl, "no workload exercised control squashes — test is vacuous");
    assert!(saw_mem, "no workload exercised memory violations — test is vacuous");
}

/// The log's checker accepts every real run, and its commit events
/// are the time line the span view reads, task for task and field for
/// field — the checker's invariants and the views describe one event
/// stream.
#[test]
fn check_sink_reconciles_alongside_the_aggregator() {
    for workload in ["compress", "go", "fpppp", "li"] {
        let sel = select(workload);
        let (stats, log) = run_traced(&sel, SimConfig::four_pu(), INSTS);
        let errors = log.check(&stats);
        assert!(errors.is_empty(), "{workload}: {} violations, first: {}", errors.len(), errors[0]);
        let spans = log.spans();
        let commits: Vec<_> = log
            .events()
            .iter()
            .filter_map(|ev| match *ev {
                SimEvent::TaskCommit { task, pu, dispatch, complete, retire, insts, attempts } => {
                    Some((task, pu, dispatch, complete, retire, insts, attempts))
                }
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), commits.len(), "{workload}: commit records");
        assert_eq!(spans.len(), stats.num_dyn_tasks, "{workload}: one span per task");
        for (s, &c) in spans.iter().zip(&commits) {
            assert_eq!(
                (s.task, s.pu, s.dispatch, s.complete, s.retire, s.insts, s.attempts),
                c,
                "{workload}: span and commit event of task {} differ",
                c.0
            );
        }
        let rows = log.top_squash_boundaries(usize::MAX);
        let mem: u64 = rows.iter().map(|(_, c)| c.mem + c.cascade).sum();
        let mem_events = log
            .events()
            .iter()
            .filter(|ev| {
                matches!(ev, SimEvent::TaskSquash { cause, .. }
                    if !matches!(cause, SquashCause::Control { .. }))
            })
            .count();
        assert_eq!(mem, mem_events as u64, "{workload}: mem squash records");
        let sends = log.events().iter().filter(|ev| matches!(ev, SimEvent::FwdSend { .. })).count();
        assert_eq!(sends as u64, stats.reg_forwards, "{workload}: send records");
        let committed: u64 = commits.iter().map(|c| c.5).sum();
        assert_eq!(committed, stats.total_insts, "{workload}: committed insts");
    }
}

/// The attribution tables' rows sum back to the counters they explain
/// (the acceptance criterion for `run -- trace`).
#[test]
fn attribution_tables_sum_to_counters() {
    for workload in ["compress", "go"] {
        let sel = select(workload);
        let (stats, log) = run_traced(&sel, SimConfig::four_pu(), INSTS);
        let rows = log.top_squash_boundaries(usize::MAX);
        let ctrl: u64 = rows.iter().map(|(_, c)| c.ctrl).sum();
        let mem: u64 = rows.iter().map(|(_, c)| c.mem).sum();
        let cascade: u64 = rows.iter().map(|(_, c)| c.cascade).sum();
        assert_eq!(ctrl, stats.ctrl_squashes, "{workload}: boundary table ctrl column");
        assert_eq!(mem + cascade, stats.violations, "{workload}: boundary table mem+cascade");
        let reexecuted = log
            .events()
            .iter()
            .filter(|ev| {
                matches!(
                    ev,
                    SimEvent::TaskSquash { attempt: 2.., cause: SquashCause::Memory { .. }, .. }
                )
            })
            .count();
        assert_eq!(cascade, reexecuted as u64, "{workload}: cascades are attempt >= 2 squashes");
        let arcs = log.top_stall_arcs(usize::MAX);
        let stall: u64 = arcs.iter().map(|(_, c)| c).sum();
        assert_eq!(stall, stats.fwd_stall_cycles, "{workload}: stall arc table total");
        let occupancy = log.pu_occupancy();
        assert_eq!(occupancy.len(), stats.num_pus, "{workload}: one occupancy row per PU");
        let tasks: u64 = occupancy.iter().map(|(_, n)| n).sum();
        assert_eq!(tasks as usize, stats.num_dyn_tasks, "{workload}: occupancy task column");
    }
}

/// Per-PU busy + idle intervals tile the whole run: for every PU,
/// busy cycles + idle-event cycles = total cycles (the `PuIdle` events
/// are gap-free and non-overlapping with task spans).
#[test]
fn idle_events_tile_the_timeline() {
    let sel = select("compress");
    let (stats, log) = run_traced(&sel, SimConfig::four_pu(), INSTS);
    let mut idle_per_pu = vec![0u64; stats.num_pus];
    for line in log.to_jsonl().lines().skip(1) {
        if let Some(rest) = line.strip_prefix("{\"ev\":\"pu_idle\",\"pu\":") {
            let mut nums = rest.split(|c: char| !c.is_ascii_digit()).filter(|s| !s.is_empty());
            let pu: usize = nums.next().unwrap().parse().unwrap();
            let from: u64 = nums.next().unwrap().parse().unwrap();
            let to: u64 = nums.next().unwrap().parse().unwrap();
            assert!(to > from, "empty idle interval");
            idle_per_pu[pu] += to - from;
        }
    }
    let busy = log.pu_occupancy();
    for (pu, &(busy_cycles, _)) in busy.iter().enumerate() {
        assert_eq!(
            busy_cycles + idle_per_pu[pu],
            stats.total_cycles,
            "pu {pu}: busy + idle != total cycles"
        );
    }
}

/// Attaching a sink never changes the simulation: stats from
/// `run_with_sink` are identical to the plain `run` path (zero-cost-off
/// is also zero-*effect*-on).
#[test]
fn sinks_do_not_perturb_stats() {
    for workload in ["compress", "li"] {
        let sel = select(workload);
        let trace = TraceGenerator::new(&sel.program, SEED).generate(INSTS);
        let sim = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition);
        let plain = sim.run(&trace);
        let (traced, _) = run_traced(&sel, SimConfig::four_pu(), INSTS);
        assert_eq!(plain.to_json(), traced.to_json(), "{workload}: traced run diverged");
        let mut null = NullSink;
        let nulled = sim.run_with_sink(&trace, &mut null);
        assert_eq!(plain.to_json(), nulled.to_json(), "{workload}: NullSink run diverged");
    }
}

/// The JSONL text has one header line with the schema version, then
/// exactly one line per event; every line is a self-contained object.
#[test]
fn jsonl_is_line_structured_and_versioned() {
    let sel = select("li");
    let (_, log) = run_traced(&sel, SimConfig::four_pu(), INSTS);
    let events = log.events().len();
    let text = log.to_jsonl();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        format!(
            "{{\"ev\":\"header\",\"schema_version\":{},\"format\":\"ms-sim-event-trace\"}}",
            ms_sim::TRACE_SCHEMA_VERSION
        )
    );
    assert_eq!(lines.len(), events + 1, "header + one line per event");
    for line in &lines {
        assert!(line.starts_with("{\"ev\":\"") && line.ends_with('}'), "bad line: {line}");
    }
    assert!(text.ends_with('\n'), "trailing newline so `wc -l` counts events");
}

/// A PU that never commits a task still has an occupancy row: on 16
/// PUs a 30-instruction run commits six tasks, yet every PU's busy and
/// idle cycles tile the run.
#[test]
fn occupancy_has_a_row_for_every_pu() {
    let sel = select("compress");
    let (stats, log) = run_traced(&sel, SimConfig::with_pus(16), 30);
    assert!(stats.num_dyn_tasks < 16, "every PU committed a task — test is vacuous");
    let occupancy = log.pu_occupancy();
    assert_eq!(occupancy.len(), 16);
    let mut idle = [0u64; 16];
    for ev in log.events() {
        if let SimEvent::PuIdle { pu, from, to } = *ev {
            idle[pu] += to - from;
        }
    }
    for (pu, &(busy, _)) in occupancy.iter().enumerate() {
        assert_eq!(busy + idle[pu], stats.total_cycles, "pu {pu}: busy + idle != total cycles");
    }
}
