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
use ms_sim::{
    CheckSink, JsonlSink, NullSink, SimConfig, SimStats, Simulator, Tee, TraceAggregator,
};
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

fn run_traced(sel: &Selection, cfg: SimConfig) -> (SimStats, TraceAggregator, JsonlSink) {
    let trace = TraceGenerator::new(&sel.program, SEED).generate(INSTS);
    let mut jsonl = JsonlSink::new();
    let mut agg = TraceAggregator::new();
    let stats = Simulator::new(cfg, &sel.program, &sel.partition)
        .run_with_sink(&trace, &mut Tee::new(&mut jsonl, &mut agg));
    (stats, agg, jsonl)
}

/// Every aggregator counter equals the matching `SimStats` counter, for
/// several workloads covering squashes, violations and forwarding.
#[test]
fn aggregator_reconciles_with_stats() {
    let mut saw_ctrl = false;
    let mut saw_mem = false;
    for workload in ["compress", "go", "fpppp"] {
        let sel = select(workload);
        let (stats, agg, _) = run_traced(&sel, SimConfig::four_pu());
        assert_eq!(agg.ctrl_squashes, stats.ctrl_squashes, "{workload}: ctrl squash events");
        assert_eq!(
            agg.mem_squashes + agg.cascade_squashes,
            stats.violations,
            "{workload}: mem + cascade squash events = violations"
        );
        assert_eq!(agg.fwd_stall_cycles, stats.fwd_stall_cycles, "{workload}: fwd stall cycles");
        assert_eq!(agg.idle_cycles, stats.pu_idle_cycles, "{workload}: pu idle cycles");
        assert_eq!(agg.fwd_sends, stats.reg_forwards, "{workload}: fwd_send events");
        assert_eq!(agg.arb_conflicts, stats.arb_overflows, "{workload}: arb conflict events");
        assert_eq!(agg.spans.len(), stats.num_dyn_tasks, "{workload}: one commit per task");
        assert_eq!(
            agg.squashes.len() as u64,
            stats.ctrl_squashes + stats.violations,
            "{workload}: one squash record per squash"
        );
        saw_ctrl |= stats.ctrl_squashes > 0;
        saw_mem |= stats.violations > 0;
    }
    assert!(saw_ctrl, "no workload exercised control squashes — test is vacuous");
    assert!(saw_mem, "no workload exercised memory violations — test is vacuous");
}

/// The checking sink accepts every real run while teeing into the
/// aggregator, and both reconcile against the same `SimStats` — the
/// checker's invariants and the aggregator's counters describe one
/// event stream.
#[test]
fn check_sink_reconciles_alongside_the_aggregator() {
    for workload in ["compress", "go", "fpppp", "li"] {
        let sel = select(workload);
        let trace = TraceGenerator::new(&sel.program, SEED).generate(INSTS);
        let mut check = CheckSink::new();
        let mut agg = TraceAggregator::new();
        let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition)
            .run_with_sink(&trace, &mut Tee::new(&mut check, &mut agg));
        let errors = check.finish(&stats);
        assert!(errors.is_empty(), "{workload}: {} violations, first: {}", errors.len(), errors[0]);
        // The two sinks agree with the stats — and therefore each other.
        // The aggregator's time line is the checker's commit record,
        // task for task and field for field.
        assert_eq!(agg.spans.len(), check.commits().len(), "{workload}: commit records");
        assert_eq!(agg.spans.len(), stats.num_dyn_tasks, "{workload}: one span per task");
        for (s, c) in agg.spans.iter().zip(check.commits()) {
            assert_eq!(
                (s.task, s.pu, s.dispatch, s.complete, s.retire, s.insts, s.attempts),
                (c.task, c.pu, c.dispatch, c.complete, c.retire, c.insts, c.attempts),
                "{workload}: span and commit record of task {} differ",
                c.task
            );
        }
        assert_eq!(
            agg.mem_squashes + agg.cascade_squashes,
            check.mem_squashes().len() as u64,
            "{workload}: mem squash records"
        );
        assert_eq!(agg.fwd_sends, check.sends().len() as u64, "{workload}: send records");
        let committed: u64 = check.commits().iter().map(|c| c.insts).sum();
        assert_eq!(committed, stats.total_insts, "{workload}: committed insts");
    }
}

/// The attribution tables' rows sum back to the counters they explain
/// (the acceptance criterion for `run -- trace`).
#[test]
fn attribution_tables_sum_to_counters() {
    for workload in ["compress", "go"] {
        let sel = select(workload);
        let (stats, agg, _) = run_traced(&sel, SimConfig::four_pu());
        let rows = agg.top_squash_boundaries(usize::MAX);
        let ctrl: u64 = rows.iter().map(|(_, c)| c.ctrl).sum();
        let mem: u64 = rows.iter().map(|(_, c)| c.mem).sum();
        let cascade: u64 = rows.iter().map(|(_, c)| c.cascade).sum();
        assert_eq!(ctrl, stats.ctrl_squashes, "{workload}: boundary table ctrl column");
        assert_eq!(mem + cascade, stats.violations, "{workload}: boundary table mem+cascade");
        let arcs = agg.top_stall_arcs(usize::MAX);
        let stall: u64 = arcs.iter().map(|(_, c)| c).sum();
        assert_eq!(stall, stats.fwd_stall_cycles, "{workload}: stall arc table total");
        let occupancy = agg.pu_occupancy();
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
    let (stats, agg, jsonl) = run_traced(&sel, SimConfig::four_pu());
    let mut idle_per_pu = vec![0u64; stats.num_pus];
    for line in jsonl.into_string().lines().skip(1) {
        if let Some(rest) = line.strip_prefix("{\"ev\":\"pu_idle\",\"pu\":") {
            let mut nums = rest.split(|c: char| !c.is_ascii_digit()).filter(|s| !s.is_empty());
            let pu: usize = nums.next().unwrap().parse().unwrap();
            let from: u64 = nums.next().unwrap().parse().unwrap();
            let to: u64 = nums.next().unwrap().parse().unwrap();
            assert!(to > from, "empty idle interval");
            idle_per_pu[pu] += to - from;
        }
    }
    let busy = agg.pu_occupancy();
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
        let (traced, _, _) = run_traced(&sel, SimConfig::four_pu());
        assert_eq!(plain.to_json(), traced.to_json(), "{workload}: traced run diverged");
        let mut null = NullSink;
        let nulled = sim.run_with_sink(&trace, &mut null);
        assert_eq!(plain.to_json(), nulled.to_json(), "{workload}: NullSink run diverged");
    }
}

/// The JSONL sink writes one header line with the schema version, then
/// exactly one line per event; every line is a self-contained object.
#[test]
fn jsonl_is_line_structured_and_versioned() {
    let sel = select("li");
    let (_, _, jsonl) = run_traced(&sel, SimConfig::four_pu());
    let events = jsonl.events();
    let text = jsonl.into_string();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        format!(
            "{{\"ev\":\"header\",\"schema_version\":{},\"format\":\"ms-sim-event-trace\"}}",
            ms_sim::TRACE_SCHEMA_VERSION
        )
    );
    assert_eq!(lines.len() as u64, events + 1, "header + one line per event");
    for line in &lines {
        assert!(line.starts_with("{\"ev\":\"") && line.ends_with('}'), "bad line: {line}");
    }
    assert!(text.ends_with('\n'), "trailing newline so `wc -l` counts events");
}
