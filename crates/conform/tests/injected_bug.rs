//! The harness's own process test: prove the differential layer catches
//! a real (injected) engine bug that every internal check misses, and
//! that the shrinker reduces it to a small reproducer.
//!
//! The injected fault ([`SimConfig::with_injected_commit_undercount`])
//! undercounts committed instructions on every third task *before* both
//! the commit event and the stats accounting — so the event stream and
//! the counters agree with each other and the `EventLog::check`
//! reconciliation passes. Only the diff against the sequential reference
//! model can see the miscount.

use ms_analysis::ProgramContext;
use ms_conform::{check_selection, diff, fuzz_seed, reference, FuzzParams};
use ms_sim::{EventLog, SimConfig, Simulator};
use ms_tasksel::{SelectorBuilder, Strategy};
use ms_trace::TraceGenerator;

#[test]
fn injected_bug_passes_internal_checks_but_fails_the_diff() {
    let program = ms_workloads::by_name("compress").unwrap().build();
    let sel = SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(program));
    let trace = TraceGenerator::new(&sel.program, 0x5eed).generate(10_000);

    let cfg = SimConfig::four_pu().with_injected_commit_undercount();
    let mut log = EventLog::new();
    let stats = Simulator::new(cfg, &sel.program, &sel.partition).run_with_sink(&trace, &mut log);

    // The fault is self-consistent: every streaming and reconciliation
    // check of the log still passes…
    let internal = log.check(&stats);
    assert!(internal.is_empty(), "internal checks should pass: {internal:?}");

    // …and only the differential oracle notices.
    let oracle = reference(&sel.program, &sel.partition, &trace);
    let diffs = diff(&oracle, &log, &stats);
    assert!(!diffs.is_empty(), "the diff must catch the injected undercount");
    assert!(
        diffs.iter().any(|d| d.contains("insts")),
        "expected an instruction-count diff, got: {diffs:?}"
    );
}

#[test]
fn fuzzer_finds_the_injected_bug_and_shrinks_it() {
    let params = FuzzParams { max_blocks: 8, insts: 2_000, inject: true };
    let mut caught = None;
    for seed in 0..16 {
        let failures = fuzz_seed(seed, &params);
        if let Some(f) = failures.into_iter().next() {
            caught = Some(f);
            break;
        }
    }
    let f = caught.expect("fuzzer should catch the injected bug within 16 seeds");
    assert!(!f.errors.is_empty());
    assert!(
        f.repro_blocks <= 10,
        "shrinker should reach ≤ 10 blocks, got {} (from {})",
        f.repro_blocks,
        f.original_blocks
    );
    assert!(f.repro_blocks <= f.original_blocks);
    // The minimal repro is a parseable IR program that still fails.
    let reparsed = ms_ir::parse_program(&f.repro).expect("repro must round-trip");
    assert!(reparsed.validate().is_ok());
}

#[test]
fn clean_engine_passes_where_the_injected_one_fails() {
    // Control: the same seeds with injection off find nothing.
    let params = FuzzParams { max_blocks: 8, insts: 2_000, inject: false };
    for seed in 0..4 {
        assert!(fuzz_seed(seed, &params).is_empty());
    }
    let params = FuzzParams { max_blocks: 8, insts: 2_000, inject: true };
    let run = |inject: bool| {
        let program = ms_workloads::by_name("li").unwrap().build();
        let sel = SelectorBuilder::new(Strategy::DataDependence)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(program));
        let cfg = if inject {
            SimConfig::four_pu().with_injected_commit_undercount()
        } else {
            SimConfig::four_pu()
        };
        check_selection(&sel, cfg, params.insts, 3).errors
    };
    assert!(run(false).is_empty());
    assert!(!run(true).is_empty());
}
