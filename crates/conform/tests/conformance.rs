//! The conformance suite proper: real workloads and randomly generated
//! programs, every selection policy, full three-layer check.

use std::ops::Range;

use ms_analysis::ProgramContext;
use ms_conform::{
    check_selection, check_trace, diff, fuzz_seed, reference, strategies, FuzzCase, FuzzFailure,
    FuzzParams,
};
use ms_ir::gen::ProgSpec;
use ms_sim::{EventLog, SimConfig, Simulator};
use ms_tasksel::{Strategy, TaskSelector};
use ms_trace::TraceGenerator;

/// Workload sweep size: enough trace to exercise squash/replay paths,
/// small enough to keep the tier-1 suite fast.
const WORKLOAD_INSTS: usize = 20_000;

#[cfg(not(feature = "heavy-tests"))]
const FUZZ_SEEDS: u64 = 40;
#[cfg(feature = "heavy-tests")]
const FUZZ_SEEDS: u64 = 200;

#[test]
fn workloads_conform_under_every_heuristic() {
    for name in ["compress", "go", "fpppp", "li"] {
        let program = ms_workloads::by_name(name).unwrap().build();
        let ctx = ProgramContext::new(program);
        for (label, selector) in strategies() {
            let sel = selector.select(&ctx);
            let run = check_selection(&sel, SimConfig::four_pu(), WORKLOAD_INSTS, 0x5eed);
            assert!(
                run.errors.is_empty(),
                "{name}/{label}: {} violations, first: {}",
                run.errors.len(),
                run.errors[0]
            );
            assert!(run.stats.num_dyn_tasks > 0);
        }
    }
}

#[test]
fn workloads_conform_on_one_pu_and_eight_pus() {
    // Conformance must not depend on the machine shape: the committed
    // outcome is the same sequential execution at any PU count.
    let program = ms_workloads::by_name("compress").unwrap().build();
    let ctx = ProgramContext::new(program);
    let (_, selector) = strategies().into_iter().nth(2).unwrap();
    let sel = selector.select(&ctx);
    for cfg in [SimConfig::single_pu(), SimConfig::eight_pu()] {
        let run = check_selection(&sel, cfg, WORKLOAD_INSTS, 7);
        assert!(run.errors.is_empty(), "first: {}", run.errors[0]);
    }
}

/// In-order PUs conform too: every workload under the basic block,
/// control flow and data dependence heuristics, on 4- and 8-PU
/// in-order machines, with the event-log invariants and the reference
/// diff both clean.
#[test]
fn workloads_conform_on_in_order_machines() {
    const INSTS: usize = 3_000;
    for w in ms_workloads::suite() {
        let ctx = ProgramContext::new(w.build());
        for strategy in [Strategy::BasicBlock, Strategy::ControlFlow, Strategy::DataDependence] {
            let sel = strategy.selector(4).select(&ctx);
            for cfg in [SimConfig::four_pu().in_order(), SimConfig::eight_pu().in_order()] {
                let pus = cfg.num_pus;
                let run = check_selection(&sel, cfg, INSTS, 0x5eed);
                assert!(
                    run.errors.is_empty(),
                    "{}/{} on {pus} in-order PUs: {} violations, first: {}",
                    w.name,
                    strategy.label(),
                    run.errors.len(),
                    run.errors[0]
                );
                assert!(run.stats.num_dyn_tasks > 0);
            }
        }
    }
}

#[test]
fn random_programs_conform_under_every_heuristic() {
    let params = FuzzParams::default();
    let mut failures = Vec::new();
    for seed in 0..FUZZ_SEEDS {
        failures.extend(fuzz_seed(seed, &params));
    }
    assert!(
        failures.is_empty(),
        "{} seeds failed, first: seed {} ({}) — {}",
        failures.len(),
        failures[0].seed,
        failures[0].strategy,
        failures[0].errors.first().map(String::as_str).unwrap_or("?")
    );
}

/// The conformance errors of `spec` under `selector`, checked from
/// scratch: a fresh program, context and trace.
fn fresh_check(
    spec: &ProgSpec,
    selector: &TaskSelector,
    seed: u64,
    params: &FuzzParams,
) -> Vec<String> {
    let sel = selector.select(&ProgramContext::new(spec.build()));
    let mut cfg = SimConfig::four_pu();
    if params.inject {
        cfg = cfg.with_injected_commit_undercount();
    }
    check_selection(&sel, cfg, params.insts, seed).errors
}

/// [`fuzz_seed`] with nothing shared: every policy checks the seed's
/// program from scratch, and a failure shrinks greedily (first failing
/// reduction, until none fails).
fn unshared_fuzz_seed(spec: &ProgSpec, seed: u64, params: &FuzzParams) -> Vec<FuzzFailure> {
    let mut failures = Vec::new();
    for (label, selector) in strategies() {
        let check = |s: &ProgSpec| fresh_check(s, &selector, seed, params);
        if check(spec).is_empty() {
            continue;
        }
        let mut min = spec.clone();
        while let Some(next) = min.reductions().into_iter().find(|c| !check(c).is_empty()) {
            min = next;
        }
        failures.push(FuzzFailure {
            seed,
            strategy: label,
            errors: check(&min),
            repro: ms_ir::write_program(&min.build()),
            repro_blocks: min.num_blocks(),
            original_blocks: spec.num_blocks(),
        });
    }
    failures
}

/// Checks `seeds` both ways: a fuzz case selects every policy from one
/// context and shares one trace, and that must report exactly what
/// checking each policy from scratch reports, failures (errors, repro,
/// block counts) included.
fn shared_fuzz_case_equals_fresh_per_policy_checks(params: FuzzParams, seeds: Range<u64>) {
    for seed in seeds {
        let case = FuzzCase::new(seed, &params);
        for (label, selector) in strategies() {
            let sel = selector.select(&case.ctx);
            if label != "ts" {
                let own = TraceGenerator::new(&sel.program, seed).generate(params.insts);
                assert!(*case.trace_for(&sel) == own, "seed {seed} {label}: shared trace differs");
            }
        }
        assert_eq!(
            fuzz_seed(seed, &params),
            unshared_fuzz_seed(&case.spec, seed, &params),
            "seed {seed}, inject {}",
            params.inject
        );
    }
}

#[test]
fn shared_fuzz_case_conforms_like_fresh_checks() {
    shared_fuzz_case_equals_fresh_per_policy_checks(FuzzParams::default(), 0..32);
}

/// The injected fault fails every policy of nearly every seed, and each
/// failure shrinks twice here, so seeds 0..32 run as two tests (in
/// parallel) at the smaller programs of `injected_bug.rs`.
const INJECTED: FuzzParams = FuzzParams { max_blocks: 8, insts: 2_000, inject: true };

#[test]
fn shared_fuzz_case_fails_like_fresh_checks_seeds_0_to_16() {
    shared_fuzz_case_equals_fresh_per_policy_checks(INJECTED, 0..16);
}

#[test]
fn shared_fuzz_case_fails_like_fresh_checks_seeds_16_to_32() {
    shared_fuzz_case_equals_fresh_per_policy_checks(INJECTED, 16..32);
}

/// `check_trace` checks each event as the engine emits it; that must
/// report exactly what checking a recorded log does: `EventLog::check`,
/// then `diff` against the reference, message for message, cap and
/// "dropped" lines included. Clean seeds, and the injected fault, whose
/// miscounts overflow the diff's cap.
#[test]
fn streamed_checks_equal_recorded_checks() {
    let mut capped = 0;
    for params in [FuzzParams::default(), INJECTED] {
        let cfg = if params.inject {
            SimConfig::four_pu().with_injected_commit_undercount()
        } else {
            SimConfig::four_pu()
        };
        for seed in 0..16 {
            let case = FuzzCase::new(seed, &params);
            for (label, selector) in strategies() {
                let sel = selector.select(&case.ctx);
                let trace = case.trace_for(&sel);
                let streamed = check_trace(&sel.program, &sel.partition, &trace, cfg.clone());
                let mut log = EventLog::new();
                let stats = Simulator::new(cfg.clone(), &sel.program, &sel.partition)
                    .run_with_sink(&trace, &mut log);
                let mut recorded = log.check(&stats);
                let oracle = reference(&sel.program, &sel.partition, &trace);
                recorded.extend(diff(&oracle, &log, &stats));
                assert_eq!(streamed.errors, recorded, "seed {seed} {label}");
                assert_eq!(streamed.stats.to_json(), stats.to_json(), "seed {seed} {label}");
                assert!(params.inject || streamed.errors.is_empty(), "seed {seed} {label}");
                capped += streamed.errors.iter().any(|e| e.contains("further differences")) as u32;
            }
        }
    }
    assert!(capped > 0, "no injected run overflowed the diff's cap");
}
