//! Pins the event-trace pipeline: the JSONL trace for one fixed cell
//! (golden file), determinism of every trace artifact under worker-thread
//! parallelism, and the reconciliation acceptance criterion — the
//! attribution tables' totals are the run's `SimStats` counters.
//!
//! When a deliberate event or schema change alters the trace, regenerate
//! the golden file with:
//!
//! ```text
//! MS_BLESS=1 cargo test -p ms-bench --test trace_golden
//! ```
//!
//! and document the change in `docs/TRACING.md` (bump
//! `ms_sim::TRACE_SCHEMA_VERSION` if event shapes changed).

use std::path::PathBuf;

use ms_bench::harness::run_parallel;
use ms_bench::tracecmd::{trace_selection, TraceArtifacts};
use ms_sim::{SimConfig, TRACE_SCHEMA_VERSION};
use ms_tasksel::{Selection, Strategy};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compress-cf-4pu-trace.jsonl")
}

fn select(bench: &str, h: Strategy) -> Selection {
    let program = ms_workloads::by_name(bench).unwrap().build();
    h.selector(4).select(&ms_analysis::ProgramContext::new(program))
}

fn golden_run() -> TraceArtifacts {
    let sel = select("compress", Strategy::ControlFlow);
    trace_selection(&sel, SimConfig::four_pu(), 2_000, ms_bench::DEFAULT_SEED)
}

#[test]
fn golden_jsonl_trace_is_stable() {
    let got = golden_run().jsonl;
    let path = golden_path();
    if std::env::var_os("MS_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file exists (MS_BLESS=1 to create)");
    assert_eq!(
        got, want,
        "event trace changed; if intentional, re-bless with MS_BLESS=1 and \
         update docs/TRACING.md (TRACE_SCHEMA_VERSION is {TRACE_SCHEMA_VERSION})"
    );
}

/// The acceptance criterion for `run -- trace`: the printed attribution
/// tables' per-cause totals are exactly the run's `SimStats` counters.
#[test]
fn attribution_totals_are_the_stats_counters() {
    let art = golden_run();
    let (stats, agg) = (&art.stats, &art.agg);
    assert_eq!(agg.ctrl_squashes, stats.ctrl_squashes);
    assert_eq!(agg.mem_squashes + agg.cascade_squashes, stats.violations);
    assert_eq!(agg.fwd_stall_cycles, stats.fwd_stall_cycles);
    assert_eq!(agg.idle_cycles, stats.pu_idle_cycles);
    // And the rendered text carries those same totals.
    assert!(art.tables.contains(&format!(
        "squash attribution (totals: ctrl {}, mem {}, cascade {}):",
        agg.ctrl_squashes, agg.mem_squashes, agg.cascade_squashes
    )));
    assert!(art.tables.contains(&format!(
        "stall attribution (total fwd stall cycles: {}):",
        stats.fwd_stall_cycles
    )));
    assert!(art
        .tables
        .contains(&format!("per-PU occupancy (idle total: {} PU-cycles):", stats.pu_idle_cycles)));
}

/// Every trace artifact — JSONL, Chrome JSON, tables — is byte-identical
/// whether the surrounding grid runs on 1 worker or 4.
#[test]
fn trace_artifacts_are_parallel_deterministic() {
    let grid: Vec<(&str, Strategy)> = vec![
        ("compress", Strategy::ControlFlow),
        ("go", Strategy::DataDependence),
        ("li", Strategy::BasicBlock),
        ("tomcatv", Strategy::ControlFlow),
    ];
    let run = |&(bench, h): &(&str, Strategy), _i: usize| {
        let sel = select(bench, h);
        let art = trace_selection(&sel, SimConfig::four_pu(), 3_000, ms_bench::DEFAULT_SEED);
        (art.jsonl, art.chrome, art.tables)
    };
    let serial = run_parallel(1, grid.clone(), run);
    let parallel = run_parallel(4, grid, run);
    assert_eq!(serial, parallel, "parallelism must not change any byte of any trace artifact");
}
