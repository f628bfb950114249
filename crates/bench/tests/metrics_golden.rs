//! Pins the experiment metrics pipeline: the per-cell JSON artifact for
//! one fixed cell (golden file), and serial/parallel bit-identity for a
//! small sub-grid.
//!
//! When a deliberate metrics or schema change alters the artifact,
//! regenerate the golden file with:
//!
//! ```text
//! MS_BLESS=1 cargo test -p ms-bench --test metrics_golden
//! ```
//!
//! and document the change in `EXPERIMENTS.md` (bump
//! `ms_bench::sweeps::SCHEMA_VERSION` if fields changed shape).

use std::path::PathBuf;

use ms_bench::harness::run_parallel;
use ms_bench::sweeps::{cell_json, CellJob, SCHEMA_VERSION};
use ms_tasksel::Strategy;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compress-cf-4pu.json")
}

fn golden_job() -> CellJob {
    CellJob { insts: 20_000, ..CellJob::new("compress", Strategy::ControlFlow) }
}

#[test]
fn golden_cell_artifact_is_stable() {
    let job = golden_job();
    let got = cell_json("golden", "compress-cf-4pu", &job, &job.run()) + "\n";
    let path = golden_path();
    if std::env::var_os("MS_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file exists (MS_BLESS=1 to create)");
    assert_eq!(
        got, want,
        "cell metrics JSON changed; if intentional, re-bless with MS_BLESS=1 \
         and update EXPERIMENTS.md (schema_version is {SCHEMA_VERSION})"
    );
}

#[test]
fn parallel_and_serial_grids_are_bit_identical() {
    // A 3×3 sub-grid: three benchmarks × three heuristics.
    let mut grid = Vec::new();
    for bench in ["compress", "go", "tomcatv"] {
        for h in [Strategy::BasicBlock, Strategy::ControlFlow, Strategy::DataDependence] {
            grid.push(CellJob { insts: 5_000, ..CellJob::new(bench, h) });
        }
    }
    let serial: Vec<String> = run_parallel(1, grid.clone(), |job, i| {
        cell_json("determinism", &format!("cell-{i}"), job, &job.run())
    });
    let parallel: Vec<String> = run_parallel(4, grid, |job, i| {
        cell_json("determinism", &format!("cell-{i}"), job, &job.run())
    });
    assert_eq!(serial, parallel, "parallel execution must not change any byte of any artifact");
}
