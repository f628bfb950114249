//! End-to-end tests for `run -- perf`: the measurement reconciles with
//! wall time and names every instrumented phase, and the subcommand
//! writes only the Chrome view under `--out` plus its run record.

use std::process::Command;

use ms_bench::perfcmd::{self, PerfOptions};
use ms_bench::runscmd;

const SMOKE: PerfOptions = PerfOptions { reps: 2, insts: 2_000 };

#[test]
fn perf_doc_reconciles_and_validates() {
    let doc = perfcmd::run_perf(&SMOKE);
    // Every span ran inside the timed region, so the wall time charged
    // to top-level spans can never exceed the end-to-end wall time.
    assert!(
        doc.top_level_ns <= doc.total_ns,
        "span total {} ns exceeds end-to-end wall time {} ns",
        doc.top_level_ns,
        doc.total_ns
    );
    // The pipeline phases the library crates instrument all appear.
    let phases: Vec<&str> = doc.phases.iter().map(|p| p.path.as_str()).collect();
    for expected in ["workloads.build", "select", "trace.generate", "trace.split", "sim.run"] {
        assert!(phases.contains(&expected), "phase `{expected}` missing from {phases:?}");
    }
    let cells: Vec<&str> = doc.cells.iter().map(|(id, _)| id.as_str()).collect();
    let grid: Vec<String> = perfcmd::perf_grid(SMOKE.insts).into_iter().map(|(id, _)| id).collect();
    assert_eq!(cells, grid, "one median per canonical cell, in grid order");
    // The Chrome view holds one slice per cell span at minimum.
    assert!(doc.chrome.starts_with("{\"traceEvents\":["));
    assert!(doc.chrome.contains("\"name\":\"cell:compress-cf\""));
}

#[test]
fn perf_writes_the_chrome_view_and_one_cell_event_per_cell() {
    let root = std::env::temp_dir().join(format!("ms-perf-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cwd = root.join("cwd");
    let runs = root.join("runs");
    std::fs::create_dir_all(&cwd).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_run"))
        .current_dir(&cwd)
        .env("MS_RUNS_DIR", &runs)
        .args(["perf", "--reps", "1", "--insts", "2000", "--out", "exp"])
        .output()
        .expect("spawn run binary");
    assert!(out.status.success(), "perf failed: {}", String::from_utf8_lossy(&out.stderr));

    // Nothing lands in the working directory besides `--out`.
    let entries: Vec<String> = std::fs::read_dir(&cwd)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(entries, ["exp"]);
    assert!(cwd.join("exp/perf/pipeline.chrome.json").exists(), "missing Chrome view");

    let record = runscmd::record_files(&runs).pop().expect("one run record");
    let rec = ms_prof::ledger::validate_record(&std::fs::read_to_string(record).unwrap())
        .expect("the perf record validates");
    assert_eq!(rec.cells, perfcmd::perf_grid(2_000).len());

    let _ = std::fs::remove_dir_all(&root);
}
