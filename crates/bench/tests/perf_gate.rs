//! End-to-end tests for `run -- perf`: the measurement reconciles with
//! wall time and names every instrumented phase. Every artifact
//! subcommand, perf included, writes under `--out` and nowhere else.

use std::process::Command;

use ms_bench::perfcmd::{self, PerfOptions};

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

/// Each artifact subcommand runs in an empty working directory with
/// `--out` pointing elsewhere; the working directory must stay empty.
#[test]
fn artifact_subcommands_write_nothing_outside_out() {
    let root = std::env::temp_dir().join(format!("ms-out-only-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cwd = root.join("cwd");
    let exp = root.join("exp");
    std::fs::create_dir_all(&cwd).unwrap();

    for args in [
        &["forwarding", "--jobs", "2"][..],
        &["perf", "--reps", "1", "--insts", "2000"],
        &["trace", "compress", "--insts", "2000"],
        &["fuzz", "--seeds", "2"],
        &["gap", "li", "--insts", "2000"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_run"))
            .current_dir(&cwd)
            .args(args)
            .arg("--out")
            .arg(&exp)
            .output()
            .expect("spawn run binary");
        assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
        let entries: Vec<String> = std::fs::read_dir(&cwd)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(entries.is_empty(), "{args:?} wrote {entries:?} into the working directory");
    }
    assert!(exp.join("forwarding/report.md").exists(), "missing sweep report");
    assert!(exp.join("perf/pipeline.chrome.json").exists(), "missing Chrome view");
    assert!(exp.join("trace/compress-cf.jsonl").exists(), "missing event trace");

    let _ = std::fs::remove_dir_all(&root);
}
