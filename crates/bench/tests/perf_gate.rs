//! End-to-end tests for `run -- perf`: the BENCH document reconciles
//! with wall time, survives its own schema validation, and the
//! `--baseline` regression gate fails the process on an injected 10x
//! phase slowdown.

use std::path::{Path, PathBuf};
use std::process::Command;

use ms_bench::perfcmd::{self, PerfOptions};
use ms_prof::jsonv::{self, Value};

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
    let parsed = jsonv::parse(&doc.json).expect("perf doc parses");
    assert_eq!(parsed.get("schema_version").unwrap().as_u64(), Some(1));
    perfcmd::validate(&parsed).expect("perf doc validates against its own schema");
    // The pipeline phases the library crates instrument all appear.
    let phases: Vec<&str> = parsed
        .get("phases")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|p| p.get("phase").unwrap().as_str().unwrap())
        .collect();
    for expected in ["workloads.build", "select", "trace.generate", "trace.split", "sim.run"] {
        assert!(phases.contains(&expected), "phase `{expected}` missing from {phases:?}");
    }
    // The Chrome view holds one slice per cell span at minimum.
    assert!(doc.chrome.starts_with("{\"traceEvents\":["));
    assert!(doc.chrome.contains("\"name\":\"cell:compress-cf\""));
}

/// Divides every `total_ns` / `top_level_ns` / `median_ns` field in the
/// document by 10 — fabricating a baseline 10x faster than reality.
fn speed_up_tenfold(v: &mut Value) {
    match v {
        Value::Obj(fields) => {
            for (key, val) in fields {
                if matches!(key.as_str(), "total_ns" | "top_level_ns" | "median_ns") {
                    if let Value::Num(n) = val {
                        *n = (*n / 10.0).floor();
                    }
                }
                speed_up_tenfold(val);
            }
        }
        Value::Arr(items) => items.iter_mut().for_each(speed_up_tenfold),
        _ => {}
    }
}

fn run_bin(args: &[&str]) -> std::process::Output {
    // Route the invocation's run record into the scratch area: without
    // this the ledger would land in target/experiments/runs relative to
    // the test's cwd, polluting the crate directory.
    let runs = std::env::temp_dir().join(format!("ms-perf-gate-runs-{}", std::process::id()));
    Command::new(env!("CARGO_BIN_EXE_run"))
        .env("MS_RUNS_DIR", &runs)
        .args(args)
        .output()
        .expect("spawn run binary")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ms-perf-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn baseline_gate_fails_on_injected_slowdown() {
    let dir = tmp_dir("gate");
    let base = dir.join("BENCH_base.json");
    let out = dir.join("exp");

    // A real measurement first.
    let status = run_bin(&[
        "perf",
        "--reps",
        "1",
        "--insts",
        "2000",
        "--bench-out",
        path_str(&base),
        "--out",
        path_str(&out),
    ]);
    assert!(status.status.success(), "perf failed: {}", String::from_utf8_lossy(&status.stderr));
    assert!(out.join("perf").join("pipeline.chrome.json").exists(), "missing Chrome view");

    // The real document passes validation...
    let validate = run_bin(&["perf-validate", path_str(&base)]);
    assert!(validate.status.success(), "{}", String::from_utf8_lossy(&validate.stderr));
    // ...and a corrupted one does not.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{\"schema_version\":1}").unwrap();
    assert!(!run_bin(&["perf-validate", path_str(&garbage)]).status.success());

    // Fabricate a 10x-faster baseline; rerunning against it must fail.
    let mut doc = jsonv::parse(&std::fs::read_to_string(&base).unwrap()).unwrap();
    speed_up_tenfold(&mut doc);
    let fake = dir.join("BENCH_fake.json");
    std::fs::write(&fake, doc.to_json()).unwrap();
    let gated = run_bin(&[
        "perf",
        "--reps",
        "1",
        "--insts",
        "2000",
        "--bench-out",
        path_str(&dir.join("BENCH_cur.json")),
        "--out",
        path_str(&out),
        "--baseline",
        path_str(&fake),
        "--noise-floor-ns",
        "1000",
    ]);
    assert!(!gated.status.success(), "a 10x slowdown must fail the gate");
    let stderr = String::from_utf8_lossy(&gated.stderr);
    assert!(stderr.contains("regressed"), "stderr should name the regression: {stderr}");

    // Against its own (unscaled) measurement with a generous threshold
    // the gate passes — the failure above is the injected slowdown, not
    // run-to-run noise.
    let cur = jsonv::parse(&std::fs::read_to_string(dir.join("BENCH_cur.json")).unwrap()).unwrap();
    let self_cmp = perfcmd::compare(&cur, &cur, 30.0, 1).expect("self-compare");
    assert!(self_cmp.regressions.is_empty(), "a document never regresses against itself");

    let _ = std::fs::remove_dir_all(&dir);
}
