//! `run --smoke` end to end: one sample of every workload at reduced
//! sizes, every output checked and every replayed output cross-checked
//! (the exit status says so), then `agree` on the result with itself.

use std::process::Command;
use std::time::Instant;

#[test]
fn smoke_run_checks_every_workload() {
    let bin = env!("CARGO_BIN_EXE_ms-benchmark");
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let start = Instant::now();
    let run = Command::new(bin).args(["run", "--smoke", "--out"]).arg(&out).output().unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&run.stderr));
    eprintln!("smoke run: {:.1} s, including any build of `run`", start.elapsed().as_secs_f64());

    let result = std::fs::read_to_string(out.join("result.json")).unwrap();
    for w in ["grids", "long_trace", "fuzz", "rerun"] {
        assert!(result.contains(&format!("\"name\":\"{w}\"")), "{w} missing: {result}");
    }
    assert_eq!(result.matches("\"failed\":0,").count(), 4, "{result}");
    assert!(out.join("spans.jsonl").is_file() && out.join("spans.chrome.json").is_file());

    let path = out.join("result.json");
    let agree = Command::new(bin).arg("agree").arg(&path).arg(&path).output().unwrap();
    assert!(agree.status.success(), "{}", String::from_utf8_lossy(&agree.stdout));
}
