//! The shared-context contract of the pipelined sweep scheduler: a cell
//! run against a warmed, shared [`ProgramContext`] must produce JSON
//! byte-identical to a from-scratch standalone run — the cache may only
//! ever serve values a fresh computation would also have produced — and
//! a whole sweep's artifacts must not depend on `--jobs`.

use ms_analysis::ProgramContext;
use ms_bench::progress::SweepObserver;
use ms_bench::sweeps::{cell_json, run_sweep, CellJob, SweepSpec};
use ms_bench::Heuristic;

/// Every (benchmark, heuristic, threshold) shape the grids use, run both
/// ways: standalone (cold per-cell context, the pre-scheduler behavior)
/// and against one shared warmed context per benchmark.
#[test]
fn shared_context_cells_match_standalone_cells_byte_for_byte() {
    for bench in ["compress", "li", "tomcatv"] {
        let ctx = CellJob::new(bench, Heuristic::BasicBlock).context();
        ctx.warm(true);
        let jobs = [
            CellJob { insts: 4_000, ..CellJob::new(bench, Heuristic::BasicBlock) },
            CellJob { insts: 4_000, ..CellJob::new(bench, Heuristic::ControlFlow) },
            CellJob { insts: 4_000, ..CellJob::new(bench, Heuristic::DataDependence) },
            CellJob {
                insts: 4_000,
                ts_thresh: Some(12.0),
                ..CellJob::new(bench, Heuristic::DataDependence)
            },
        ];
        for (i, job) in jobs.iter().enumerate() {
            let fresh = cell_json("equiv", &format!("cell-{i}"), job, &job.run());
            let shared = cell_json("equiv", &format!("cell-{i}"), job, &job.run_in(&ctx));
            assert_eq!(
                fresh, shared,
                "{bench} cell {i}: shared-context run diverged from standalone run"
            );
        }
        assert!(ctx.cache_stats().hits > 0, "{bench}: shared context was never actually hit");
    }
}

/// An if-converted cell builds a *different* program, so it must not be
/// served from the unconverted benchmark's context; its standalone run
/// stays the reference.
#[test]
fn if_converted_cells_use_their_own_context() {
    let plain = CellJob { insts: 4_000, ..CellJob::new("compress", Heuristic::ControlFlow) };
    let conv = CellJob { if_convert_arms: Some(8), ..plain.clone() };
    let plain_out = cell_json("equiv", "plain", &plain, &plain.run());
    let conv_out = cell_json("equiv", "conv", &conv, &conv.run_in(&conv.context()));
    assert_ne!(plain_out, conv_out, "if-conversion must change the artifact");
    // And the shared-context path agrees with the standalone path.
    assert_eq!(conv_out, cell_json("equiv", "conv", &conv, &conv.run()));
}

/// One real sweep, run end-to-end at `--jobs 1` and `--jobs 4`: every
/// artifact file must be bit-identical. The forwarding grid pairs each
/// benchmark's cells into one shared-image group, so grouping is
/// exercised too.
#[test]
fn sweep_artifacts_are_bit_identical_across_jobs() {
    let root1 = tempdir("ctx-equiv-j1");
    let root4 = tempdir("ctx-equiv-j4");
    run_sweep(SweepSpec::Forwarding, 1, &root1, &SweepObserver::silent())
        .expect("serial sweep runs");
    run_sweep(SweepSpec::Forwarding, 4, &root4, &SweepObserver::silent())
        .expect("parallel sweep runs");

    let files1 = artifact_files(&root1);
    let files4 = artifact_files(&root4);
    assert_eq!(files1, files4, "artifact file sets differ between --jobs 1 and --jobs 4");
    assert!(!files1.is_empty(), "sweep produced no artifacts");
    for rel in &files1 {
        let a = std::fs::read(root1.join(rel)).unwrap();
        let b = std::fs::read(root4.join(rel)).unwrap();
        assert_eq!(a, b, "{rel}: artifact differs between --jobs 1 and --jobs 4");
    }
    std::fs::remove_dir_all(&root1).ok();
    std::fs::remove_dir_all(&root4).ok();
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ms-bench-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn artifact_files(root: &std::path::Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.strip_prefix(root).unwrap().to_string_lossy().into_owned());
            }
        }
    }
    out.sort();
    out
}
