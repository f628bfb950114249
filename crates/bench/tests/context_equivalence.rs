//! The shared-context contract of the pipelined sweep scheduler: a cell
//! run against a warmed, shared [`ProgramContext`] must produce JSON
//! byte-identical to a from-scratch standalone run — the cache may only
//! ever serve values a fresh computation would also have produced — and
//! a whole sweep's artifacts must not depend on `--jobs` or on whether
//! the cell cache served them.

use std::path::{Path, PathBuf};

use ms_bench::cache::CellCache;
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
/// exercised too. The same grid then runs twice through a cell cache,
/// cold and warm: both trees must match the uncached one, and the warm
/// run must serve every cell from the cache without simulating.
#[test]
fn sweep_artifacts_are_bit_identical_across_jobs() {
    let root1 = tempdir("ctx-equiv-j1");
    let root4 = tempdir("ctx-equiv-j4");
    run_sweep(SweepSpec::Forwarding, 1, &root1, &SweepObserver::silent())
        .expect("serial sweep runs");
    run_sweep(SweepSpec::Forwarding, 4, &root4, &SweepObserver::silent())
        .expect("parallel sweep runs");
    assert_trees_identical(&root1, &root4, "--jobs 4");

    let cache_dir = tempdir("ctx-equiv-cache");
    let cold = tempdir("ctx-equiv-cold");
    let warm = tempdir("ctx-equiv-warm");
    let cache = CellCache::at(&cache_dir).expect("cache dir opens");
    let obs = SweepObserver { cache: Some(&cache), ..SweepObserver::silent() };
    let report = run_sweep(SweepSpec::Forwarding, 4, &cold, &obs).expect("cold cached sweep");
    assert_eq!((cache.hits(), cache.misses()), (0, report.cells as u64), "cold cache misses");
    assert_trees_identical(&root1, &cold, "cold cache");

    let cache = CellCache::at(&cache_dir).expect("cache dir reopens");
    let obs = SweepObserver { cache: Some(&cache), ..SweepObserver::silent() };
    let report = run_sweep(SweepSpec::Forwarding, 4, &warm, &obs).expect("warm cached sweep");
    assert_eq!(cache.hits(), report.cells as u64, "warm run serves every cell");
    assert_eq!(cache.misses(), 0, "warm run simulates nothing");
    assert_trees_identical(&root1, &warm, "warm cache");

    for dir in [root1, root4, cache_dir, cold, warm] {
        std::fs::remove_dir_all(dir).ok();
    }
}

fn assert_trees_identical(want: &Path, got: &Path, what: &str) {
    let files = artifact_files(want);
    assert_eq!(files, artifact_files(got), "artifact file sets differ ({what})");
    assert!(!files.is_empty(), "sweep produced no artifacts");
    for rel in &files {
        let a = std::fs::read(want.join(rel)).unwrap();
        let b = std::fs::read(got.join(rel)).unwrap();
        assert_eq!(a, b, "{rel}: artifact differs ({what})");
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ms-bench-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn artifact_files(root: &Path) -> Vec<String> {
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
