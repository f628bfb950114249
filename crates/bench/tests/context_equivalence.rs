//! The shared-context contract of the suite scheduler: a cell
//! run against a warmed, shared [`ProgramContext`] must produce JSON
//! byte-identical to a from-scratch standalone run — the cache may only
//! ever serve values a fresh computation would also have produced — and
//! a whole sweep's artifacts must not depend on `--jobs`, on whether
//! the cell cache served them, or on which other sweeps share its suite.

use std::path::{Path, PathBuf};

use ms_bench::cache::CellCache;
use ms_bench::progress::SweepObserver;
use ms_bench::sweeps::{cell_json, run_suite, CellJob, SweepSpec};
use ms_prof::ledger::ProgressSink;
use ms_tasksel::Strategy;

/// Every (benchmark, heuristic, threshold) shape the grids use, run both
/// ways: standalone (cold per-cell context, the pre-scheduler behavior)
/// and against one shared warmed context per benchmark.
#[test]
fn shared_context_cells_match_standalone_cells_byte_for_byte() {
    for bench in ["compress", "li", "tomcatv"] {
        let ctx = CellJob::new(bench, Strategy::BasicBlock).context();
        ctx.warm(true);
        let jobs = [
            CellJob { insts: 4_000, ..CellJob::new(bench, Strategy::BasicBlock) },
            CellJob { insts: 4_000, ..CellJob::new(bench, Strategy::ControlFlow) },
            CellJob { insts: 4_000, ..CellJob::new(bench, Strategy::DataDependence) },
            CellJob {
                insts: 4_000,
                ts_thresh: Some(12.0),
                ..CellJob::new(bench, Strategy::DataDependence)
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
    let plain = CellJob { insts: 4_000, ..CellJob::new("compress", Strategy::ControlFlow) };
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
    run_suite(&[SweepSpec::Forwarding], 1, &root1, &SweepObserver::silent())
        .expect("serial sweep runs");
    run_suite(&[SweepSpec::Forwarding], 4, &root4, &SweepObserver::silent())
        .expect("parallel sweep runs");
    assert_trees_identical(&root1, &root4, "--jobs 4");

    let cache_dir = tempdir("ctx-equiv-cache");
    let cold = tempdir("ctx-equiv-cold");
    let warm = tempdir("ctx-equiv-warm");
    let cache = CellCache::at(&cache_dir).expect("cache dir opens");
    let obs = SweepObserver { cache: Some(&cache), ..SweepObserver::silent() };
    let reports = run_suite(&[SweepSpec::Forwarding], 4, &cold, &obs).expect("cold cached sweep");
    assert_eq!((cache.hits(), cache.misses()), (0, reports[0].cells as u64), "cold cache misses");
    assert_trees_identical(&root1, &cold, "cold cache");

    let cache = CellCache::at(&cache_dir).expect("cache dir reopens");
    let obs = SweepObserver { cache: Some(&cache), ..SweepObserver::silent() };
    let reports = run_suite(&[SweepSpec::Forwarding], 4, &warm, &obs).expect("warm cached sweep");
    assert_eq!(cache.hits(), reports[0].cells as u64, "warm run serves every cell");
    assert_eq!(cache.misses(), 0, "warm run simulates nothing");
    assert_trees_identical(&root1, &warm, "warm cache");

    for dir in [root1, root4, cache_dir, cold, warm] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The forwarding and PU-count grids overlap: each `<bench>-dead` cell
/// of the five benchmarks both grids share is that benchmark's `-8pu`
/// cell. Planned as one suite, the 37 grid cells simulate 32 distinct
/// cells over 6 traces (alone: 37 over 11), and the suite writes exactly
/// the trees the two sweeps write alone.
#[test]
fn suite_simulates_each_distinct_cell_once() {
    let specs = [SweepSpec::Forwarding, SweepSpec::Pus];
    let alone = tempdir("suite-alone");
    let suite = tempdir("suite-joint");
    // `--jobs 1` runs every item on this thread, where the profiler
    // collects.
    ms_prof::enable();
    for spec in specs {
        run_suite(&[spec], 1, &alone, &SweepObserver::silent()).expect("sweep runs alone");
    }
    let alone_spans = ms_prof::disable().expect("profiler was enabled");
    ms_prof::enable();
    let reports = run_suite(&specs, 1, &suite, &SweepObserver::silent()).expect("suite runs");
    let suite_spans = ms_prof::disable().expect("profiler was enabled");

    let count = |r: &ms_prof::Report, leaf: &str| -> u64 {
        r.spans.iter().filter(|s| s.path.rsplit('/').next() == Some(leaf)).map(|s| s.count).sum()
    };
    assert_eq!(count(&alone_spans, "sim.run"), 37);
    assert_eq!(count(&alone_spans, "trace.generate"), 11);
    assert_eq!(count(&suite_spans, "sim.run"), 32, "twins simulate once");
    assert_eq!(count(&suite_spans, "trace.generate"), 6, "images are shared suite-wide");

    let names: Vec<&str> = reports.iter().map(|r| r.name).collect();
    assert_eq!(names, ["forwarding", "pus"], "reports come back in spec order");
    assert_eq!(reports.iter().map(|r| r.cells).sum::<usize>(), 37);
    assert_trees_identical(&alone, &suite, "suite vs. each sweep alone");

    for dir in [alone, suite] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Through one cell cache, the overlapping suite probes and stores each
/// distinct cell once: a cold pass misses 32 times, a warm pass hits 32
/// times and misses none. Every one of the 37 grid cells still counts
/// as queued, started and finished, and the trees match.
#[test]
fn suite_probes_and_stores_each_distinct_cell_once() {
    let specs = [SweepSpec::Forwarding, SweepSpec::Pus];
    let cache_dir = tempdir("suite-cache");
    let cold = tempdir("suite-cold");
    let warm = tempdir("suite-warm");
    let cache = CellCache::at(&cache_dir).expect("cache dir opens");

    let sink = ProgressSink::new(2);
    let obs = SweepObserver { sink: &sink, on_tick: &|| {}, cache: Some(&cache) };
    run_suite(&specs, 2, &cold, &obs).expect("cold suite");
    assert_eq!((cache.hits(), cache.misses()), (0, 32), "cold pass");
    let snap = sink.snapshot();
    assert_eq!((snap.queued, snap.started, snap.finished), (37, 37, 37));
    assert_eq!((snap.cache_hits, snap.cache_misses), (0, 32));
    let items: u64 = snap.workers.iter().map(|&(_, n)| n).sum();
    assert_eq!(items, 12, "6 context warm-ups + 6 shared-image groups");
    let entries = std::fs::read_dir(&cache_dir).unwrap().count();
    assert_eq!(entries, 32, "each distinct cell is stored once, no temp files left");

    let sink = ProgressSink::new(2);
    let obs = SweepObserver { sink: &sink, on_tick: &|| {}, cache: Some(&cache) };
    run_suite(&specs, 2, &warm, &obs).expect("warm suite");
    assert_eq!((cache.hits(), cache.misses()), (32, 32), "warm pass: 32 hits, 0 misses");
    let snap = sink.snapshot();
    assert_eq!((snap.queued, snap.started, snap.finished), (37, 37, 37));
    assert_eq!((snap.cache_hits, snap.cache_misses), (32, 0));
    assert_trees_identical(&cold, &warm, "warm vs. cold suite");

    for dir in [cache_dir, cold, warm] {
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
