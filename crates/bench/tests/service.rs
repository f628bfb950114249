//! End-to-end tests for the sweep service daemon (`run -- serve`).
//!
//! These drive a real in-process [`Server`] over its Unix socket and
//! pin the tentpole guarantees of `docs/SERVICE.md`:
//!
//! * a served job's artifacts are **byte-identical** to a one-shot
//!   `run -- <sweep>` of the same grid;
//! * resubmitting an identical grid is served **entirely** from the
//!   content-addressed cell cache — zero cells simulated, proven by
//!   the hit/miss counters in the final [`JobStatus`];
//! * concurrent clients are both served (jobs serialise FIFO, the
//!   later one rides the cache warmed by the earlier one);
//! * every served job leaves a `cmd: "serve"` run-ledger record.

use std::fs;
use std::path::{Path, PathBuf};

use ms_bench::api::{JobState, SweepRequest};
use ms_bench::progress::SweepObserver;
use ms_bench::servecmd::{self, ServeOptions, Server};
use ms_bench::sweeps::{run_sweep, SweepSpec};

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("ms-service-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    root
}

fn opts(root: &Path) -> ServeOptions {
    ServeOptions {
        socket: root.join("serve.sock"),
        jobs: 2,
        out: root.join("daemon-out"),
        cache_dir: root.join("cellcache"),
        runs_dir: root.join("runs"),
        quiet: true,
    }
}

/// Every regular file under `dir`, as sorted dir-relative paths.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, base: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, base, out);
            } else {
                out.push(path.strip_prefix(base).unwrap().to_path_buf());
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// Asserts the two trees hold the same files with the same bytes.
fn assert_trees_identical(a: &Path, b: &Path) {
    let fa = files_under(a);
    let fb = files_under(b);
    assert_eq!(fa, fb, "file sets differ between {} and {}", a.display(), b.display());
    for rel in &fa {
        let ba = fs::read(a.join(rel)).unwrap();
        let bb = fs::read(b.join(rel)).unwrap();
        assert_eq!(ba, bb, "{} differs between {} and {}", rel.display(), a.display(), b.display());
    }
}

fn request(sweep: &str) -> SweepRequest {
    SweepRequest { sweeps: vec![sweep.to_string()], jobs: Some(2) }
}

#[test]
fn served_jobs_match_one_shot_artifacts_and_resubmits_are_pure_cache_hits() {
    let root = fresh_root("identity");

    // The reference: a one-shot CLI run of the same sweep (no cache).
    let oneshot = root.join("oneshot");
    let report = run_sweep(SweepSpec::Thresholds, 2, &oneshot, &SweepObserver::silent()).unwrap();
    let cells = report.cells as u64;
    assert!(cells > 0);

    let server = Server::start(opts(&root)).unwrap();
    let socket = server.socket().to_path_buf();

    // Cold cache: every cell simulates, artifacts land under job-1.
    let first = servecmd::submit(&socket, &request("thresholds"), true).unwrap();
    assert_eq!(first.state, JobState::Done);
    assert_eq!(first.cells_done, cells);
    assert_eq!(first.cache_hits, 0, "cold cache cannot hit");
    assert_eq!(first.cache_misses, cells);
    let first_out = PathBuf::from(&first.artifacts_root);
    assert_trees_identical(&oneshot, &first_out);

    // Identical resubmission: served whole from the cell cache — zero
    // recompute — and still byte-identical.
    let second = servecmd::submit(&socket, &request("thresholds"), true).unwrap();
    assert_eq!(second.state, JobState::Done);
    assert_eq!(second.cells_done, cells);
    assert_eq!(second.cache_hits, cells, "resubmitted grid must be fully cached");
    assert_eq!(second.cache_misses, 0, "resubmitted grid must not simulate");
    assert_ne!(second.artifacts_root, first.artifacts_root);
    assert_trees_identical(&oneshot, Path::new(&second.artifacts_root));

    // The job table reflects both jobs.
    let table = servecmd::jobs_table(&socket, None).unwrap();
    assert!(table.contains("job-1"), "{table}");
    assert!(table.contains("job-2"), "{table}");
    let one = servecmd::jobs_table(&socket, Some("job-2")).unwrap();
    assert!(one.contains("done"), "{one}");

    // Each served job left a closed `cmd: "serve"` run-ledger record.
    let records: Vec<String> = fs::read_dir(root.join("runs"))
        .unwrap()
        .map(|e| fs::read_to_string(e.unwrap().path()).unwrap())
        .collect();
    assert_eq!(records.len(), 2, "one run record per served job");
    for rec in &records {
        assert!(rec.contains("\"cmd\":\"serve\""), "{rec}");
        assert!(rec.contains("\"outcome\":\"ok\""), "{rec}");
        assert!(rec.contains("cache_hits"), "{rec}");
    }

    servecmd::shutdown(&socket).unwrap();
    assert_eq!(server.join().unwrap(), 2);
}

#[test]
fn concurrent_clients_are_both_served_and_share_the_cache() {
    let root = fresh_root("concurrent");
    let server = Server::start(opts(&root)).unwrap();
    let socket = server.socket().to_path_buf();

    // Two clients race to submit the same grid; jobs serialise FIFO,
    // so whichever runs second is served from the first one's cells.
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || servecmd::submit(&socket, &request("forwarding"), true))
        })
        .collect();
    let mut statuses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect();
    statuses.sort_by(|a, b| a.id.cmp(&b.id));

    assert_eq!(statuses.len(), 2);
    assert_eq!(statuses[0].id, "job-1");
    assert_eq!(statuses[1].id, "job-2");
    let cells = statuses[0].cells_done;
    assert!(cells > 0);
    for s in &statuses {
        assert_eq!(s.state, JobState::Done);
        assert_eq!(s.cells_done, cells);
        assert_eq!(s.cache_hits + s.cache_misses, cells);
    }
    // Exactly one grid's worth of simulation happened across both jobs.
    assert_eq!(statuses[0].cache_misses + statuses[1].cache_misses, cells);
    assert_eq!(statuses[0].cache_hits + statuses[1].cache_hits, cells);

    servecmd::shutdown(&socket).unwrap();
    assert_eq!(server.join().unwrap(), 2);
}
