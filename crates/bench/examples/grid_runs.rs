//! Counts and times the work of a `run -- sweeps` suite, serially and
//! under the span profiler: the selections it makes (`select` spans),
//! the traces it streams (`trace.generate`, one per distinct selection),
//! the chunks it decodes (`sim.decode`) and the engine runs it
//! simulates (`sim.run`), with the time charged to each top-level
//! phase.
//!
//! ```text
//! cargo run --release -p ms-bench --example grid_runs -- [OUT]
//! ```
//!
//! The suite runs at `--jobs 1` with no cell cache and writes its 408
//! artifacts under `OUT` (default `target/grid-runs`). Counts do not
//! depend on the machine; times do.

use std::path::PathBuf;
use std::time::Instant;

use ms_bench::sweeps::{run_suite, SweepSpec};

fn main() {
    let out = std::env::args().nth(1).map_or(PathBuf::from("target/grid-runs"), PathBuf::from);
    ms_prof::enable();
    let start = Instant::now();
    let reports = run_suite(&SweepSpec::ALL, 1, &out, None).expect("the suite runs");
    let wall = start.elapsed();
    let report = ms_prof::disable().expect("the profiler was enabled");

    println!(
        "{} sweeps, {} grid cells -> {}: {:.1} ms",
        reports.len(),
        reports.iter().map(|r| r.cells).sum::<usize>(),
        out.display(),
        wall.as_secs_f64() * 1e3
    );
    println!("{:<24} {:>8} {:>10}", "span", "count", "ms");
    for s in report.spans.iter().filter(|s| !s.path.contains('/')) {
        println!("{:<24} {:>8} {:>10.1}", s.path, s.count, s.total_ns as f64 / 1e6);
    }
}
