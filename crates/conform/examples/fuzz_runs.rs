//! Counts and times the work of a `run -- fuzz` sweep, serially and
//! under the span profiler: the engine runs (`sim.run` spans) its
//! (seed, policy) checks take, the traces it generates
//! (`trace.generate`, one per case plus one per `ts` selection that
//! unrolled a loop), and the time charged to each top-level phase.
//!
//! ```text
//! cargo run --release -p ms-conform --example fuzz_runs -- [SEEDS] [BASE_SEED]
//! ```
//!
//! Defaults: 800 seeds from `0x5eed`, the sweep `run -- fuzz` makes
//! with its default flags. Counts do not depend on the machine; a
//! failing policy's shrink loop adds its own runs to them.

use std::time::Instant;

use ms_conform::{fuzz_seed, strategies, FuzzParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let seeds: u64 = args.next().map_or(800, |s| s.parse().expect("SEEDS is a number"));
    let base = args.next().map_or(0x5eed, |s| match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).expect("BASE_SEED is a hex number"),
        None => s.parse().expect("BASE_SEED is a number"),
    });
    let params = FuzzParams::default();
    ms_prof::enable();
    let start = Instant::now();
    let failures: usize = (0..seeds).map(|i| fuzz_seed(base.wrapping_add(i), &params).len()).sum();
    let wall = start.elapsed();
    let report = ms_prof::disable().expect("the profiler was enabled");

    println!(
        "{seeds} seeds from {base:#x} x {} policies: {} checks, {failures} failing, {:.1} ms",
        strategies().len(),
        seeds * strategies().len() as u64,
        wall.as_secs_f64() * 1e3
    );
    println!("{:<24} {:>8} {:>10}", "span", "count", "ms");
    for s in report.spans.iter().filter(|s| !s.path.contains('/')) {
        println!("{:<24} {:>8} {:>10.1}", s.path, s.count, s.total_ns as f64 / 1e6);
    }
}
