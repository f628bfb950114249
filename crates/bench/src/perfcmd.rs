//! `run -- perf`: pipeline self-profiling.
//!
//! The subcommand runs the canonical cell set (a cross-section of the
//! sweep grids: every heuristic, integer and floating-point workloads)
//! with the [`ms_prof`] collector enabled, wrapping each cell in a
//! `cell:<id>` span so the library crates' phase spans (`select`,
//! `analysis.*`, `trace.generate`, `sim.run`, …) nest under it. Timing
//! policy: one untimed warm-up repetition, then the median of `--reps`
//! timed repetitions per phase.
//!
//! The result is a [`PerfDoc`]: per-phase and per-cell medians, the
//! printed tables, and a Chrome `trace_event` view of the last
//! repetition (see `docs/PROFILING.md`). Cells run serially on one
//! thread: the collector is thread-local, and parallel cells would
//! contend for cores and corrupt the timings. Comparing two trees is
//! the repository benchmark's job (`BENCHMARK.json`, `benchmark/`).

use std::time::Instant;

use ms_prof::{Report, SpanStat};
use ms_tasksel::Strategy;

use crate::json::escape;
use crate::runscmd::fmt_ns;
use crate::sweeps::{CellJob, SWEEP_TRACE_INSTS};

/// Default timed repetitions (`--reps`); one extra untimed warm-up
/// repetition always runs first.
pub const DEFAULT_PERF_REPS: usize = 5;

/// The canonical perf cells: every heuristic represented, integer and
/// floating-point workloads, small enough to rerun on every PR.
pub fn perf_grid(insts: usize) -> Vec<(String, CellJob)> {
    [
        ("compress", Strategy::ControlFlow),
        ("go", Strategy::DataDependence),
        ("li", Strategy::BasicBlock),
        ("perl", Strategy::ControlFlow),
        ("tomcatv", Strategy::DataDependence),
        ("fpppp", Strategy::TaskSize),
    ]
    .into_iter()
    .map(|(bench, h)| {
        (format!("{bench}-{}", h.label()), CellJob { insts, ..CellJob::new(bench, h) })
    })
    .collect()
}

/// What `run -- perf` measures.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Timed repetitions of the whole cell set.
    pub reps: usize,
    /// Dynamic instruction budget per cell.
    pub insts: usize,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions { reps: DEFAULT_PERF_REPS, insts: SWEEP_TRACE_INSTS }
    }
}

/// The result of one `run -- perf` measurement.
#[derive(Debug)]
pub struct PerfDoc {
    /// Per-phase rows, sorted by phase path. `total_ns` is the median
    /// across repetitions of the phase's summed wall time; `count` and
    /// `items` come from the last repetition (they are deterministic).
    pub phases: Vec<SpanStat>,
    /// Per-cell median wall time in nanoseconds, in [`perf_grid`] order.
    pub cells: Vec<(String, u64)>,
    /// Chrome `trace_event` view of the last repetition.
    pub chrome: String,
    /// Human-readable phase, cell and counter tables.
    pub summary: String,
    /// Median end-to-end wall time per repetition, nanoseconds.
    pub total_ns: u64,
    /// Median wall time charged to the top-level (`cell:*`) spans —
    /// never more than `total_ns`, since every span ran inside the
    /// timed region.
    pub top_level_ns: u64,
}

/// Runs the canonical cells under profiling and aggregates the report.
pub fn run_perf(opts: &PerfOptions) -> PerfDoc {
    let grid = perf_grid(opts.insts);
    // Timing policy: one untimed warm-up repetition, then medians over
    // the timed ones.
    for (_, job) in &grid {
        let _ = job.run();
    }
    let mut totals = Vec::with_capacity(opts.reps);
    let mut reports = Vec::with_capacity(opts.reps);
    for _ in 0..opts.reps {
        ms_prof::enable();
        let t0 = Instant::now();
        for (id, job) in &grid {
            let _cell = ms_prof::span_owned(format!("cell:{id}"));
            let _ = job.run();
        }
        totals.push(t0.elapsed().as_nanos() as u64);
        reports.push(ms_prof::disable().expect("collector was enabled"));
    }
    build_doc(&grid, &totals, &reports, opts)
}

/// The pipeline phase a span path belongs to: paths inside a
/// `cell:<id>` wrapper lose that component (`cell:go-dd/select` →
/// `select`); the bare wrapper itself is a cell, not a phase.
fn phase_of(path: &str) -> Option<&str> {
    match path.strip_prefix("cell:") {
        Some(rest) => rest.split_once('/').map(|(_, phase)| phase),
        None => Some(path),
    }
}

/// The median of a sample set: sorts and takes the middle element
/// (upper middle for even counts). Every time `run -- perf` reports is
/// a median, never a mean: medians shrug off the one-off scheduling
/// hiccups that dominate wall-clock noise.
///
/// # Panics
///
/// Panics on an empty sample set.
fn median(mut samples: Vec<f64>) -> f64 {
    assert!(!samples.is_empty(), "median of zero samples");
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn median_u64(samples: Vec<f64>) -> u64 {
    median(samples) as u64
}

fn build_doc(
    grid: &[(String, CellJob)],
    totals: &[u64],
    reports: &[Report],
    opts: &PerfOptions,
) -> PerfDoc {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    // Per-phase wall-time samples across repetitions; count/items from
    // the last repetition (they are deterministic across reps).
    let mut phase_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut cell_samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for report in reports {
        let mut phase_ns: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &report.spans {
            match phase_of(&s.path) {
                Some(phase) => *phase_ns.entry(phase).or_default() += s.total_ns,
                None => cell_samples
                    .entry(s.path["cell:".len()..].to_string())
                    .or_default()
                    .push(s.total_ns as f64),
            }
        }
        for (phase, ns) in phase_ns {
            phase_samples.entry(phase.to_string()).or_default().push(ns as f64);
        }
    }
    let last = reports.last().expect("at least one repetition");
    let mut phase_meta: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in &last.spans {
        if let Some(phase) = phase_of(&s.path) {
            let e = phase_meta.entry(phase).or_default();
            e.0 += s.count;
            e.1 += s.items;
        }
    }
    let phases: Vec<SpanStat> = phase_samples
        .into_iter()
        .map(|(path, samples)| {
            let (count, items) = phase_meta.get(path.as_str()).copied().unwrap_or((0, 0));
            SpanStat { path, count, total_ns: median_u64(samples), items }
        })
        .collect();
    let cells: Vec<(String, u64)> = grid
        .iter()
        .map(|(id, _)| {
            (id.clone(), median_u64(cell_samples.remove(id).expect("every cell span closed")))
        })
        .collect();

    let total_ns = median_u64(totals.iter().map(|&n| n as f64).collect());
    let top_level_ns = median_u64(reports.iter().map(|r| r.top_level_total_ns() as f64).collect());
    let cells_per_s = grid.len() as f64 / (total_ns.max(1) as f64 / 1e9);

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "── perf: {} cells × {} reps (+1 warm-up), {} insts/cell ──",
        grid.len(),
        opts.reps,
        opts.insts
    );
    let _ = writeln!(
        summary,
        "{:<36} {:>12} {:>8} {:>10} {:>12}",
        "phase", "median", "count", "items", "rate"
    );
    for p in &phases {
        let _ = writeln!(
            summary,
            "{:<36} {:>12} {:>8} {:>10} {:>12}",
            p.path,
            fmt_ns(p.total_ns),
            p.count,
            p.items,
            p.per_s().map_or("-".to_string(), fmt_rate),
        );
    }
    let _ = writeln!(summary, "{:<36} {:>12}", "cell", "median");
    for (id, med) in &cells {
        let _ = writeln!(summary, "{:<36} {:>12}", format!("cell:{id}"), fmt_ns(*med));
    }
    let _ = writeln!(summary, "{:<36} {:>12}", "counter (one rep)", "value");
    for (name, value) in &last.counters {
        let _ = writeln!(summary, "{name:<36} {value:>12}");
    }
    let _ = writeln!(
        summary,
        "end-to-end {} (top-level spans {}), {:.2} cells/s",
        fmt_ns(total_ns),
        fmt_ns(top_level_ns),
        cells_per_s
    );

    PerfDoc { phases, cells, chrome: chrome_json(last), summary, total_ns, top_level_ns }
}

/// The last repetition's span instances as a Chrome `trace_event`
/// document (open in `chrome://tracing` or <https://ui.perfetto.dev>).
fn chrome_json(report: &Report) -> String {
    let mut events = vec!["{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{\"name\":\"ms pipeline (run -- perf, last rep)\"}}"
        .to_string()];
    for inst in &report.instances {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"pipeline\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3}}}",
            escape(&inst.path),
            inst.start_ns as f64 / 1e3,
            inst.dur_ns as f64 / 1e3,
        ));
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

fn fmt_rate(per_s: f64) -> String {
    if per_s >= 1e6 {
        format!("{:.1} M/s", per_s / 1e6)
    } else if per_s >= 1e3 {
        format!("{:.1} k/s", per_s / 1e3)
    } else {
        format!("{per_s:.1} /s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_ids_are_unique_and_cover_every_heuristic() {
        let grid = perf_grid(1_000);
        let ids: Vec<&str> = grid.iter().map(|(id, _)| id.as_str()).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate cell ids: {ids:?}");
        for label in ["bb", "cf", "dd", "ts"] {
            assert!(
                ids.iter().any(|id| id.ends_with(label)),
                "no cell exercises heuristic `{label}`"
            );
        }
    }

    #[test]
    fn median_is_order_insensitive_and_takes_middle() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![2.0, 1.0]), 2.0);
        assert_eq!(median(vec![5.0]), 5.0);
    }

    #[test]
    fn phase_of_strips_the_cell_wrapper() {
        assert_eq!(phase_of("cell:go-dd"), None);
        assert_eq!(phase_of("cell:go-dd/select"), Some("select"));
        assert_eq!(phase_of("cell:go-dd/select/analysis.dom"), Some("select/analysis.dom"));
        assert_eq!(phase_of("sim.run"), Some("sim.run"));
    }
}
