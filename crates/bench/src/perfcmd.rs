//! `run -- perf`: pipeline self-profiling, the `BENCH_*.json` perf
//! trajectory, and the regression gate.
//!
//! The subcommand runs the canonical cell set (a cross-section of the
//! sweep grids: every heuristic, integer and floating-point workloads)
//! with the [`ms_prof`] collector enabled, wrapping each cell in a
//! `cell:<id>` span so the library crates' phase spans (`select`,
//! `analysis.*`, `trace.generate`, `sim.run`, …) nest under it. Timing
//! follows the shared [`crate::microbench`] policy: one untimed warm-up
//! repetition, then the [`crate::microbench::median`] of `--reps` timed
//! repetitions per phase.
//!
//! The result is one schema-versioned document (see `docs/PROFILING.md`
//! for the field-by-field schema) written to `BENCH_<gitshort>.json` at
//! the repository root — committing one per PR records the perf
//! trajectory of the codebase — plus a Chrome `trace_event` view of the
//! last repetition under `<out>/perf/`. With `--baseline OLD.json` the
//! driver [`compare`]s phase medians and exits non-zero on any
//! regression beyond `--max-regress` percent, ignoring baseline phases
//! faster than `--noise-floor-ns` (too noisy to gate on). Cells run
//! serially on one thread: the collector is thread-local, and parallel
//! cells would contend for cores and corrupt the timings.

use std::time::Instant;

use ms_prof::jsonv::Value;
use ms_prof::Report;

use crate::json::{escape, JsonObj};
use crate::microbench::median;
use crate::sweeps::{CellJob, SWEEP_TRACE_INSTS};
use crate::Heuristic;

/// Version of the `BENCH_*.json` perf document schema (bump on any
/// field change; documented field-by-field in `docs/PROFILING.md`).
pub const PERF_SCHEMA_VERSION: u32 = 1;

/// Default timed repetitions (`--reps`); one extra untimed warm-up
/// repetition always runs first.
pub const DEFAULT_PERF_REPS: usize = 5;

/// Default per-phase regression threshold, percent (`--max-regress`).
pub const DEFAULT_MAX_REGRESS_PCT: f64 = 30.0;

/// Default noise floor, nanoseconds (`--noise-floor-ns`): baseline
/// phases with medians below this are never gated — at that scale the
/// scheduler, not the code, decides the number.
pub const DEFAULT_NOISE_FLOOR_NS: u64 = 200_000;

/// The canonical perf cells: every heuristic represented, integer and
/// floating-point workloads, small enough to rerun on every PR.
pub fn perf_grid(insts: usize) -> Vec<(String, CellJob)> {
    [
        ("compress", Heuristic::ControlFlow),
        ("go", Heuristic::DataDependence),
        ("li", Heuristic::BasicBlock),
        ("perl", Heuristic::ControlFlow),
        ("tomcatv", Heuristic::DataDependence),
        ("fpppp", Heuristic::TaskSize),
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

/// The artifacts of one `run -- perf` measurement.
#[derive(Debug)]
pub struct PerfDoc {
    /// The `BENCH_*.json` document (schema [`PERF_SCHEMA_VERSION`]).
    pub json: String,
    /// Chrome `trace_event` view of the last repetition.
    pub chrome: String,
    /// Human-readable phase/cell table.
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
    // Shared timing policy (crate::microbench): one untimed warm-up
    // repetition, then medians over the timed ones.
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

    let total_ns = median_u64(totals.iter().map(|&n| n as f64).collect());
    let top_level_ns = median_u64(reports.iter().map(|r| r.top_level_total_ns() as f64).collect());
    let cells_per_s = grid.len() as f64 / (total_ns.max(1) as f64 / 1e9);

    let mut phase_rows = Vec::new();
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
    for (phase, samples) in &phase_samples {
        let med = median_u64(samples.clone());
        let (count, items) = phase_meta.get(phase.as_str()).copied().unwrap_or((0, 0));
        let per_s = (items > 0 && med > 0).then(|| items as f64 / (med as f64 / 1e9));
        let mut o = JsonObj::new();
        o.str("phase", phase)
            .num_u64("median_ns", med)
            .num_u64("count", count)
            .num_u64("items", items);
        match per_s {
            Some(r) => o.num_f64("per_s", r),
            None => o.raw("per_s", "null"),
        };
        phase_rows.push(o.finish());
        let _ = writeln!(
            summary,
            "{:<36} {:>12} {:>8} {:>10} {:>12}",
            phase,
            fmt_ns(med),
            count,
            items,
            per_s.map_or("-".to_string(), fmt_rate),
        );
    }

    let mut cell_rows = Vec::new();
    let _ = writeln!(summary, "{:<36} {:>12}", "cell", "median");
    for (id, _) in grid {
        let med = median_u64(cell_samples.remove(id).expect("every cell span closed"));
        let mut o = JsonObj::new();
        o.str("id", id).num_u64("median_ns", med);
        cell_rows.push(o.finish());
        let _ = writeln!(summary, "{:<36} {:>12}", format!("cell:{id}"), fmt_ns(med));
    }
    let _ = writeln!(
        summary,
        "end-to-end {} (top-level spans {}), {:.2} cells/s",
        fmt_ns(total_ns),
        fmt_ns(top_level_ns),
        cells_per_s
    );

    let mut machine = JsonObj::new();
    machine
        .str("os", std::env::consts::OS)
        .str("arch", std::env::consts::ARCH)
        .num_u64("cpus", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64);

    let mut o = JsonObj::new();
    o.num_u64("schema_version", PERF_SCHEMA_VERSION as u64)
        .str("format", "ms-perf")
        .str("git", &git_short())
        .raw("machine", &machine.finish())
        .num_u64("reps", opts.reps as u64)
        .num_u64("insts", opts.insts as u64)
        .num_u64("total_ns", total_ns)
        .num_u64("top_level_ns", top_level_ns)
        .num_f64("cells_per_s", cells_per_s)
        .raw("cells", &format!("[{}]", cell_rows.join(",")))
        .raw("phases", &format!("[{}]", phase_rows.join(",")))
        .raw("registry", &last.registry_json());

    PerfDoc { json: o.finish(), chrome: chrome_json(last), summary, total_ns, top_level_ns }
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

/// The repository's short commit hash, or `nogit` outside a checkout.
pub fn git_short() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric()))
        .unwrap_or_else(|| "nogit".to_string())
}

// ------------------------------------------------------------ validation

fn req_u64(doc: &Value, key: &str) -> Result<u64, String> {
    doc.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn req_str<'a>(doc: &'a Value, key: &str) -> Result<&'a str, String> {
    doc.get(key).and_then(Value::as_str).ok_or_else(|| format!("missing or non-string `{key}`"))
}

/// Checks a parsed `BENCH_*.json` document against the perf schema
/// (version, required fields, per-entry shapes, and the
/// `top_level_ns <= total_ns` invariant).
pub fn validate(doc: &Value) -> Result<(), String> {
    let version = req_u64(doc, "schema_version")?;
    if version != PERF_SCHEMA_VERSION as u64 {
        return Err(format!("schema_version {version} (this tool reads v{PERF_SCHEMA_VERSION})"));
    }
    let format = req_str(doc, "format")?;
    if format != "ms-perf" {
        return Err(format!("format `{format}` (expected `ms-perf`)"));
    }
    req_str(doc, "git")?;
    let machine = doc.get("machine").ok_or("missing `machine`")?;
    req_str(machine, "os")?;
    req_str(machine, "arch")?;
    req_u64(machine, "cpus")?;
    req_u64(doc, "reps")?;
    req_u64(doc, "insts")?;
    let total = req_u64(doc, "total_ns")?;
    let top = req_u64(doc, "top_level_ns")?;
    if top > total {
        return Err(format!("top_level_ns {top} exceeds total_ns {total}"));
    }
    doc.get("cells_per_s").and_then(Value::as_f64).ok_or("missing or non-numeric `cells_per_s`")?;
    let cells = doc.get("cells").and_then(Value::as_arr).ok_or("missing `cells` array")?;
    if cells.is_empty() {
        return Err("empty `cells` array".to_string());
    }
    for cell in cells {
        req_str(cell, "id")?;
        req_u64(cell, "median_ns")?;
    }
    let phases = doc.get("phases").and_then(Value::as_arr).ok_or("missing `phases` array")?;
    if phases.is_empty() {
        return Err("empty `phases` array".to_string());
    }
    for phase in phases {
        req_str(phase, "phase")?;
        req_u64(phase, "median_ns")?;
        req_u64(phase, "count")?;
        req_u64(phase, "items")?;
    }
    let registry = doc.get("registry").ok_or("missing `registry`")?;
    for section in ["counters", "gauges", "hists"] {
        registry
            .get(section)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("missing `registry.{section}` array"))?;
    }
    Ok(())
}

// ------------------------------------------------------------ comparison

/// One gated slowdown found by [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Phase name (`(total)` for the end-to-end time).
    pub phase: String,
    /// Baseline median, nanoseconds.
    pub baseline_ns: u64,
    /// Current median, nanoseconds.
    pub current_ns: u64,
    /// Slowdown, percent.
    pub pct: f64,
}

/// The rendered comparison and every regression beyond the threshold.
#[derive(Debug)]
pub struct Comparison {
    /// Phase-by-phase table (baseline, current, delta, verdict).
    pub table: String,
    /// Regressions beyond the threshold; empty means the gate passes.
    pub regressions: Vec<Regression>,
}

/// A document's phase medians plus the `(total)` pseudo-phase.
fn extract_phases(doc: &Value) -> Result<Vec<(String, u64)>, String> {
    let mut out = vec![("(total)".to_string(), req_u64(doc, "total_ns")?)];
    for phase in doc.get("phases").and_then(Value::as_arr).ok_or("missing `phases` array")? {
        out.push((req_str(phase, "phase")?.to_string(), req_u64(phase, "median_ns")?));
    }
    Ok(out)
}

/// The gate core: pairs phases by name and flags any slower than the
/// noise floor that regressed by more than `max_regress_pct` percent.
/// Phases present on only one side are reported in the table but never
/// gate (renames must not fail old baselines).
pub fn compare_phases(
    baseline: &[(String, u64)],
    current: &[(String, u64)],
    max_regress_pct: f64,
    noise_floor_ns: u64,
) -> Comparison {
    use std::fmt::Write as _;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<36} {:>12} {:>12} {:>8}  verdict",
        "phase", "baseline", "current", "delta"
    );
    let mut regressions = Vec::new();
    for (phase, cur) in current {
        let Some((_, base)) = baseline.iter().find(|(p, _)| p == phase) else {
            let _ = writeln!(
                table,
                "{:<36} {:>12} {:>12} {:>8}  new phase",
                phase,
                "-",
                fmt_ns(*cur),
                "-"
            );
            continue;
        };
        let pct = if *base > 0 { 100.0 * (*cur as f64 - *base as f64) / *base as f64 } else { 0.0 };
        let verdict = if *base < noise_floor_ns {
            "below noise floor"
        } else if pct > max_regress_pct {
            regressions.push(Regression {
                phase: phase.clone(),
                baseline_ns: *base,
                current_ns: *cur,
                pct,
            });
            "REGRESSED"
        } else {
            "ok"
        };
        let _ = writeln!(
            table,
            "{:<36} {:>12} {:>12} {:>+7.1}%  {}",
            phase,
            fmt_ns(*base),
            fmt_ns(*cur),
            pct,
            verdict
        );
    }
    for (phase, base) in baseline {
        if !current.iter().any(|(p, _)| p == phase) {
            let _ =
                writeln!(table, "{:<36} {:>12} {:>12} {:>8}  gone", phase, fmt_ns(*base), "-", "-");
        }
    }
    Comparison { table, regressions }
}

/// Validates both documents and runs the phase gate ([`compare_phases`]).
pub fn compare(
    baseline: &Value,
    current: &Value,
    max_regress_pct: f64,
    noise_floor_ns: u64,
) -> Result<Comparison, String> {
    validate(baseline).map_err(|e| format!("baseline: {e}"))?;
    validate(current).map_err(|e| format!("current: {e}"))?;
    Ok(compare_phases(
        &extract_phases(baseline)?,
        &extract_phases(current)?,
        max_regress_pct,
        noise_floor_ns,
    ))
}

pub(crate) fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
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
    fn phase_of_strips_the_cell_wrapper() {
        assert_eq!(phase_of("cell:go-dd"), None);
        assert_eq!(phase_of("cell:go-dd/select"), Some("select"));
        assert_eq!(phase_of("cell:go-dd/select/analysis.dom"), Some("select/analysis.dom"));
        assert_eq!(phase_of("sim.run"), Some("sim.run"));
    }

    fn phases(rows: &[(&str, u64)]) -> Vec<(String, u64)> {
        rows.iter().map(|(p, n)| (p.to_string(), *n)).collect()
    }

    #[test]
    fn gate_flags_only_regressions_above_threshold_and_floor() {
        let base = phases(&[("(total)", 10_000_000), ("sim.run", 8_000_000), ("tiny", 100)]);
        let cur = phases(&[
            ("(total)", 11_000_000), // +10%: ok at 30%
            ("sim.run", 20_000_000), // +150%: regressed
            ("tiny", 1_000_000),     // huge ratio, but below the floor
            ("fresh", 5_000_000),    // only in current: never gates
        ]);
        let cmp = compare_phases(&base, &cur, 30.0, 200_000);
        assert_eq!(cmp.regressions.len(), 1, "table:\n{}", cmp.table);
        assert_eq!(cmp.regressions[0].phase, "sim.run");
        assert!((cmp.regressions[0].pct - 150.0).abs() < 1e-9);
        assert!(cmp.table.contains("REGRESSED"));
        assert!(cmp.table.contains("below noise floor"));
        assert!(cmp.table.contains("new phase"));
    }

    #[test]
    fn gate_reports_phases_gone_from_current_without_failing() {
        let base = phases(&[("(total)", 1_000_000), ("old.phase", 900_000)]);
        let cur = phases(&[("(total)", 1_000_000)]);
        let cmp = compare_phases(&base, &cur, 30.0, 1);
        assert!(cmp.regressions.is_empty());
        assert!(cmp.table.contains("gone"));
    }

    #[test]
    fn validate_rejects_missing_and_inconsistent_fields() {
        let doc = ms_prof::jsonv::parse("{\"schema_version\":1}").unwrap();
        assert!(validate(&doc).unwrap_err().contains("format"));
        let doc = ms_prof::jsonv::parse("{\"schema_version\":2}").unwrap();
        assert!(validate(&doc).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(2_500), "2.50 us");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50 s");
    }
}
