//! The `run -- trace <workload>` subcommand: one simulation recorded
//! into an [`EventLog`], from which every artifact is read:
//!
//! * a schema-versioned JSONL event trace ([`EventLog::to_jsonl`]),
//! * a Chrome `trace_event` JSON loadable in `chrome://tracing` /
//!   <https://ui.perfetto.dev> (task spans per PU, squash instants),
//! * text attribution tables (top squash-causing task boundaries, top
//!   stall-causing def-use arcs, per-PU occupancy) whose per-cause
//!   totals reconcile exactly with the run's [`SimStats`] counters.
//!
//! See `docs/TRACING.md` for a worked walkthrough and a triage recipe.

use ms_ir::FuncId;
use ms_sim::{EventLog, SimConfig, SimEvent, SimStats, Simulator, TRACE_SCHEMA_VERSION};
use ms_tasksel::{Selection, TaskId, TaskPartition};

use crate::json::JsonObj;

/// Rows shown per attribution table.
pub const TOP_K: usize = 10;

/// Everything one traced run produces.
#[derive(Debug)]
pub struct TraceArtifacts {
    /// The JSONL event trace (header line + one line per event).
    pub jsonl: String,
    /// The Chrome `trace_event` JSON.
    pub chrome: String,
    /// The rendered attribution tables.
    pub tables: String,
    /// The run's aggregate statistics (identical to an untraced run).
    pub stats: SimStats,
    /// The recorded event stream, for programmatic access to every view.
    pub log: EventLog,
}

/// Runs one traced simulation of an already-made selection and builds
/// every artifact. Deterministic: identical inputs produce byte-identical
/// `jsonl`, `chrome` and `tables`.
pub fn trace_selection(
    sel: &Selection,
    config: SimConfig,
    trace_insts: usize,
    seed: u64,
) -> TraceArtifacts {
    let mut log = EventLog::new();
    let stats = Simulator::new(config, &sel.program, &sel.partition).run_streamed(
        seed,
        trace_insts,
        &mut log,
    );
    let label = boundary_labeler(&sel.program, &sel.partition);
    let tables = log.render(TOP_K, &label);
    let chrome = chrome_trace(&log, &label);
    TraceArtifacts { jsonl: log.to_jsonl(), chrome, tables, stats, log }
}

/// A labeler from the log's `(func index, static task index)`
/// pairs to stable boundary names (`main/t2@b5`); unknown indices (a
/// task squashed before its dispatch event, never the case today)
/// render as `?`.
pub fn boundary_labeler<'a>(
    program: &'a ms_ir::Program,
    partition: &'a TaskPartition,
) -> impl Fn(usize, usize) -> String + 'a {
    move |f: usize, t: usize| {
        if f >= partition.funcs().len() {
            return "?".to_string();
        }
        let fid = FuncId::new(f as u32);
        if t >= partition.func(fid).tasks().len() {
            return "?".to_string();
        }
        partition.boundary_label(program, fid, TaskId::new(t as u32))
    }
}

/// Converts the log's task spans and squashes into Chrome `trace_event`
/// JSON: one timeline row per PU, one complete (`ph:"X"`) event per
/// committed task on its PU's row, one instant (`ph:"i"`) per squash,
/// cycles as microseconds.
pub fn chrome_trace(log: &EventLog, label: &dyn Fn(usize, usize) -> String) -> String {
    let mut events: Vec<String> = Vec::new();
    let pus = log.pu_occupancy().len();
    for pu in 0..pus {
        let mut args = JsonObj::new();
        args.str("name", &format!("pu {pu}"));
        let mut o = JsonObj::new();
        o.str("name", "thread_name")
            .str("ph", "M")
            .num_u64("pid", 0)
            .num_u64("tid", pu as u64)
            .raw("args", &args.finish());
        events.push(o.finish());
    }
    for s in log.spans() {
        let mut args = JsonObj::new();
        args.num_u64("task", s.task as u64)
            .num_u64("insts", s.insts)
            .num_u64("attempts", s.attempts as u64)
            .num_u64("complete", s.complete);
        let mut o = JsonObj::new();
        o.str("name", &label(s.func, s.static_task))
            .str("cat", "task")
            .str("ph", "X")
            .num_u64("ts", s.dispatch)
            .num_u64("dur", s.retire - s.dispatch)
            .num_u64("pid", 0)
            .num_u64("tid", s.pu as u64)
            .raw("args", &args.finish());
        events.push(o.finish());
    }
    for ev in log.events() {
        let SimEvent::TaskSquash { task, pu, cycle, attempt, cause } = *ev else { continue };
        let name = format!("squash:{}", cause.label(attempt));
        let mut args = JsonObj::new();
        args.num_u64("task", task as u64);
        let mut o = JsonObj::new();
        o.str("name", &name)
            .str("cat", "squash")
            .str("ph", "i")
            .num_u64("ts", cycle)
            .num_u64("pid", 0)
            .num_u64("tid", pu as u64)
            .str("s", "t")
            .raw("args", &args.finish());
        events.push(o.finish());
    }
    let mut other = JsonObj::new();
    other
        .str("format", "ms-sim-event-trace")
        .num_u64("schema_version", TRACE_SCHEMA_VERSION as u64);
    let mut root = JsonObj::new();
    root.raw("traceEvents", &format!("[{}]", events.join(",")))
        .str("displayTimeUnit", "ms")
        .raw("otherData", &other.finish());
    root.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_tasksel::Strategy;

    #[test]
    fn chrome_trace_is_well_formed() {
        let sel = Strategy::ControlFlow.selector(4).select(&ms_analysis::ProgramContext::new(
            ms_workloads::by_name("li").unwrap().build(),
        ));
        let art = trace_selection(&sel, SimConfig::four_pu(), 2_000, 1);
        assert!(art.chrome.starts_with("{\"traceEvents\":["));
        assert!(art.chrome.contains("\"ph\":\"X\""));
        assert!(art.chrome.contains("\"displayTimeUnit\":\"ms\""));
        assert!(art.chrome.ends_with('}'));
        // Every committed task has a span event.
        assert_eq!(
            art.chrome.matches("\"ph\":\"X\"").count(),
            art.stats.num_dyn_tasks,
            "one Chrome span per dynamic task"
        );
    }

    #[test]
    fn labeler_is_total() {
        let sel = Strategy::ControlFlow.selector(4).select(&ms_analysis::ProgramContext::new(
            ms_workloads::by_name("li").unwrap().build(),
        ));
        let label = boundary_labeler(&sel.program, &sel.partition);
        assert_eq!(label(usize::MAX, 0), "?");
        assert_eq!(label(0, usize::MAX), "?");
        assert!(label(0, 0).contains("/t0@"));
    }
}
