//! [`EventLog`], the one recorder of a run's [`SimEvent`] stream, and
//! every view read from it: the schema-versioned JSONL text, the
//! per-task time line ([`EventLog::spans`]), the attribution tables
//! (top squash-causing task boundaries, top stall-causing def-use arcs,
//! per-PU occupancy) and the invariant checker ([`EventLog::check`]).

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::event::{SimEvent, SquashCause, TraceSink, TRACE_SCHEMA_VERSION};

/// A committed task's residency on its PU, with its static identity —
/// one row of the paper's Figure 2 execution time line, and the raw
/// material of the per-PU occupancy table and the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// Dynamic task index.
    pub task: usize,
    /// Processing unit.
    pub pu: usize,
    /// Dispatch cycle (final attempt).
    pub dispatch: u64,
    /// Completion cycle of the last instruction.
    pub complete: u64,
    /// Retirement cycle.
    pub retire: u64,
    /// Retired dynamic instructions.
    pub insts: u64,
    /// Attempts needed (1 = clean).
    pub attempts: u32,
    /// Owning function index.
    pub func: usize,
    /// Static task index within the function's partition.
    pub static_task: usize,
}

/// Per-cause squash counts for one static task boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseCounts {
    /// Control-flow squashes attributed to the boundary (mispredicted
    /// exits of this task).
    pub ctrl: u64,
    /// First-attempt memory violations attributed to stores of this task.
    pub mem: u64,
    /// Re-attempt (cascade) violations attributed to stores of this task.
    pub cascade: u64,
    /// Instructions squashed by the memory violations.
    pub lost_insts: u64,
    /// Cycles charged to restarts.
    pub lost_cycles: u64,
}

impl CauseCounts {
    /// All squashes at this boundary.
    pub fn total(&self) -> u64 {
        self.ctrl + self.mem + self.cascade
    }
}

/// The recorded event stream of one run, in emission order.
///
/// Attach it to [`crate::Simulator::run_with_sink`]; every view is then
/// derived from the one record. Grouping in the attribution views is by
/// *static* task identity: each `TaskDispatch` maps its dynamic index to
/// `(func, static_task)`, and squashes and stalls are charged to the
/// static boundary of the dynamic task they blame.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<SimEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Every recorded event, in emission order.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// The JSON Lines trace: one header record naming the schema
    /// version, then one [`SimEvent::to_json`] record per line.
    /// Byte-identical for identical runs.
    pub fn to_jsonl(&self) -> String {
        let mut s = format!(
            "{{\"ev\":\"header\",\"schema_version\":{TRACE_SCHEMA_VERSION},\
             \"format\":\"ms-sim-event-trace\"}}\n"
        );
        for ev in &self.events {
            s.push_str(&ev.to_json());
            s.push('\n');
        }
        s
    }

    /// Maps a dynamic task index to its static `(func, static_task)`,
    /// from the dispatch events; a task without one maps to
    /// `(usize::MAX, usize::MAX)`.
    fn static_of(&self) -> impl Fn(usize) -> (usize, usize) {
        let mut statics = Vec::new();
        for ev in &self.events {
            if let SimEvent::TaskDispatch { task, func, static_task, .. } = *ev {
                if statics.len() <= task {
                    statics.resize(task + 1, (usize::MAX, usize::MAX));
                }
                statics[task] = (func, static_task);
            }
        }
        move |task| statics.get(task).copied().unwrap_or((usize::MAX, usize::MAX))
    }

    /// Committed task spans, in commit (= dynamic task) order.
    pub fn spans(&self) -> Vec<TaskSpan> {
        let static_of = self.static_of();
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                SimEvent::TaskCommit { task, pu, dispatch, complete, retire, insts, attempts } => {
                    let (func, static_task) = static_of(task);
                    Some(TaskSpan {
                        task,
                        pu,
                        dispatch,
                        complete,
                        retire,
                        insts,
                        attempts,
                        func,
                        static_task,
                    })
                }
                _ => None,
            })
            .collect()
    }

    /// Squash-attribution rows sorted by total squashes (descending,
    /// then by boundary for determinism), truncated to `k`.
    pub fn top_squash_boundaries(&self, k: usize) -> Vec<((usize, usize), CauseCounts)> {
        let static_of = self.static_of();
        let mut by_boundary: HashMap<(usize, usize), CauseCounts> = HashMap::new();
        for ev in &self.events {
            let SimEvent::TaskSquash { attempt, cause, .. } = *ev else { continue };
            match cause {
                SquashCause::Control { predecessor, lost_cycles } => {
                    let c = by_boundary.entry(static_of(predecessor)).or_default();
                    c.ctrl += 1;
                    c.lost_cycles += lost_cycles;
                }
                SquashCause::Memory { store_task, lost_insts, lost_cycles, .. } => {
                    let c = by_boundary.entry(static_of(store_task)).or_default();
                    if cause.label(attempt) == "cascade" {
                        c.cascade += 1;
                    } else {
                        c.mem += 1;
                    }
                    c.lost_insts += lost_insts;
                    c.lost_cycles += lost_cycles;
                }
            }
        }
        let mut rows: Vec<_> = by_boundary.into_iter().collect();
        rows.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// Stall-attribution rows `((producer, consumer, reg), cycles)`
    /// sorted by cycles (descending, then by arc), truncated to `k`.
    #[allow(clippy::type_complexity)]
    pub fn top_stall_arcs(&self, k: usize) -> Vec<(((usize, usize), (usize, usize), usize), u64)> {
        let static_of = self.static_of();
        let mut arcs: HashMap<((usize, usize), (usize, usize), usize), u64> = HashMap::new();
        for ev in &self.events {
            if let SimEvent::FwdStall { task, producer, reg, cycles } = *ev {
                *arcs.entry((static_of(producer), static_of(task), reg)).or_insert(0) += cycles;
            }
        }
        let mut rows: Vec<_> = arcs.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// Per-PU occupancy: busy cycles (Σ dispatch→retire of committed
    /// tasks) and tasks run, indexed by PU. Every PU any event names has
    /// a row — `PuIdle` reaches PUs that never commit a task.
    pub fn pu_occupancy(&self) -> Vec<(u64, u64)> {
        let pus = self.events.iter().filter_map(pu_of).map(|pu| pu + 1).max().unwrap_or(0);
        let mut out = vec![(0u64, 0u64); pus];
        for ev in &self.events {
            if let SimEvent::TaskCommit { pu, dispatch, retire, .. } = *ev {
                out[pu].0 += retire - dispatch;
                out[pu].1 += 1;
            }
        }
        out
    }

    /// Renders the attribution tables as text. `label` maps a static
    /// `(func, static_task)` pair to a human-readable boundary name
    /// (see `ms_tasksel::TaskPartition::boundary_label`); `k` bounds the
    /// rows per table.
    pub fn render(&self, k: usize, label: &dyn Fn(usize, usize) -> String) -> String {
        let mut squashes = self.top_squash_boundaries(usize::MAX);
        let mut arcs = self.top_stall_arcs(usize::MAX);
        let squash_total = |f: fn(&CauseCounts) -> u64| squashes.iter().map(|(_, c)| f(c)).sum();
        let (ctrl, mem, cascade): (u64, u64, u64) =
            (squash_total(|c| c.ctrl), squash_total(|c| c.mem), squash_total(|c| c.cascade));
        let stall: u64 = arcs.iter().map(|&(_, cycles)| cycles).sum();
        let idle: u64 = self
            .events
            .iter()
            .map(|ev| match *ev {
                SimEvent::PuIdle { from, to, .. } => to - from,
                _ => 0,
            })
            .sum();
        squashes.truncate(k);
        arcs.truncate(k);

        let mut s = String::new();
        let _ =
            writeln!(s, "squash attribution (totals: ctrl {ctrl}, mem {mem}, cascade {cascade}):");
        let _ = writeln!(
            s,
            "  {:<28} {:>6} {:>6} {:>8} {:>10} {:>11}",
            "task boundary", "ctrl", "mem", "cascade", "lost insts", "lost cycles"
        );
        for ((f, t), c) in squashes {
            let _ = writeln!(
                s,
                "  {:<28} {:>6} {:>6} {:>8} {:>10} {:>11}",
                label(f, t),
                c.ctrl,
                c.mem,
                c.cascade,
                c.lost_insts,
                c.lost_cycles
            );
        }
        let _ = writeln!(s, "stall attribution (total fwd stall cycles: {stall}):");
        let _ = writeln!(
            s,
            "  {:<28} -> {:<28} {:>4} {:>8}",
            "producer task", "consumer task", "reg", "cycles"
        );
        for (((pf, pt), (cf, ct), reg), cycles) in arcs {
            let _ = writeln!(
                s,
                "  {:<28} -> {:<28} {:>4} {:>8}",
                label(pf, pt),
                label(cf, ct),
                reg,
                cycles
            );
        }
        let _ = writeln!(s, "per-PU occupancy (idle total: {idle} PU-cycles):");
        for (pu, (busy, tasks)) in self.pu_occupancy().iter().enumerate() {
            let _ = writeln!(s, "  pu {pu}: {tasks} tasks, {busy} busy cycles");
        }
        s
    }
}

impl TraceSink for EventLog {
    fn event(&mut self, ev: &SimEvent) {
        self.events.push(*ev);
    }
}

/// The processing unit an event names, if any.
fn pu_of(ev: &SimEvent) -> Option<usize> {
    match *ev {
        SimEvent::TaskDispatch { pu, .. }
        | SimEvent::TaskSquash { pu, .. }
        | SimEvent::TaskCommit { pu, .. }
        | SimEvent::FwdSend { pu, .. }
        | SimEvent::PuIdle { pu, .. }
        | SimEvent::ArbConflict { pu, .. } => Some(pu),
        SimEvent::FwdStall { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_writes_header_then_events() {
        let mut log = EventLog::new();
        log.event(&SimEvent::PuIdle { pu: 0, from: 0, to: 4 });
        assert_eq!(log.events().len(), 1);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"schema_version\":1"));
        assert!(lines[1].starts_with("{\"ev\":\"pu_idle\""));
    }

    #[test]
    fn aggregator_attributes_squashes_to_static_boundaries() {
        let mut log = EventLog::new();
        for (task, static_task) in [(0usize, 3usize), (1, 5)] {
            log.event(&SimEvent::TaskDispatch {
                task,
                pu: task,
                cycle: 0,
                func: 0,
                static_task,
                entry_pc: 0,
                desc_miss: false,
            });
        }
        // Task 1's ctrl squash blames task 0's boundary (func 0, task 3).
        log.event(&SimEvent::TaskSquash {
            task: 1,
            pu: 1,
            cycle: 10,
            attempt: 0,
            cause: SquashCause::Control { predecessor: 0, lost_cycles: 7 },
        });
        // A memory violation against task 0's store, then a cascade.
        let cause = SquashCause::Memory {
            store_task: 0,
            store_pc: 8,
            load_pc: 16,
            lost_insts: 5,
            lost_cycles: 9,
        };
        for attempt in [1, 2] {
            log.event(&SimEvent::TaskSquash { task: 1, pu: 1, cycle: 20, attempt, cause });
        }
        log.event(&SimEvent::FwdStall { task: 1, producer: 0, reg: 4, cycles: 11 });
        log.event(&SimEvent::PuIdle { pu: 0, from: 2, to: 6 });

        let rows = log.top_squash_boundaries(10);
        assert_eq!(rows.len(), 1, "everything blamed one boundary");
        assert_eq!(rows[0].0, (0, 3));
        assert_eq!(
            rows[0].1,
            CauseCounts { ctrl: 1, mem: 1, cascade: 1, lost_insts: 10, lost_cycles: 25 }
        );
        let arcs = log.top_stall_arcs(10);
        assert_eq!(arcs, vec![(((0, 3), (0, 5), 4), 11)]);
        let text = log.render(5, &|f, t| format!("f{f}/t{t}"));
        assert!(text.contains("(totals: ctrl 1, mem 1, cascade 1)"));
        assert!(text.contains("(total fwd stall cycles: 11)"));
        assert!(text.contains("(idle total: 4 PU-cycles)"));
        assert!(text.contains("f0/t3"));
    }

    /// A log with `boundaries[i]` as dynamic task `i`'s static
    /// boundary, given one ctrl squash per entry of `blames` (each
    /// blaming that dynamic task), in the given order.
    fn squashed(boundaries: &[(usize, usize)], blames: &[usize]) -> EventLog {
        let mut log = EventLog::new();
        for (task, &(func, static_task)) in boundaries.iter().enumerate() {
            log.event(&SimEvent::TaskDispatch {
                task,
                pu: 0,
                cycle: 0,
                func,
                static_task,
                entry_pc: 0,
                desc_miss: false,
            });
        }
        for &blamed in blames {
            log.event(&SimEvent::TaskSquash {
                task: blamed,
                pu: 0,
                cycle: 1,
                attempt: 0,
                cause: SquashCause::Control { predecessor: blamed, lost_cycles: 1 },
            });
        }
        log
    }

    #[test]
    fn top_squash_boundaries_break_equal_totals_by_boundary() {
        // Three boundaries, one squash each: totals all tie, so rows
        // must come out in boundary order regardless of event order.
        let boundaries = [(1usize, 0usize), (0, 9), (0, 1)];
        let expected = [(0, 1), (0, 9), (1, 0)];
        for blames in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let log = squashed(&boundaries, &blames);
            let rows = log.top_squash_boundaries(10);
            let order: Vec<(usize, usize)> = rows.iter().map(|r| r.0).collect();
            assert_eq!(order, expected, "insertion order {blames:?} changed the table");
            // Truncation keeps the winners of the same deterministic order.
            let top2: Vec<(usize, usize)> =
                log.top_squash_boundaries(2).iter().map(|r| r.0).collect();
            assert_eq!(top2, expected[..2]);
        }
    }

    #[test]
    fn top_stall_arcs_break_equal_cycles_by_arc_key() {
        // Dynamic tasks 0..3 map to distinct boundaries; arcs carry
        // identical cycle counts so only the arc key can order them.
        let boundaries = [(0usize, 2usize), (0, 1), (1, 0), (0, 3)];
        let stalls: [(usize, usize, usize); 3] = [(3, 2, 7), (1, 0, 7), (2, 1, 7)];
        let expected: Vec<(((usize, usize), (usize, usize), usize), u64)> =
            vec![(((0, 1), (0, 2), 7), 5), (((0, 3), (1, 0), 7), 5), (((1, 0), (0, 1), 7), 5)];
        for order in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let mut log = squashed(&boundaries, &[]);
            for &i in &order {
                let (producer, task, reg) = stalls[i];
                log.event(&SimEvent::FwdStall { task, producer, reg, cycles: 5 });
            }
            assert_eq!(log.top_stall_arcs(10), expected, "order {order:?} changed the table");
            assert_eq!(log.top_stall_arcs(1), expected[..1]);
        }
    }

    #[test]
    fn aggregator_spans_collect_commits_only() {
        let mut log = EventLog::new();
        log.event(&SimEvent::TaskDispatch {
            task: 0,
            pu: 2,
            cycle: 1,
            func: 3,
            static_task: 7,
            entry_pc: 0,
            desc_miss: false,
        });
        log.event(&SimEvent::PuIdle { pu: 0, from: 0, to: 1 });
        assert!(log.spans().is_empty(), "only commits make spans");
        log.event(&SimEvent::TaskCommit {
            task: 0,
            pu: 2,
            dispatch: 1,
            complete: 9,
            retire: 10,
            insts: 8,
            attempts: 1,
        });
        assert_eq!(
            log.spans(),
            vec![TaskSpan {
                task: 0,
                pu: 2,
                dispatch: 1,
                complete: 9,
                retire: 10,
                insts: 8,
                attempts: 1,
                func: 3,
                static_task: 7,
            }]
        );
    }
}
