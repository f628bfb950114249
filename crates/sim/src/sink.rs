//! Ready-made [`TraceSink`] implementations: a schema-versioned JSONL
//! writer, and an in-memory aggregator that collects the per-task time
//! line ([`TraceAggregator::spans`]) and turns the event stream into
//! attribution tables (top squash-causing task boundaries, top
//! stall-causing def-use arcs, per-PU occupancy).

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::event::{SimEvent, SquashCause, TraceSink, TRACE_SCHEMA_VERSION};

/// Buffers the event stream as JSON Lines text: one header record naming
/// the schema version, then one [`SimEvent::to_json`] record per line.
///
/// The trace is built in memory (deterministically — byte-identical for
/// identical runs) and handed back with [`JsonlSink::into_string`]; the
/// caller decides where it goes (file, golden test, stdout).
#[derive(Debug)]
pub struct JsonlSink {
    buf: String,
    events: u64,
}

impl JsonlSink {
    /// Starts a trace: writes the schema header line.
    pub fn new() -> Self {
        let mut buf = String::new();
        let _ = writeln!(
            buf,
            "{{\"ev\":\"header\",\"schema_version\":{TRACE_SCHEMA_VERSION},\
             \"format\":\"ms-sim-event-trace\"}}"
        );
        JsonlSink { buf, events: 0 }
    }

    /// Number of event records written (header excluded).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The finished JSONL text (header line + one line per event).
    pub fn into_string(self) -> String {
        self.buf
    }
}

impl Default for JsonlSink {
    fn default() -> Self {
        JsonlSink::new()
    }
}

impl TraceSink for JsonlSink {
    fn event(&mut self, ev: &SimEvent) {
        self.buf.push_str(&ev.to_json());
        self.buf.push('\n');
        self.events += 1;
    }
}

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

/// A squash occurrence, reduced to what the occupancy/Chrome views need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SquashRecord {
    /// Cycle the squash was detected.
    pub cycle: u64,
    /// PU of the victim.
    pub pu: usize,
    /// Dynamic index of the victim task.
    pub task: usize,
    /// Cause kind: 0 = control, 1 = memory, 2 = cascade.
    pub kind: u8,
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

/// In-memory event aggregator: reconciles event totals against
/// [`crate::SimStats`] and derives the attribution tables the `trace`
/// subcommand prints.
///
/// Grouping is by *static* task identity: each `TaskDispatch` maps its
/// dynamic index to `(func, static_task)`, and squashes/stalls are
/// charged to the static boundary of the dynamic task they blame.
#[derive(Debug, Default)]
pub struct TraceAggregator {
    /// `(func, static_task, pu)` per dynamic task, from dispatch events.
    meta: Vec<(usize, usize, usize)>,
    /// Committed task spans, in dynamic task order.
    pub spans: Vec<TaskSpan>,
    /// Squash occurrences, in emission order.
    pub squashes: Vec<SquashRecord>,
    /// Control squash events seen (= `SimStats::ctrl_squashes`).
    pub ctrl_squashes: u64,
    /// First-attempt memory squash events seen (`mem_squashes +
    /// cascade_squashes` = `SimStats::violations`).
    pub mem_squashes: u64,
    /// Cascade (re-attempt) memory squash events seen.
    pub cascade_squashes: u64,
    /// Summed `FwdStall` cycles (= `SimStats::fwd_stall_cycles`).
    pub fwd_stall_cycles: u64,
    /// Summed `PuIdle` lengths (= `SimStats::pu_idle_cycles`).
    pub idle_cycles: u64,
    /// `FwdSend` events seen (= `SimStats::reg_forwards`).
    pub fwd_sends: u64,
    /// `ArbConflict` events seen (= `SimStats::arb_overflows`).
    pub arb_conflicts: u64,
    /// Per-boundary squash attribution: `(func, static_task)` → counts.
    by_boundary: HashMap<(usize, usize), CauseCounts>,
    /// Stalled def-use arcs: `(producer (func, task), consumer (func,
    /// task), reg)` → cycles.
    stall_arcs: HashMap<((usize, usize), (usize, usize), usize), u64>,
}

impl TraceAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        TraceAggregator::default()
    }

    fn static_of(&self, task: usize) -> (usize, usize) {
        let (f, t, _) = self.meta.get(task).copied().unwrap_or((usize::MAX, usize::MAX, 0));
        (f, t)
    }

    /// Squash-attribution rows sorted by total squashes (descending,
    /// then by boundary for determinism), truncated to `k`.
    pub fn top_squash_boundaries(&self, k: usize) -> Vec<((usize, usize), CauseCounts)> {
        let mut rows: Vec<_> = self.by_boundary.iter().map(|(&b, &c)| (b, c)).collect();
        rows.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// Stall-attribution rows `((producer, consumer, reg), cycles)`
    /// sorted by cycles (descending, then by arc), truncated to `k`.
    #[allow(clippy::type_complexity)]
    pub fn top_stall_arcs(&self, k: usize) -> Vec<(((usize, usize), (usize, usize), usize), u64)> {
        let mut rows: Vec<_> = self.stall_arcs.iter().map(|(&a, &c)| (a, c)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// Per-PU occupancy: busy cycles (Σ dispatch→retire of committed
    /// tasks) and tasks run, indexed by PU.
    pub fn pu_occupancy(&self) -> Vec<(u64, u64)> {
        let pus = self.spans.iter().map(|s| s.pu + 1).max().unwrap_or(0);
        let mut out = vec![(0u64, 0u64); pus];
        for s in &self.spans {
            out[s.pu].0 += s.retire - s.dispatch;
            out[s.pu].1 += 1;
        }
        out
    }

    /// Renders the attribution tables as text. `label` maps a static
    /// `(func, static_task)` pair to a human-readable boundary name
    /// (see `ms_tasksel::TaskPartition::boundary_label`); `k` bounds the
    /// rows per table.
    pub fn render(&self, k: usize, label: &dyn Fn(usize, usize) -> String) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "squash attribution (totals: ctrl {}, mem {}, cascade {}):",
            self.ctrl_squashes, self.mem_squashes, self.cascade_squashes
        );
        let _ = writeln!(
            s,
            "  {:<28} {:>6} {:>6} {:>8} {:>10} {:>11}",
            "task boundary", "ctrl", "mem", "cascade", "lost insts", "lost cycles"
        );
        for ((f, t), c) in self.top_squash_boundaries(k) {
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
        let _ =
            writeln!(s, "stall attribution (total fwd stall cycles: {}):", self.fwd_stall_cycles);
        let _ = writeln!(
            s,
            "  {:<28} -> {:<28} {:>4} {:>8}",
            "producer task", "consumer task", "reg", "cycles"
        );
        for (((pf, pt), (cf, ct), reg), cycles) in self.top_stall_arcs(k) {
            let _ = writeln!(
                s,
                "  {:<28} -> {:<28} {:>4} {:>8}",
                label(pf, pt),
                label(cf, ct),
                reg,
                cycles
            );
        }
        let _ = writeln!(s, "per-PU occupancy (idle total: {} PU-cycles):", self.idle_cycles);
        for (pu, (busy, tasks)) in self.pu_occupancy().iter().enumerate() {
            let _ = writeln!(s, "  pu {pu}: {tasks} tasks, {busy} busy cycles");
        }
        s
    }
}

impl TraceSink for TraceAggregator {
    fn event(&mut self, ev: &SimEvent) {
        match *ev {
            SimEvent::TaskDispatch { task, pu, func, static_task, .. } => {
                if self.meta.len() <= task {
                    self.meta.resize(task + 1, (usize::MAX, usize::MAX, 0));
                }
                self.meta[task] = (func, static_task, pu);
            }
            SimEvent::TaskSquash { task, pu, cycle, cause, .. } => {
                let kind = match cause {
                    SquashCause::Control { predecessor, lost_cycles } => {
                        self.ctrl_squashes += 1;
                        let c = self.by_boundary.entry(self.static_of(predecessor)).or_default();
                        c.ctrl += 1;
                        c.lost_cycles += lost_cycles;
                        0u8
                    }
                    SquashCause::Memory { store_task, lost_insts, lost_cycles, .. } => {
                        self.mem_squashes += 1;
                        let c = self.by_boundary.entry(self.static_of(store_task)).or_default();
                        c.mem += 1;
                        c.lost_insts += lost_insts;
                        c.lost_cycles += lost_cycles;
                        1u8
                    }
                    SquashCause::Cascade { store_task, lost_insts, lost_cycles, .. } => {
                        self.cascade_squashes += 1;
                        let c = self.by_boundary.entry(self.static_of(store_task)).or_default();
                        c.cascade += 1;
                        c.lost_insts += lost_insts;
                        c.lost_cycles += lost_cycles;
                        2u8
                    }
                };
                self.squashes.push(SquashRecord { cycle, pu, task, kind });
            }
            SimEvent::TaskCommit { task, pu, dispatch, complete, retire, insts, attempts } => {
                let (func, static_task) = self.static_of(task);
                self.spans.push(TaskSpan {
                    task,
                    pu,
                    dispatch,
                    complete,
                    retire,
                    insts,
                    attempts,
                    func,
                    static_task,
                });
            }
            SimEvent::FwdSend { .. } => self.fwd_sends += 1,
            SimEvent::FwdStall { task, producer, reg, cycles } => {
                self.fwd_stall_cycles += cycles;
                let arc = (self.static_of(producer), self.static_of(task), reg);
                *self.stall_arcs.entry(arc).or_insert(0) += cycles;
            }
            SimEvent::PuIdle { from, to, .. } => self.idle_cycles += to - from,
            SimEvent::ArbConflict { .. } => self.arb_conflicts += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_writes_header_then_events() {
        let mut sink = JsonlSink::new();
        sink.event(&SimEvent::PuIdle { pu: 0, from: 0, to: 4 });
        assert_eq!(sink.events(), 1);
        let text = sink.into_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"schema_version\":1"));
        assert!(lines[1].starts_with("{\"ev\":\"pu_idle\""));
    }

    #[test]
    fn aggregator_attributes_squashes_to_static_boundaries() {
        let mut agg = TraceAggregator::new();
        for (task, static_task) in [(0usize, 3usize), (1, 5)] {
            agg.event(&SimEvent::TaskDispatch {
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
        agg.event(&SimEvent::TaskSquash {
            task: 1,
            pu: 1,
            cycle: 10,
            attempt: 0,
            cause: SquashCause::Control { predecessor: 0, lost_cycles: 7 },
        });
        // A memory violation against task 0's store, then a cascade.
        for (attempt, cause) in [
            (
                1,
                SquashCause::Memory {
                    store_task: 0,
                    store_pc: 8,
                    load_pc: 16,
                    lost_insts: 5,
                    lost_cycles: 9,
                },
            ),
            (
                2,
                SquashCause::Cascade {
                    store_task: 0,
                    store_pc: 8,
                    load_pc: 16,
                    lost_insts: 5,
                    lost_cycles: 9,
                },
            ),
        ] {
            agg.event(&SimEvent::TaskSquash { task: 1, pu: 1, cycle: 20, attempt, cause });
        }
        agg.event(&SimEvent::FwdStall { task: 1, producer: 0, reg: 4, cycles: 11 });
        agg.event(&SimEvent::PuIdle { pu: 0, from: 2, to: 6 });

        assert_eq!(agg.ctrl_squashes, 1);
        assert_eq!(agg.mem_squashes, 1);
        assert_eq!(agg.cascade_squashes, 1);
        assert_eq!(agg.fwd_stall_cycles, 11);
        assert_eq!(agg.idle_cycles, 4);
        let rows = agg.top_squash_boundaries(10);
        assert_eq!(rows.len(), 1, "everything blamed one boundary");
        assert_eq!(rows[0].0, (0, 3));
        assert_eq!(
            rows[0].1,
            CauseCounts { ctrl: 1, mem: 1, cascade: 1, lost_insts: 10, lost_cycles: 25 }
        );
        let arcs = agg.top_stall_arcs(10);
        assert_eq!(arcs, vec![(((0, 3), (0, 5), 4), 11)]);
        let text = agg.render(5, &|f, t| format!("f{f}/t{t}"));
        assert!(text.contains("ctrl 1, mem 1, cascade 1"));
        assert!(text.contains("f0/t3"));
    }

    /// An aggregator with `boundaries[i]` as dynamic task `i`'s static
    /// boundary, given one ctrl squash per entry of `blames` (each
    /// blaming that dynamic task), in the given order.
    fn squashed(boundaries: &[(usize, usize)], blames: &[usize]) -> TraceAggregator {
        let mut agg = TraceAggregator::new();
        for (task, &(func, static_task)) in boundaries.iter().enumerate() {
            agg.event(&SimEvent::TaskDispatch {
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
            agg.event(&SimEvent::TaskSquash {
                task: blamed,
                pu: 0,
                cycle: 1,
                attempt: 0,
                cause: SquashCause::Control { predecessor: blamed, lost_cycles: 1 },
            });
        }
        agg
    }

    #[test]
    fn top_squash_boundaries_break_equal_totals_by_boundary() {
        // Three boundaries, one squash each: totals all tie, so rows
        // must come out in boundary order regardless of event order.
        let boundaries = [(1usize, 0usize), (0, 9), (0, 1)];
        let expected = [(0, 1), (0, 9), (1, 0)];
        for blames in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let agg = squashed(&boundaries, &blames);
            let rows = agg.top_squash_boundaries(10);
            let order: Vec<(usize, usize)> = rows.iter().map(|r| r.0).collect();
            assert_eq!(order, expected, "insertion order {blames:?} changed the table");
            // Truncation keeps the winners of the same deterministic order.
            let top2: Vec<(usize, usize)> =
                agg.top_squash_boundaries(2).iter().map(|r| r.0).collect();
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
            let mut agg = squashed(&boundaries, &[]);
            for &i in &order {
                let (producer, task, reg) = stalls[i];
                agg.event(&SimEvent::FwdStall { task, producer, reg, cycles: 5 });
            }
            assert_eq!(agg.top_stall_arcs(10), expected, "order {order:?} changed the table");
            assert_eq!(agg.top_stall_arcs(1), expected[..1]);
        }
    }

    #[test]
    fn aggregator_spans_collect_commits_only() {
        let mut agg = TraceAggregator::new();
        agg.event(&SimEvent::TaskDispatch {
            task: 0,
            pu: 2,
            cycle: 1,
            func: 3,
            static_task: 7,
            entry_pc: 0,
            desc_miss: false,
        });
        agg.event(&SimEvent::PuIdle { pu: 0, from: 0, to: 1 });
        assert!(agg.spans.is_empty(), "only commits make spans");
        agg.event(&SimEvent::TaskCommit {
            task: 0,
            pu: 2,
            dispatch: 1,
            complete: 9,
            retire: 10,
            insts: 8,
            attempts: 1,
        });
        assert_eq!(
            agg.spans,
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
