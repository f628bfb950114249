//! Differential comparison: the engine's committed outcome (its event
//! stream and [`SimStats`]) against the sequential [`Reference`] model.
//!
//! [`ms_sim::EventChecker`] judges the event stream against itself and
//! against the run's [`SimStats`]; this module judges both against an
//! *independent* oracle. A self-consistent engine bug — one that
//! miscounts but reconciles its own events and counters — passes every
//! streaming check and fails here.
//!
//! [`Diff`] compares each event as the engine emits it, so a check
//! records no event; [`diff`] replays a recorded [`EventLog`] through
//! the same comparisons.

use ms_sim::{EventLog, SimEvent, SimStats, SquashCause, TraceSink};

use crate::reference::Reference;

/// Cap on reported differences (mirrors the checker's own error cap).
const MAX_DIFFS: usize = 64;

/// Compares the engine's recorded outcome against the reference model.
/// Returns one message per disagreement; empty means conformant.
pub fn diff(reference: &Reference, log: &EventLog, stats: &SimStats) -> Vec<String> {
    let mut d = Diff::new(reference);
    for ev in log.events() {
        d.event(ev);
    }
    d.finish(stats)
}

/// The report's per-event sections, in report order (after the totals).
const DISPATCH: usize = 0;
const COMMIT: usize = 1;
const FORWARD: usize = 2;
const SQUASH: usize = 3;

/// One report section's messages: the first [`MAX_DIFFS`] (no later one
/// can make the capped report) and how many there were.
#[derive(Debug, Default)]
struct Section {
    msgs: Vec<String>,
    count: usize,
}

/// The differential comparison as a [`TraceSink`]: each event is
/// compared with `reference` as it arrives, and [`Diff::finish`] reports
/// the totals first, then the per-task dispatch identities, commit
/// counts, forwards and squashes, in event order within each.
#[derive(Debug)]
pub(crate) struct Diff<'r> {
    reference: &'r Reference,
    /// Dispatch and commit events seen: the `n`-th of each is compared
    /// with the `n`-th reference task.
    dispatches: usize,
    commits: usize,
    sections: [Section; 4],
}

impl<'r> Diff<'r> {
    pub(crate) fn new(reference: &'r Reference) -> Self {
        Diff { reference, dispatches: 0, commits: 0, sections: Default::default() }
    }

    fn push(&mut self, section: usize, msg: impl FnOnce() -> String) {
        let s = &mut self.sections[section];
        if s.msgs.len() < MAX_DIFFS {
            s.msgs.push(msg());
        }
        s.count += 1;
    }

    /// Ends the comparison of a run whose statistics are `stats`: one
    /// message per disagreement, the first [`MAX_DIFFS`] of them and
    /// then a count of the rest.
    pub(crate) fn finish(self, stats: &SimStats) -> Vec<String> {
        let r = self.reference;
        let mut out = Vec::new();
        if r.tasks.len() != stats.num_dyn_tasks {
            out.push(format!(
                "reference sees {} dynamic tasks, engine committed {}",
                r.tasks.len(),
                stats.num_dyn_tasks
            ));
        }
        if r.total_insts != stats.total_insts {
            out.push(format!(
                "reference counts {} insts, engine retired {}",
                r.total_insts, stats.total_insts
            ));
        }
        if r.total_ct_insts != stats.ct_insts {
            out.push(format!(
                "reference counts {} ct insts, engine retired {}",
                r.total_ct_insts, stats.ct_insts
            ));
        }
        let mut dropped = 0;
        for s in self.sections {
            let room = MAX_DIFFS - out.len();
            dropped += s.count - s.count.min(room);
            out.extend(s.msgs.into_iter().take(room));
        }
        if dropped > 0 {
            out.push(format!("… {dropped} further differences dropped"));
        }
        out
    }
}

impl TraceSink for Diff<'_> {
    fn event(&mut self, ev: &SimEvent) {
        match *ev {
            // Per-task identity: the engine must dispatch the same
            // static task of the same function that the sequential walk
            // enters.
            SimEvent::TaskDispatch { task, func, static_task, .. } => {
                let n = self.dispatches;
                self.dispatches += 1;
                let Some(rt) = self.reference.tasks.get(n) else { return };
                if (rt.func, rt.static_task) != (func, static_task) {
                    let (rf, rs) = (rt.func, rt.static_task);
                    self.push(DISPATCH, || {
                        format!(
                            "task {task}: reference enters fn {rf} task {rs}, engine dispatched fn {func} task {static_task}"
                        )
                    });
                }
            }
            // Per-task instruction counts: what each commit retires must
            // equal the program-order walk of its step range.
            SimEvent::TaskCommit { task, insts, .. } => {
                let n = self.commits;
                self.commits += 1;
                let Some(rt) = self.reference.tasks.get(n) else { return };
                if rt.insts != insts {
                    let walked = rt.insts;
                    self.push(COMMIT, || {
                        format!(
                            "task {task}: reference walks {walked} insts, engine committed {insts}"
                        )
                    });
                }
            }
            // Forwarded registers must be registers the producing task
            // writes.
            SimEvent::FwdSend { task, reg, .. } => {
                let Some(rt) = self.reference.tasks.get(task) else { return };
                if rt.writes >> reg & 1 == 0 {
                    self.push(FORWARD, || {
                        format!("task {task}: forwarded reg {reg} that the task never writes")
                    });
                }
            }
            // Every memory squash must blame a (store_pc, load_pc) pair
            // the sequential walk identifies as a real cross-task
            // conflict.
            SimEvent::TaskSquash { task, attempt, cause, .. } => {
                let SquashCause::Memory { store_pc, load_pc, .. } = cause else { return };
                let label = cause.label(attempt);
                if !self.reference.mem_conflicts.contains(&(store_pc, load_pc)) {
                    self.push(SQUASH, || {
                        format!(
                            "task {task}: {label} squash blames store {store_pc:#x} → load {load_pc:#x}, not a conflict in program order"
                        )
                    });
                }
            }
            SimEvent::FwdStall { .. } | SimEvent::PuIdle { .. } | SimEvent::ArbConflict { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::reference::RefTask;

    fn dispatch(task: usize, static_task: usize) -> SimEvent {
        SimEvent::TaskDispatch {
            task,
            pu: 0,
            cycle: 0,
            func: 0,
            static_task,
            entry_pc: 0,
            desc_miss: false,
        }
    }

    fn commit(task: usize, insts: u64) -> SimEvent {
        SimEvent::TaskCommit {
            task,
            pu: 0,
            dispatch: 0,
            complete: 0,
            retire: 0,
            insts,
            attempts: 1,
        }
    }

    fn fwd(task: usize, reg: usize) -> SimEvent {
        SimEvent::FwdSend { task, pu: 0, reg, ready: 0, sent: 0 }
    }

    fn mem_squash(task: usize, store_pc: u64, load_pc: u64) -> SimEvent {
        let cause =
            SquashCause::Memory { store_task: 0, store_pc, load_pc, lost_insts: 0, lost_cycles: 0 };
        SimEvent::TaskSquash { task, pu: 0, cycle: 0, attempt: 1, cause }
    }

    /// Two tasks: task `k` is static task `k` of 4 instructions and
    /// writes only `r1`; `0x10 → 0x20` is the one conflict.
    fn two_tasks() -> Reference {
        let task = |k| RefTask { func: 0, static_task: k, insts: 4, ct_insts: 1, writes: 0b10 };
        Reference {
            tasks: vec![task(0), task(1)],
            total_insts: 8,
            total_ct_insts: 2,
            mem_conflicts: BTreeSet::from([(0x10, 0x20)]),
        }
    }

    fn diff_of(events: &[SimEvent], stats: &SimStats) -> Vec<String> {
        let mut log = EventLog::new();
        events.iter().for_each(|ev| log.event(ev));
        diff(&two_tasks(), &log, stats)
    }

    /// Messages come grouped by kind whatever the event order: totals,
    /// dispatch identities, commit counts, forwards, squashes.
    #[test]
    fn differences_are_reported_by_kind() {
        let events = [
            dispatch(0, 1),
            mem_squash(0, 0x30, 0x40),
            fwd(0, 3),
            commit(0, 3),
            dispatch(1, 1),
            mem_squash(1, 0x10, 0x20),
            fwd(1, 1),
            commit(1, 4),
        ];
        let stats =
            SimStats { num_dyn_tasks: 2, total_insts: 7, ct_insts: 2, ..SimStats::default() };
        assert_eq!(
            diff_of(&events, &stats),
            [
                "reference counts 8 insts, engine retired 7",
                "task 0: reference enters fn 0 task 0, engine dispatched fn 0 task 1",
                "task 0: reference walks 4 insts, engine committed 3",
                "task 0: forwarded reg 3 that the task never writes",
                "task 0: mem squash blames store 0x30 → load 0x40, not a conflict in program order",
            ]
        );
    }

    /// The first 64 messages in report order, then one line counting the
    /// rest.
    #[test]
    fn a_flood_of_differences_is_capped() {
        let mut events = vec![dispatch(0, 0), commit(0, 4), dispatch(1, 1)];
        events.extend((0..70).map(|_| fwd(1, 2)));
        events.push(commit(1, 5));
        let stats =
            SimStats { num_dyn_tasks: 3, total_insts: 9, ct_insts: 2, ..SimStats::default() };
        let out = diff_of(&events, &stats);
        assert_eq!(out.len(), 65);
        assert_eq!(out[0], "reference sees 2 dynamic tasks, engine committed 3");
        assert_eq!(out[2], "task 1: reference walks 4 insts, engine committed 5");
        assert!(out[3..64]
            .iter()
            .all(|m| m == "task 1: forwarded reg 2 that the task never writes"));
        assert_eq!(out[64], "… 9 further differences dropped");
    }
}
