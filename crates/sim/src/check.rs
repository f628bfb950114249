//! The simulator's self-check: the event-level invariants every run
//! must satisfy, checked in event order, plus end-of-run reconciliation
//! against the aggregate [`SimStats`] counters.
//!
//! [`EventChecker`] is a [`TraceSink`]: it checks a run as the engine
//! emits its events, with nothing recorded, and
//! [`EventLog::check`] replays a recorded log through the same checker.
//! It validates what can be judged from the event stream and the
//! engine's contract alone:
//!
//! * tasks dispatch and commit in sequential (dynamic index) order;
//! * per-task timing is sane (`dispatch ≤ complete ≤ retire`) and the
//!   retire chain is strictly increasing — the Multiscalar head token
//!   passes at most one task per cycle;
//! * a commit's `attempts` equals one plus the memory/cascade squashes
//!   observed for that task;
//! * control squashes blame the immediate predecessor and hit the
//!   not-yet-dispatched instance (`attempt 0`); memory squashes blame an
//!   earlier task; a register forward is never received before the
//!   producer's send (`sent ≥ ready`, producer committed first);
//! * per-PU idle intervals are non-empty, non-overlapping, and — with
//!   the busy spans from the commits — tile each PU's timeline exactly.
//!
//! The reconciliation then matches event totals with the run's
//! [`SimStats`] (the identities documented in [`crate::event`]). What
//! the stream *cannot* judge — whether a memory squash corresponds to a
//! real address conflict, whether per-task instruction counts match a
//! program-order walk of the trace — is the job of the sequential
//! reference model in the `ms-conform` crate, which reads the same
//! events.
//!
//! Checking is strictly opt-in: the plain [`crate::Simulator::run`] path
//! uses the [`crate::NullSink`] and stays allocation-free (pinned by the
//! counting-allocator tests); checking never changes the simulated
//! outcome, only observes it.

use ms_ir::NUM_REGS;

use crate::event::{SimEvent, SquashCause, TraceSink};
use crate::sink::EventLog;
use crate::stats::SimStats;

/// Cap on recorded violation messages (a broken run can emit millions of
/// bad events; the first few dozen identify the bug).
const MAX_ERRORS: usize = 64;

impl EventLog {
    /// Checks the recorded run (see the module docs for the invariant
    /// list) by replaying it through an [`EventChecker`]: every
    /// streaming violation in event order, then the event/counter
    /// reconciliation failures against `stats`. An empty vector means
    /// the run passed all checks.
    ///
    /// ```
    /// use ms_sim::{EventLog, SimConfig, Simulator};
    /// # use ms_analysis::ProgramContext;
    /// # use ms_tasksel::{SelectorBuilder, Strategy};
    /// # use ms_trace::TraceGenerator;
    /// # let program = ms_workloads::by_name("compress").unwrap().build();
    /// # let sel = SelectorBuilder::new(Strategy::ControlFlow)
    /// #     .build()
    /// #     .select(&ProgramContext::new(program));
    /// # let trace = TraceGenerator::new(&sel.program, 1).generate(2_000);
    /// let mut log = EventLog::new();
    /// let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition)
    ///     .run_with_sink(&trace, &mut log);
    /// assert_eq!(log.check(&stats), Vec::<String>::new());
    /// ```
    pub fn check(&self, stats: &SimStats) -> Vec<String> {
        let mut checker = EventChecker::default();
        for ev in self.events() {
            checker.event(ev);
        }
        checker.finish(stats)
    }
}

/// The event-stream checker as a [`TraceSink`] (see the module docs for
/// the invariant list): pass it to a run, then [`EventChecker::finish`]
/// it with the run's statistics.
///
/// ```
/// use ms_sim::{EventChecker, SimConfig, Simulator};
/// # use ms_analysis::ProgramContext;
/// # use ms_tasksel::{SelectorBuilder, Strategy};
/// # use ms_trace::TraceGenerator;
/// # let program = ms_workloads::by_name("compress").unwrap().build();
/// # let sel = SelectorBuilder::new(Strategy::ControlFlow)
/// #     .build()
/// #     .select(&ProgramContext::new(program));
/// # let trace = TraceGenerator::new(&sel.program, 1).generate(2_000);
/// let mut checker = EventChecker::default();
/// let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition)
///     .run_with_sink(&trace, &mut checker);
/// assert_eq!(checker.finish(&stats), Vec::<String>::new());
/// ```
#[derive(Debug, Default)]
pub struct EventChecker {
    errors: Vec<String>,
    dropped_errors: u64,
    /// First-attempt dispatch cycle of every dispatch seen, in order.
    dispatch_cycles: Vec<u64>,
    commits: usize,
    last_retire: Option<u64>,
    committed_insts: u64,
    /// Memory/cascade squashes of the task currently executing.
    cur_mem_squashes: u32,
    ctrl_squashes: u64,
    mem_squashes: u64,
    sends: u64,
    fwd_stall_cycles: u64,
    arb_conflicts: u64,
    /// Per PU: busy cycles, idle cycles, end of the last idle interval.
    pus: Vec<(u64, u64, Option<u64>)>,
}

impl EventChecker {
    fn err(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        } else {
            self.dropped_errors += 1;
        }
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.err(msg());
        }
    }

    fn pu(&mut self, pu: usize) -> &mut (u64, u64, Option<u64>) {
        if self.pus.len() <= pu {
            self.pus.resize(pu + 1, (0, 0, None));
        }
        &mut self.pus[pu]
    }
    /// Ends the check of a run whose statistics are `stats`: every
    /// streaming violation in event order (the first 64, then a count
    /// of the rest), then the event/counter reconciliation failures. An
    /// empty vector means the run passed all checks.
    pub fn finish(self, stats: &SimStats) -> Vec<String> {
        let mut out = self.errors;
        if self.dropped_errors > 0 {
            out.push(format!("… {} further violations dropped", self.dropped_errors));
        }
        let mut check = |ok: bool, msg: String| {
            if !ok {
                out.push(msg);
            }
        };
        let dispatches = self.dispatch_cycles.len();
        check(
            dispatches == stats.num_dyn_tasks,
            format!("dispatch events {dispatches} != num_dyn_tasks {}", stats.num_dyn_tasks),
        );
        check(
            self.commits == stats.num_dyn_tasks,
            format!("commit events {} != num_dyn_tasks {}", self.commits, stats.num_dyn_tasks),
        );
        check(
            self.ctrl_squashes == stats.ctrl_squashes,
            format!(
                "ctrl squash events {} != ctrl_squashes {}",
                self.ctrl_squashes, stats.ctrl_squashes
            ),
        );
        check(
            self.mem_squashes == stats.violations,
            format!(
                "mem+cascade squash events {} != violations {}",
                self.mem_squashes, stats.violations
            ),
        );
        check(
            self.committed_insts == stats.total_insts,
            format!(
                "committed insts {} != total_insts {}",
                self.committed_insts, stats.total_insts
            ),
        );
        check(
            self.sends == stats.reg_forwards,
            format!("fwd_send events {} != reg_forwards {}", self.sends, stats.reg_forwards),
        );
        check(
            self.fwd_stall_cycles == stats.fwd_stall_cycles,
            format!(
                "fwd_stall event cycles {} != fwd_stall_cycles {}",
                self.fwd_stall_cycles, stats.fwd_stall_cycles
            ),
        );
        let idle_total: u64 = self.pus.iter().map(|&(_, idle, _)| idle).sum();
        check(
            idle_total == stats.pu_idle_cycles,
            format!("idle event cycles {idle_total} != pu_idle_cycles {}", stats.pu_idle_cycles),
        );
        check(
            self.arb_conflicts == stats.arb_overflows,
            format!("arb events {} != arb_overflows {}", self.arb_conflicts, stats.arb_overflows),
        );
        if let Some(last) = self.last_retire {
            check(
                last == stats.total_cycles,
                format!("last retire {last} != total_cycles {}", stats.total_cycles),
            );
        }
        // Busy + idle tile each PU's timeline exactly.
        for pu in 0..stats.num_pus {
            let (busy, idle, _) = self.pus.get(pu).copied().unwrap_or_default();
            check(
                busy + idle == stats.total_cycles,
                format!(
                    "pu {pu}: busy {busy} + idle {idle} != total_cycles {}",
                    stats.total_cycles
                ),
            );
        }
        out
    }
}

impl TraceSink for EventChecker {
    fn event(&mut self, ev: &SimEvent) {
        match *ev {
            SimEvent::TaskDispatch { task, cycle, .. } => {
                let expected = self.dispatch_cycles.len();
                self.check(task == expected, || {
                    format!("dispatch of task {task} out of order (expected {expected})")
                });
                self.cur_mem_squashes = 0;
                self.dispatch_cycles.push(cycle);
            }
            SimEvent::TaskSquash { task, attempt, cause, .. } => match cause {
                SquashCause::Control { predecessor, .. } => {
                    self.ctrl_squashes += 1;
                    self.check(attempt == 0, || {
                        format!("ctrl squash of task {task} on attempt {attempt} (must be 0)")
                    });
                    self.check(predecessor + 1 == task, || {
                        format!("ctrl squash of task {task} blames non-adjacent {predecessor}")
                    });
                    let next = self.dispatch_cycles.len();
                    self.check(task == next, || {
                        format!("ctrl squash hit dispatched task {task} (next dispatch {next})")
                    });
                }
                SquashCause::Memory { store_task, .. } => {
                    let current = self.dispatch_cycles.len().wrapping_sub(1);
                    self.check(task == current, || {
                        format!("mem squash of task {task} but task {current} is executing")
                    });
                    self.check(store_task < task, || {
                        format!("mem squash of task {task} blames store in task {store_task}")
                    });
                    self.cur_mem_squashes += 1;
                    self.mem_squashes += 1;
                }
            },
            SimEvent::TaskCommit { task, pu, dispatch, complete, retire, insts, attempts } => {
                let expected = self.commits;
                self.check(task == expected, || {
                    format!("commit of task {task} out of sequential order (expected {expected})")
                });
                self.check(task + 1 == self.dispatch_cycles.len(), || {
                    format!("commit of task {task} before its dispatch")
                });
                if let Some(&first) = self.dispatch_cycles.get(task) {
                    self.check(dispatch >= first, || {
                        format!("task {task}: final dispatch {dispatch} precedes first {first}")
                    });
                }
                self.check(complete >= dispatch, || {
                    format!("task {task}: complete {complete} precedes dispatch {dispatch}")
                });
                self.check(retire >= complete, || {
                    format!("task {task}: retire {retire} precedes complete {complete}")
                });
                if let Some(prev_retire) = self.last_retire {
                    self.check(retire > prev_retire, || {
                        format!(
                            "task {task}: retire {retire} not after predecessor's {prev_retire}"
                        )
                    });
                }
                let expected_attempts = 1 + self.cur_mem_squashes;
                self.check(attempts == expected_attempts, || {
                    format!(
                        "task {task}: {attempts} attempts but {} squashes observed",
                        expected_attempts - 1
                    )
                });
                self.commits += 1;
                self.last_retire = Some(retire);
                self.committed_insts += insts;
                self.pu(pu).0 += retire.saturating_sub(dispatch);
            }
            SimEvent::FwdSend { task, reg, ready, sent, .. } => {
                let committed = self.commits.wrapping_sub(1);
                self.check(task == committed, || {
                    format!("fwd_send from task {task} outside its commit window")
                });
                self.check(sent >= ready, || {
                    format!("task {task}: reg {reg} sent {sent} before ready {ready}")
                });
                self.check(reg < NUM_REGS, || {
                    format!("task {task}: forwarded register {reg} out of range")
                });
                self.sends += 1;
            }
            SimEvent::FwdStall { task, producer, reg, cycles } => {
                self.check(producer < task, || {
                    format!("task {task}: stalled on non-earlier producer {producer} (reg {reg})")
                });
                self.check(cycles > 0, || format!("task {task}: empty fwd stall (reg {reg})"));
                self.fwd_stall_cycles += cycles;
            }
            SimEvent::PuIdle { pu, from, to } => {
                self.check(to > from, || format!("pu {pu}: empty idle interval [{from}, {to})"));
                if let Some(prev_to) = self.pu(pu).2 {
                    self.check(from >= prev_to, || {
                        format!("pu {pu}: idle interval [{from}, {to}) overlaps previous")
                    });
                }
                let state = self.pu(pu);
                state.1 += to.saturating_sub(from);
                state.2 = Some(to);
            }
            SimEvent::ArbConflict { task, .. } => {
                let current = self.dispatch_cycles.len().wrapping_sub(1);
                self.check(task == current, || {
                    format!("arb conflict for task {task} but task {current} is executing")
                });
                self.arb_conflicts += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceSink;

    /// Checks `log` against empty stats: its streaming violations, then
    /// whatever does not reconcile with an empty run.
    fn violations(log: &EventLog) -> Vec<String> {
        log.check(&SimStats::default())
    }

    fn commit(task: usize, dispatch: u64, retire: u64) -> SimEvent {
        SimEvent::TaskCommit {
            task,
            pu: 0,
            dispatch,
            complete: retire - 1,
            retire,
            insts: 4,
            attempts: 1,
        }
    }

    #[test]
    fn clean_stream_reconciles() {
        let mut c = EventLog::new();
        c.event(&SimEvent::TaskDispatch {
            task: 0,
            pu: 0,
            cycle: 0,
            func: 0,
            static_task: 0,
            entry_pc: 0,
            desc_miss: false,
        });
        c.event(&commit(0, 0, 10));
        c.event(&SimEvent::PuIdle { pu: 0, from: 10, to: 12 });
        let stats = SimStats {
            num_pus: 1,
            num_dyn_tasks: 1,
            total_insts: 4,
            total_cycles: 12,
            pu_idle_cycles: 2,
            ..SimStats::default()
        };
        // total_cycles (12) != last retire (10): deliberately one error.
        let errors = c.check(&stats);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("last retire"), "{errors:?}");
    }

    #[test]
    fn out_of_order_commit_is_flagged() {
        let mut c = EventLog::new();
        for t in 0..2 {
            c.event(&SimEvent::TaskDispatch {
                task: t,
                pu: 0,
                cycle: t as u64,
                func: 0,
                static_task: 0,
                entry_pc: 0,
                desc_miss: false,
            });
        }
        c.event(&commit(1, 1, 9));
        let errors = violations(&c);
        assert!(errors.iter().any(|e| e.contains("out of sequential order")), "{errors:?}");
    }

    #[test]
    fn retire_must_strictly_increase() {
        let mut c = EventLog::new();
        for t in 0..2 {
            c.event(&SimEvent::TaskDispatch {
                task: t,
                pu: 0,
                cycle: 0,
                func: 0,
                static_task: 0,
                entry_pc: 0,
                desc_miss: false,
            });
            c.event(&commit(t, 0, 7));
        }
        let errors = violations(&c);
        assert!(errors.iter().any(|e| e.contains("not after predecessor")), "{errors:?}");
    }

    #[test]
    fn receive_before_send_is_flagged() {
        let mut c = EventLog::new();
        c.event(&SimEvent::TaskDispatch {
            task: 0,
            pu: 0,
            cycle: 0,
            func: 0,
            static_task: 0,
            entry_pc: 0,
            desc_miss: false,
        });
        c.event(&commit(0, 0, 5));
        c.event(&SimEvent::FwdSend { task: 0, pu: 0, reg: 3, ready: 9, sent: 4 });
        let errors = violations(&c);
        assert!(errors.iter().any(|e| e.contains("before ready")), "{errors:?}");
    }

    #[test]
    fn error_flood_is_capped() {
        let mut c = EventLog::new();
        for _ in 0..(MAX_ERRORS + 10) {
            c.event(&SimEvent::PuIdle { pu: 0, from: 5, to: 5 });
        }
        let errors = violations(&c);
        assert_eq!(errors.len(), MAX_ERRORS + 1, "{errors:?}");
        assert_eq!(errors[MAX_ERRORS], "… 10 further violations dropped");
    }
}
