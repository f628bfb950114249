//! Structured simulation events with squash/stall attribution.
//!
//! The engine's aggregate counters ([`crate::SimStats`]) say *how much*
//! time went where; events say *which* task boundary or def-use arc was
//! responsible. Every point in [`crate::Simulator`] that bumps a counter
//! also emits a [`SimEvent`] through a [`TraceSink`], so per-cause event
//! totals reconcile exactly with the counters:
//!
//! * `TaskSquash` with [`SquashCause::Control`] count =
//!   `SimStats::ctrl_squashes`,
//! * `TaskSquash` with [`SquashCause::Memory`] count =
//!   `SimStats::violations`,
//! * `FwdStall` cycle sum = `SimStats::fwd_stall_cycles`,
//! * `PuIdle` length sum = `SimStats::pu_idle_cycles`,
//! * `FwdSend` count = `SimStats::reg_forwards`,
//! * `ArbConflict` count = `SimStats::arb_overflows`.
//!
//! Tracing is zero-cost when off: the engine is generic over the sink
//! and consults [`TraceSink::enabled`] before constructing any event, so
//! the [`NullSink`] path (the plain [`crate::Simulator::run`]) compiles
//! to the untraced engine — no allocation, no formatting, no branches
//! that survive constant folding.

use std::fmt::Write as _;

/// Version of the JSONL event-trace schema (the first line of every
/// trace names it; bump on any event field change and re-bless the
/// golden trace with `MS_BLESS=1`).
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Why a dynamic task (or the speculative instance occupying its PU)
/// was thrown away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashCause {
    /// The predecessor task's exit target was mispredicted: the
    /// wrong-path instance occupying the PU is discarded and the correct
    /// task restarts. Attributed to the *predecessor's* task boundary.
    Control {
        /// Dynamic index of the task whose exit was mispredicted.
        predecessor: usize,
        /// Dispatch delay charged to the restart (`ctrl_misspec` share).
        lost_cycles: u64,
    },
    /// A load executed before an earlier in-flight task's store to the
    /// same address (ARB violation). Attributed to the producing store's
    /// task and the def-use arc `store_pc → load_pc`. On a re-execution
    /// (attempt ≥ 2) the squash is labelled a cascade
    /// ([`SquashCause::label`]): the damage follows an earlier squash of
    /// the same task rather than a fresh scheduling decision.
    Memory {
        /// Dynamic index of the task whose store was violated.
        store_task: usize,
        /// PC of the violated store.
        store_pc: u64,
        /// PC of the premature load.
        load_pc: u64,
        /// Instructions of the squashed attempt (re-executed work).
        lost_insts: u64,
        /// Dispatch-to-restart cycles charged (`mem_misspec` share).
        lost_cycles: u64,
    },
}

impl SquashCause {
    /// The cause's name in every view of the event stream (JSONL,
    /// Chrome view, attribution tables): `ctrl`, `mem`, or `cascade` for
    /// a memory squash of a re-execution, `attempt` ≥ 2.
    pub fn label(&self, attempt: u32) -> &'static str {
        match self {
            SquashCause::Control { .. } => "ctrl",
            SquashCause::Memory { .. } if attempt >= 2 => "cascade",
            SquashCause::Memory { .. } => "mem",
        }
    }
}

/// One attributable occurrence inside a simulation run.
///
/// `task` fields are dynamic task indices (dispatch order); `func` /
/// `static_task` in [`SimEvent::TaskDispatch`] tie a dynamic index back
/// to the static partition, which is what attribution tables group by
/// (see `ms_tasksel::TaskPartition::boundary_label`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// The sequencer dispatched a task to a PU (first attempt; memory
    /// squashes re-dispatch without a new event — see `TaskSquash`).
    TaskDispatch {
        /// Dynamic task index.
        task: usize,
        /// Processing unit.
        pu: usize,
        /// Dispatch cycle of the first attempt.
        cycle: u64,
        /// Owning function index.
        func: usize,
        /// Static task index within the function's partition.
        static_task: usize,
        /// PC of the static task's entry block.
        entry_pc: u64,
        /// The sequencer's task descriptor cache missed (dispatch was
        /// delayed by an L2 access).
        desc_miss: bool,
    },
    /// A task (or the speculative instance on its PU) was squashed.
    TaskSquash {
        /// Dynamic task index of the victim.
        task: usize,
        /// Processing unit.
        pu: usize,
        /// Cycle the squash was detected.
        cycle: u64,
        /// Attempt number being squashed (0 = wrong-path ctrl instance).
        attempt: u32,
        /// Root cause, with attribution.
        cause: SquashCause,
    },
    /// A task completed and retired (architecturally committed).
    TaskCommit {
        /// Dynamic task index.
        task: usize,
        /// Processing unit.
        pu: usize,
        /// Dispatch cycle of the final (successful) attempt.
        dispatch: u64,
        /// Cycle the last instruction completed.
        complete: u64,
        /// Retirement cycle.
        retire: u64,
        /// Dynamic instructions retired.
        insts: u64,
        /// Attempts needed (1 = clean).
        attempts: u32,
    },
    /// A register value entered the forwarding ring.
    FwdSend {
        /// Producing dynamic task.
        task: usize,
        /// Producing PU (whose ring port's bandwidth was scheduled).
        pu: usize,
        /// Dense architectural register index.
        reg: usize,
        /// Cycle the value was ready (last write complete).
        ready: u64,
        /// Cycle the value actually entered the ring (≥ ready under
        /// bandwidth contention).
        sent: u64,
    },
    /// An instruction stalled waiting for a ring-forwarded value —
    /// the per-arc decomposition of `SimStats::fwd_stall_cycles`.
    FwdStall {
        /// Consuming dynamic task.
        task: usize,
        /// Producing dynamic task (the blamed def).
        producer: usize,
        /// Dense architectural register index carrying the dependence.
        reg: usize,
        /// Stall cycles beyond decode-ready.
        cycles: u64,
    },
    /// A PU-cycle interval `[from, to)` not covered by any task's final
    /// dispatch→retire residency (dispatch gaps, squashed-attempt
    /// occupancy, post-drain) — sums to `SimStats::pu_idle_cycles`.
    PuIdle {
        /// Processing unit.
        pu: usize,
        /// First idle cycle.
        from: u64,
        /// First busy cycle after the interval (exclusive end).
        to: u64,
    },
    /// A task's memory footprint overflowed its ARB capacity and had to
    /// wait to become the head task.
    ArbConflict {
        /// Dynamic task index.
        task: usize,
        /// Processing unit.
        pu: usize,
        /// Cycle of the first overflowing access.
        cycle: u64,
        /// Total cycles the task's accesses waited for head status.
        stall: u64,
    },
}

impl SimEvent {
    /// The event's dynamic task index, if it has one.
    pub fn task(&self) -> Option<usize> {
        match *self {
            SimEvent::TaskDispatch { task, .. }
            | SimEvent::TaskSquash { task, .. }
            | SimEvent::TaskCommit { task, .. }
            | SimEvent::FwdSend { task, .. }
            | SimEvent::FwdStall { task, .. }
            | SimEvent::ArbConflict { task, .. } => Some(task),
            SimEvent::PuIdle { .. } => None,
        }
    }

    /// Serialises the event as one single-line JSON object (the JSONL
    /// record format; hand-rolled like the rest of the metrics pipeline
    /// — the repository builds offline, without serde).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        match *self {
            SimEvent::TaskDispatch { task, pu, cycle, func, static_task, entry_pc, desc_miss } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"dispatch\",\"task\":{task},\"pu\":{pu},\"cycle\":{cycle},\
                     \"func\":{func},\"static_task\":{static_task},\"entry_pc\":{entry_pc},\
                     \"desc_miss\":{desc_miss}}}"
                );
            }
            SimEvent::TaskSquash { task, pu, cycle, attempt, cause } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"squash\",\"task\":{task},\"pu\":{pu},\"cycle\":{cycle},\
                     \"attempt\":{attempt},\"cause\":\"{}\",",
                    cause.label(attempt)
                );
                match cause {
                    SquashCause::Control { predecessor, lost_cycles } => {
                        let _ = write!(
                            s,
                            "\"predecessor\":{predecessor},\"lost_cycles\":{lost_cycles}}}"
                        );
                    }
                    SquashCause::Memory {
                        store_task,
                        store_pc,
                        load_pc,
                        lost_insts,
                        lost_cycles,
                    } => {
                        let _ = write!(
                            s,
                            "\"store_task\":{store_task},\"store_pc\":{store_pc},\
                             \"load_pc\":{load_pc},\"lost_insts\":{lost_insts},\
                             \"lost_cycles\":{lost_cycles}}}"
                        );
                    }
                }
            }
            SimEvent::TaskCommit { task, pu, dispatch, complete, retire, insts, attempts } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"commit\",\"task\":{task},\"pu\":{pu},\"dispatch\":{dispatch},\
                     \"complete\":{complete},\"retire\":{retire},\"insts\":{insts},\
                     \"attempts\":{attempts}}}"
                );
            }
            SimEvent::FwdSend { task, pu, reg, ready, sent } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"fwd_send\",\"task\":{task},\"pu\":{pu},\"reg\":{reg},\
                     \"ready\":{ready},\"sent\":{sent}}}"
                );
            }
            SimEvent::FwdStall { task, producer, reg, cycles } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"fwd_stall\",\"task\":{task},\"producer\":{producer},\
                     \"reg\":{reg},\"cycles\":{cycles}}}"
                );
            }
            SimEvent::PuIdle { pu, from, to } => {
                let _ = write!(s, "{{\"ev\":\"pu_idle\",\"pu\":{pu},\"from\":{from},\"to\":{to}}}");
            }
            SimEvent::ArbConflict { task, pu, cycle, stall } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"arb_conflict\",\"task\":{task},\"pu\":{pu},\"cycle\":{cycle},\
                     \"stall\":{stall}}}"
                );
            }
        }
        s
    }
}

/// Receiver of [`SimEvent`]s during a simulation run.
///
/// The engine is generic over the sink and guards every event
/// construction with [`TraceSink::enabled`], so a sink returning `false`
/// (the [`NullSink`]) removes all tracing work at compile time.
pub trait TraceSink {
    /// Whether the engine should construct and emit events at all.
    /// Defaults to `true`; the engine skips event construction — and any
    /// per-instruction attribution bookkeeping — when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event. Events of one task arrive grouped (squashes,
    /// then idle/stall detail, then the commit), not globally sorted by
    /// cycle; sort on `cycle` downstream if chronology matters.
    fn event(&mut self, ev: &SimEvent);
}

/// The no-op sink: tracing off, zero cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn event(&mut self, _ev: &SimEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn events_serialise_to_single_line_json() {
        let events = [
            SimEvent::TaskDispatch {
                task: 3,
                pu: 1,
                cycle: 40,
                func: 0,
                static_task: 2,
                entry_pc: 64,
                desc_miss: true,
            },
            SimEvent::TaskSquash {
                task: 4,
                pu: 0,
                cycle: 90,
                attempt: 0,
                cause: SquashCause::Control { predecessor: 3, lost_cycles: 12 },
            },
            SimEvent::TaskSquash {
                task: 5,
                pu: 1,
                cycle: 120,
                attempt: 1,
                cause: SquashCause::Memory {
                    store_task: 2,
                    store_pc: 88,
                    load_pc: 96,
                    lost_insts: 14,
                    lost_cycles: 30,
                },
            },
            SimEvent::TaskCommit {
                task: 3,
                pu: 1,
                dispatch: 40,
                complete: 80,
                retire: 82,
                insts: 20,
                attempts: 1,
            },
            SimEvent::FwdSend { task: 3, pu: 1, reg: 5, ready: 70, sent: 71 },
            SimEvent::FwdStall { task: 4, producer: 3, reg: 5, cycles: 6 },
            SimEvent::PuIdle { pu: 2, from: 0, to: 9 },
            SimEvent::ArbConflict { task: 7, pu: 3, cycle: 300, stall: 25 },
        ];
        for ev in events {
            let j = ev.to_json();
            assert!(j.starts_with("{\"ev\":\""), "{j}");
            assert!(j.ends_with('}'), "{j}");
            assert!(!j.contains('\n'), "{j}");
            assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        }
        assert!(events[2].to_json().contains("\"cause\":\"mem\""));
    }

    /// A memory squash is labelled by its attempt: `mem` on the first,
    /// `cascade` on a re-execution.
    #[test]
    fn cascade_and_memory_share_fields_but_not_labels() {
        let cause = SquashCause::Memory {
            store_task: 1,
            store_pc: 2,
            load_pc: 3,
            lost_insts: 4,
            lost_cycles: 5,
        };
        let j =
            |attempt| SimEvent::TaskSquash { task: 0, pu: 0, cycle: 0, attempt, cause }.to_json();
        assert!(j(1).contains("\"cause\":\"mem\""));
        assert!(j(2).contains("\"cause\":\"cascade\""));
        assert_eq!(
            j(1).replace("\"mem\"", "\"cascade\"").replace("\"attempt\":1", "\"attempt\":2"),
            j(2)
        );
    }
}
