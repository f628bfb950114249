//! Differential comparison: the engine's committed outcome (as recorded
//! in an [`EventLog`]) against the sequential [`Reference`] model.
//!
//! [`EventLog::check`] judges the event stream against itself and
//! against the run's [`SimStats`]; this module judges both against an
//! *independent* oracle. A self-consistent engine bug — one that
//! miscounts but reconciles its own events and counters — passes every
//! streaming check and fails here.

use ms_sim::{EventLog, SimEvent, SimStats, SquashCause};

use crate::reference::Reference;

/// Cap on reported differences (mirrors the checker's own error cap).
const MAX_DIFFS: usize = 64;

/// Compares the engine's recorded outcome against the reference model.
/// Returns one message per disagreement; empty means conformant.
pub fn diff(reference: &Reference, log: &EventLog, stats: &SimStats) -> Vec<String> {
    let mut out = Vec::new();
    let mut dropped = 0u64;
    let mut push = |out: &mut Vec<String>, msg: String| {
        if out.len() < MAX_DIFFS {
            out.push(msg);
        } else {
            dropped += 1;
        }
    };

    if reference.tasks.len() != stats.num_dyn_tasks {
        push(
            &mut out,
            format!(
                "reference sees {} dynamic tasks, engine committed {}",
                reference.tasks.len(),
                stats.num_dyn_tasks
            ),
        );
    }
    if reference.total_insts != stats.total_insts {
        push(
            &mut out,
            format!(
                "reference counts {} insts, engine retired {}",
                reference.total_insts, stats.total_insts
            ),
        );
    }
    if reference.total_ct_insts != stats.ct_insts {
        push(
            &mut out,
            format!(
                "reference counts {} ct insts, engine retired {}",
                reference.total_ct_insts, stats.ct_insts
            ),
        );
    }

    // Per-task identity: the engine must dispatch the same static task of
    // the same function that the sequential walk enters.
    let dispatches = log.events().iter().filter_map(|ev| match *ev {
        SimEvent::TaskDispatch { task, func, static_task, .. } => Some((task, func, static_task)),
        _ => None,
    });
    for (rt, (task, func, static_task)) in reference.tasks.iter().zip(dispatches) {
        if (rt.func, rt.static_task) != (func, static_task) {
            push(
                &mut out,
                format!(
                    "task {task}: reference enters fn {} task {}, engine dispatched fn {func} task {static_task}",
                    rt.func, rt.static_task
                ),
            );
        }
    }

    // Per-task instruction counts: what each commit retires must equal
    // the program-order walk of its step range.
    let commits = log.events().iter().filter_map(|ev| match *ev {
        SimEvent::TaskCommit { task, insts, .. } => Some((task, insts)),
        _ => None,
    });
    for (rt, (task, insts)) in reference.tasks.iter().zip(commits) {
        if rt.insts != insts {
            push(
                &mut out,
                format!(
                    "task {task}: reference walks {} insts, engine committed {insts}",
                    rt.insts
                ),
            );
        }
    }

    // Forwarded registers must be registers the producing task writes.
    for ev in log.events() {
        let SimEvent::FwdSend { task, reg, .. } = *ev else { continue };
        let Some(rt) = reference.tasks.get(task) else { continue };
        if rt.writes >> reg & 1 == 0 {
            push(&mut out, format!("task {task}: forwarded reg {reg} that the task never writes"));
        }
    }

    // Every memory squash must blame a (store_pc, load_pc) pair the
    // sequential walk identifies as a real cross-task conflict.
    for ev in log.events() {
        let SimEvent::TaskSquash { task, cause, .. } = *ev else { continue };
        let (label, store_pc, load_pc) = match cause {
            SquashCause::Control { .. } => continue,
            SquashCause::Memory { store_pc, load_pc, .. } => ("mem", store_pc, load_pc),
            SquashCause::Cascade { store_pc, load_pc, .. } => ("cascade", store_pc, load_pc),
        };
        if !reference.mem_conflicts.contains(&(store_pc, load_pc)) {
            push(
                &mut out,
                format!(
                    "task {task}: {label} squash blames store {store_pc:#x} → load {load_pc:#x}, not a conflict in program order"
                ),
            );
        }
    }

    if dropped > 0 {
        out.push(format!("… {dropped} further differences dropped"));
    }
    out
}
