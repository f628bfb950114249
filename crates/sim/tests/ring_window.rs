//! Ring-port bandwidth oracle.
//!
//! The engine keeps each PU's outgoing ring slots in a window anchored
//! at the dispatch of the task it last committed there, dropping every
//! cycle behind it. This test replays every `FwdSend` the engine emits
//! through a dense per-PU reference allocator that keeps every cycle of
//! the run, and asserts the engine picked the same cycle: the earliest
//! one at or after `ready` with a free slot. Bandwidths 1 and 2 on 1, 4
//! and 8 PUs, in-order and out-of-order, cover contended ports. Runs
//! without task start and end overheads put the next task's first
//! sends right after its dispatch, so some of them must wait behind
//! sends the previous task on the same PU spilled past that dispatch:
//! the slots the window carries over.

use std::collections::HashMap;

use ms_analysis::ProgramContext;
use ms_sim::{SimConfig, SimEvent, Simulator, TraceSink};
use ms_tasksel::{SelectorBuilder, Strategy};
use ms_trace::TraceGenerator;

const INSTS: usize = 20_000;
const SEED: u64 = 0x5eed;

/// Collects the ring sends, in emission order, and each task's final
/// (PU, dispatch).
#[derive(Default)]
struct Sends {
    sends: Vec<(usize, usize, u64, u64)>,
    dispatch: HashMap<usize, (usize, u64)>,
}

impl TraceSink for Sends {
    fn event(&mut self, ev: &SimEvent) {
        match *ev {
            SimEvent::FwdSend { task, pu, ready, sent, .. } => {
                self.sends.push((task, pu, ready, sent));
            }
            SimEvent::TaskCommit { task, pu, dispatch, .. } => {
                self.dispatch.insert(task, (pu, dispatch));
            }
            _ => {}
        }
    }
}

/// The dense reference: per PU, per cycle of the whole run, the number
/// of sends and the earliest task that sent; never dropped, grown on
/// demand.
struct DenseRing {
    bandwidth: u16,
    used: Vec<Vec<(u16, usize)>>,
}

impl DenseRing {
    fn new(pus: usize, bandwidth: u32) -> Self {
        DenseRing { bandwidth: bandwidth.max(1) as u16, used: vec![Vec::new(); pus] }
    }

    /// Claims the earliest free slot at or after `ready` on `pu` for
    /// `task`. Returns the cycle and whether a full cycle it passed over
    /// held a send of an earlier task.
    fn send(&mut self, pu: usize, task: usize, ready: u64) -> (u64, bool) {
        let slots = &mut self.used[pu];
        let mut cycle = ready as usize;
        let mut behind_earlier = false;
        loop {
            if cycle >= slots.len() {
                slots.resize(cycle + 1, (0, usize::MAX));
            }
            let (count, first) = &mut slots[cycle];
            if *count < self.bandwidth {
                *count += 1;
                *first = (*first).min(task);
                return (cycle as u64, behind_earlier);
            }
            behind_earlier |= *first < task;
            cycle += 1;
        }
    }
}

/// `(in_order, ring_bandwidth, task overheads)` per machine.
fn cases() -> impl Iterator<Item = (bool, u32, bool)> {
    [true, false].into_iter().flat_map(|in_order| {
        [1, 2].into_iter().flat_map(move |bw| [true, false].map(|oh| (in_order, bw, oh)))
    })
}

#[test]
fn every_send_takes_the_earliest_free_slot() {
    let mut total_sends = 0usize;
    let mut delayed = 0usize;
    let mut behind_earlier_task = 0usize;
    for workload in ["compress", "fpppp", "go"] {
        let program = ms_workloads::by_name(workload).unwrap().build();
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(program));
        let trace = TraceGenerator::new(&sel.program, SEED).generate(INSTS);
        for pus in [1, 4, 8] {
            for (in_order, bandwidth, overheads) in cases() {
                let base = SimConfig::with_pus(pus);
                let mut cfg = if in_order { base.in_order() } else { base.out_of_order() };
                cfg.ring_bandwidth = bandwidth;
                if !overheads {
                    cfg.task_start_overhead = 0;
                    cfg.task_end_overhead = 0;
                }
                let case = format!(
                    "{workload} pus={pus} in_order={in_order} bw={bandwidth} overheads={overheads}"
                );

                let mut sink = Sends::default();
                let stats = Simulator::new(cfg, &sel.program, &sel.partition)
                    .run_with_sink(&trace, &mut sink);
                assert_eq!(sink.sends.len() as u64, stats.reg_forwards, "{case}");
                assert!(!sink.sends.is_empty(), "{case}: no forwards to check");

                let mut dense = DenseRing::new(pus, bandwidth);
                for &(task, pu, ready, sent) in &sink.sends {
                    let (task_pu, dispatch) = sink.dispatch[&task];
                    assert_eq!(pu, task_pu, "{case}: task {task} sends from its own PU");
                    assert!(ready >= dispatch, "{case}: task {task} ready before dispatch");
                    let (expect, behind_earlier) = dense.send(pu, task, ready);
                    assert_eq!(
                        sent, expect,
                        "{case}: task {task} on PU {pu} ready at {ready} \
                         sent at {sent}, earliest free slot is {expect}"
                    );
                    delayed += usize::from(sent > ready);
                    behind_earlier_task += usize::from(behind_earlier);
                }
                total_sends += sink.sends.len();
            }
        }
    }
    assert!(total_sends > 10_000, "too few sends exercised: {total_sends}");
    assert!(delayed > 0, "no send ever waited for bandwidth");
    assert!(behind_earlier_task > 0, "no send waited behind an earlier task's send on the same PU");
}
