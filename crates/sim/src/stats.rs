//! Simulation results: cycle accounting in the paper's §2.3 categories
//! and the measured quantities of Table 1.

use std::fmt;

/// Where a task's busy cycles went — the execution-time-line categories
/// of the paper's Figure 2 (plus `frontend`/`resource`, which the paper
/// folds into useful cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Pipeline fill at task start (§2.3 "task start overhead").
    pub start_overhead: u64,
    /// Ideal issue cycles (instructions / issue width).
    pub useful: u64,
    /// Waiting for values produced by *earlier instructions of the same
    /// task* (§2.3 "intra-task data dependence delay").
    pub intra_dep: u64,
    /// Waiting for values forwarded from *other tasks* on the register
    /// ring (§2.3 "inter-task data communication delay").
    pub inter_comm: u64,
    /// Waiting on the data memory hierarchy (cache misses, ARB
    /// forwarding, memory synchronisation).
    pub memory: u64,
    /// Front-end stalls: instruction cache misses and intra-task branch
    /// misprediction bubbles.
    pub frontend: u64,
    /// Structural stalls: issue width, functional units, ROB/issue-list
    /// occupancy.
    pub resource: u64,
    /// Completed but waiting for the predecessor task to retire (§2.3
    /// "load imbalance").
    pub load_imbalance: u64,
    /// Committing speculative state at retirement (§2.3 "task end
    /// overhead").
    pub end_overhead: u64,
    /// Cycles thrown away on control flow misspeculation (wrong-path
    /// task occupancy + restart).
    pub ctrl_misspec: u64,
    /// Cycles thrown away on memory dependence misspeculation (squashed
    /// correct-path work + restart).
    pub mem_misspec: u64,
}

impl CycleBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> u64 {
        self.start_overhead
            + self.useful
            + self.intra_dep
            + self.inter_comm
            + self.memory
            + self.frontend
            + self.resource
            + self.load_imbalance
            + self.end_overhead
            + self.ctrl_misspec
            + self.mem_misspec
    }
}

impl fmt::Display for CycleBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.total().max(1) as f64;
        let pct = |v: u64| 100.0 * v as f64 / t;
        writeln!(
            f,
            "  start overhead   {:>10} ({:>5.1}%)",
            self.start_overhead,
            pct(self.start_overhead)
        )?;
        writeln!(f, "  useful           {:>10} ({:>5.1}%)", self.useful, pct(self.useful))?;
        writeln!(f, "  intra-task dep   {:>10} ({:>5.1}%)", self.intra_dep, pct(self.intra_dep))?;
        writeln!(f, "  inter-task comm  {:>10} ({:>5.1}%)", self.inter_comm, pct(self.inter_comm))?;
        writeln!(f, "  memory           {:>10} ({:>5.1}%)", self.memory, pct(self.memory))?;
        writeln!(f, "  frontend         {:>10} ({:>5.1}%)", self.frontend, pct(self.frontend))?;
        writeln!(f, "  resource         {:>10} ({:>5.1}%)", self.resource, pct(self.resource))?;
        writeln!(
            f,
            "  load imbalance   {:>10} ({:>5.1}%)",
            self.load_imbalance,
            pct(self.load_imbalance)
        )?;
        writeln!(
            f,
            "  end overhead     {:>10} ({:>5.1}%)",
            self.end_overhead,
            pct(self.end_overhead)
        )?;
        writeln!(
            f,
            "  ctrl misspec     {:>10} ({:>5.1}%)",
            self.ctrl_misspec,
            pct(self.ctrl_misspec)
        )?;
        writeln!(f, "  mem misspec      {:>10} ({:>5.1}%)", self.mem_misspec, pct(self.mem_misspec))
    }
}

/// Histogram of dynamic task sizes in power-of-two buckets: bucket `k`
/// counts tasks that retired `[2^k, 2^(k+1))` instructions (bucket 0 also
/// takes empty tasks; the last bucket collects the overflow).
///
/// The shape of this histogram is the paper's Table 1 "task size" column
/// with distribution detail: a partition whose mean looks healthy can
/// still hide a bimodal mix of tiny and huge tasks, which load-balances
/// badly on the ring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskSizeHist {
    /// Bucket counts; `buckets[k]` covers sizes `[2^k, 2^(k+1))`.
    pub buckets: [u64; TaskSizeHist::NUM_BUCKETS],
}

impl TaskSizeHist {
    /// Number of buckets; the last covers sizes `>= 2^(NUM_BUCKETS-1)`.
    pub const NUM_BUCKETS: usize = 12;

    /// Records one task of `insts` retired instructions.
    pub fn record(&mut self, insts: u64) {
        let k = (63 - insts.max(1).leading_zeros()) as usize;
        self.buckets[k.min(Self::NUM_BUCKETS - 1)] += 1;
    }

    /// Total tasks recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Human-readable range label for bucket `k` ("1", "2-3", …).
    pub fn label(k: usize) -> String {
        if k + 1 >= Self::NUM_BUCKETS {
            format!(">={}", 1u64 << k)
        } else if k == 0 {
            "1".to_string()
        } else {
            format!("{}-{}", 1u64 << k, (1u64 << (k + 1)) - 1)
        }
    }

    /// Serialises the bucket counts as a JSON array.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.buckets.iter().map(|b| b.to_string()).collect();
        format!("[{}]", cells.join(","))
    }
}

/// The results of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Number of processing units simulated.
    pub num_pus: usize,
    /// Cycle at which the last task retired.
    pub total_cycles: u64,
    /// Retired (correct-path) dynamic instructions.
    pub total_insts: u64,
    /// Dynamic tasks executed (squash re-executions not double counted).
    pub num_dyn_tasks: usize,
    /// Inter-task target predictions made (tasks with > 1 target).
    pub task_preds: u64,
    /// Correct inter-task target predictions.
    pub task_pred_hits: u64,
    /// Intra-task conditional branch predictions made.
    pub br_preds: u64,
    /// Correct intra-task branch predictions.
    pub br_pred_hits: u64,
    /// Dynamic control transfer instructions retired.
    pub ct_insts: u64,
    /// Memory dependence violations (each one squashes and re-executes
    /// the violating task — the memory-dependence squash counter).
    pub violations: u64,
    /// Instructions squashed and re-executed after violations.
    pub squashed_insts: u64,
    /// Control-flow squashes: tasks whose dispatch was rolled forward
    /// because the predecessor's exit target was mispredicted (the
    /// wrong-path task occupying the PU is thrown away).
    pub ctrl_squashes: u64,
    /// Cycles instructions spent waiting for register values forwarded
    /// from earlier in-flight tasks on the communication ring, summed
    /// over all retired instructions.
    pub fwd_stall_cycles: u64,
    /// PU-cycles with no task resident: `total_cycles × num_pus` minus
    /// every task's dispatch→retire residency. High idle means the
    /// sequencer cannot keep the ring full (small tasks, mispredictions).
    pub pu_idle_cycles: u64,
    /// Dynamic task size distribution in power-of-two buckets.
    pub task_size_hist: TaskSizeHist,
    /// ARB capacity overflows (task footprint exceeded ARB entries).
    pub arb_overflows: u64,
    /// Cycle accounting across all tasks.
    pub breakdown: CycleBreakdown,
    /// Time-averaged window span: dynamic instructions in flight across
    /// all in-flight tasks, averaged over cycles (the paper's Table 1
    /// "win span" is the closed-form estimate; see
    /// [`SimStats::window_span_formula`]).
    pub window_span_measured: f64,
    /// Register values sent on the communication ring.
    pub reg_forwards: u64,
    /// L1 data cache (hits, misses).
    pub l1d: (u64, u64),
    /// L1 instruction cache (hits, misses).
    pub l1i: (u64, u64),
}

impl SimStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.total_insts as f64 / self.total_cycles as f64
        }
    }

    /// Mean dynamic instructions per task.
    pub fn avg_task_size(&self) -> f64 {
        if self.num_dyn_tasks == 0 {
            0.0
        } else {
            self.total_insts as f64 / self.num_dyn_tasks as f64
        }
    }

    /// Task misprediction percentage (the paper's "task pred" column).
    pub fn task_mispred_pct(&self) -> f64 {
        if self.task_preds == 0 {
            0.0
        } else {
            100.0 * (self.task_preds - self.task_pred_hits) as f64 / self.task_preds as f64
        }
    }

    /// Task prediction *accuracy* as a fraction in `[0, 1]`.
    pub fn task_pred_accuracy(&self) -> f64 {
        1.0 - self.task_mispred_pct() / 100.0
    }

    /// Effective per-branch misprediction percentage: the task
    /// misprediction rate normalised to the average number of dynamic
    /// control transfers per task (the paper's "br pred" column).
    pub fn br_mispred_pct_normalized(&self) -> f64 {
        let ct_per_task = if self.num_dyn_tasks == 0 {
            1.0
        } else {
            (self.ct_insts as f64 / self.num_dyn_tasks as f64).max(1.0)
        };
        // Accuracy^(1/b): the per-branch accuracy that compounds to the
        // observed per-task accuracy over b branches.
        let acc = self.task_pred_accuracy().clamp(0.0, 1.0);
        100.0 * (1.0 - acc.powf(1.0 / ct_per_task))
    }

    /// Ring forwards per dynamic task.
    pub fn forwards_per_task(&self) -> f64 {
        if self.num_dyn_tasks == 0 {
            0.0
        } else {
            self.reg_forwards as f64 / self.num_dyn_tasks as f64
        }
    }

    /// L1 data cache hit rate in `[0, 1]` (1.0 when untouched).
    pub fn l1d_hit_rate(&self) -> f64 {
        let total = self.l1d.0 + self.l1d.1;
        if total == 0 {
            1.0
        } else {
            self.l1d.0 as f64 / total as f64
        }
    }

    /// Serialises the statistics as a single-line JSON object (stable
    /// field names; no external dependencies), for scripting around the
    /// experiment binaries.
    ///
    /// ```
    /// # use ms_sim::SimStats;
    /// # let stats = SimStats { num_pus: 4, total_cycles: 10, total_insts: 20,
    /// #     num_dyn_tasks: 2, task_preds: 1, task_pred_hits: 1, ct_insts: 2,
    /// #     window_span_measured: 5.0, reg_forwards: 3, l1d: (1, 0), l1i: (1, 0),
    /// #     ..SimStats::default() };
    /// let json = stats.to_json();
    /// assert!(json.starts_with('{') && json.ends_with('}'));
    /// assert!(json.contains("\"ipc\":2"));
    /// ```
    pub fn to_json(&self) -> String {
        let b = &self.breakdown;
        format!(
            concat!(
                "{{\"num_pus\":{},\"total_cycles\":{},\"total_insts\":{},",
                "\"ipc\":{},\"num_dyn_tasks\":{},\"avg_task_size\":{},",
                "\"task_mispred_pct\":{},\"br_mispred_pct_normalized\":{},",
                "\"window_span_measured\":{},\"window_span_formula\":{},",
                "\"ctrl_squashes\":{},\"mem_squashes\":{},\"squashed_insts\":{},",
                "\"fwd_stall_cycles\":{},\"pu_idle_cycles\":{},\"arb_overflows\":{},",
                "\"reg_forwards\":{},\"l1d_hits\":{},\"l1d_misses\":{},",
                "\"l1i_hits\":{},\"l1i_misses\":{},\"task_size_hist\":{},",
                "\"breakdown\":{{\"start_overhead\":{},\"useful\":{},\"intra_dep\":{},",
                "\"inter_comm\":{},\"memory\":{},\"frontend\":{},\"resource\":{},",
                "\"load_imbalance\":{},\"end_overhead\":{},\"ctrl_misspec\":{},",
                "\"mem_misspec\":{}}}}}"
            ),
            self.num_pus,
            self.total_cycles,
            self.total_insts,
            self.ipc(),
            self.num_dyn_tasks,
            self.avg_task_size(),
            self.task_mispred_pct(),
            self.br_mispred_pct_normalized(),
            self.window_span_measured,
            self.window_span_formula(),
            self.ctrl_squashes,
            self.violations,
            self.squashed_insts,
            self.fwd_stall_cycles,
            self.pu_idle_cycles,
            self.arb_overflows,
            self.reg_forwards,
            self.l1d.0,
            self.l1d.1,
            self.l1i.0,
            self.l1i.1,
            self.task_size_hist.to_json(),
            b.start_overhead,
            b.useful,
            b.intra_dep,
            b.inter_comm,
            b.memory,
            b.frontend,
            b.resource,
            b.load_imbalance,
            b.end_overhead,
            b.ctrl_misspec,
            b.mem_misspec,
        )
    }

    /// The paper's closed-form window span:
    /// `Σ_{i=0..N-1} TaskSize · Pred^i`.
    pub fn window_span_formula(&self) -> f64 {
        let ts = self.avg_task_size();
        let p = self.task_pred_accuracy();
        (0..self.num_pus).map(|i| ts * p.powi(i as i32)).sum()
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "PUs: {}  cycles: {}  insts: {}  IPC: {:.3}",
            self.num_pus,
            self.total_cycles,
            self.total_insts,
            self.ipc()
        )?;
        writeln!(
            f,
            "tasks: {}  avg size: {:.1}  task mispred: {:.2}%  br mispred (norm): {:.2}%",
            self.num_dyn_tasks,
            self.avg_task_size(),
            self.task_mispred_pct(),
            self.br_mispred_pct_normalized()
        )?;
        writeln!(
            f,
            "window span: {:.0} (formula {:.0})  violations: {}  arb overflows: {}",
            self.window_span_measured,
            self.window_span_formula(),
            self.violations,
            self.arb_overflows
        )?;
        writeln!(
            f,
            "ctrl squashes: {}  fwd stall cycles: {}  pu idle cycles: {}",
            self.ctrl_squashes, self.fwd_stall_cycles, self.pu_idle_cycles
        )?;
        write!(f, "{}", self.breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimStats {
        SimStats {
            num_pus: 4,
            total_cycles: 1000,
            total_insts: 2000,
            num_dyn_tasks: 100,
            task_preds: 100,
            task_pred_hits: 90,
            br_preds: 50,
            br_pred_hits: 45,
            ct_insts: 300,
            violations: 2,
            squashed_insts: 40,
            ctrl_squashes: 10,
            fwd_stall_cycles: 120,
            pu_idle_cycles: 60,
            breakdown: CycleBreakdown { useful: 500, ..Default::default() },
            window_span_measured: 70.0,
            reg_forwards: 300,
            l1d: (90, 10),
            l1i: (100, 0),
            ..SimStats::default()
        }
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let s = sample();
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.avg_task_size() - 20.0).abs() < 1e-12);
        assert!((s.task_mispred_pct() - 10.0).abs() < 1e-12);
        // Window span formula: 20 · (1 + .9 + .81 + .729).
        let expect = 20.0 * (1.0 + 0.9 + 0.81 + 0.729);
        assert!((s.window_span_formula() - expect).abs() < 1e-9);
    }

    #[test]
    fn normalized_branch_mispred_is_below_task_mispred() {
        let s = sample();
        // 3 branches per task: per-branch rate must be < per-task rate.
        assert!(s.br_mispred_pct_normalized() < s.task_mispred_pct());
        assert!(s.br_mispred_pct_normalized() > 0.0);
    }

    #[test]
    fn forward_and_cache_rates() {
        let s = sample();
        assert!((s.forwards_per_task() - 3.0).abs() < 1e-12);
        assert!((s.l1d_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn breakdown_totals_and_accumulates() {
        let a = CycleBreakdown { useful: 10, memory: 5, ..Default::default() };
        let b = CycleBreakdown { useful: 1, ctrl_misspec: 2, ..Default::default() };
        assert_eq!(a.total(), 15);
        assert_eq!(b.total(), 3);
    }

    #[test]
    fn json_is_well_formed_and_flat() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), 2, "stats object + breakdown object");
        assert!(j.contains("\"ipc\":2"));
        assert!(j.contains("\"mem_squashes\":2"));
        assert!(j.contains("\"ctrl_squashes\":10"));
        assert!(j.contains("\"fwd_stall_cycles\":120"));
        assert!(j.contains("\"pu_idle_cycles\":60"));
        assert!(j.contains("\"task_size_hist\":[0,0,0,0,0,0,0,0,0,0,0,0]"));
        assert!(j.contains("\"useful\":500"));
    }

    #[test]
    fn task_size_hist_buckets_by_power_of_two() {
        let mut h = TaskSizeHist::default();
        for size in [0u64, 1, 2, 3, 4, 7, 8, 1 << 11, 1 << 20] {
            h.record(size);
        }
        assert_eq!(h.buckets[0], 2, "0 and 1 share the first bucket");
        assert_eq!(h.buckets[1], 2, "2 and 3");
        assert_eq!(h.buckets[2], 2, "4 and 7");
        assert_eq!(h.buckets[3], 1, "8");
        assert_eq!(h.buckets[TaskSizeHist::NUM_BUCKETS - 1], 2, "overflow bucket");
        assert_eq!(h.total(), 9);
        assert_eq!(TaskSizeHist::label(0), "1");
        assert_eq!(TaskSizeHist::label(2), "4-7");
        assert_eq!(TaskSizeHist::label(TaskSizeHist::NUM_BUCKETS - 1), ">=2048");
    }

    #[test]
    fn display_shows_ipc_and_categories() {
        let s = sample().to_string();
        assert!(s.contains("IPC"));
        assert!(s.contains("load imbalance"));
    }
}
