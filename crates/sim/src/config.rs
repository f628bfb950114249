//! Simulator configuration (§4.2 of the paper).
//!
//! The paper evaluates one machine and varies only a handful of its
//! parameters. Those are [`SimConfig`]'s fields; every other §4.2
//! parameter is a constant of the timing model, defined here.

/// Issue (and fetch) width per PU (paper: 2).
pub(crate) const ISSUE_WIDTH: u32 = 2;
/// Reorder buffer entries per PU (paper: 16).
pub(crate) const ROB_SIZE: u32 = 16;
/// Issue list entries per PU (paper: 8) — bounds how far ahead of the
/// oldest unissued instruction an out-of-order PU may look.
pub(crate) const ISSUE_LIST: u32 = 8;
/// Functional units per PU, indexed by instruction class: integer ALUs
/// (paper: 2), floating point units (1), branch units (1), memory
/// ports (1).
pub(crate) const FU_COUNTS: [u32; 4] = [2, 1, 1, 1];
/// Front-end refill bubble after an intra-task branch misprediction.
pub(crate) const BRANCH_MISPREDICT_PENALTY: u32 = 5;
/// Sequencer restart cycles after a control-flow misspeculation is
/// detected at the end of the mispredicted task.
pub(crate) const TASK_MISPREDICT_RESTART: u32 = 4;
/// Sequencer restart cycles after a memory-dependence squash.
pub(crate) const SQUASH_RESTART: u32 = 4;
/// History bits of the intra-task gshare predictor (paper: 16).
pub(crate) const GSHARE_HISTORY_BITS: u32 = 16;
/// log2 of the gshare table size (paper: 64K entries → 16).
pub(crate) const GSHARE_TABLE_BITS: u32 = 16;
/// History bits of the path-based inter-task predictor (paper: 16).
pub(crate) const TASK_PRED_HISTORY_BITS: u32 = 16;
/// log2 of the task predictor table size (paper: 64K entries → 16).
pub(crate) const TASK_PRED_TABLE_BITS: u32 = 16;
/// Extra cycles per ring hop beyond the adjacent-PU same-cycle bypass.
pub(crate) const RING_HOP_LATENCY: u32 = 1;
/// ARB hit (speculative forward) latency (paper: 2).
pub(crate) const ARB_HIT_LATENCY: u32 = 2;
/// Task descriptor cache (paper: 32 KB, 2-way, augmenting the L1
/// I-cache). The sequencer reads a task's descriptor (entry PC + target
/// list) at dispatch; a miss delays dispatch by the L2 hit latency.
pub(crate) const TASK_CACHE: CacheParams =
    CacheParams { size: 32 * 1024, assoc: 2, line: 32, hit_latency: 1 };
/// Line size of the L1 instruction and data caches (see
/// [`SimConfig::l1`]).
pub(crate) const L1_LINE: u64 = 32;
/// Hit latency of the L1 instruction and data caches.
pub(crate) const L1_HIT_LATENCY: u32 = 1;
/// Unified L2 cache (paper: 4 MB).
pub(crate) const L2: CacheParams =
    CacheParams { size: 4 * 1024 * 1024, assoc: 2, line: 64, hit_latency: 12 };
/// Main memory latency in cycles (paper: 58).
pub(crate) const MEM_LATENCY: u32 = 58;

/// One cache level's timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheParams {
    /// Total size in bytes.
    pub(crate) size: u64,
    /// Associativity.
    pub(crate) assoc: u32,
    /// Line size in bytes.
    pub(crate) line: u64,
    /// Hit latency in cycles.
    pub(crate) hit_latency: u32,
}

/// The settable parameters of the Multiscalar processor: the ones the
/// paper's experiments vary. The rest of the §4.2 machine is fixed.
///
/// [`SimConfig::four_pu`] and [`SimConfig::eight_pu`] reproduce the
/// paper's two evaluated machines; [`SimConfig::single_pu`] is the
/// centralized (superscalar-like) baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of processing units.
    pub num_pus: usize,
    /// Whether PUs issue strictly in order.
    pub in_order: bool,
    /// Pipeline fill cycles charged at every task start (§2.3 task start
    /// overhead).
    pub task_start_overhead: u32,
    /// Cycles to commit a task's speculative state at retirement (§2.3
    /// task end overhead).
    pub task_end_overhead: u32,
    /// Values the register ring carries per cycle per link (paper: 2).
    pub ring_bandwidth: u32,
    /// ARB entries per PU (paper: 32); a task whose speculative footprint
    /// exceeds this stalls further memory operations until it is the
    /// head.
    pub arb_entries_per_pu: u32,
    /// Entries in the memory dependence synchronisation table
    /// (paper: 256).
    pub sync_table_entries: u32,
    /// Whether the compiler's dead register analysis filters ring
    /// forwards to registers live out of the task (Breach et al. \[3\];
    /// on by default, as in the paper's toolchain). When off, every
    /// register the task wrote is forwarded.
    pub dead_reg_analysis: bool,
    /// **Test-only fault injection**: when set, the engine deliberately
    /// under-reports every third task's committed instruction count by
    /// one. The perturbation is self-consistent (events and counters
    /// still reconcile), so only a *differential* oracle — the
    /// sequential reference model in `ms-conform` — can catch it. Exists
    /// to prove the conformance fuzzer detects real engine bugs; never
    /// set in experiments. Off in every preset.
    pub inject_commit_undercount: bool,
}

impl SimConfig {
    /// Baseline parameters shared by all presets.
    fn base(num_pus: usize) -> Self {
        SimConfig {
            num_pus,
            in_order: false,
            task_start_overhead: 2,
            task_end_overhead: 2,
            ring_bandwidth: 2,
            arb_entries_per_pu: 32,
            sync_table_entries: 256,
            dead_reg_analysis: true,
            inject_commit_undercount: false,
        }
    }

    /// Each L1 (instruction and data) cache: 2-way with [`L1_LINE`]-byte
    /// lines, 64 KB below 8 PUs and 128 KB at 8 or more (the paper's
    /// 4-PU and 8-PU machines).
    pub(crate) fn l1(&self) -> CacheParams {
        let size = if self.num_pus >= 8 { 128 * 1024 } else { 64 * 1024 };
        CacheParams { size, assoc: 2, line: L1_LINE, hit_latency: L1_HIT_LATENCY }
    }

    /// The paper's 4-PU machine (64 KB L1 caches).
    pub fn four_pu() -> Self {
        Self::base(4)
    }

    /// The paper's 8-PU machine (128 KB L1 caches).
    pub fn eight_pu() -> Self {
        Self::base(8)
    }

    /// A single-PU machine: the centralized baseline. Task-level
    /// speculation degenerates to sequential task execution.
    pub fn single_pu() -> Self {
        Self::base(1)
    }

    /// A machine with `n` PUs (L1 size follows the paper's 8-PU sizing
    /// for `n >= 8`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_pus(n: usize) -> Self {
        assert!(n > 0, "at least one PU is required");
        Self::base(n)
    }

    /// Switches the PUs to in-order issue (builder style).
    #[must_use]
    pub fn in_order(mut self) -> Self {
        self.in_order = true;
        self
    }

    /// Switches the PUs to out-of-order issue (the default).
    #[must_use]
    pub fn out_of_order(mut self) -> Self {
        self.in_order = false;
        self
    }

    /// Disables the dead register analysis (naive forwarding of every
    /// written register) — the ablation of the paper's companion
    /// register-communication work.
    #[must_use]
    pub fn without_dead_reg_analysis(mut self) -> Self {
        self.dead_reg_analysis = false;
        self
    }

    /// Arms the test-only commit-undercount fault (see
    /// [`SimConfig::inject_commit_undercount`]). Used by the conformance
    /// fuzzer's self-test; never by experiments.
    #[must_use]
    pub fn with_injected_commit_undercount(mut self) -> Self {
        self.inject_commit_undercount = true;
        self
    }
}

impl Default for SimConfig {
    /// The paper's 4-PU out-of-order configuration.
    fn default() -> Self {
        Self::four_pu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        // The fixed machine (§4.2, as summarised in DESIGN.md).
        assert_eq!(ISSUE_WIDTH, 2);
        assert_eq!(ROB_SIZE, 16);
        assert_eq!(ISSUE_LIST, 8);
        assert_eq!(FU_COUNTS, [2, 1, 1, 1], "2 int / 1 fp / 1 branch / 1 mem");
        assert_eq!(BRANCH_MISPREDICT_PENALTY, 5);
        assert_eq!(TASK_MISPREDICT_RESTART, 4);
        assert_eq!(SQUASH_RESTART, 4);
        assert_eq!(GSHARE_HISTORY_BITS, 16);
        assert_eq!(1 << GSHARE_TABLE_BITS, 64 * 1024);
        assert_eq!(TASK_PRED_HISTORY_BITS, 16);
        assert_eq!(1 << TASK_PRED_TABLE_BITS, 64 * 1024);
        assert_eq!(RING_HOP_LATENCY, 1);
        assert_eq!(ARB_HIT_LATENCY, 2);
        assert_eq!(TASK_CACHE, CacheParams { size: 32 * 1024, assoc: 2, line: 32, hit_latency: 1 });
        assert_eq!(L2, CacheParams { size: 4 * 1024 * 1024, assoc: 2, line: 64, hit_latency: 12 });
        assert_eq!(MEM_LATENCY, 58);

        let c4 = SimConfig::four_pu();
        assert_eq!(c4.num_pus, 4);
        assert_eq!(c4.l1(), CacheParams { size: 64 * 1024, assoc: 2, line: 32, hit_latency: 1 });
        assert_eq!(c4.ring_bandwidth, 2);
        assert!(!c4.in_order && c4.dead_reg_analysis && !c4.inject_commit_undercount);
        assert_eq!((c4.task_start_overhead, c4.task_end_overhead), (2, 2));
        let c8 = SimConfig::eight_pu();
        assert_eq!(c8.num_pus, 8);
        assert_eq!(c8.l1().size, 128 * 1024);
        assert_eq!(SimConfig::with_pus(7).l1().size, 64 * 1024);
        assert_eq!(c8.arb_entries_per_pu, 32);
        assert_eq!(c8.sync_table_entries, 256);
    }

    #[test]
    fn order_builders_toggle() {
        let c = SimConfig::four_pu().in_order();
        assert!(c.in_order);
        assert!(!c.out_of_order().in_order);
    }

    #[test]
    #[should_panic(expected = "at least one PU")]
    fn zero_pus_is_rejected() {
        let _ = SimConfig::with_pus(0);
    }
}
