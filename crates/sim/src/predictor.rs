//! Control flow predictors: intra-task gshare and the inter-task
//! path-based task predictor (Jacobson et al., cited as \[9\]).
//!
//! Both re-initialise in place for each run. A short run moves only a
//! few hundred of a table's 64K entries off their initial value, so
//! each table keeps a bounded [`TouchLog`] of those entries and a reset
//! restores just them; a run that touches more re-fills the table.

/// Entries a [`TouchLog`] records before it gives up (4 KiB of
/// indices): past it, a reset re-fills the whole table.
const TOUCH_LOG_CAP: usize = 1024;

/// The indices of the table entries a run moved off their initial
/// value, up to [`TOUCH_LOG_CAP`] of them.
#[derive(Debug, Clone, Default)]
struct TouchLog {
    idx: Vec<u32>,
    /// More entries moved than the log holds.
    full: bool,
}

impl TouchLog {
    /// Entry `idx` is about to leave its initial value.
    #[inline]
    fn note(&mut self, idx: usize) {
        if self.idx.len() < TOUCH_LOG_CAP {
            self.idx.push(idx as u32);
        } else {
            self.full = true;
        }
    }

    /// Leaves `table` as `len` copies of `init`: the logged entries are
    /// restored when the log holds every moved entry of a table of that
    /// length, else the table is re-filled. The log keeps its capacity.
    fn restore<T: Copy>(&mut self, table: &mut Vec<T>, len: usize, init: T) {
        if self.full || table.len() != len {
            table.clear();
            table.resize(len, init);
        } else {
            for &i in &self.idx {
                table[i as usize] = init;
            }
        }
        self.idx.clear();
        self.idx.reserve(TOUCH_LOG_CAP);
        self.full = false;
    }
}

/// A 2-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter2(u8);

impl Counter2 {
    const fn new() -> Self {
        Counter2(1) // weakly not-taken
    }
    fn taken(&self) -> bool {
        self.0 >= 2
    }
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Gshare direction predictor: global history XOR branch PC indexing a
/// table of 2-bit counters. Used for intra-task conditional branches
/// (paper: 16-bit history, 64K entries).
#[derive(Debug, Clone, Default)]
pub(crate) struct Gshare {
    table: Vec<Counter2>,
    touched: TouchLog,
    history: u64,
    history_mask: u64,
    index_mask: u64,
}

impl Gshare {
    #[cfg(test)]
    pub(crate) fn new(history_bits: u32, table_bits: u32) -> Self {
        let mut g = Gshare::default();
        g.reset(history_bits, table_bits);
        g
    }

    /// Re-initialises the predictor in place with `history_bits` of
    /// global history and a `2^table_bits`-entry counter table (every
    /// counter weakly not-taken, empty history), reusing the table's
    /// allocation and restoring only the entries the last run moved
    /// ([`TouchLog`]).
    ///
    /// # Panics
    ///
    /// Panics if `table_bits` is 0 or greater than 28.
    pub(crate) fn reset(&mut self, history_bits: u32, table_bits: u32) {
        assert!(table_bits > 0 && table_bits <= 28, "unreasonable gshare table size");
        self.touched.restore(&mut self.table, 1 << table_bits, Counter2::new());
        self.history = 0;
        self.history_mask = (1u64 << history_bits.min(63)) - 1;
        self.index_mask = (1u64 << table_bits) - 1;
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.index_mask) as usize
    }

    /// Predicts, updates with the actual outcome, and reports whether the
    /// prediction was correct.
    pub(crate) fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let counter = &mut self.table[idx];
        if *counter == Counter2::new() {
            self.touched.note(idx);
        }
        let correct = counter.taken() == taken;
        counter.update(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
        correct
    }
}

/// One task predictor entry: a predicted target index with a 2-bit
/// confidence counter (the paper's "2-bit counters and 2-bit target
/// numbers").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaskEntry {
    target: u8,
    conf: Counter2,
}

impl TaskEntry {
    /// Target 0, weakly not confident.
    const INIT: TaskEntry = TaskEntry { target: 0, conf: Counter2::new() };
}

/// Path-based inter-task target predictor: a hash of the recent task
/// entry-PC path indexes a table of (confidence, target-number) pairs.
/// The target number selects among a task's ≤ N static successor
/// targets.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskPredictor {
    table: Vec<TaskEntry>,
    touched: TouchLog,
    /// Folded path history of task entry PCs.
    path: u64,
    history_mask: u64,
    index_mask: u64,
}

impl TaskPredictor {
    #[cfg(test)]
    pub(crate) fn new(history_bits: u32, table_bits: u32) -> Self {
        let mut t = TaskPredictor::default();
        t.reset(history_bits, table_bits);
        t
    }

    /// Re-initialises the predictor in place with `history_bits` of
    /// folded path history and a `2^table_bits`-entry table (every entry
    /// target 0, weakly not confident, empty path), reusing the table's
    /// allocation and restoring only the entries the last run moved
    /// ([`TouchLog`]).
    ///
    /// # Panics
    ///
    /// Panics if `table_bits` is 0 or greater than 28.
    pub(crate) fn reset(&mut self, history_bits: u32, table_bits: u32) {
        assert!(table_bits > 0 && table_bits <= 28, "unreasonable task predictor size");
        self.touched.restore(&mut self.table, 1 << table_bits, TaskEntry::INIT);
        self.path = 0;
        self.history_mask = (1u64 << history_bits.min(63)) - 1;
        self.index_mask = (1u64 << table_bits) - 1;
    }

    fn index(&self, task_pc: u64) -> usize {
        (((task_pc >> 2) ^ self.path) & self.index_mask) as usize
    }

    /// Predicts, updates with the actual target index, folds the task
    /// into the path history, and reports whether the prediction was
    /// correct. `num_targets == 1` is trivially correct (nothing to
    /// predict).
    ///
    /// The table stores the paper's **2-bit target numbers**: targets
    /// beyond index 3 cannot be represented, so tasks selected with more
    /// successors than the hardware tracks are systematically
    /// mispredicted when they exit through the extra targets (§2.4.2).
    pub(crate) fn predict_and_update(
        &mut self,
        task_pc: u64,
        actual: usize,
        num_targets: usize,
    ) -> bool {
        const HW_TARGETS: usize = 4; // 2-bit target number
        let idx = self.index(task_pc);
        let entry = &mut self.table[idx];
        if *entry == TaskEntry::INIT {
            self.touched.note(idx);
        }
        let predicted = entry.target as usize;
        let correct = num_targets <= 1 || (actual < HW_TARGETS && predicted == actual);
        if correct {
            entry.conf.update(true);
        } else {
            entry.conf.update(false);
            if !entry.conf.taken() && actual < HW_TARGETS {
                entry.target = actual as u8;
            }
        }
        // Fold (path << 3) ^ pc, as in path-based next-trace predictors.
        self.path = (((self.path << 3) ^ (task_pc >> 2)) ^ actual as u64) & self.history_mask;
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_a_bias() {
        let mut g = Gshare::new(16, 16);
        // Warmup: the global history must saturate before the index
        // stabilises.
        for _ in 0..50 {
            g.predict_and_update(0x1000, true);
        }
        let mut correct = 0;
        for _ in 0..100 {
            if g.predict_and_update(0x1000, true) {
                correct += 1;
            }
        }
        assert!(correct >= 95, "biased branch should be learned, got {correct}");
    }

    #[test]
    fn gshare_learns_an_alternating_pattern() {
        let mut g = Gshare::new(16, 16);
        let mut correct = 0;
        for i in 0..400 {
            if g.predict_and_update(0x2000, i % 2 == 0) {
                correct += 1;
            }
        }
        // After warmup the history disambiguates the two phases.
        assert!(correct > 300, "alternating pattern learned, got {correct}");
    }

    #[test]
    fn gshare_distinguishes_branches_by_pc() {
        let mut g = Gshare::new(4, 16);
        for _ in 0..64 {
            g.predict_and_update(0x1000, true);
            g.predict_and_update(0x2000, false);
        }
        // Steady state: both biased branches predicted correctly.
        assert!(g.predict_and_update(0x1000, true));
        assert!(g.predict_and_update(0x2000, false));
    }

    #[test]
    fn task_predictor_learns_a_dominant_target() {
        let mut t = TaskPredictor::new(16, 16);
        let mut correct = 0;
        for _ in 0..100 {
            if t.predict_and_update(0x4000, 2, 4) {
                correct += 1;
            }
        }
        assert!(correct >= 90, "dominant target learned, got {correct}");
    }

    #[test]
    fn task_predictor_single_target_is_free() {
        let mut t = TaskPredictor::new(16, 16);
        for _ in 0..10 {
            assert!(t.predict_and_update(0x4000, 0, 1));
        }
    }

    /// A reset after a run that overflowed the touch logs (a full
    /// re-fill) and after a short run (the logged entries only) leaves
    /// both tables as freshly built ones, and the logs keep their
    /// capacity.
    #[test]
    fn reset_restores_fresh_tables_after_long_and_short_runs() {
        let fresh_g = Gshare::new(16, 16);
        let fresh_t = TaskPredictor::new(16, 16);
        let mut g = Gshare::new(16, 16);
        let mut t = TaskPredictor::new(16, 16);
        for updates in [4 * TOUCH_LOG_CAP as u64, 100] {
            for i in 0..updates {
                g.predict_and_update(i * 28, i % 3 == 0);
                t.predict_and_update(i * 20, (i % 4) as usize, 4);
            }
            let long = updates > TOUCH_LOG_CAP as u64;
            assert_eq!((g.touched.full, t.touched.full), (long, long));
            assert!(g.table != fresh_g.table && t.table != fresh_t.table);
            g.reset(16, 16);
            t.reset(16, 16);
            assert!(g.table == fresh_g.table && g.history == 0);
            assert!(t.table == fresh_t.table && t.path == 0);
            for log in [&g.touched, &t.touched] {
                assert!(log.idx.is_empty() && !log.full);
                assert!(log.idx.capacity() >= TOUCH_LOG_CAP);
            }
        }
    }

    #[test]
    fn task_predictor_uses_path_history() {
        // Target of task B depends on the preceding task (A1 vs A2):
        // unlearnable without path history.
        let mut t = TaskPredictor::new(16, 16);
        let mut correct = 0;
        let total = 600;
        for i in 0..total {
            if i % 2 == 0 {
                t.predict_and_update(0xa000, 0, 4);
                if t.predict_and_update(0xb000, 1, 4) && i > 100 {
                    correct += 1;
                }
            } else {
                t.predict_and_update(0xa004, 0, 4);
                if t.predict_and_update(0xb000, 3, 4) && i > 100 {
                    correct += 1;
                }
            }
        }
        assert!(correct > 400, "path-correlated targets learned, got {correct}");
    }
}
