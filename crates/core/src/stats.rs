//! Static statistics over a task partition.

use std::fmt;

use ms_analysis::{DefUseChains, Profile};
use ms_ir::{BlockRef, Program};

use crate::task::TaskPartition;

/// Static (compile-time) characteristics of a partition — the inputs the
/// paper's §2.4 relates to performance: task size, number of task
/// targets, and exposed data dependences.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionStats {
    /// Total number of static tasks across all functions.
    pub num_tasks: usize,
    /// Mean static instructions per task (unweighted).
    pub avg_static_size: f64,
    /// Frequency-weighted expected dynamic instructions per task
    /// invocation (estimate; the simulator reports the measured value).
    pub expected_dynamic_size: f64,
    /// Histogram of task target counts: `targets_hist[k]` = number of
    /// tasks with `k` targets (last bucket collects the overflow).
    pub targets_hist: Vec<usize>,
    /// Number of tasks whose target count exceeds the hardware limit `N`
    /// (possible after single-entry repair; the predictor then aliases).
    pub over_limit: usize,
    /// Cross-block register dependences whose producer and consumer fell
    /// into different tasks (exposed) vs. the same task (included).
    pub deps_exposed: usize,
    /// See [`PartitionStats::deps_exposed`].
    pub deps_included: usize,
    /// Histogram of *static* task sizes in power-of-two buckets:
    /// `size_hist[k]` counts tasks of `[2^k, 2^(k+1))` static
    /// instructions (bucket 0 also takes empty tasks; the last bucket
    /// collects the overflow). The simulator reports the dynamic
    /// counterpart.
    pub size_hist: Vec<usize>,
}

/// Number of buckets in [`PartitionStats::size_hist`].
pub const SIZE_HIST_BUCKETS: usize = 12;

impl PartitionStats {
    /// Computes statistics for `partition` over `program`, using
    /// `profile` for frequency weighting and `max_targets` to count
    /// over-limit tasks.
    pub fn compute(
        program: &Program,
        partition: &TaskPartition,
        profile: &Profile,
        max_targets: usize,
    ) -> Self {
        let mut num_tasks = 0usize;
        let mut static_size_sum = 0usize;
        let mut size_hist = vec![0usize; SIZE_HIST_BUCKETS];
        let mut targets_hist = vec![0usize; 10];
        let mut over_limit = 0usize;
        let mut weighted_insts = 0.0f64;
        let mut invocations = 0.0f64;
        let mut deps_exposed = 0usize;
        let mut deps_included = 0usize;

        for fid in program.func_ids() {
            let func = program.function(fid);
            let fp = partition.func(fid);
            let included = partition.included_in(fid);
            for (ti, task) in fp.tasks().iter().enumerate() {
                num_tasks += 1;
                let size = task.static_size(func);
                static_size_sum += size;
                let k = (usize::BITS - 1 - size.max(1).leading_zeros()) as usize;
                size_hist[k.min(SIZE_HIST_BUCKETS - 1)] += 1;
                let targets = task.targets(func, &included);
                let k = targets.len().min(targets_hist.len() - 1);
                targets_hist[k] += 1;
                if targets.len() > max_targets {
                    over_limit += 1;
                }
                invocations += profile.global_block_freq(BlockRef::new(fid, task.entry()));
                let _ = (ti, &targets);
            }
            for b in func.block_ids() {
                weighted_insts += profile.global_block_freq(BlockRef::new(fid, b))
                    * func.block(b).len_with_ct() as f64;
            }
            let du = DefUseChains::compute(func);
            for (def_b, use_b, _reg) in du.block_deps() {
                match (fp.task_of(def_b), fp.task_of(use_b)) {
                    (Some(a), Some(b)) if a == b => deps_included += 1,
                    (Some(_), Some(_)) => deps_exposed += 1,
                    _ => {}
                }
            }
        }
        let avg_static_size =
            if num_tasks == 0 { 0.0 } else { static_size_sum as f64 / num_tasks as f64 };
        let expected_dynamic_size =
            if invocations > 0.0 { weighted_insts / invocations } else { 0.0 };
        PartitionStats {
            num_tasks,
            avg_static_size,
            expected_dynamic_size,
            targets_hist,
            over_limit,
            deps_exposed,
            deps_included,
            size_hist,
        }
    }

    /// Mean number of targets per task.
    pub fn avg_targets(&self) -> f64 {
        let total: usize = self.targets_hist.iter().enumerate().map(|(k, &n)| k * n).sum();
        if self.num_tasks == 0 {
            0.0
        } else {
            total as f64 / self.num_tasks as f64
        }
    }

    /// Fraction of cross-block dependences included within tasks.
    pub fn dep_inclusion_ratio(&self) -> f64 {
        let total = self.deps_exposed + self.deps_included;
        if total == 0 {
            1.0
        } else {
            self.deps_included as f64 / total as f64
        }
    }

    /// Serialises the statistics as a single-line JSON object (stable
    /// field names, no external dependencies) — the compile-time half of
    /// the experiment harness's per-cell metrics artifact.
    pub fn to_json(&self) -> String {
        let list = |v: &[usize]| {
            let cells: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            format!("[{}]", cells.join(","))
        };
        format!(
            concat!(
                "{{\"num_tasks\":{},\"avg_static_size\":{},",
                "\"expected_dynamic_size\":{},\"avg_targets\":{},",
                "\"over_limit\":{},\"deps_exposed\":{},\"deps_included\":{},",
                "\"targets_hist\":{},\"size_hist\":{}}}"
            ),
            self.num_tasks,
            self.avg_static_size,
            self.expected_dynamic_size,
            self.avg_targets(),
            self.over_limit,
            self.deps_exposed,
            self.deps_included,
            list(&self.targets_hist),
            list(&self.size_hist),
        )
    }
}

impl fmt::Display for PartitionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "tasks: {}", self.num_tasks)?;
        writeln!(f, "avg static size: {:.2}", self.avg_static_size)?;
        writeln!(f, "expected dynamic size: {:.2}", self.expected_dynamic_size)?;
        writeln!(f, "avg targets: {:.2} (over limit: {})", self.avg_targets(), self.over_limit)?;
        writeln!(
            f,
            "register deps included: {} / {} ({:.0}%)",
            self.deps_included,
            self.deps_included + self.deps_exposed,
            100.0 * self.dep_inclusion_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SelectorBuilder, Strategy};
    use ms_analysis::ProgramContext;
    use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};

    fn sample_program() -> Program {
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        let b3 = fb.add_block();
        fb.push_inst(b0, Opcode::IMov.inst().dst(Reg::int(1)));
        fb.push_inst(b3, Opcode::IAdd.inst().dst(Reg::int(2)).src(Reg::int(1)));
        fb.set_terminator(
            b0,
            Terminator::Branch {
                taken: b1,
                fall: b2,
                cond: vec![],
                behavior: BranchBehavior::Taken(0.5),
            },
        );
        fb.set_terminator(b1, Terminator::Jump { target: b3 });
        fb.set_terminator(b2, Terminator::Jump { target: b3 });
        fb.set_terminator(b3, Terminator::Halt);
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        pb.define_function(m, fb.finish(b0).unwrap());
        pb.finish(m).unwrap()
    }

    #[test]
    fn merged_tasks_include_the_dependence() {
        let p = sample_program();
        let profile = Profile::estimate(&p);
        let bb = SelectorBuilder::new(Strategy::BasicBlock)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let cf = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let sbb = PartitionStats::compute(&p, &bb.partition, &profile, 4);
        let scf = PartitionStats::compute(&p, &cf.partition, &profile, 4);
        assert!(sbb.num_tasks > scf.num_tasks);
        assert!(scf.avg_static_size > sbb.avg_static_size);
        // bb splits the r1 dependence; cf (one task) includes it.
        assert_eq!(sbb.deps_included, 0);
        assert!(sbb.deps_exposed > 0);
        assert_eq!(scf.deps_exposed, 0);
        assert!(scf.dep_inclusion_ratio() > sbb.dep_inclusion_ratio());
    }

    #[test]
    fn display_mentions_key_lines() {
        let p = sample_program();
        let profile = Profile::estimate(&p);
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let s = PartitionStats::compute(&p, &sel.partition, &profile, 4);
        let text = s.to_string();
        assert!(text.contains("tasks:"));
        assert!(text.contains("avg targets"));
    }

    #[test]
    fn size_hist_counts_every_task_and_serialises() {
        let p = sample_program();
        let profile = Profile::estimate(&p);
        let sel = SelectorBuilder::new(Strategy::BasicBlock)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let s = PartitionStats::compute(&p, &sel.partition, &profile, 4);
        assert_eq!(s.size_hist.iter().sum::<usize>(), s.num_tasks);
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"size_hist\":["));
        assert!(j.contains("\"num_tasks\":"));
    }

    #[test]
    fn expected_dynamic_size_is_weighted() {
        let p = sample_program();
        let profile = Profile::estimate(&p);
        let sel = SelectorBuilder::new(Strategy::BasicBlock)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let s = PartitionStats::compute(&p, &sel.partition, &profile, 4);
        // 4 blocks with total weighted insts (1+1)+1+1+(1+1)... per run:
        // b0: 2 insts, b1/b2: 1 each (half frequency), b3: 1 + halt(0).
        // invocations = freq sum of entries = 1 + .5 + .5 + 1 = 3.
        assert!(s.expected_dynamic_size > 0.9 && s.expected_dynamic_size < 3.0);
    }
}
