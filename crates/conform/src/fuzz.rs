//! The seeded fuzz/shrink loop: random programs through every
//! partitioning heuristic, checked against the reference model, with
//! greedy shrinking of any failure to a minimal reproducer.
//!
//! One fuzz case is one seed: [`ProgSpec::random`] derives a program
//! from it deterministically, so a failing seed *is* the repro — the
//! shrink step only makes it readable. Shrinking is classic delta
//! debugging over [`ProgSpec::reductions`]: repeatedly take the first
//! reduction that still fails, until none does. Because every reduction
//! builds a valid program by construction, the shrink loop never has to
//! discard candidates for well-formedness.
//!
//! A case pays its fixed costs once ([`FuzzCase`]): it builds the
//! seed's program and one analysis context, selects every policy from
//! that context, and generates and walks one trace, which every policy
//! whose selection keeps the context's program shares (all but `ts`
//! when it unrolls a loop): each folds the shared reference walk over
//! its own tasks. Policies often pick the same tasks, and a check is a
//! pure function of program, partition, trace and machine, so a
//! partition of the shared program is checked once and its result
//! serves every policy that selected it. Only a failure's shrink loop
//! builds candidate programs afresh.

use std::borrow::Cow;
use std::sync::Arc;

use ms_analysis::ProgramContext;
use ms_ir::gen::{GenParams, ProgSpec};
use ms_ir::SplitMix64;
use ms_sim::SimConfig;
use ms_tasksel::{Selection, Strategy, TaskPartition, TaskSelector};
use ms_trace::{Trace, TraceGenerator};

use crate::reference::TraceFacts;
use crate::{check_selection, check_trace, check_walked, CheckRun};

/// Decorrelates fuzz-program derivation from other uses of the seed.
const FUZZ_SALT: u64 = 0x5eed_f0dd_5eed_f0dd;

/// Knobs for one fuzz case.
#[derive(Debug, Clone, Copy)]
pub struct FuzzParams {
    /// Upper bound on generated `main` blocks (helpers are smaller).
    pub max_blocks: usize,
    /// Dynamic instruction budget per simulated run.
    pub insts: usize,
    /// Enable the engine's test-only fault injection
    /// ([`SimConfig::with_injected_commit_undercount`]) — used by the
    /// harness's own process test to prove the loop catches real bugs.
    pub inject: bool,
}

impl Default for FuzzParams {
    fn default() -> Self {
        FuzzParams { max_blocks: 16, insts: 4_000, inject: false }
    }
}

/// One conformance failure, shrunk to a minimal reproducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// The failing seed.
    pub seed: u64,
    /// Label of the failing policy ("bb", "cf", "dd", "ts", "cost",
    /// "oracle").
    pub strategy: &'static str,
    /// The conformance errors of the *minimal* reproducer.
    pub errors: Vec<String>,
    /// The minimal program, in the IR's text format.
    pub repro: String,
    /// Block count of the minimal program.
    pub repro_blocks: usize,
    /// Block count of the original failing program.
    pub original_blocks: usize,
}

/// Every [`Strategy`] with its label, target limit 4 (`cost` runs
/// without a pilot cost model and so scores from the static profile,
/// which is exactly its fallback path).
pub fn strategies() -> [(&'static str, TaskSelector); 6] {
    Strategy::extended().map(|s| (s.label(), s.selector(4)))
}

/// One seed's fixed costs, paid once for all six policies: the seed's
/// program, the analysis context every policy selects from, the trace
/// of that program with its reference walk, and the result of each
/// distinct partition of that program checked so far.
#[derive(Debug)]
pub struct FuzzCase {
    /// The seed's program, as the spec the shrinker reduces.
    pub spec: ProgSpec,
    /// The analysis context of `spec`'s program.
    pub ctx: ProgramContext,
    /// The trace of the context's program, shared by every selection
    /// that keeps that program.
    pub trace: Trace,
    /// The reference walk of `trace`.
    facts: TraceFacts,
    /// The partitions of the context's program checked so far, each
    /// with its result.
    checked: Vec<(TaskPartition, CheckRun)>,
    cfg: SimConfig,
    seed: u64,
    insts: usize,
}

impl FuzzCase {
    /// Derives the seed's program, builds its context, and generates
    /// and walks its trace (`params.insts` instructions from `seed`).
    pub fn new(seed: u64, params: &FuzzParams) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ FUZZ_SALT);
        let gen = GenParams { max_blocks: params.max_blocks, ..GenParams::default() };
        let spec = ProgSpec::random(&mut rng, &gen);
        let ctx = ProgramContext::new(spec.build());
        let trace = TraceGenerator::new(ctx.program(), seed).generate(params.insts);
        let facts = TraceFacts::walk(ctx.program(), &trace);
        FuzzCase {
            spec,
            ctx,
            trace,
            facts,
            checked: Vec::new(),
            cfg: machine(params),
            seed,
            insts: params.insts,
        }
    }

    /// The trace to check `sel` on: the shared one when `sel`'s program
    /// is the context's (every policy but a `ts` that unrolled a loop),
    /// else a trace of its own program from the same seed.
    pub fn trace_for(&self, sel: &Selection) -> Cow<'_, Trace> {
        if self.shares_program(sel) {
            Cow::Borrowed(&self.trace)
        } else {
            Cow::Owned(TraceGenerator::new(&sel.program, self.seed).generate(self.insts))
        }
    }

    /// The full conformance check of `sel` on its [`FuzzCase::trace_for`]
    /// trace, on the fuzz machine. On the shared program it reuses the
    /// shared reference walk, and a partition with the same tasks as
    /// one already checked ([`TaskPartition::same_tasks`]) takes that
    /// check's result without running again.
    fn check(&mut self, sel: &Selection) -> Cow<'_, CheckRun> {
        if !self.shares_program(sel) {
            let trace = TraceGenerator::new(&sel.program, self.seed).generate(self.insts);
            return Cow::Owned(check_trace(&sel.program, &sel.partition, &trace, self.cfg.clone()));
        }
        let i = match self.checked.iter().position(|(p, _)| p.same_tasks(&sel.partition)) {
            Some(i) => i,
            None => {
                let run = check_walked(
                    &sel.program,
                    &sel.partition,
                    &self.trace,
                    &self.facts,
                    self.cfg.clone(),
                );
                self.checked.push((sel.partition.clone(), run));
                self.checked.len() - 1
            }
        };
        Cow::Borrowed(&self.checked[i].1)
    }

    fn shares_program(&self, sel: &Selection) -> bool {
        Arc::ptr_eq(&sel.program, self.ctx.program_arc())
    }
}

/// Runs one fuzz case: generates the seed's program, pushes it through
/// every policy under the full conformance check, and shrinks any
/// failure. Returns one [`FuzzFailure`] per failing policy (empty =
/// the seed conforms).
pub fn fuzz_seed(seed: u64, params: &FuzzParams) -> Vec<FuzzFailure> {
    let mut case = FuzzCase::new(seed, params);
    let mut failures = Vec::new();
    for (label, selector) in strategies() {
        let sel = selector.select(&case.ctx);
        if case.check(&sel).errors.is_empty() {
            continue;
        }
        let (min, errors) = shrink(&case.spec, &selector, params, seed);
        failures.push(FuzzFailure {
            seed,
            strategy: label,
            errors,
            repro: ms_ir::write_program(&min.build()),
            repro_blocks: min.num_blocks(),
            original_blocks: case.spec.num_blocks(),
        });
    }
    failures
}

/// Greedy delta debugging: take the first reduction that still fails,
/// repeat until no reduction fails. Returns the spec it settles on with
/// that spec's errors from a fresh check.
fn shrink(
    spec: &ProgSpec,
    selector: &TaskSelector,
    params: &FuzzParams,
    seed: u64,
) -> (ProgSpec, Vec<String>) {
    let mut cur = spec.clone();
    let mut errors = None;
    'outer: loop {
        for cand in cur.reductions() {
            let cand_errors = check_spec(&cand, selector, params, seed);
            if !cand_errors.is_empty() {
                cur = cand;
                errors = Some(cand_errors);
                continue 'outer;
            }
        }
        // A spec that did not shrink has been checked only on the case's
        // shared path so far.
        let errors = errors.unwrap_or_else(|| check_spec(&cur, selector, params, seed));
        return (cur, errors);
    }
}

/// Builds the spec's program, partitions it with `selector`, and runs
/// the full conformance check (reference model + event-stream checker +
/// stats reconciliation + differential diff).
fn check_spec(
    spec: &ProgSpec,
    selector: &TaskSelector,
    params: &FuzzParams,
    seed: u64,
) -> Vec<String> {
    let sel = selector.select(&ProgramContext::new(spec.build()));
    check_selection(&sel, machine(params), params.insts, seed).errors
}

/// The machine every fuzz check runs on.
fn machine(params: &FuzzParams) -> SimConfig {
    let cfg = SimConfig::four_pu();
    if params.inject {
        cfg.with_injected_commit_undercount()
    } else {
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::walk_per_task;
    use ms_trace::split_tasks;

    /// For every policy of seeds 0..64, folding the case's one walk of
    /// its shared trace (or, for `ts`, the walk of its own trace) gives
    /// the reference a per-policy, per-task walk computes.
    #[test]
    fn shared_walk_folds_to_the_per_policy_walk() {
        let params = FuzzParams::default();
        let mut conflicts = 0;
        for seed in 0..64 {
            let case = FuzzCase::new(seed, &params);
            for (label, selector) in strategies() {
                let sel = selector.select(&case.ctx);
                let trace = case.trace_for(&sel);
                let tasks = split_tasks(&trace, &sel.program, &sel.partition);
                let folded = match &trace {
                    Cow::Borrowed(_) => case.facts.fold(&tasks),
                    Cow::Owned(own) => TraceFacts::walk(&sel.program, own).fold(&tasks),
                };
                let fresh = walk_per_task(&sel.program, &trace, &tasks);
                assert_eq!(folded, fresh, "seed {seed} {label}");
                conflicts += fresh.mem_conflicts.len();
            }
        }
        assert!(conflicts > 0, "no policy of any seed has a cross-task conflict");
    }

    /// A case's check equals a fresh `check_trace` of the same
    /// selection, stats and errors, and keeps one result per distinct
    /// partition of the shared program.
    #[test]
    fn a_repeated_partition_runs_the_engine_once() {
        let mut served = 0;
        for params in [FuzzParams::default(), FuzzParams { inject: true, ..FuzzParams::default() }]
        {
            for seed in 0..24 {
                let mut case = FuzzCase::new(seed, &params);
                let mut distinct: Vec<TaskPartition> = Vec::new();
                for (label, selector) in strategies() {
                    let sel = selector.select(&case.ctx);
                    let fresh = check_trace(
                        &sel.program,
                        &sel.partition,
                        &case.trace_for(&sel),
                        machine(&params),
                    );
                    if case.shares_program(&sel) {
                        if distinct.iter().any(|p| p.same_tasks(&sel.partition)) {
                            served += 1;
                        } else {
                            distinct.push(sel.partition.clone());
                        }
                    }
                    let run = case.check(&sel);
                    assert_eq!(run.errors, fresh.errors, "seed {seed} {label}");
                    assert_eq!(run.stats.to_json(), fresh.stats.to_json(), "seed {seed} {label}");
                }
                assert_eq!(case.checked.len(), distinct.len(), "seed {seed}");
            }
        }
        assert!(served > 0, "no check was served from an earlier one");
    }

    #[test]
    fn clean_seeds_produce_no_failures() {
        let params = FuzzParams::default();
        for seed in 0..4 {
            let failures = fuzz_seed(seed, &params);
            assert!(
                failures.is_empty(),
                "seed {seed} failed: {:?}",
                failures.iter().flat_map(|f| &f.errors).collect::<Vec<_>>()
            );
        }
    }
}
