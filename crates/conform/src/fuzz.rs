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

use ms_analysis::ProgramContext;
use ms_ir::gen::{GenParams, ProgSpec};
use ms_ir::SplitMix64;
use ms_sim::SimConfig;
use ms_tasksel::{Strategy, TaskSelector};

use crate::check_selection;

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
#[derive(Debug, Clone)]
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

/// Runs one fuzz case: generates the seed's program, pushes it through
/// every policy under the full conformance check, and shrinks any
/// failure. Returns one [`FuzzFailure`] per failing policy (empty =
/// the seed conforms).
pub fn fuzz_seed(seed: u64, params: &FuzzParams) -> Vec<FuzzFailure> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ FUZZ_SALT);
    let gen = GenParams { max_blocks: params.max_blocks, ..GenParams::default() };
    let spec = ProgSpec::random(&mut rng, &gen);
    let mut failures = Vec::new();
    for (label, selector) in strategies() {
        let errors = check_spec(&spec, &selector, params, seed);
        if errors.is_empty() {
            continue;
        }
        let min = shrink(&spec, &selector, params, seed);
        let min_errors = check_spec(&min, &selector, params, seed);
        failures.push(FuzzFailure {
            seed,
            strategy: label,
            errors: min_errors,
            repro: ms_ir::write_program(&min.build()),
            repro_blocks: min.num_blocks(),
            original_blocks: spec.num_blocks(),
        });
    }
    failures
}

/// Greedy delta debugging: take the first reduction that still fails,
/// repeat until no reduction fails.
fn shrink(spec: &ProgSpec, selector: &TaskSelector, params: &FuzzParams, seed: u64) -> ProgSpec {
    let mut cur = spec.clone();
    'outer: loop {
        for cand in cur.reductions() {
            if !check_spec(&cand, selector, params, seed).is_empty() {
                cur = cand;
                continue 'outer;
            }
        }
        return cur;
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
    let mut cfg = SimConfig::four_pu();
    if params.inject {
        cfg = cfg.with_injected_commit_undercount();
    }
    check_selection(&sel, cfg, params.insts, seed).errors
}

#[cfg(test)]
mod tests {
    use super::*;

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
