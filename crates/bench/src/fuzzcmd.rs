//! The `run -- fuzz` subcommand: the conformance fuzz loop from
//! `ms-conform`, fanned over worker threads, with minimal reproducers
//! written as `.msir` artifacts.
//!
//! Each seed is one independent fuzz case (random program × every
//! selection policy × full three-layer conformance check), so the sweep uses
//! the same deterministic pool as the experiment grids: results are
//! bit-identical to a serial run at any `--jobs`. Seeds are derived as
//! `base + i`, so `--seed` relocates the whole sweep reproducibly and
//! any failure can be re-run alone with `--seeds 1 --seed <failing>`.

use std::path::{Path, PathBuf};

use ms_conform::{fuzz_seed, FuzzFailure, FuzzParams};

use crate::harness::run_parallel;

/// The outcome of one fuzz sweep.
#[derive(Debug)]
pub struct FuzzReport {
    /// Every failure found, with its minimal reproducer.
    pub failures: Vec<FuzzFailure>,
    /// Human-readable summary (one line per failure plus a verdict).
    pub text: String,
    /// The `.msir` artifacts to write: `(path, program text)`.
    pub artifacts: Vec<(PathBuf, String)>,
}

/// Runs `seeds` fuzz cases starting at `base_seed`, `jobs` at a time.
/// Repro artifacts are laid out under `out_dir/fuzz/`.
pub fn run_fuzz(
    seeds: u64,
    base_seed: u64,
    params: &FuzzParams,
    jobs: usize,
    out_dir: &Path,
) -> FuzzReport {
    let cases: Vec<u64> = (0..seeds).map(|i| base_seed.wrapping_add(i)).collect();
    let failures: Vec<FuzzFailure> = run_parallel(jobs, cases, |&seed, _| fuzz_seed(seed, params))
        .into_iter()
        .flatten()
        .collect();

    let mut text = String::new();
    let mut artifacts = Vec::new();
    for f in &failures {
        let path = out_dir.join("fuzz").join(format!("seed{:#x}-{}.msir", f.seed, f.strategy));
        text.push_str(&format!(
            "FAIL seed {:#x} [{}]: {} violation(s), shrunk {} -> {} blocks\n",
            f.seed,
            f.strategy,
            f.errors.len(),
            f.original_blocks,
            f.repro_blocks,
        ));
        for e in f.errors.iter().take(3) {
            text.push_str(&format!("     {e}\n"));
        }
        text.push_str(&format!("     repro -> {}\n", path.display()));
        artifacts.push((path, f.repro.clone()));
    }
    if failures.is_empty() {
        text.push_str(&format!(
            "fuzz: {seeds} seed(s) x {} policies conform \
             (base seed {base_seed:#x}, max {} blocks, {} insts/run)\n",
            ms_conform::strategies().len(),
            params.max_blocks,
            params.insts
        ));
    } else {
        text.push_str(&format!("fuzz: {} of {seeds} seed(s) FAILED\n", {
            let mut s: Vec<u64> = failures.iter().map(|f| f.seed).collect();
            s.dedup();
            s.len()
        }));
    }
    FuzzReport { failures, text, artifacts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sweep_reports_success_and_no_artifacts() {
        let params = FuzzParams { max_blocks: 8, insts: 1_000, ..FuzzParams::default() };
        let report = run_fuzz(3, 0x5eed, &params, 2, Path::new("target/experiments"));
        assert!(report.failures.is_empty(), "{}", report.text);
        assert!(report.artifacts.is_empty());
        assert!(report.text.contains("conform"));
    }

    #[test]
    fn injected_bug_produces_repro_artifacts() {
        let params = FuzzParams { max_blocks: 8, insts: 1_000, inject: true };
        let report = run_fuzz(8, 0, &params, 2, Path::new("/tmp/exp"));
        assert!(!report.failures.is_empty());
        assert_eq!(report.artifacts.len(), report.failures.len());
        let (path, body) = &report.artifacts[0];
        assert!(path.starts_with("/tmp/exp/fuzz"));
        assert!(ms_ir::parse_program(body).is_ok());
        assert!(report.text.contains("FAIL"));
    }

    #[test]
    fn parallel_and_serial_sweeps_agree() {
        let params = FuzzParams { max_blocks: 8, insts: 1_000, inject: true };
        let serial = run_fuzz(6, 1, &params, 1, Path::new("x"));
        let parallel = run_fuzz(6, 1, &params, 4, Path::new("x"));
        // Whole records: errors and repro text too, so engine state that
        // worker threads reuse from case to case cannot leak into a
        // failure unnoticed.
        assert!(!serial.failures.is_empty());
        assert_eq!(serial.failures, parallel.failures);
    }
}
