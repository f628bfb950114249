//! The four workloads, run closed loop from one client: one `run`
//! process at a time, each in a fresh directory with its own `--out`
//! and run ledger, timed as a black box and checked against reference
//! digests.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::probe::{self, Readings};
use crate::procfs::{run_measured, Measured};

/// Worker threads of the parallel invocations: fixed, so that the work
/// is the same on every machine (it equals `nproc` on the 2-CPU box the
/// benchmark was defined on).
pub const JOBS: usize = 2;

/// Invocations (or set-up groups) shorter than this are repeated within a
/// sample until their total reaches it, and reported per invocation.
const MIN_BATCH_S: f64 = 0.3;

/// The heuristics `grids` set-up prepares the suite for.
const SETUP_STRATEGIES: [&str; 4] = ["bb", "cf", "dd", "ts"];

/// Problem sizes: full, or reduced for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `--insts` of each `long_trace` run.
    pub long_insts: usize,
    /// `--seeds` of each `fuzz` invocation.
    pub fuzz_seeds: u64,
}

pub const FULL: Sizes = Sizes { long_insts: 1_000_000, fuzz_seeds: 800 };
pub const SMOKE: Sizes = Sizes { long_insts: 100_000, fuzz_seeds: 50 };

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run sweeps`: all eight experiment grids.
    Grids,
    /// `run all` at a long instruction budget: 18 serial single runs.
    LongTrace,
    /// `run fuzz`: thousands of tiny checked runs.
    Fuzz,
    /// `run sweeps` served entirely from a filled cell cache.
    Rerun,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Grids, Workload::LongTrace, Workload::Fuzz, Workload::Rerun];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Grids => "grids",
            Workload::LongTrace => "long_trace",
            Workload::Fuzz => "fuzz",
            Workload::Rerun => "rerun",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the main invocation (`all` runs serially).
    pub fn jobs(self) -> usize {
        match self {
            Workload::LongTrace => 1,
            _ => JOBS,
        }
    }

    /// Worker threads of the set-up invocations: `grids` prepares with
    /// serial `all` runs, the others with their main command.
    fn setup_jobs(self) -> usize {
        match self {
            Workload::Grids => 1,
            _ => self.jobs(),
        }
    }
}

/// FNV-1a 64-bit, the digest of every checked output.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Output name → digest.
pub type Digests = BTreeMap<String, u64>;

pub fn read_digests(path: &Path) -> Result<Digests, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let (hex, name) = line
                .split_once("  ")
                .ok_or_else(|| format!("{}: malformed line `{line}`", path.display()))?;
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("{}: `{hex}`: {e}", path.display()))?;
            Ok((name.to_string(), digest))
        })
        .collect()
}

pub fn write_digests(path: &Path, digests: &Digests) -> Result<(), String> {
    let text: String = digests.iter().map(|(name, d)| format!("{d:016x}  {name}\n")).collect();
    fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Names whose digest is missing, different or unexpected.
fn mismatches(expected: &Digests, actual: &Digests) -> u64 {
    let missing_or_different = expected.iter().filter(|(k, d)| actual.get(*k) != Some(d)).count();
    let extra = actual.keys().filter(|k| !expected.contains_key(*k)).count();
    (missing_or_different + extra) as u64
}

/// The number after `"total_insts":` in a stats JSON text.
pub fn total_insts(json: &str) -> Option<u64> {
    let rest = &json[json.find("\"total_insts\":")? + "\"total_insts\":".len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

/// The benchmark's directory (holding `expected/` and the default `out/`).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where the whole benchmark runs: the built `run` binary, a scratch
/// directory (removed on drop) and the inputs every workload derives
/// from the seed.
#[derive(Debug)]
pub struct Env {
    pub run_bin: PathBuf,
    pub out: PathBuf,
    scratch: PathBuf,
    pub seed: u64,
    pub sizes: Sizes,
}

impl Env {
    /// Builds `run` in release mode and the probe's table (both untimed)
    /// and prepares `out`.
    pub fn prepare(out: &Path, seed: u64, sizes: Sizes) -> Result<Env, String> {
        let root = bench_dir().parent().expect("the benchmark lives inside the repository");
        let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) if !dir.is_empty() => cwd.join(dir),
            _ => root.join("target"),
        };
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .current_dir(root)
            .args(["build", "--release", "--offline", "--quiet", "-p", "ms-bench", "--bin", "run"])
            .arg("--target-dir")
            .arg(&target)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building `run` failed ({status})"));
        }
        probe::table();
        fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let out = fs::canonicalize(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let scratch = out.join("tmp").join(std::process::id().to_string());
        Ok(Env { run_bin: target.join("release").join("run"), out, scratch, seed, sizes })
    }

    /// Runs `run` with `args` and `--out out` in the fresh directory `dir`,
    /// on CPUs `0..jobs`, with its own run ledger there and the progress
    /// line off. Dirty pages are flushed first (untimed): right after a
    /// grid's worth of files is written, the next invocation spends up to
    /// 0.2 s of kernel time on their writeback, which is not its own cost.
    fn invoke(
        &self,
        dir: &Path,
        out: &Path,
        args: &[String],
        jobs: usize,
    ) -> Result<Measured, String> {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let synced = Command::new("sync").status().map_err(|e| format!("cannot run sync: {e}"))?;
        if !synced.success() {
            return Err(format!("sync failed ({synced})"));
        }
        let mut cmd = Command::new(&self.run_bin);
        cmd.args(args)
            .arg("--out")
            .arg(out)
            .env("MS_NO_PROGRESS", "1")
            .env("MS_RUNS_DIR", dir.join("runs"));
        run_measured(cmd, dir, &(0..jobs).collect::<Vec<_>>())
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.scratch);
    }
}

/// One sample of one workload: its set-up, then its main invocation.
/// Timings are scaled to the probe's reference speed (see [`probe`]) by
/// the speed it read during the main invocation.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    pub cells_per_s: f64,
    /// Simulated instructions reported by the outputs per wall second,
    /// in millions; 0 where nothing was simulated (`fuzz` reports no counts).
    pub sim_minst_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The probe's reading (ns per step) while the main invocation ran.
    pub host_ns_per_step: f64,
}

/// What the traced replay needs from a workload's last sample.
#[derive(Debug, Clone, Default)]
pub struct Kept {
    /// The last invocation's `--out`.
    pub out: PathBuf,
    pub stdout: String,
    /// The cell cache the last set-up filled (`rerun` only).
    pub cache: PathBuf,
}

/// Summed timings of a batch of invocations.
#[derive(Debug, Default)]
struct Batch {
    n: u32,
    wall_s: f64,
    cpu_s: f64,
    peak_kib: u64,
    ops: u64,
    failed: u64,
    insts: u64,
    /// The host probe's readings over the batch.
    probe: Readings,
}

impl Batch {
    fn add(&mut self, m: &Measured, ops: u64, failed: u64, insts: u64) {
        self.wall_s += m.wall_s;
        self.cpu_s += m.cpu_s;
        self.peak_kib = self.peak_kib.max(m.peak_kib);
        self.ops += ops;
        self.failed += failed;
        self.insts += insts;
        self.probe.add(m.probe);
    }
}

/// Samples one workload and checks every output it produces.
pub struct Runner<'e> {
    env: &'e Env,
    pub w: Workload,
    /// Expected output digests: committed, or else the first sample's.
    reference: Option<Digests>,
    dir: PathBuf,
    samples: usize,
    pub kept: Kept,
}

impl<'e> Runner<'e> {
    /// A runner checking against the committed digests where they apply:
    /// the grids always (they pin their own seeds), `long_trace` at the
    /// default seed and full size.
    pub fn new(env: &'e Env, w: Workload) -> Result<Runner<'e>, String> {
        let expected = bench_dir().join("expected");
        let reference = match w {
            Workload::Grids | Workload::Rerun => Some(read_digests(&expected.join("grids.txt"))?),
            Workload::LongTrace if env.seed == ms_bench::DEFAULT_SEED && env.sizes == FULL => {
                Some(read_digests(&expected.join("long_trace.txt"))?)
            }
            _ => None,
        };
        Ok(Runner::with_reference(env, w, reference))
    }

    /// A runner whose first sample defines the reference (for `bless`).
    pub fn with_reference(env: &'e Env, w: Workload, reference: Option<Digests>) -> Runner<'e> {
        let dir = env.scratch.join(w.name());
        Runner { env, w, reference, dir, samples: 0, kept: Kept::default() }
    }

    pub fn reference(&self) -> Option<&Digests> {
        self.reference.as_ref()
    }

    /// The `run` arguments of one set-up (each workload's prepare-only
    /// work: the same command at `--insts 1`, or the cold cache fill) or
    /// of one main invocation.
    fn invocations(&self, setup: bool, cache: &Path) -> Vec<Vec<String>> {
        let owned = |v: &[&str]| v.iter().map(|a| a.to_string()).collect::<Vec<String>>();
        let (jobs, seed) = (JOBS.to_string(), self.env.seed.to_string());
        let insts = if setup { "1".to_string() } else { self.env.sizes.long_insts.to_string() };
        let seeds = self.env.sizes.fuzz_seeds.to_string();
        let cache = cache.display().to_string();
        let args = match (self.w, setup) {
            (Workload::Grids, true) => {
                return SETUP_STRATEGIES
                    .iter()
                    .map(|s| owned(&["all", "--strategy", s, "--insts", "1", "--json"]))
                    .collect()
            }
            (Workload::Grids, false) => vec!["sweeps", "--jobs", &jobs],
            (Workload::LongTrace, _) => {
                vec![
                    "all",
                    "--strategy",
                    "dd",
                    "--pus",
                    "8",
                    "--insts",
                    &insts,
                    "--seed",
                    &seed,
                    "--json",
                ]
            }
            (Workload::Fuzz, _) => {
                let mut v = vec!["fuzz", "--seeds", &seeds, "--jobs", &jobs, "--seed", &seed];
                if setup {
                    v.extend(["--insts", "1"]);
                }
                v
            }
            (Workload::Rerun, _) => vec!["sweeps", "--jobs", &jobs, "--cache-dir", &cache],
        };
        vec![owned(&args)]
    }

    /// Operations one invocation attempts: a grid cell (or served cell),
    /// a single run, or a (seed, policy) fuzz check.
    fn ops(&self, setup: bool) -> u64 {
        let suite = ms_workloads::suite().len() as u64;
        match (self.w, setup) {
            (Workload::Grids, true) | (Workload::LongTrace, _) => suite,
            (Workload::Fuzz, _) => {
                self.env.sizes.fuzz_seeds * ms_conform::strategies().len() as u64
            }
            (Workload::Grids | Workload::Rerun, _) => match &self.reference {
                Some(r) => r.keys().filter(|k| k.ends_with(".json")).count() as u64,
                None => 0,
            },
        }
    }

    /// Checks one invocation's outputs; returns (operations, failed
    /// operations, simulated instructions reported).
    fn check(&mut self, setup: bool, m: &Measured, out: &Path) -> Result<(u64, u64, u64), String> {
        let fail_lines = m.stdout.lines().filter(|l| l.starts_with("FAIL seed")).count() as u64;
        let compared = !setup || self.w == Workload::Rerun;
        let (digests, insts) = match self.w {
            _ if !m.ok => (Digests::new(), 0),
            Workload::Grids if compared => artifact_digests(out)?,
            // Served cells report instructions nobody simulated.
            Workload::Rerun => (artifact_digests(out)?.0, 0),
            Workload::LongTrace if compared => {
                let mut digests = Digests::new();
                let mut insts = 0;
                for line in m.stdout.lines() {
                    let bench =
                        line.strip_prefix("{\"bench\":\"").and_then(|r| r.split('"').next());
                    digests.insert(bench.unwrap_or(line).to_string(), fnv1a64(line.as_bytes()));
                    insts += total_insts(line).unwrap_or(0);
                }
                (digests, insts)
            }
            Workload::Fuzz if compared => {
                let summary: String =
                    m.stdout.lines().filter(|l| !l.starts_with("[run record")).collect();
                (Digests::from([("summary".to_string(), fnv1a64(summary.as_bytes()))]), 0)
            }
            _ => (Digests::new(), 0),
        };
        if compared && m.ok && self.reference.is_none() {
            self.reference = Some(digests.clone());
        }
        let ops = self.ops(setup);
        let failed = if !m.ok {
            ops
        } else if compared {
            mismatches(self.reference.as_ref().expect("set above"), &digests) + fail_lines
        } else if self.w == Workload::Fuzz {
            fail_lines
        } else {
            let runs = m.stdout.lines().filter(|l| l.starts_with("{\"bench\":\"")).count() as u64;
            ops.saturating_sub(runs)
        };
        Ok((ops, failed.min(ops), insts))
    }

    /// Runs one set-up or one main invocation, again and again until the
    /// batch has taken [`MIN_BATCH_S`], each in a fresh directory under
    /// `dir`.
    fn batch(&mut self, dir: &Path, setup: bool) -> Result<Batch, String> {
        let mut b = Batch::default();
        while b.wall_s < MIN_BATCH_S {
            let inv = dir.join(b.n.to_string());
            b.n += 1;
            let cache = if setup { inv.join("cache") } else { self.kept.cache.clone() };
            for (i, args) in self.invocations(setup, &cache).iter().enumerate() {
                let d = inv.join(i.to_string());
                // `rerun` re-runs its set-up's sweep into the same `--out`,
                // as re-running a sweep does, rewriting 408 files rather
                // than creating them. Where ext4 runs without a journal it
                // passes over recently freed inodes when allocating one, so
                // creating files costs several times more for about a
                // minute after a deletion, such as the previous run's.
                let out = if self.w == Workload::Rerun && !setup {
                    empty_files(&self.kept.out)?;
                    self.kept.out.clone()
                } else {
                    d.join("out")
                };
                let jobs = if setup { self.w.setup_jobs() } else { self.w.jobs() };
                let m = self.env.invoke(&d, &out, args, jobs)?;
                let (ops, failed, insts) = self.check(setup, &m, &out)?;
                b.add(&m, ops, failed, insts);
                self.kept.out = out;
                if setup {
                    self.kept.cache = cache.clone();
                } else {
                    self.kept.stdout = m.stdout;
                }
            }
        }
        Ok(b)
    }

    /// One closed-loop sample: set-up, then the main invocation(s), every
    /// timing scaled by the speed the probe read during the main
    /// invocations (a set-up's own readings are too few and too close
    /// together to be steady). Nothing is deleted until the run ends, as
    /// a deletion can slow the creation of files after it (see
    /// [`Runner::batch`]).
    pub fn sample(&mut self) -> Result<Sample, String> {
        let dir = self.dir.join(self.samples.to_string());
        self.samples += 1;
        let setup = self.batch(&dir.join("setup"), true)?;
        let main = self.batch(&dir.join("main"), false)?;
        let (n, scale) = (main.n as f64, main.probe.factor()?);
        let wall_s = main.wall_s * scale;
        Ok(Sample {
            wall_s: wall_s / n,
            cpu_s: main.cpu_s * scale / n,
            peak_rss_mb: main.peak_kib as f64 / 1024.0,
            setup_s: setup.wall_s * scale / setup.n as f64,
            cells_per_s: main.ops as f64 / wall_s,
            sim_minst_per_s: main.insts as f64 / wall_s / 1e6,
            attempted: setup.ops + main.ops,
            failed: setup.failed + main.failed,
            host_ns_per_step: main.probe.ns_per_step()?,
        })
    }
}

/// Digests of every file under a grid `--out` (`<sweep>/<file>`), and
/// the simulated instructions its cell artifacts report.
fn artifact_digests(out: &Path) -> Result<(Digests, u64), String> {
    let mut digests = Digests::new();
    let mut insts = 0;
    for sweep in sorted_dir(out)? {
        for file in sorted_dir(&sweep)? {
            let bytes = fs::read(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let name = file.strip_prefix(out).expect("listed under out").display().to_string();
            if name.ends_with(".json") {
                insts += total_insts(&String::from_utf8_lossy(&bytes)).unwrap_or(0);
            }
            digests.insert(name, fnv1a64(&bytes));
        }
    }
    Ok((digests, insts))
}

/// Empties every file under a grid `--out` (`<sweep>/<file>`) but keeps
/// it: an artifact the next invocation fails to rewrite then differs.
fn empty_files(out: &Path) -> Result<(), String> {
    for sweep in sorted_dir(out)? {
        for file in sorted_dir(&sweep)? {
            fs::File::create(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        }
    }
    Ok(())
}

/// The entries of `dir`, sorted by path.
pub fn sorted_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths = entries
        .map(|e| e.map(|e| e.path()).map_err(|e| format!("{}: {e}", dir.display())))
        .collect::<Result<Vec<_>, _>>()?;
    paths.sort();
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digests_round_trip_and_count_mismatches() {
        let dir = std::env::temp_dir().join(format!("ms-benchmark-digests-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let a = Digests::from([("x/a.json".to_string(), 1), ("x/b.json".to_string(), u64::MAX)]);
        write_digests(&dir.join("d.txt"), &a).unwrap();
        assert_eq!(read_digests(&dir.join("d.txt")).unwrap(), a);
        let b = Digests::from([("x/a.json".to_string(), 2), ("y.json".to_string(), 3)]);
        // a.json differs, b.json is missing, y.json is unexpected.
        assert_eq!(mismatches(&a, &b), 3);
        assert_eq!(mismatches(&a, &a), 0);
        fs::write(dir.join("bad.txt"), "zz  name\n").unwrap();
        assert!(read_digests(&dir.join("bad.txt")).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn total_insts_reads_the_stats_field() {
        assert_eq!(
            total_insts("{\"total_cycles\":9,\"total_insts\":1000002,\"ipc\":1.6}"),
            Some(1000002)
        );
        assert_eq!(total_insts("{\"total_cycles\":9}"), None);
    }
}
