//! The content-addressed cell cache: memoized sweep-cell results keyed
//! by what actually determines them.
//!
//! A sweep cell is a pure function of (pre-selection program, selection
//! parameters, machine configuration, trace budget and seed) evaluated
//! by a specific version of the timing model. The cache keys on exactly
//! that closure — [`cell_key`] hashes the program's canonical IR text,
//! the `Debug` rendering of the cell's [`ms_sim::SimConfig`] (every field, so a
//! new config knob can never alias two distinct machines), the
//! remaining [`CellJob`] parameters, `ms_sim::ENGINE_VERSION` and the
//! artifact schema version — so a repeated or overlapping grid serves
//! finished cells without re-simulating, and *any* change to program,
//! configuration or model moves to a fresh key instead of serving stale
//! results.
//!
//! Entries store the **raw** [`CellOutput`] fields (every `SimStats`
//! and `PartitionStats` counter), not rendered artifact bytes: the
//! artifact JSON embeds the sweep and cell names, which are *not* part
//! of the cell's identity. Re-rendering a decoded output through
//! [`crate::sweeps::cell_json`] reproduces the uncached artifact
//! byte-for-byte (floats use shortest-round-trip formatting both ways),
//! which `tests/context_equivalence.rs` pins.
//!
//! Lookups count into per-cache atomics ([`CellCache::hits`] /
//! [`CellCache::misses`]), the scheduler's `ProgressSink` (run ledger +
//! progress line) and the `ms-prof` counters `sweep.cache.hit` /
//! `sweep.cache.miss` (visible under `run -- perf`). A corrupt,
//! truncated or schema-incompatible entry is treated as a miss and
//! recomputed, never trusted.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ms_prof::jsonv;
use ms_sim::{CycleBreakdown, SimStats, TaskSizeHist};
use ms_tasksel::PartitionStats;

use crate::json::JsonObj;
use crate::sweeps::{CellJob, CellOutput, SCHEMA_VERSION};

/// Version of the on-disk cache entry format. Bumping it orphans every
/// existing entry (they decode as misses), which is always safe.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// FNV-1a 64-bit over `bytes` from an explicit offset basis (two bases
/// give the 128 key bits).
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The standard FNV-1a 64 offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of a program's canonical IR text (see
/// [`CellJob::program_text`]) — the "program" component of a cell key.
pub fn program_hash(text: &str) -> u64 {
    fnv1a(text.as_bytes(), FNV_BASIS)
}

/// The content-addressed key of one cell: 32 hex characters derived
/// from everything the cell's output depends on. `engine_version` is a
/// parameter (rather than read from `ms_sim` directly) so tests can pin
/// that a model-version bump moves every key.
pub fn cell_key(job: &CellJob, program_hash: u64, engine_version: u32) -> String {
    use std::fmt::Write as _;
    let mut m = String::with_capacity(256);
    let _ = write!(m, "engine={engine_version};schema={SCHEMA_VERSION};");
    let _ = write!(m, "program={program_hash:016x};bench={};", job.bench);
    let _ = write!(m, "if_convert_arms={:?};", job.if_convert_arms);
    let _ = write!(m, "config={:?};", job.sim_config());
    let _ = write!(m, "strategy={};targets={};", job.heuristic.label(), job.targets);
    let _ = write!(m, "ts_thresh={:?};insts={};seed={};", job.ts_thresh, job.insts, job.seed);
    let lo = fnv1a(m.as_bytes(), FNV_BASIS);
    // Second basis: the standard one perturbed, for independent bits.
    let hi = fnv1a(m.as_bytes(), FNV_BASIS ^ 0x9e37_79b9_7f4a_7c15);
    format!("{hi:016x}{lo:016x}")
}

/// A directory of memoized cell results, opened by sweeps run with
/// `--cache-dir` and shared by every run that names it. Safe to
/// share across threads and processes: lookups and stores touch
/// independent files named by content key, concurrent writers of the
/// same key write identical bytes, and each writer stages them in a
/// temp file of its own.
#[derive(Debug)]
pub struct CellCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Program-text hashes memoized per distinct pre-selection program,
    /// so a grid of N cells over one program builds it once, not N
    /// times, just for keying.
    program_hashes: Mutex<HashMap<(&'static str, Option<usize>), u64>>,
}

impl CellCache {
    /// Opens (creating if needed) the cache rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> io::Result<CellCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CellCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            program_hashes: Mutex::new(HashMap::new()),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cell's content key under the *current* engine version,
    /// memoizing the program hash per distinct pre-selection program.
    pub fn key_for(&self, job: &CellJob) -> String {
        let ph = {
            let mut memo = self.program_hashes.lock().unwrap();
            *memo
                .entry((job.bench, job.if_convert_arms))
                .or_insert_with(|| program_hash(&job.program_text()))
        };
        cell_key(job, ph, ms_sim::ENGINE_VERSION)
    }

    /// Looks `key` up, counting a hit or miss. Undecodable entries are
    /// misses.
    pub fn lookup(&self, key: &str) -> Option<CellOutput> {
        let out =
            fs::read_to_string(self.entry_path(key)).ok().and_then(|text| decode_entry(&text, key));
        match &out {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                ms_prof::counter_add("sweep.cache.hit", 1);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                ms_prof::counter_add("sweep.cache.miss", 1);
            }
        }
        out
    }

    /// Stores `out` under `key`. Concurrent stores of the same key are
    /// benign (identical bytes): each writes a temp file named by its
    /// process id and a process-wide counter, then renames it into
    /// place in the same directory, so readers never see a torn entry
    /// and no writer renames a file another writer is still using.
    pub fn store(&self, key: &str, out: &CellOutput) -> io::Result<()> {
        static STORES: AtomicU64 = AtomicU64::new(0);
        let n = STORES.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".{key}.{}.{n}.tmp", std::process::id()));
        fs::write(&tmp, encode_entry(key, out) + "\n")?;
        fs::rename(&tmp, self.entry_path(key))
    }

    /// Hits counted over this cache handle's lifetime.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses counted over this cache handle's lifetime.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }
}

/// Serialises a cell output as one cache entry line (raw fields only;
/// see the module docs for why artifacts are not cached verbatim).
fn encode_entry(key: &str, out: &CellOutput) -> String {
    let s = &out.sim;
    let b = &s.breakdown;
    let mut sim = JsonObj::new();
    sim.num_u64("num_pus", s.num_pus as u64)
        .num_u64("total_cycles", s.total_cycles)
        .num_u64("total_insts", s.total_insts)
        .num_u64("num_dyn_tasks", s.num_dyn_tasks as u64)
        .num_u64("task_preds", s.task_preds)
        .num_u64("task_pred_hits", s.task_pred_hits)
        .num_u64("br_preds", s.br_preds)
        .num_u64("br_pred_hits", s.br_pred_hits)
        .num_u64("ct_insts", s.ct_insts)
        .num_u64("violations", s.violations)
        .num_u64("squashed_insts", s.squashed_insts)
        .num_u64("ctrl_squashes", s.ctrl_squashes)
        .num_u64("fwd_stall_cycles", s.fwd_stall_cycles)
        .num_u64("pu_idle_cycles", s.pu_idle_cycles)
        .raw("task_size_hist", &s.task_size_hist.to_json())
        .num_u64("arb_overflows", s.arb_overflows);
    let mut bd = JsonObj::new();
    bd.num_u64("start_overhead", b.start_overhead)
        .num_u64("useful", b.useful)
        .num_u64("intra_dep", b.intra_dep)
        .num_u64("inter_comm", b.inter_comm)
        .num_u64("memory", b.memory)
        .num_u64("frontend", b.frontend)
        .num_u64("resource", b.resource)
        .num_u64("load_imbalance", b.load_imbalance)
        .num_u64("end_overhead", b.end_overhead)
        .num_u64("ctrl_misspec", b.ctrl_misspec)
        .num_u64("mem_misspec", b.mem_misspec);
    sim.raw("breakdown", &bd.finish())
        .num_f64("window_span_measured", s.window_span_measured)
        .num_u64("reg_forwards", s.reg_forwards)
        .num_u64("l1d_hits", s.l1d.0)
        .num_u64("l1d_misses", s.l1d.1)
        .num_u64("l1i_hits", s.l1i.0)
        .num_u64("l1i_misses", s.l1i.1);

    let p = &out.partition;
    let mut part = JsonObj::new();
    part.num_u64("num_tasks", p.num_tasks as u64)
        .num_f64("avg_static_size", p.avg_static_size)
        .num_f64("expected_dynamic_size", p.expected_dynamic_size)
        .raw("targets_hist", &usize_array(&p.targets_hist))
        .num_u64("over_limit", p.over_limit as u64)
        .num_u64("deps_exposed", p.deps_exposed as u64)
        .num_u64("deps_included", p.deps_included as u64)
        .raw("size_hist", &usize_array(&p.size_hist));

    let mut o = JsonObj::new();
    o.num_u64("cache_schema_version", CACHE_SCHEMA_VERSION as u64)
        .str("key", key)
        .raw("sim", &sim.finish())
        .raw("partition", &part.finish());
    o.finish()
}

/// Decodes a cache entry, validating schema version and key (a file
/// renamed or copied to the wrong name must not serve). Any defect →
/// `None` (miss).
fn decode_entry(text: &str, key: &str) -> Option<CellOutput> {
    let v = jsonv::parse(text.trim_end()).ok()?;
    if v.get("cache_schema_version")?.as_u64()? != CACHE_SCHEMA_VERSION as u64 {
        return None;
    }
    if v.get("key")?.as_str()? != key {
        return None;
    }
    let sim = v.get("sim")?;
    let u = |k: &str| sim.get(k)?.as_u64();
    let bdv = sim.get("breakdown")?;
    let bu = |k: &str| bdv.get(k)?.as_u64();
    let hist = sim.get("task_size_hist")?.as_arr()?;
    let mut task_size_hist = TaskSizeHist::default();
    if hist.len() != task_size_hist.buckets.len() {
        return None;
    }
    for (slot, v) in task_size_hist.buckets.iter_mut().zip(hist) {
        *slot = v.as_u64()?;
    }
    let stats = SimStats {
        num_pus: u("num_pus")? as usize,
        total_cycles: u("total_cycles")?,
        total_insts: u("total_insts")?,
        num_dyn_tasks: u("num_dyn_tasks")? as usize,
        task_preds: u("task_preds")?,
        task_pred_hits: u("task_pred_hits")?,
        br_preds: u("br_preds")?,
        br_pred_hits: u("br_pred_hits")?,
        ct_insts: u("ct_insts")?,
        violations: u("violations")?,
        squashed_insts: u("squashed_insts")?,
        ctrl_squashes: u("ctrl_squashes")?,
        fwd_stall_cycles: u("fwd_stall_cycles")?,
        pu_idle_cycles: u("pu_idle_cycles")?,
        task_size_hist,
        arb_overflows: u("arb_overflows")?,
        breakdown: CycleBreakdown {
            start_overhead: bu("start_overhead")?,
            useful: bu("useful")?,
            intra_dep: bu("intra_dep")?,
            inter_comm: bu("inter_comm")?,
            memory: bu("memory")?,
            frontend: bu("frontend")?,
            resource: bu("resource")?,
            load_imbalance: bu("load_imbalance")?,
            end_overhead: bu("end_overhead")?,
            ctrl_misspec: bu("ctrl_misspec")?,
            mem_misspec: bu("mem_misspec")?,
        },
        window_span_measured: sim.get("window_span_measured")?.as_f64()?,
        reg_forwards: u("reg_forwards")?,
        l1d: (u("l1d_hits")?, u("l1d_misses")?),
        l1i: (u("l1i_hits")?, u("l1i_misses")?),
    };
    let part = v.get("partition")?;
    let pu = |k: &str| part.get(k)?.as_u64();
    let arr = |k: &str| -> Option<Vec<usize>> {
        part.get(k)?.as_arr()?.iter().map(|v| Some(v.as_u64()? as usize)).collect()
    };
    let partition = PartitionStats {
        num_tasks: pu("num_tasks")? as usize,
        avg_static_size: part.get("avg_static_size")?.as_f64()?,
        expected_dynamic_size: part.get("expected_dynamic_size")?.as_f64()?,
        targets_hist: arr("targets_hist")?,
        over_limit: pu("over_limit")? as usize,
        deps_exposed: pu("deps_exposed")? as usize,
        deps_included: pu("deps_included")? as usize,
        size_hist: arr("size_hist")?,
    };
    Some(CellOutput { sim: stats, partition })
}

fn usize_array(items: &[usize]) -> String {
    let cells: Vec<String> = items.iter().map(|v| v.to_string()).collect();
    format!("[{}]", cells.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_tasksel::Strategy;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ms-cellcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_are_stable_across_runs() {
        let job = CellJob::new("compress", Strategy::ControlFlow);
        let ph = program_hash(&job.program_text());
        assert_eq!(cell_key(&job, ph, 1), cell_key(&job.clone(), ph, 1));
        assert_eq!(cell_key(&job, ph, 1).len(), 32);
        assert!(cell_key(&job, ph, 1).chars().all(|c| c.is_ascii_hexdigit()));
        // The memoizing path agrees with the direct computation.
        let cache = CellCache::at(tmpdir("stable")).unwrap();
        assert_eq!(cache.key_for(&job), cell_key(&job, ph, ms_sim::ENGINE_VERSION));
        assert_eq!(cache.key_for(&job), cache.key_for(&job.clone()));
    }

    #[test]
    fn keys_diverge_when_program_config_or_engine_changes() {
        let base = CellJob::new("compress", Strategy::ControlFlow);
        let ph = program_hash(&base.program_text());
        let key = cell_key(&base, ph, 1);

        // Program changes: a different workload, or the same workload
        // through the if-conversion pass, hashes to different text.
        let other = CellJob::new("go", Strategy::ControlFlow);
        let other_ph = program_hash(&other.program_text());
        assert_ne!(ph, other_ph);
        assert_ne!(key, cell_key(&other, other_ph, 1));
        let ifc = CellJob { if_convert_arms: Some(4), ..base.clone() };
        assert_ne!(ph, program_hash(&ifc.program_text()));

        // SimConfig changes — every machine knob moves the key.
        for variant in [
            CellJob { pus: 8, ..base.clone() },
            CellJob { in_order: true, ..base.clone() },
            CellJob { dead_reg: false, ..base.clone() },
            CellJob { ring_bandwidth: Some(1), ..base.clone() },
            CellJob { arb_entries_per_pu: Some(8), ..base.clone() },
            CellJob { sync_table_entries: Some(0), ..base.clone() },
        ] {
            assert_ne!(key, cell_key(&variant, ph, 1), "{variant:?}");
        }
        // Selection and trace parameters move it too.
        for variant in [
            CellJob { targets: 8, ..base.clone() },
            CellJob { ts_thresh: Some(30.0), ..base.clone() },
            CellJob { insts: 1_000, ..base.clone() },
            CellJob { seed: 7, ..base.clone() },
            CellJob::new("compress", Strategy::DataDependence),
        ] {
            assert_ne!(key, cell_key(&variant, ph, 1), "{variant:?}");
        }

        // An engine-version bump orphans every key.
        assert_ne!(key, cell_key(&base, ph, 2));
    }

    #[test]
    fn entries_round_trip_exactly() {
        let job = CellJob { insts: 2_000, ..CellJob::new("compress", Strategy::ControlFlow) };
        let out = job.run();
        let cache = CellCache::at(tmpdir("roundtrip")).unwrap();
        let key = cache.key_for(&job);

        assert!(cache.lookup(&key).is_none(), "cold cache misses");
        cache.store(&key, &out).unwrap();
        let back = cache.lookup(&key).expect("stored entry decodes");
        // Field-exact equality: with `cell_json` being a pure function
        // of (names, job, output), this is what makes served artifacts
        // byte-identical to uncached ones.
        assert_eq!(back, out);
        assert_eq!(
            crate::sweeps::cell_json("s", "c", &job, &back),
            crate::sweeps::cell_json("s", "c", &job, &out),
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn concurrent_stores_of_one_key_never_error() {
        let job = CellJob { insts: 2_000, ..CellJob::new("compress", Strategy::BasicBlock) };
        let out = job.run();
        let dir = tmpdir("race");
        // Two handles on one directory, as two processes sharing a
        // `--cache-dir` would hold.
        let caches = [CellCache::at(&dir).unwrap(), CellCache::at(&dir).unwrap()];
        let key = caches[0].key_for(&job);
        // Every round releases all writers at once, so their stores of
        // the one key overlap. A failed store is counted, not unwrapped,
        // so no writer leaves the others waiting at the barrier.
        let round = std::sync::Barrier::new(4);
        let failed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (cache, key, out, round, failed) =
                    (&caches[t % 2], &key, &out, &round, &failed);
                s.spawn(move || {
                    for _ in 0..200 {
                        round.wait();
                        if cache.store(key, out).is_err() {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(failed.into_inner(), 0, "a concurrent store never errors");
        assert_eq!(caches[1].lookup(&key), Some(out), "the entry decodes");
        let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names.len(), 1, "no temp file is left behind: {names:?}");
    }

    #[test]
    fn corrupt_or_mismatched_entries_are_misses() {
        let job = CellJob { insts: 2_000, ..CellJob::new("li", Strategy::BasicBlock) };
        let out = job.run();
        let cache = CellCache::at(tmpdir("corrupt")).unwrap();
        let key = cache.key_for(&job);

        // Truncated JSON.
        fs::write(cache.dir().join(format!("{key}.json")), "{\"cache_schema").unwrap();
        assert!(cache.lookup(&key).is_none());
        // Wrong embedded key (file copied to the wrong name).
        fs::write(
            cache.dir().join(format!("{key}.json")),
            encode_entry("0000000000000000ffffffffffffffff", &out),
        )
        .unwrap();
        assert!(cache.lookup(&key).is_none());
        // Wrong cache schema version.
        let stale = encode_entry(&key, &out)
            .replace("\"cache_schema_version\":1", "\"cache_schema_version\":99");
        fs::write(cache.dir().join(format!("{key}.json")), stale).unwrap();
        assert!(cache.lookup(&key).is_none());
    }
}
