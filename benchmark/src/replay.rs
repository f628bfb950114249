//! The traced replay: re-executes a workload's operations by calling the
//! layers' public functions directly, one span around every call, and
//! checks each replayed output against what the untraced `run` wrote.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use ms_analysis::ProgramContext;
use ms_bench::cache::CellCache;
use ms_bench::sweeps::{cell_json, CellJob};
use ms_bench::Heuristic;
use ms_conform::{check_trace, FuzzParams};
use ms_ir::gen::{GenParams, ProgSpec};
use ms_ir::SplitMix64;
use ms_prof::jsonv::{self, Value};
use ms_sim::{SimConfig, SimStats, Simulator};
use ms_tasksel::{
    if_convert, PartitionStats, SelectorBuilder, Strategy, TaskSelector, TaskSizeParams,
};
use ms_trace::{split_tasks, TraceGenerator};

use crate::probe::REF_NS_PER_STEP;
use crate::spans::Tracer;
use crate::stats::nearest_rank;
use crate::workload::{sorted_dir, Kept, Sample, Sizes, Workload};

/// Model counts summed over the replayed outputs. They do not depend on
/// the machine, so a change that only affects speed leaves them equal.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    insts: u64,
    cycles: u64,
    dyn_tasks: u64,
    squashes: u64,
    squashed_insts: u64,
    reg_forwards: u64,
    fwd_stall_cycles: u64,
    l1d_hits: u64,
    l1d_misses: u64,
    tasks: u64,
}

impl Model {
    fn add(&mut self, s: &SimStats, tasks: usize) {
        self.insts += s.total_insts;
        self.cycles += s.total_cycles;
        self.dyn_tasks += s.num_dyn_tasks as u64;
        self.squashes += s.ctrl_squashes + s.violations;
        self.squashed_insts += s.squashed_insts;
        self.reg_forwards += s.reg_forwards;
        self.fwd_stall_cycles += s.fwd_stall_cycles;
        self.l1d_hits += s.l1d.0;
        self.l1d_misses += s.l1d.1;
        self.tasks += tasks as u64;
    }
}

/// What one replay round did, besides its spans.
#[derive(Debug, Default)]
pub struct Counts {
    pub ops: u64,
    /// Operations whose replayed output differs from the untraced one.
    pub mismatches: u64,
    model: Model,
    /// Instructions and cycles simulated inside `sim.run` spans.
    sim_insts: u64,
    sim_cycles: u64,
    gen_insts: u64,
    ctx_hits: u64,
    ctx_misses: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Counts {
    fn op(&mut self, ok: bool) {
        self.ops += 1;
        self.mismatches += u64::from(!ok);
    }

    fn context(&mut self, ctx: &ProgramContext) {
        let s = ctx.cache_stats();
        self.ctx_hits += s.hits;
        self.ctx_misses += s.misses;
    }
}

/// One replay of one workload.
#[derive(Debug)]
pub struct Round {
    pub tracer: Tracer,
    pub wall_ns: u64,
    pub counts: Counts,
}

/// One grid cell as the untraced run wrote it.
#[derive(Debug, Clone)]
struct Cell {
    sweep: String,
    id: String,
    job: CellJob,
    /// The whole artifact file.
    bytes: String,
    partition: String,
    sim: String,
}

/// Rebuilds a cell from its artifact: names from the header, the
/// [`CellJob`] (and so its `SimConfig`) from `params`, and the raw
/// `partition` and `sim` objects for the byte-for-byte cross-check.
fn parse_cell(bytes: String) -> Result<Cell, String> {
    let v = jsonv::parse(bytes.trim_end())?;
    let field = |k: &str| v.get(k).and_then(Value::as_str).ok_or(format!("artifact has no `{k}`"));
    let p = v.get("params").ok_or("artifact has no `params`")?;
    let num = |k: &str| p.get(k).and_then(Value::as_u64);
    let need = |k: &str| num(k).ok_or(format!("params have no `{k}`"));
    let flag = |k: &str| match p.get(k) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("params have no `{k}`")),
    };
    let bench = field("bench")?;
    let strategy = field("strategy")?;
    let job = CellJob {
        bench: ms_workloads::by_name(bench).ok_or(format!("unknown benchmark `{bench}`"))?.name,
        heuristic: Heuristic::extended()
            .into_iter()
            .find(|h| h.label() == strategy)
            .ok_or(format!("unknown strategy `{strategy}`"))?,
        targets: need("targets")? as usize,
        ts_thresh: p.get("ts_thresh").and_then(Value::as_f64),
        if_convert_arms: num("if_convert_arms").map(|a| a as usize),
        pus: need("pus")? as usize,
        in_order: flag("in_order")?,
        dead_reg: flag("dead_reg")?,
        ring_bandwidth: num("ring_bandwidth").map(|x| x as u32),
        arb_entries_per_pu: num("arb_entries_per_pu").map(|x| x as u32),
        sync_table_entries: num("sync_table_entries").map(|x| x as u32),
        insts: need("insts")? as usize,
        seed: need("seed")?,
    };
    let text = bytes.trim_end();
    let part_at = text.find(",\"partition\":").ok_or("artifact has no partition")?;
    let sim_at = text.find(",\"sim\":").ok_or("artifact has no sim")?;
    let partition = text[part_at + ",\"partition\":".len()..sim_at].to_string();
    let sim = text[sim_at + ",\"sim\":".len()..text.len() - 1].to_string();
    let (sweep, id) = (field("sweep")?.to_string(), field("cell")?.to_string());
    Ok(Cell { sweep, id, job, bytes, partition, sim })
}

/// Every cell artifact under a grid `--out`, in path order.
fn read_cells(out: &Path) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for sweep in sorted_dir(out)? {
        for file in sorted_dir(&sweep)? {
            if file.extension().is_some_and(|e| e == "json") {
                let bytes =
                    fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
                cells.push(parse_cell(bytes).map_err(|e| format!("{}: {e}", file.display()))?);
            }
        }
    }
    Ok(cells)
}

/// The selector a cell's parameters name, built as `CellJob::run_in`
/// builds it.
fn selector(job: &CellJob) -> TaskSelector {
    match job.ts_thresh {
        Some(t) => SelectorBuilder::new(Strategy::DataDependence)
            .max_targets(job.targets)
            .task_size(TaskSizeParams { call_thresh: t, loop_thresh: t as usize })
            .build(),
        None => job.heuristic.selector(job.targets),
    }
}

/// Builds a suite program (if-converted when asked) and its analysis
/// context, with every analysis computed up front.
fn context(t: &mut Tracer, bench: &str, arms: Option<usize>) -> ProgramContext {
    let w = ms_workloads::by_name(bench).expect("benchmark names were checked when parsed");
    let program = t.span("workloads.build", |_| w.build());
    let program = match arms {
        Some(a) => t.span("core.if_convert", |_| if_convert(&program, a)),
        None => program,
    };
    t.span("analysis.context", |_| {
        let ctx = ProgramContext::new(program);
        ctx.warm(true);
        ctx
    })
}

/// Select → partition statistics → trace → split → simulate one cell.
fn simulate(
    t: &mut Tracer,
    c: &mut Counts,
    ctx: &ProgramContext,
    job: &CellJob,
) -> (PartitionStats, SimStats) {
    let sel = t.span("core.select", |_| selector(job).select(ctx));
    let part = t.span("core.partition_stats", |_| {
        PartitionStats::compute(&sel.program, &sel.partition, sel.context().profile(), job.targets)
    });
    let trace = t.span("trace.generate", |_| {
        TraceGenerator::new(&sel.program, job.seed).generate(job.insts)
    });
    let tasks = t.span("trace.split", |_| split_tasks(&trace, &sel.program, &sel.partition));
    let stats = t.span("sim.run", |_| {
        Simulator::new(job.sim_config(), &sel.program, &sel.partition).run_tasks(&trace, &tasks)
    });
    c.gen_insts += trace.num_insts() as u64;
    t.span("trace.free", |_| drop((trace, tasks)));
    c.sim_insts += stats.total_insts;
    c.sim_cycles += stats.total_cycles;
    c.model.add(&stats, part.num_tasks);
    (part, stats)
}

/// Grid cells, with one analysis context per program per sweep, shared
/// as the sweep scheduler shares it.
fn grids(t: &mut Tracer, c: &mut Counts, cells: &[Cell]) {
    let mut ctxs: HashMap<(&str, &str, Option<usize>), ProgramContext> = HashMap::new();
    for cell in cells {
        let job = &cell.job;
        let ok = t.op(|t| {
            let key = (cell.sweep.as_str(), job.bench, job.if_convert_arms);
            let ctx = ctxs.entry(key).or_insert_with(|| context(t, job.bench, job.if_convert_arms));
            let (part, stats) = simulate(t, c, ctx, job);
            t.span("bench.artifact.render", |_| {
                part.to_json() == cell.partition && stats.to_json() == cell.sim
            })
        });
        c.op(ok);
    }
    ctxs.values().for_each(|ctx| c.context(ctx));
}

/// `run all --strategy dd --pus 8 --json` lines: each benchmark with a
/// fresh context, as `run all` builds it.
fn long_trace(t: &mut Tracer, c: &mut Counts, stdout: &str, sizes: Sizes, seed: u64) {
    for line in stdout.lines() {
        let bench = line.strip_prefix("{\"bench\":\"").and_then(|r| r.split('"').next());
        let stats_json =
            line.find(",\"stats\":").map(|at| &line[at + ",\"stats\":".len()..line.len() - 1]);
        let (Some(bench), Some(expected)) = (bench, stats_json) else {
            c.op(false);
            continue;
        };
        let Some(w) = ms_workloads::by_name(bench) else {
            c.op(false);
            continue;
        };
        let job = CellJob {
            pus: 8,
            insts: sizes.long_insts,
            seed,
            ..CellJob::new(w.name, Heuristic::DataDependence)
        };
        let ok = t.op(|t| {
            let ctx = context(t, bench, None);
            let (_, stats) = simulate(t, c, &ctx, &job);
            c.context(&ctx);
            t.span("bench.artifact.render", |_| stats.to_json() == expected)
        });
        c.op(ok);
    }
}

/// Random programs from the fuzz generator (without the CLI's private
/// seed salt) through every policy under the conformance check.
fn fuzz(t: &mut Tracer, c: &mut Counts, sizes: Sizes, base: u64) {
    let params = FuzzParams::default();
    let gen = GenParams { max_blocks: params.max_blocks, ..GenParams::default() };
    let strategies = ms_conform::strategies();
    for seed in (0..sizes.fuzz_seeds).map(|i| base.wrapping_add(i)) {
        t.op(|t| {
            let spec =
                t.span("ir.gen", |_| ProgSpec::random(&mut SplitMix64::seed_from_u64(seed), &gen));
            let program = t.span("ir.build", |_| spec.build());
            let ctx = t.span("analysis.context", |_| {
                let ctx = ProgramContext::new(program);
                ctx.warm(true);
                ctx
            });
            for (_, selector) in &strategies {
                let sel = t.span("core.select", |_| selector.select(&ctx));
                let trace = t.span("trace.generate", |_| {
                    TraceGenerator::new(&sel.program, seed).generate(params.insts)
                });
                let run = t.span("conform.check_trace", |_| {
                    check_trace(&sel.program, &sel.partition, &trace, SimConfig::four_pu())
                });
                c.gen_insts += trace.num_insts() as u64;
                t.span("trace.free", |_| drop(trace));
                c.model.add(&run.stats, sel.partition.num_tasks());
                c.op(run.errors.is_empty());
            }
            c.context(&ctx);
        });
    }
}

/// Served cells: key, cache lookup, render and write, as a cached rerun
/// does, each rendered artifact compared with the served one.
fn rerun(t: &mut Tracer, c: &mut Counts, cells: &[Cell], cache: &CellCache, write_dir: &Path) {
    for cell in cells {
        let ok = t.op(|t| {
            let key = t.span("bench.cache.key", |_| cache.key_for(&cell.job));
            let Some(out) = t.span("bench.cache.lookup", |_| cache.lookup(&key)) else {
                return false;
            };
            let json = t.span("bench.artifact.render", |_| {
                format!("{}\n", cell_json(&cell.sweep, &cell.id, &cell.job, &out))
            });
            let path = write_dir.join(&cell.sweep).join(format!("{}.json", cell.id));
            let written = t.span("bench.artifact.write", |_| fs::write(&path, &json));
            c.model.add(&out.sim, out.partition.num_tasks);
            written.is_ok() && json == cell.bytes
        });
        c.op(ok);
    }
    (c.cache_hits, c.cache_misses) = (cache.hits(), cache.misses());
}

/// Replays `w` once from what its last sample kept. Inputs are read
/// before the clock starts; `replay.total_ms` covers the operations only.
pub fn replay(
    w: Workload,
    kept: &Kept,
    sizes: Sizes,
    seed: u64,
    epoch: Instant,
) -> Result<Round, String> {
    let mut t = Tracer::new(epoch);
    let mut c = Counts::default();
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed()
    };
    let wall = match w {
        Workload::Grids => {
            let cells = read_cells(&kept.out)?;
            timed(&mut || grids(&mut t, &mut c, &cells))
        }
        Workload::LongTrace => timed(&mut || long_trace(&mut t, &mut c, &kept.stdout, sizes, seed)),
        Workload::Fuzz => timed(&mut || fuzz(&mut t, &mut c, sizes, seed)),
        Workload::Rerun => {
            let cells = read_cells(&kept.out)?;
            let cache = CellCache::at(&kept.cache).map_err(|e| format!("cell cache: {e}"))?;
            let write_dir = kept.out.with_file_name("replay");
            let _ = fs::remove_dir_all(&write_dir);
            for sweep in sorted_dir(&kept.out)? {
                let dir = write_dir.join(sweep.file_name().expect("listed entries have names"));
                fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            timed(&mut || rerun(&mut t, &mut c, &cells, &cache, &write_dir))
        }
    };
    Ok(Round { tracer: t, wall_ns: wall.as_nanos() as u64, counts: c })
}

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub value: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One exact model count: it has no better direction, only a value a
/// change that affects speed alone must leave as it is.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCount {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The model counts summed over the outputs of one round, which equal the
/// untraced run's (the replay checks each output byte for byte). `fuzz`
/// has none: the CLI reports no counts, and the replayed programs are not
/// the CLI's.
pub fn model_counts(w: Workload, round: &Round) -> Vec<ModelCount> {
    if w == Workload::Fuzz {
        return Vec::new();
    }
    let m = &round.counts.model;
    let table: [(&'static str, &'static str, f64); 10] = [
        ("sim.model.insts", "count", m.insts as f64),
        ("sim.model.cycles", "count", m.cycles as f64),
        ("sim.model.dyn_tasks", "count", m.dyn_tasks as f64),
        ("sim.model.squashes", "count", m.squashes as f64),
        (
            "sim.model.task_commit_ratio",
            "ratio",
            ratio(m.dyn_tasks as f64, (m.dyn_tasks + m.squashes) as f64),
        ),
        ("sim.model.squashed_insts", "count", m.squashed_insts as f64),
        ("sim.model.reg_forwards", "count", m.reg_forwards as f64),
        ("sim.model.fwd_stall_cycles", "count", m.fwd_stall_cycles as f64),
        (
            "sim.model.l1d_miss_ratio",
            "ratio",
            ratio(m.l1d_misses as f64, (m.l1d_hits + m.l1d_misses) as f64),
        ),
        ("core.model.tasks", "count", m.tasks as f64),
    ];
    table.into_iter().map(|(name, unit, value)| ModelCount { name, unit, value }).collect()
}

/// The per-layer metrics of one round. Layer times are span self times;
/// a layer the workload never calls reads 0. `untraced` is the sample
/// whose outputs were replayed: utilisation, simulation rate, the host
/// probe's reading and the replay's overhead are taken from it.
pub fn layer_metrics(w: Workload, round: &Round, untraced: &Sample) -> Vec<Metric> {
    let mut self_ns: HashMap<&str, u64> = HashMap::new();
    let mut durs: HashMap<&str, Vec<f64>> = HashMap::new();
    for (s, own) in round.tracer.spans.iter().zip(round.tracer.self_times()) {
        *self_ns.entry(s.name).or_default() += own;
        durs.entry(s.name).or_default().push((s.end_ns - s.start_ns) as f64 / 1e3);
    }
    durs.values_mut().for_each(|d| d.sort_by(f64::total_cmp));
    let ns = |n: &str| self_ns.get(n).copied().unwrap_or(0) as f64;
    let ms = |n: &str| ns(n) / 1e6;
    let pct_us = |n: &str, p: f64| durs.get(n).map_or(0.0, |d| nearest_rank(d, p));
    let c = &round.counts;
    let layer_ns: f64 =
        self_ns.iter().filter(|(n, _)| **n != "replay.op").map(|(_, v)| *v as f64).sum();
    let wall_ns = round.wall_ns as f64;
    // The replay's own time is not scaled by the host probe.
    let untraced_cpu_s = untraced.cpu_s * untraced.host_ns_per_step / REF_NS_PER_STEP;
    let table: [(&'static str, &'static str, &'static str, f64); 32] = [
        ("sim.run.ms", "ms", "lower", ms("sim.run")),
        ("sim.run.ns_per_inst", "ns", "lower", ratio(ns("sim.run"), c.sim_insts as f64)),
        ("sim.run.ns_per_cycle", "ns", "lower", ratio(ns("sim.run"), c.sim_cycles as f64)),
        ("sim.run.p50_us", "us", "lower", pct_us("sim.run", 50.0)),
        ("sim.run.p90_us", "us", "lower", pct_us("sim.run", 90.0)),
        ("sim.run.calls", "count", "lower", durs.get("sim.run").map_or(0, Vec::len) as f64),
        ("trace.generate.ms", "ms", "lower", ms("trace.generate")),
        (
            "trace.generate.minst_per_s",
            "Minst/s",
            "higher",
            ratio(c.gen_insts as f64 * 1e3, ns("trace.generate")),
        ),
        ("trace.split.ms", "ms", "lower", ms("trace.split")),
        ("trace.free.ms", "ms", "lower", ms("trace.free")),
        ("conform.check_trace.ms", "ms", "lower", ms("conform.check_trace")),
        ("conform.check_trace.p50_us", "us", "lower", pct_us("conform.check_trace", 50.0)),
        ("core.select.ms", "ms", "lower", ms("core.select")),
        ("core.select.p50_us", "us", "lower", pct_us("core.select", 50.0)),
        ("core.partition_stats.ms", "ms", "lower", ms("core.partition_stats")),
        ("core.if_convert.ms", "ms", "lower", ms("core.if_convert")),
        ("analysis.context.ms", "ms", "lower", ms("analysis.context")),
        ("workloads.build.ms", "ms", "lower", ms("workloads.build")),
        ("ir.gen.ms", "ms", "lower", ms("ir.gen")),
        ("ir.build.ms", "ms", "lower", ms("ir.build")),
        (
            "analysis.context.hit_ratio",
            "ratio",
            "higher",
            ratio(c.ctx_hits as f64, (c.ctx_hits + c.ctx_misses) as f64),
        ),
        ("bench.cache.key.ms", "ms", "lower", ms("bench.cache.key")),
        ("bench.cache.lookup.ms", "ms", "lower", ms("bench.cache.lookup")),
        (
            "bench.cache.hit_ratio",
            "ratio",
            "higher",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        ),
        ("bench.artifact.render.ms", "ms", "lower", ms("bench.artifact.render")),
        ("bench.artifact.write.ms", "ms", "lower", ms("bench.artifact.write")),
        (
            "bench.harness.utilization",
            "ratio",
            "higher",
            ratio(untraced.cpu_s, untraced.wall_s * w.jobs() as f64),
        ),
        ("sim_minst_per_s", "Minst/s", "higher", untraced.sim_minst_per_s),
        ("host.ns_per_step", "ns", "lower", untraced.host_ns_per_step),
        ("replay.total_ms", "ms", "lower", wall_ns / 1e6),
        ("replay.overhead_pct", "%", "lower", 100.0 * (ratio(wall_ns / 1e9, untraced_cpu_s) - 1.0)),
        ("replay.coverage_pct", "%", "higher", 100.0 * ratio(layer_ns, wall_ns)),
    ];
    table
        .into_iter()
        .map(|(name, unit, better, value)| Metric { name, unit, better, value })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FULL;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ms-benchmark-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Three cells spanning every `params` field, written as the sweep
    /// scheduler writes them.
    fn write_grid(out: &Path) -> Vec<CellJob> {
        let base = |h| CellJob { insts: 3_000, ..CellJob::new("compress", h) };
        let jobs = vec![
            CellJob {
                pus: 8,
                in_order: true,
                ring_bandwidth: Some(1),
                ..base(Heuristic::ControlFlow)
            },
            CellJob {
                ts_thresh: Some(30.0),
                arb_entries_per_pu: Some(8),
                sync_table_entries: Some(0),
                ..base(Heuristic::TaskSize)
            },
            CellJob {
                if_convert_arms: Some(4),
                dead_reg: false,
                targets: 6,
                seed: 7,
                ..base(Heuristic::DataDependence)
            },
        ];
        fs::create_dir_all(out.join("unit")).unwrap();
        for (i, job) in jobs.iter().enumerate() {
            let json = cell_json("unit", &format!("c{i}"), job, &job.run());
            fs::write(out.join("unit").join(format!("c{i}.json")), format!("{json}\n")).unwrap();
        }
        jobs
    }

    #[test]
    fn params_map_back_to_the_jobs_that_wrote_them() {
        let out = scratch("params");
        let jobs = write_grid(&out);
        let cells = read_cells(&out).unwrap();
        let parsed: Vec<CellJob> = cells.iter().map(|c| c.job.clone()).collect();
        assert_eq!(parsed, jobs);
        for (cell, job) in cells.iter().zip(&jobs) {
            assert_eq!(format!("{:?}", cell.job.sim_config()), format!("{:?}", job.sim_config()));
        }
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn three_cell_grid_replays_byte_identically() {
        let out = scratch("grid3");
        write_grid(&out);
        let kept = Kept { out: out.clone(), ..Kept::default() };
        let round = replay(Workload::Grids, &kept, FULL, 0, Instant::now()).unwrap();
        assert_eq!((round.counts.ops, round.counts.mismatches), (3, 0));
        // A changed statistic is caught.
        let path = out.join("unit").join("c0.json");
        let text = fs::read_to_string(&path).unwrap().replacen(
            "\"total_cycles\":",
            "\"total_cycles\":1",
            1,
        );
        fs::write(&path, text).unwrap();
        let round = replay(Workload::Grids, &kept, FULL, 0, Instant::now()).unwrap();
        assert_eq!((round.counts.ops, round.counts.mismatches), (3, 1));
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn malformed_artifacts_are_errors() {
        assert!(parse_cell("{}".to_string()).is_err());
        assert!(parse_cell("not json".to_string()).is_err());
        let job = CellJob { insts: 500, ..CellJob::new("li", Heuristic::BasicBlock) };
        let good = cell_json("s", "c", &job, &job.run());
        assert!(parse_cell(good.clone()).is_ok());
        assert!(parse_cell(good.replace("\"bench\":\"li\"", "\"bench\":\"nope\"")).is_err());
        assert!(parse_cell(good.replace("\"strategy\":\"bb\"", "\"strategy\":\"zz\"")).is_err());
    }

    #[test]
    fn every_layer_metric_and_model_count_is_named_once() {
        let round =
            Round { tracer: Tracer::new(Instant::now()), wall_ns: 0, counts: Counts::default() };
        let metrics = layer_metrics(Workload::Fuzz, &round, &Sample::default());
        let model = model_counts(Workload::Grids, &round);
        assert!(model_counts(Workload::Fuzz, &round).is_empty());
        let mut names: Vec<&str> =
            metrics.iter().map(|m| m.name).chain(model.iter().map(|m| m.name)).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.len() + model.len());
        assert!(metrics.iter().all(|m| m.value.is_finite()));
        assert!(model.iter().all(|m| m.value.is_finite()));
    }
}
