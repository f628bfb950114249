//! The experiment sweeps behind the paper's figures and tables, as data.
//!
//! Every sweep is a grid of independent **cells** — one (workload,
//! heuristic, machine configuration) simulation each, fully described by
//! a [`CellJob`] — and a renderer that turns the finished grid into the
//! tables the former dedicated binaries printed. The single `run` driver
//! binary hands one or more sweeps to [`run_suite`], which plans them
//! as one suite, fans the distinct cells out with
//! [`crate::harness::run_parallel`], and writes one
//! schema-versioned JSON metrics artifact per grid cell to
//! `target/experiments/<sweep>/<cell>.json` (schema documented in
//! `EXPERIMENTS.md`).
//!
//! Determinism: a cell's result depends only on the cell description
//! (the per-cell seed included), tables and artifacts are rendered from
//! the grid-ordered results, and artifacts are written serially after
//! the parallel phase — so `--jobs 1` and `--jobs N` produce
//! byte-identical output. A cell that several grids name simulates once
//! and serves each of them. Work is scheduled one pre-selection program
//! at a time: its cells share one [`ProgramContext`], so each CFG
//! analysis is computed once per program per suite instead of once per
//! cell (cached analyses are values a fresh computation would also
//! produce). Within a program, cells whose selections pick the same
//! tasks — two heuristics that agree, or the same heuristic at another
//! target limit — share one streamed trace: each decoded chunk
//! ([`ms_sim::ChunkStream`]) is simulated once per distinct machine
//! configuration, one after another.

use std::cmp::Reverse;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use ms_analysis::ProgramContext;
use ms_ir::Program;
use ms_sim::{ChunkStream, Engine, NullSink, SimConfig, SimStats, Simulator};
use ms_tasksel::{
    closest, if_convert, FuncPartition, PartitionStats, Selection, SelectorBuilder, Strategy, Task,
    TaskSelector, TaskSizeParams,
};
use ms_workloads::{by_name, fp_suite, integer_suite};

use crate::cache::CellCache;
use crate::error::BenchError;
use crate::harness::run_parallel;
use crate::json::JsonObj;
use crate::{pct_change, DEFAULT_SEED, DEFAULT_TRACE_INSTS};

/// Version of the per-cell metrics JSON schema (bump on any field
/// change; documented field-by-field in `EXPERIMENTS.md`).
pub const SCHEMA_VERSION: u32 = 1;

/// Dynamic instruction budget the ablation sweeps use (the figure/table
/// grids use [`DEFAULT_TRACE_INSTS`]).
pub const SWEEP_TRACE_INSTS: usize = 60_000;

/// Typed identity of one experiment sweep — the registry behind the
/// driver's sweep subcommands, replacing stringly-typed dispatch.
/// Convert a user-supplied name with [`SweepSpec::parse`]; enumerate
/// with [`SweepSpec::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepSpec {
    /// Figure 5: heuristic impact across the suite (4/8 PUs, ooo/io).
    Figure5,
    /// Table 1: task size, misspeculation and window span (8 PUs).
    Table1,
    /// Ablation: control-flow target limit `N`.
    Targets,
    /// Ablation: task-size `CALL_THRESH`/`LOOP_THRESH` sweep.
    Thresholds,
    /// Ablation: PU count scaling.
    Pus,
    /// Ablation: dead register analysis for ring forwards.
    Forwarding,
    /// Ablation: if-conversion before selection.
    Predication,
    /// Ablation: ring bandwidth, ARB capacity, sync table size.
    Hardware,
}

impl SweepSpec {
    /// Every sweep, in `run -- sweeps` execution order.
    pub const ALL: [SweepSpec; 8] = [
        SweepSpec::Figure5,
        SweepSpec::Table1,
        SweepSpec::Targets,
        SweepSpec::Thresholds,
        SweepSpec::Pus,
        SweepSpec::Forwarding,
        SweepSpec::Predication,
        SweepSpec::Hardware,
    ];

    /// The sweep's name: its subcommand, its artifact directory under
    /// `--out`, and the `sweep` field of its cell JSON.
    pub fn name(self) -> &'static str {
        match self {
            SweepSpec::Figure5 => "figure5",
            SweepSpec::Table1 => "table1",
            SweepSpec::Targets => "targets",
            SweepSpec::Thresholds => "thresholds",
            SweepSpec::Pus => "pus",
            SweepSpec::Forwarding => "forwarding",
            SweepSpec::Predication => "predication",
            SweepSpec::Hardware => "hardware",
        }
    }

    /// One-line description for `run -- list`.
    pub fn describe(self) -> &'static str {
        match self {
            SweepSpec::Figure5 => "heuristic impact across the suite (Figure 5)",
            SweepSpec::Table1 => "task size, misspeculation, window span (Table 1)",
            SweepSpec::Targets => "control-flow target limit N ablation",
            SweepSpec::Thresholds => "task-size CALL_THRESH/LOOP_THRESH ablation",
            SweepSpec::Pus => "PU count scaling ablation",
            SweepSpec::Forwarding => "dead register analysis ablation",
            SweepSpec::Predication => "if-conversion ablation",
            SweepSpec::Hardware => "ring/ARB/sync-table hardware ablation",
        }
    }

    /// Resolves a user-supplied sweep name; unknown names report the
    /// nearest registered sweep.
    pub fn parse(name: &str) -> Result<SweepSpec, BenchError> {
        SweepSpec::ALL.into_iter().find(|s| s.name() == name).ok_or_else(|| {
            BenchError::UnknownSweep {
                name: name.to_string(),
                suggestion: closest(name, &SweepSpec::ALL.map(SweepSpec::name)),
            }
        })
    }
}

/// A complete description of one experiment cell. Running the same
/// `CellJob` twice produces identical statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CellJob {
    /// Workload name (see `ms_workloads::suite`).
    pub bench: &'static str,
    /// Task selection strategy.
    pub heuristic: Strategy,
    /// Strategy target limit `N`.
    pub targets: usize,
    /// Override for the task-size heuristic's thresholds (`CALL_THRESH`
    /// = value, `LOOP_THRESH` = value as usize); `None` uses defaults.
    pub ts_thresh: Option<f64>,
    /// If-convert diamonds of up to this many instructions per arm
    /// before selection.
    pub if_convert_arms: Option<usize>,
    /// Number of processing units.
    pub pus: usize,
    /// In-order PU pipelines (default out-of-order).
    pub in_order: bool,
    /// Dead register analysis for ring forwards (default on).
    pub dead_reg: bool,
    /// Ring bandwidth override (values/cycle/link).
    pub ring_bandwidth: Option<u32>,
    /// ARB entries per PU override.
    pub arb_entries_per_pu: Option<u32>,
    /// Memory dependence synchronisation table size override (0 = off).
    pub sync_table_entries: Option<u32>,
    /// Dynamic instruction budget.
    pub insts: usize,
    /// Trace seed.
    pub seed: u64,
}

impl CellJob {
    /// A cell with the defaults the ablation sweeps share: `N` = 4,
    /// 4 PUs, out-of-order, dead register analysis on,
    /// [`SWEEP_TRACE_INSTS`] instructions, [`DEFAULT_SEED`].
    pub fn new(bench: &'static str, heuristic: Strategy) -> Self {
        CellJob {
            bench,
            heuristic,
            targets: 4,
            ts_thresh: None,
            if_convert_arms: None,
            pus: 4,
            in_order: false,
            dead_reg: true,
            ring_bandwidth: None,
            arb_entries_per_pu: None,
            sync_table_entries: None,
            insts: SWEEP_TRACE_INSTS,
            seed: DEFAULT_SEED,
        }
    }

    /// The cell's pre-selection program: workload build plus the
    /// if-conversion pass, if the cell asks for one. Cells with equal
    /// `(bench, if_convert_arms)` build equal programs, which is what
    /// lets a sweep share one analysis context across them.
    fn build_program(&self) -> Program {
        let w = by_name(self.bench).expect("sweeps reference known benchmarks");
        let mut program = w.build();
        if let Some(arms) = self.if_convert_arms {
            program = if_convert(&program, arms);
        }
        program
    }

    /// A fresh analysis context for this cell's pre-selection program.
    pub fn context(&self) -> ProgramContext {
        ProgramContext::new(self.build_program())
    }

    /// The cell's pre-selection program in the IR text format — the
    /// canonical form the content-addressed cell cache hashes (see
    /// [`crate::cache`]). Equal programs have equal text; any workload
    /// or if-conversion change shows up here.
    pub fn program_text(&self) -> String {
        ms_ir::write_program(&self.build_program())
    }

    /// The machine configuration the cell simulates — the single point
    /// where cell parameters become a [`SimConfig`], shared by the
    /// simulation itself ([`CellJob::run_in`]) and the cache key.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::with_pus(self.pus);
        if self.in_order {
            cfg = cfg.in_order();
        }
        if !self.dead_reg {
            cfg = cfg.without_dead_reg_analysis();
        }
        if let Some(bw) = self.ring_bandwidth {
            cfg.ring_bandwidth = bw;
        }
        if let Some(entries) = self.arb_entries_per_pu {
            cfg.arb_entries_per_pu = entries;
        }
        if let Some(entries) = self.sync_table_entries {
            cfg.sync_table_entries = entries;
        }
        cfg
    }

    /// Runs the cell standalone: build → (if-convert) → select → trace →
    /// simulate. Equivalent to `run_in(&self.context())`.
    pub fn run(&self) -> CellOutput {
        self.run_in(&self.context())
    }

    /// Runs the cell against an existing analysis context for its
    /// pre-selection program (see [`CellJob::context`]), so cells
    /// sharing a program also share its analyses. Statistics are
    /// identical to [`CellJob::run`]'s — the context only caches values
    /// a fresh computation would also produce.
    pub fn run_in(&self, ctx: &ProgramContext) -> CellOutput {
        let mut images = ProgramRuns::select(&[vec![self]], ctx).simulate();
        images.pop().and_then(|mut cells| cells.pop()).expect("one cell in, one out")
    }

    /// The selector the cell's heuristic, target limit and task-size
    /// thresholds name.
    fn selector(&self) -> TaskSelector {
        match self.ts_thresh {
            Some(t) => SelectorBuilder::new(Strategy::DataDependence)
                .max_targets(self.targets)
                .task_size(TaskSizeParams { call_thresh: t, loop_thresh: t as usize })
                .build(),
            None => self.heuristic.selector(self.targets),
        }
    }

    /// The fields that determine a cell's selection, partition
    /// statistics and trace — everything but the machine configuration.
    /// Cells with equal image keys select once.
    fn image_key(&self) -> ImageKey {
        (
            self.bench,
            self.if_convert_arms,
            self.heuristic,
            self.targets,
            self.ts_thresh.map(f64::to_bits),
            self.insts,
            self.seed,
        )
    }

    /// The cell's parameters as a JSON object (stable key order).
    fn params_json(&self) -> String {
        let mut o = JsonObj::new();
        o.num_u64("targets", self.targets as u64)
            .num_u64("pus", self.pus as u64)
            .bool("in_order", self.in_order)
            .bool("dead_reg", self.dead_reg)
            .num_u64("insts", self.insts as u64)
            .num_u64("seed", self.seed);
        if let Some(t) = self.ts_thresh {
            o.num_f64("ts_thresh", t);
        }
        if let Some(a) = self.if_convert_arms {
            o.num_u64("if_convert_arms", a as u64);
        }
        if let Some(bw) = self.ring_bandwidth {
            o.num_u64("ring_bandwidth", bw as u64);
        }
        if let Some(e) = self.arb_entries_per_pu {
            o.num_u64("arb_entries_per_pu", e as u64);
        }
        if let Some(e) = self.sync_table_entries {
            o.num_u64("sync_table_entries", e as u64);
        }
        o.finish()
    }
}

/// What [`CellJob::image_key`] compares: workload, if-conversion arms,
/// heuristic, target limit, task-size threshold bits, trace budget and
/// seed.
type ImageKey = (&'static str, Option<usize>, Strategy, usize, Option<u64>, usize, u64);

/// Whether two selections pick the same tasks of the same program: the
/// same program (one `Arc`, or equal programs where `ts` unrolled a
/// loop), the same included calls, and in every function the same
/// tasks by entry block, however they are numbered. The simulator does
/// not see task numbering (pinned by `crates/sim/tests/simulator.rs`),
/// so such selections simulate alike on equal traces.
/// [`TaskPartition::same_tasks`](ms_tasksel::TaskPartition::same_tasks)
/// stays strict about numbering: conformance errors name task ids.
fn same_selection(a: &Selection, b: &Selection) -> bool {
    fn by_entry(f: &FuncPartition) -> Vec<&Task> {
        let mut tasks: Vec<&Task> = f.tasks().iter().collect();
        tasks.sort_unstable_by_key(|t| t.entry());
        tasks
    }
    let (fa, fb) = (a.partition.funcs(), b.partition.funcs());
    (Arc::ptr_eq(&a.program, &b.program) || a.program == b.program)
        && a.partition.included_calls() == b.partition.included_calls()
        && fa.len() == fb.len()
        && fa.iter().zip(fb).all(|(x, y)| by_entry(x) == by_entry(y))
}

/// One distinct selection of a pre-selection program, with its trace's
/// seed and budget and the distinct machine configurations simulated
/// over that trace.
struct Run {
    sel: Selection,
    seed: u64,
    insts: usize,
    configs: Vec<SimConfig>,
}

impl Run {
    /// The index of `config` among the run's configurations, added if new.
    fn config_slot(&mut self, config: SimConfig) -> usize {
        match self.configs.iter().position(|c| *c == config) {
            Some(k) => k,
            None => {
                self.configs.push(config);
                self.configs.len() - 1
            }
        }
    }

    /// Streams and decodes the trace once and simulates one
    /// configuration after another over each chunk: each configuration's
    /// engine is created at the first chunk and finished at the last, so
    /// a one-chunk run holds one engine at a time. Statistics are in
    /// configuration order.
    fn simulate(&self) -> Vec<SimStats> {
        let (program, partition) = (&*self.sel.program, &self.sel.partition);
        let sims: Vec<Simulator> =
            self.configs.iter().map(|c| Simulator::new(c.clone(), program, partition)).collect();
        let mut engines: Vec<Option<Engine>> = sims.iter().map(|_| None).collect();
        let mut stats: Vec<Option<SimStats>> = vec![None; sims.len()];
        let mut chunks = ChunkStream::new(program, partition, self.seed, self.insts);
        while let Some(chunk) = chunks.next_chunk() {
            for ((sim, engine), out) in sims.iter().zip(&mut engines).zip(&mut stats) {
                let mut run = engine.take().unwrap_or_else(|| sim.start());
                run.step(chunk, &mut NullSink);
                if chunk.is_last() {
                    *out = Some(run.finish(&mut NullSink));
                } else {
                    *engine = Some(run);
                }
            }
        }
        stats.into_iter().map(|s| s.expect("every stream ends with a last chunk")).collect()
    }
}

/// The cells of one pre-selection program, grouped by image key, and the
/// runs that serve them. Each image key selects once; keys whose
/// selections are equal ([`same_selection`]) with the same seed and
/// budget share one [`Run`], and each distinct machine configuration
/// simulates once per run. Partition statistics stay per image key,
/// from the key's own selection: `over_limit` reads its `N`.
struct ProgramRuns {
    runs: Vec<Run>,
    /// Per image key: its partition statistics and, per cell, the run
    /// and configuration that serve it.
    images: Vec<(PartitionStats, Vec<(usize, usize)>)>,
}

impl ProgramRuns {
    /// Selects every image key of `images` (cells sharing one image key
    /// each, all of `ctx`'s program) and merges equal selections. A
    /// selection that repeats an earlier one is dropped once its
    /// partition statistics are computed.
    fn select(images: &[Vec<&CellJob>], ctx: &ProgramContext) -> ProgramRuns {
        let mut runs: Vec<Run> = Vec::new();
        let mut served = Vec::with_capacity(images.len());
        for cells in images {
            let lead = cells[0];
            debug_assert!(
                cells.iter().all(|c| c.image_key() == lead.image_key()),
                "an image's cells share selection, partition and trace"
            );
            let sel = lead.selector().select(ctx);
            let partition = PartitionStats::compute(
                &sel.program,
                &sel.partition,
                sel.context().profile(),
                lead.targets,
            );
            let same = |r: &Run| {
                r.seed == lead.seed && r.insts == lead.insts && same_selection(&r.sel, &sel)
            };
            let r = match runs.iter().position(same) {
                Some(r) => r,
                None => {
                    runs.push(Run { sel, seed: lead.seed, insts: lead.insts, configs: Vec::new() });
                    runs.len() - 1
                }
            };
            let slots = cells.iter().map(|c| (r, runs[r].config_slot(c.sim_config()))).collect();
            served.push((partition, slots));
        }
        ProgramRuns { runs, images: served }
    }

    /// Simulates every run, dropping each selection after its run, and
    /// returns the outputs per image key and cell, in input order. Each
    /// equals what the cell would produce alone ([`CellJob::run`]).
    fn simulate(self) -> Vec<Vec<CellOutput>> {
        let stats: Vec<Vec<SimStats>> = self.runs.into_iter().map(|r| r.simulate()).collect();
        self.images
            .into_iter()
            .map(|(partition, slots)| {
                slots
                    .into_iter()
                    .map(|(r, k)| CellOutput {
                        sim: stats[r][k].clone(),
                        partition: partition.clone(),
                    })
                    .collect()
            })
            .collect()
    }
}

/// The two halves of a cell's metrics: dynamic (simulator) and static
/// (partition).
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutput {
    /// Cycle-level simulation statistics.
    pub sim: SimStats,
    /// Compile-time partition statistics.
    pub partition: PartitionStats,
}

/// Serialises one cell as the schema-versioned artifact written to
/// `target/experiments/<sweep>/<cell>.json`.
pub fn cell_json(sweep: &str, cell: &str, job: &CellJob, out: &CellOutput) -> String {
    let mut o = JsonObj::new();
    o.num_u64("schema_version", SCHEMA_VERSION as u64)
        .str("sweep", sweep)
        .str("cell", cell)
        .str("bench", job.bench)
        .str("strategy", job.heuristic.label())
        .raw("params", &job.params_json())
        .raw("partition", &out.partition.to_json())
        .raw("sim", &out.sim.to_json());
    o.finish()
}

/// One finished sweep: the rendered report and the number of cells run.
#[derive(Debug)]
pub struct SweepReport {
    /// Sweep name (also the artifact sub-directory).
    pub name: &'static str,
    /// The rendered tables (what the former dedicated binary printed).
    pub text: String,
    /// Number of cells in the sweep's grid.
    pub cells: usize,
}

/// One sweep's cells in grid order: each cell's id and job.
type Grid = Vec<(String, CellJob)>;

/// One sweep's finished cells in grid order: each cell's id and output.
type Results<'a> = [(&'a str, &'a CellOutput)];

impl SweepSpec {
    /// The sweep's grid: every cell's id and job, in grid order.
    fn grid(self) -> Grid {
        match self {
            SweepSpec::Figure5 => figure5_grid(),
            SweepSpec::Table1 => table1_grid(),
            SweepSpec::Targets => targets_grid(),
            SweepSpec::Thresholds => thresholds_grid(),
            SweepSpec::Pus => pus_grid(),
            SweepSpec::Forwarding => forwarding_grid(),
            SweepSpec::Predication => predication_grid(),
            SweepSpec::Hardware => hardware_grid(),
        }
    }

    /// Renders the sweep's report from its finished grid.
    fn render(self, r: &Results) -> String {
        match self {
            SweepSpec::Figure5 => figure5_report(r),
            SweepSpec::Table1 => table1_report(r),
            SweepSpec::Targets => targets_report(r),
            SweepSpec::Thresholds => thresholds_report(r),
            SweepSpec::Pus => pus_report(r),
            SweepSpec::Forwarding => forwarding_report(r),
            SweepSpec::Predication => predication_report(r),
            SweepSpec::Hardware => hardware_report(r),
        }
    }
}

/// The suite's distinct cells. A cell is identified by what it
/// computes: its [`CellJob::image_key`] and its [`CellJob::sim_config`],
/// the equivalence [`crate::cache::cell_key`] also hashes. Grid cells
/// equal to an earlier one are its *twins* and share its output.
struct Plan<'g> {
    /// Each distinct cell's job: its first occurrence in the suite.
    cells: Vec<&'g CellJob>,
    /// Distinct cells per image key, in first-appearance order.
    images: Vec<Vec<usize>>,
    /// For each grid, for each of its cells, the distinct cell it is.
    slots: Vec<Vec<usize>>,
}

impl<'g> Plan<'g> {
    fn new(grids: &'g [Grid]) -> Plan<'g> {
        let mut plan = Plan { cells: Vec::new(), images: Vec::new(), slots: Vec::new() };
        for grid in grids {
            let mut slots = Vec::with_capacity(grid.len());
            for (_, job) in grid {
                let key = job.image_key();
                let img =
                    match plan.images.iter().position(|ds| plan.cells[ds[0]].image_key() == key) {
                        Some(img) => img,
                        None => {
                            plan.images.push(Vec::new());
                            plan.images.len() - 1
                        }
                    };
                let config = job.sim_config();
                let twin = plan.images[img]
                    .iter()
                    .copied()
                    .find(|&d| plan.cells[d].sim_config() == config);
                let d = twin.unwrap_or_else(|| {
                    plan.cells.push(job);
                    plan.images[img].push(plan.cells.len() - 1);
                    plan.cells.len() - 1
                });
                slots.push(d);
            }
            plan.slots.push(slots);
        }
        plan
    }

    /// The work items: the distinct cells `todo` keeps, grouped by image
    /// key, and the image groups by pre-selection program `(bench,
    /// if_convert_arms)`. Largest first (cells x instructions), so the
    /// longest item does not start last; the stable sort keeps suite
    /// order among equals.
    fn items(&self, todo: impl Fn(usize) -> bool) -> Vec<Item> {
        let program = |d: usize| (self.cells[d].bench, self.cells[d].if_convert_arms);
        let mut items: Vec<Item> = Vec::new();
        for ds in &self.images {
            let cells: Vec<usize> = ds.iter().copied().filter(|&d| todo(d)).collect();
            let Some(&lead) = cells.first() else { continue };
            match items.iter_mut().find(|item| program(item[0][0]) == program(lead)) {
                Some(item) => item.push(cells),
                None => items.push(vec![cells]),
            }
        }
        items.sort_by_key(|item| {
            Reverse(item.iter().flatten().map(|&d| self.cells[d].insts).sum::<usize>())
        });
        items
    }

    /// An item's jobs, per image group.
    fn jobs(&self, item: &Item) -> Vec<Vec<&'g CellJob>> {
        item.iter().map(|ds| ds.iter().map(|&d| self.cells[d]).collect()).collect()
    }
}

/// One parallel work item: the image groups (distinct cells sharing an
/// image key) of one pre-selection program.
type Item = Vec<Vec<usize>>;

/// Runs `specs` as one suite with `jobs` worker threads, writing
/// artifacts under `out_root` (one directory per sweep), and returns
/// the reports in `specs` order. A single sweep is a suite of one.
///
/// The suite is planned before any cell runs: every grid is collected,
/// and each distinct cell simulates once however many grids name it
/// (every Table 1 cell is also a Figure 5 cell). A cell is identified
/// by what it computes: its image key and its [`CellJob::sim_config`],
/// the equivalence [`crate::cache::cell_key`] hashes. Artifacts and
/// reports are byte-identical for any `jobs`.
///
/// With a `cache`, each distinct cell is first probed by content key on
/// the coordinating thread: hits skip simulation entirely, and only the
/// misses are scheduled — then stored back once each, so an identical
/// resubmission runs zero cells. Cached and computed outputs are
/// field-identical, so artifacts stay byte-identical either way (pinned
/// by `tests/context_equivalence.rs`).
///
/// The misses are scheduled one work item per pre-selection program
/// `(bench, if_convert_arms)`, largest first (cells x instructions).
/// An item builds its program's [`ProgramContext`], so each CFG
/// analysis is computed once per program per suite, and drops it when
/// the item ends. It selects once per image key and merges the keys
/// whose selections pick the same tasks (however numbered) with the
/// same seed and budget: `dd` picks `cf`'s tasks wherever its steer
/// changes nothing, and `N` = 2..8 often give one `cf` partition.
/// Each distinct selection streams and decodes one trace, over which
/// each distinct machine configuration simulates once; partition
/// statistics stay per image key. The full suite makes 274 simulations
/// over 80 traces for 329 distinct cells in 108 image keys. Artifacts
/// are written serially afterwards, in spec and grid order, so the
/// item order never shows in them.
pub fn run_suite(
    specs: &[SweepSpec],
    jobs: usize,
    out_root: &Path,
    cache: Option<&CellCache>,
) -> Result<Vec<SweepReport>, BenchError> {
    let grids: Vec<Grid> = specs.iter().map(|s| s.grid()).collect();
    let plan = Plan::new(&grids);
    // Probe the content-addressed cache once per distinct cell
    // (coordinator only; keying builds each distinct program once,
    // memoized in the cache).
    let mut outputs: Vec<Option<CellOutput>> = vec![None; plan.cells.len()];
    let mut cell_keys: Vec<Option<String>> = vec![None; plan.cells.len()];
    if let Some(cache) = cache {
        for (d, job) in plan.cells.iter().enumerate() {
            let key = cache.key_for(job);
            match cache.lookup(&key) {
                Some(out) => outputs[d] = Some(out),
                None => cell_keys[d] = Some(key),
            }
        }
    }
    let items = plan.items(|d| outputs[d].is_none());
    let computed = run_parallel(jobs, items.iter().collect(), |item: &&Item, _| {
        let images = plan.jobs(item);
        ProgramRuns::select(&images, &images[0][0].context()).simulate()
    });
    // Results come back in item order: zipping each image's cells
    // against its outputs fills every slot.
    for (item, outs) in items.iter().zip(computed) {
        for (&d, out) in item.iter().flatten().zip(outs.into_iter().flatten()) {
            if let (Some(cache), Some(key)) = (cache, &cell_keys[d]) {
                cache.store(key, &out)?;
            }
            outputs[d] = Some(out);
        }
    }
    let mut reports = Vec::with_capacity(specs.len());
    for ((spec, grid), slots) in specs.iter().zip(&grids).zip(&plan.slots) {
        let name = spec.name();
        let dir = out_root.join(name);
        fs::create_dir_all(&dir)?;
        let mut results = Vec::with_capacity(grid.len());
        for ((id, job), &d) in grid.iter().zip(slots) {
            let out = outputs[d].as_ref().expect("every distinct cell is probed or computed");
            let json = cell_json(name, id, job, out);
            fs::write(dir.join(format!("{id}.json")), format!("{json}\n"))?;
            results.push((id.as_str(), out));
        }
        let text = spec.render(&results);
        fs::write(dir.join("report.md"), &text)?;
        reports.push(SweepReport { name, text, cells: grid.len() });
    }
    Ok(reports)
}

/// Looks a cell's output up by id (grid construction and rendering use
/// the same id scheme).
fn get<'a>(results: &Results<'a>, id: &str) -> &'a CellOutput {
    results
        .iter()
        .find(|(rid, _)| *rid == id)
        .unwrap_or_else(|| panic!("cell `{id}` missing from grid"))
        .1
}

/// The paper applies the task-size bar only to the two responders.
fn responds_to_task_size(name: &str) -> bool {
    matches!(name, "compress" | "fpppp")
}

// ---------------------------------------------------------------- sweeps

fn figure5_grid() -> Grid {
    let mut grid = Vec::new();
    for in_order in [false, true] {
        for pus in [4usize, 8] {
            for w in integer_suite().iter().chain(fp_suite().iter()) {
                let bars = Strategy::all()
                    .into_iter()
                    .filter(|&h| h != Strategy::TaskSize || responds_to_task_size(w.name));
                for h in bars {
                    let id = format!(
                        "{}-{}-{}pu-{}",
                        w.name,
                        h.label(),
                        pus,
                        if in_order { "io" } else { "ooo" }
                    );
                    let job = CellJob {
                        pus,
                        in_order,
                        insts: DEFAULT_TRACE_INSTS,
                        ..CellJob::new(w.name, h)
                    };
                    grid.push((id, job));
                }
            }
        }
    }
    grid
}

fn figure5_report(results: &Results) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    writeln!(text, "Figure 5 — impact of the compiler heuristics on the SPEC95-shaped suite")
        .unwrap();
    writeln!(text, "(paper shape: heuristics beat bb tasks by 19-38% int / 21-52% fp on 4 PUs,")
        .unwrap();
    writeln!(
        text,
        " 25-39% int / 25-53% fp on 8 PUs; dd adds <1-15% over cf; in-order gains more)"
    )
    .unwrap();
    for in_order in [false, true] {
        for pus in [4usize, 8] {
            for (title, suite) in [("integer", integer_suite()), ("floating point", fp_suite())] {
                writeln!(
                    text,
                    "\n── Figure 5{}: {title}, {pus} PUs, {} PUs ──",
                    if pus == 4 { "(a)" } else { "(b)" },
                    if in_order { "in-order" } else { "out-of-order" }
                )
                .unwrap();
                writeln!(
                    text,
                    "{:<10} {:>7} {:>7} {:>7} {:>7}   {:>8} {:>8} {:>8}",
                    "bench", "bb", "cf", "dd", "ts", "cf/bb", "dd/bb", "ts/bb"
                )
                .unwrap();
                let mut improvements: Vec<f64> = Vec::new();
                for w in &suite {
                    let suffix = format!("{}pu-{}", pus, if in_order { "io" } else { "ooo" });
                    let ipc = |h: Strategy| {
                        get(results, &format!("{}-{}-{}", w.name, h.label(), suffix)).sim.ipc()
                    };
                    let bb = ipc(Strategy::BasicBlock);
                    let cf = ipc(Strategy::ControlFlow);
                    let dd = ipc(Strategy::DataDependence);
                    let ts = responds_to_task_size(w.name).then(|| ipc(Strategy::TaskSize));
                    let best = ts.unwrap_or(dd).max(dd).max(cf);
                    improvements.push(100.0 * (best - bb) / bb);
                    writeln!(
                        text,
                        "{:<10} {:>7.3} {:>7.3} {:>7.3} {:>7}   {:>8} {:>8} {:>8}",
                        w.name,
                        bb,
                        cf,
                        dd,
                        ts.map_or("-".into(), |v| format!("{v:.3}")),
                        pct_change(bb, cf),
                        pct_change(bb, dd),
                        ts.map_or("-".into(), |v| pct_change(bb, v)),
                    )
                    .unwrap();
                }
                let lo = improvements.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = improvements.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                writeln!(
                    text,
                    "best-heuristic improvement over basic block tasks: {lo:.0}%..{hi:.0}%"
                )
                .unwrap();
            }
        }
    }
    text
}

fn table1_grid() -> Grid {
    let mut grid = Vec::new();
    for w in ms_workloads::suite() {
        for h in [Strategy::BasicBlock, Strategy::ControlFlow, Strategy::DataDependence] {
            let id = format!("{}-{}", w.name, h.label());
            let job = CellJob { pus: 8, insts: DEFAULT_TRACE_INSTS, ..CellJob::new(w.name, h) };
            grid.push((id, job));
        }
    }
    grid
}

fn table1_report(results: &Results) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    writeln!(
        text,
        "Table 1 — dynamic task size, control flow misspeculation and window span (8 PUs)"
    )
    .unwrap();
    writeln!(
        text,
        "{:<10} | {:>6} {:>6} {:>6} | {:>5} {:>6} {:>6} {:>6} | {:>5} {:>6} {:>6} {:>6} {:>6}",
        "", "Basic", "Block", "", "Control", "Flow", "", "", "Data", "Dep.", "", "", ""
    )
    .unwrap();
    writeln!(
        text,
        "{:<10} | {:>6} {:>6} {:>6} | {:>5} {:>6} {:>6} {:>6} | {:>5} {:>6} {:>6} {:>6} {:>6}",
        "bench",
        "#dyn",
        "task%",
        "wspan",
        "#ct",
        "#dyn",
        "task%",
        "br%",
        "#ct",
        "#dyn",
        "task%",
        "br%",
        "wspan"
    )
    .unwrap();
    for w in ms_workloads::suite() {
        let s = |h: Strategy| &get(results, &format!("{}-{}", w.name, h.label())).sim;
        let (bb, cf, dd) =
            (s(Strategy::BasicBlock), s(Strategy::ControlFlow), s(Strategy::DataDependence));
        let ct = |s: &SimStats| s.ct_insts as f64 / s.num_dyn_tasks.max(1) as f64;
        writeln!(
            text,
            "{:<10} | {:>6.1} {:>6.2} {:>6.0} | {:>5.1} {:>6.1} {:>6.2} {:>6.2} | {:>5.1} {:>6.1} {:>6.2} {:>6.2} {:>6.0}",
            w.name,
            bb.avg_task_size(),
            bb.task_mispred_pct(),
            bb.window_span_formula(),
            ct(cf),
            cf.avg_task_size(),
            cf.task_mispred_pct(),
            cf.br_mispred_pct_normalized(),
            ct(dd),
            dd.avg_task_size(),
            dd.task_mispred_pct(),
            dd.br_mispred_pct_normalized(),
            dd.window_span_formula(),
        )
        .unwrap();
    }
    writeln!(text, "\n(paper shape: bb tasks < 10 insts for integer, > 20 for fp except hydro2d;")
        .unwrap();
    writeln!(text, " heuristic tasks several times larger; window spans 45-140 int, 250-800 fp;")
        .unwrap();
    writeln!(text, " br%-normalised misprediction well below task%)").unwrap();
    text
}

const TARGETS_BENCHES: [&str; 5] = ["go", "m88ksim", "perl", "hydro2d", "applu"];
const TARGETS_NS: [usize; 4] = [2, 4, 6, 8];

fn targets_grid() -> Grid {
    let mut grid = Vec::new();
    for name in TARGETS_BENCHES {
        for n in TARGETS_NS {
            let id = format!("{name}-n{n}");
            let job = CellJob { targets: n, ..CellJob::new(name, Strategy::ControlFlow) };
            grid.push((id, job));
        }
    }
    grid
}

fn targets_report(results: &Results) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    writeln!(text, "Ablation: control-flow heuristic target limit N (4 PUs, out-of-order)")
        .unwrap();
    writeln!(text, "{:<10} {:>8} {:>8} {:>8} {:>8}", "bench", "N=2", "N=4", "N=6", "N=8").unwrap();
    for name in TARGETS_BENCHES {
        let mut row = format!("{name:<10}");
        for n in TARGETS_NS {
            row.push_str(&format!(" {:>8.3}", get(results, &format!("{name}-n{n}")).sim.ipc()));
        }
        writeln!(text, "{row}").unwrap();
    }
    writeln!(text, "\n(the hardware tracks 2-bit target numbers: tasks grown with N > 4 expose")
        .unwrap();
    writeln!(text, " targets the predictor cannot represent, so accuracy — and IPC — degrade)")
        .unwrap();
    text
}

const THRESHOLDS_BENCHES: [&str; 2] = ["compress", "fpppp"];
const THRESHOLDS: [f64; 4] = [10.0, 30.0, 60.0, 120.0];

fn thresholds_grid() -> Grid {
    let mut grid = Vec::new();
    for name in THRESHOLDS_BENCHES {
        grid.push((
            format!("{name}-off"),
            CellJob { pus: 8, ..CellJob::new(name, Strategy::DataDependence) },
        ));
        for t in THRESHOLDS {
            grid.push((
                format!("{name}-t{t:.0}"),
                CellJob { pus: 8, ts_thresh: Some(t), ..CellJob::new(name, Strategy::TaskSize) },
            ));
        }
    }
    grid
}

fn thresholds_report(results: &Results) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    writeln!(text, "Ablation: CALL_THRESH / LOOP_THRESH sweep (dd tasks + task size, 8 PUs)")
        .unwrap();
    writeln!(
        text,
        "{:<10} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "bench", "off", "thresh=10", "thresh=30", "thresh=60", "thresh=120"
    )
    .unwrap();
    for name in THRESHOLDS_BENCHES {
        let mut row = format!("{name:<10}");
        let off = &get(results, &format!("{name}-off")).sim;
        row.push_str(&format!(" {:>7.3}/{:>5.1}", off.ipc(), off.avg_task_size()));
        for t in THRESHOLDS {
            let s = &get(results, &format!("{name}-t{t:.0}")).sim;
            row.push_str(&format!(" {:>7.3}/{:>5.1}", s.ipc(), s.avg_task_size()));
        }
        writeln!(text, "{row}").unwrap();
    }
    writeln!(text, "\n(cells are IPC / mean dynamic task size; the paper picked 30 so that the")
        .unwrap();
    writeln!(text, " ~2-cycle task overheads stay near 6% of task execution time)").unwrap();
    text
}

const PUS_BENCHES: [&str; 5] = ["m88ksim", "perl", "tomcatv", "applu", "wave5"];
const PU_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

fn pus_grid() -> Grid {
    let mut grid = Vec::new();
    for name in PUS_BENCHES {
        for p in PU_COUNTS {
            grid.push((
                format!("{name}-{p}pu"),
                CellJob { pus: p, ..CellJob::new(name, Strategy::DataDependence) },
            ));
        }
    }
    grid
}

fn pus_report(results: &Results) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    writeln!(text, "Ablation: PU count sweep (data dependence tasks, out-of-order)").unwrap();
    writeln!(
        text,
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}   speedup@8",
        "bench", "1 PU", "2 PU", "4 PU", "8 PU", "16 PU"
    )
    .unwrap();
    for name in PUS_BENCHES {
        let mut row = format!("{name:<10}");
        let ipc_at = |p: usize| get(results, &format!("{name}-{p}pu")).sim.ipc();
        for p in PU_COUNTS {
            row.push_str(&format!(" {:>8.3}", ipc_at(p)));
        }
        writeln!(text, "{row}   {:.2}x", ipc_at(8) / ipc_at(1).max(1e-9)).unwrap();
    }
    text
}

const FORWARDING_BENCHES: [&str; 6] = ["m88ksim", "perl", "tomcatv", "applu", "wave5", "go"];

fn forwarding_grid() -> Grid {
    let mut grid = Vec::new();
    for name in FORWARDING_BENCHES {
        grid.push((
            format!("{name}-dead"),
            CellJob { pus: 8, ..CellJob::new(name, Strategy::DataDependence) },
        ));
        grid.push((
            format!("{name}-naive"),
            CellJob { pus: 8, dead_reg: false, ..CellJob::new(name, Strategy::DataDependence) },
        ));
    }
    grid
}

fn forwarding_report(results: &Results) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    writeln!(text, "Ablation: dead register analysis for ring forwards (dd tasks, 8 PUs)").unwrap();
    writeln!(
        text,
        "{:<10} {:>10} {:>10} {:>12} {:>12} {:>9}",
        "bench", "IPC dead", "IPC naive", "fwd/task d", "fwd/task n", "IPC gain"
    )
    .unwrap();
    for name in FORWARDING_BENCHES {
        let dead = &get(results, &format!("{name}-dead")).sim;
        let naive = &get(results, &format!("{name}-naive")).sim;
        writeln!(
            text,
            "{:<10} {:>10.3} {:>10.3} {:>12.1} {:>12.1} {:>8.1}%",
            name,
            dead.ipc(),
            naive.ipc(),
            dead.forwards_per_task(),
            naive.forwards_per_task(),
            100.0 * (dead.ipc() - naive.ipc()) / naive.ipc(),
        )
        .unwrap();
    }
    writeln!(text, "\n(dead register analysis must never forward MORE values than naive").unwrap();
    writeln!(text, " forwarding; the IPC gain comes from freed ring bandwidth)").unwrap();
    text
}

const PREDICATION_BENCHES: [&str; 6] = ["go", "gcc", "li", "perl", "vortex", "hydro2d"];

fn predication_grid() -> Grid {
    let variants: [(&str, Option<usize>); 3] =
        [("plain", None), ("arms4", Some(4)), ("arms8", Some(8))];
    let mut grid = Vec::new();
    for name in PREDICATION_BENCHES {
        for (tag, arms) in variants {
            grid.push((
                format!("{name}-{tag}"),
                CellJob { if_convert_arms: arms, ..CellJob::new(name, Strategy::ControlFlow) },
            ));
        }
    }
    grid
}

fn predication_report(results: &Results) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    writeln!(text, "Ablation: if-conversion before task selection (cf tasks, 4 PUs)").unwrap();
    writeln!(
        text,
        "{:<10} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "bench", "plain", "arms<=4", "arms<=8", "mis plain", "mis <=4", "mis <=8"
    )
    .unwrap();
    for name in PREDICATION_BENCHES {
        let s = |tag: &str| &get(results, &format!("{name}-{tag}")).sim;
        let (plain, c4, c8) = (s("plain"), s("arms4"), s("arms8"));
        writeln!(
            text,
            "{:<10} {:>9.3} {:>9.3} {:>9.3} | {:>8.2}% {:>8.2}% {:>8.2}%",
            name,
            plain.ipc(),
            c4.ipc(),
            c8.ipc(),
            plain.task_mispred_pct(),
            c4.task_mispred_pct(),
            c8.task_mispred_pct(),
        )
        .unwrap();
    }
    writeln!(text, "\n(predication executes both arms — it pays off where diamonds are small")
        .unwrap();
    writeln!(text, " and unpredictable, and costs instructions where they were predictable)")
        .unwrap();
    text
}

const BW_BENCHES: [&str; 4] = ["m88ksim", "go", "applu", "wave5"];
const BWS: [u32; 4] = [1, 2, 4, 8];
const ARB_BENCHES: [&str; 3] = ["fpppp", "tomcatv", "compress"];
const ARBS: [u32; 4] = [8, 16, 32, 64];
const SYNC_BENCHES: [&str; 3] = ["compress", "go", "li"];
const SYNCS: [u32; 3] = [0, 16, 256];

fn hardware_grid() -> Grid {
    let mut grid = Vec::new();
    for name in BW_BENCHES {
        for bw in BWS {
            grid.push((
                format!("{name}-bw{bw}"),
                CellJob {
                    pus: 8,
                    ring_bandwidth: Some(bw),
                    ..CellJob::new(name, Strategy::DataDependence)
                },
            ));
        }
    }
    for name in ARB_BENCHES {
        for entries in ARBS {
            grid.push((
                format!("{name}-arb{entries}"),
                CellJob {
                    pus: 8,
                    arb_entries_per_pu: Some(entries),
                    ..CellJob::new(name, Strategy::DataDependence)
                },
            ));
        }
    }
    for name in SYNC_BENCHES {
        for entries in SYNCS {
            grid.push((
                format!("{name}-sync{entries}"),
                CellJob {
                    pus: 8,
                    sync_table_entries: Some(entries),
                    ..CellJob::new(name, Strategy::DataDependence)
                },
            ));
        }
    }
    grid
}

fn hardware_report(results: &Results) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    writeln!(text, "Ablation: ring bandwidth (values/cycle/link, paper: 2), 8 PUs, IPC").unwrap();
    writeln!(text, "{:<10} {:>8} {:>8} {:>8} {:>8}", "bench", "bw=1", "bw=2", "bw=4", "bw=8")
        .unwrap();
    for name in BW_BENCHES {
        let mut row = format!("{name:<10}");
        for bw in BWS {
            row.push_str(&format!(" {:>8.3}", get(results, &format!("{name}-bw{bw}")).sim.ipc()));
        }
        writeln!(text, "{row}").unwrap();
    }

    writeln!(text, "\nAblation: ARB entries per PU (paper: 32), 8 PUs, IPC / overflows").unwrap();
    writeln!(
        text,
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "bench", "arb=8", "arb=16", "arb=32", "arb=64"
    )
    .unwrap();
    for name in ARB_BENCHES {
        let mut row = format!("{name:<10}");
        for entries in ARBS {
            let s = &get(results, &format!("{name}-arb{entries}")).sim;
            row.push_str(&format!(" {:>7.3}/{:<4}", s.ipc(), s.arb_overflows));
        }
        writeln!(text, "{row}").unwrap();
    }

    writeln!(text, "\nAblation: memory dependence synchronisation table (paper: 256 entries)")
        .unwrap();
    writeln!(text, "{:<10} {:>14} {:>14} {:>14}", "bench", "off", "16 entries", "256 entries")
        .unwrap();
    for name in SYNC_BENCHES {
        let mut row = format!("{name:<10}");
        for entries in SYNCS {
            let s = &get(results, &format!("{name}-sync{entries}")).sim;
            row.push_str(&format!(" {:>7.3}v{:<6}", s.ipc(), s.violations));
        }
        writeln!(text, "{row}").unwrap();
    }
    writeln!(text, "\n(cells are IPC / ARB overflows or IPC v violations; without the sync")
        .unwrap();
    writeln!(text, " table conflicting loads squash repeatedly, as Moshovos et al. showed)")
        .unwrap();
    text
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use ms_ir::{BlockId, FuncId};
    use ms_tasksel::TaskPartition;

    use super::*;

    #[test]
    fn sweep_spec_round_trips_every_name() {
        for spec in SweepSpec::ALL {
            assert_eq!(SweepSpec::parse(spec.name()).unwrap(), spec);
            assert!(!spec.describe().is_empty());
        }
    }

    #[test]
    fn unknown_sweep_suggests_nearest_name() {
        match SweepSpec::parse("figur5") {
            Err(BenchError::UnknownSweep { name, suggestion }) => {
                assert_eq!(name, "figur5");
                assert_eq!(suggestion, Some("figure5"));
            }
            other => panic!("expected UnknownSweep, got {other:?}"),
        }
        match SweepSpec::parse("qqqqqqqqqqqq") {
            Err(BenchError::UnknownSweep { suggestion, .. }) => assert_eq!(suggestion, None),
            other => panic!("expected UnknownSweep, got {other:?}"),
        }
    }

    #[test]
    fn run_in_shared_context_matches_standalone_run() {
        let cf = CellJob { insts: 2_000, ..CellJob::new("compress", Strategy::ControlFlow) };
        let dd = CellJob { insts: 2_000, ..CellJob::new("compress", Strategy::DataDependence) };
        let shared = cf.context();
        assert_eq!(cf.run_in(&shared), cf.run());
        assert_eq!(dd.run_in(&shared), dd.run());
        assert!(shared.cache_stats().hits > 0, "second cell reuses cached analyses");
    }

    #[test]
    fn grouped_cells_match_cells_run_alone() {
        // Cells that differ only in machine configuration share one
        // decoded image; each must still equal its own standalone run.
        let base = CellJob { insts: 3_000, ..CellJob::new("go", Strategy::DataDependence) };
        let cells = [
            CellJob { pus: 1, ..base.clone() },
            CellJob { pus: 8, in_order: true, ..base.clone() },
            CellJob { ring_bandwidth: Some(1), dead_reg: false, ..base.clone() },
            CellJob { arb_entries_per_pu: Some(8), sync_table_entries: Some(0), ..base.clone() },
        ];
        let group: Vec<&CellJob> = cells.iter().collect();
        let outs = ProgramRuns::select(&[group], &base.context()).simulate().remove(0);
        assert_eq!(outs.len(), cells.len());
        for (cell, out) in cells.iter().zip(outs) {
            assert_eq!(out, cell.run(), "{cell:?}");
        }
    }

    #[test]
    fn grouped_cells_over_several_chunks_match_whole_trace_runs() {
        // A group whose trace spans two chunks keeps each cell's engine
        // from the first chunk to the last.
        let insts = ms_trace::TRACE_CHUNK_INSTS + 5_000;
        let base = CellJob { insts, ..CellJob::new("compress", Strategy::ControlFlow) };
        let cells = [CellJob { pus: 1, ..base.clone() }, CellJob { pus: 8, ..base.clone() }];
        let ctx = base.context();
        let outs = ProgramRuns::select(&[cells.iter().collect()], &ctx).simulate().remove(0);
        let sel = base.heuristic.selector(base.targets).select(&ctx);
        let trace = ms_trace::TraceGenerator::new(&sel.program, base.seed).generate(insts);
        for (cell, out) in cells.iter().zip(outs) {
            let whole = Simulator::new(cell.sim_config(), &sel.program, &sel.partition).run(&trace);
            assert_eq!(out.sim, whole, "{cell:?}");
        }
    }

    #[test]
    fn suite_plan_counts_each_distinct_cell_once() {
        let grids: Vec<Grid> = SweepSpec::ALL.iter().map(|s| s.grid()).collect();
        let plan = Plan::new(&grids);
        assert_eq!(plan.slots.iter().map(Vec::len).sum::<usize>(), 400, "grid cells");
        assert_eq!(plan.cells.len(), 329, "distinct cells");
        assert_eq!(plan.images.len(), 108, "distinct image keys: selections");
        // Every Table 1 cell is served by its Figure 5 twin.
        let table1 = SweepSpec::ALL.iter().position(|&s| s == SweepSpec::Table1).unwrap();
        let served = |d: usize| plan.slots.iter().flatten().filter(|&&s| s == d).count();
        assert!(plan.slots[table1].iter().all(|&d| served(d) == 2));
        // A twin computes exactly what the cell it stands for computes.
        for (grid, slots) in grids.iter().zip(&plan.slots) {
            for ((id, job), &d) in grid.iter().zip(slots) {
                assert_eq!(job.image_key(), plan.cells[d].image_key(), "{id}");
                assert_eq!(job.sim_config(), plan.cells[d].sim_config(), "{id}");
            }
        }
    }

    #[test]
    fn suite_simulates_each_distinct_selection_once() {
        // One work item per pre-selection program; within it, image keys
        // that select the same tasks share one streamed trace, and each
        // distinct machine configuration simulates once over it.
        let grids: Vec<Grid> = SweepSpec::ALL.iter().map(|s| s.grid()).collect();
        let plan = Plan::new(&grids);
        let items = plan.items(|_| true);
        assert_eq!(items.len(), 30, "distinct programs: work items and contexts");
        assert_eq!(items.iter().flatten().flatten().count(), 329, "every distinct cell");
        let (mut images, mut sims) = (0, 0);
        for item in &items {
            let jobs = plan.jobs(item);
            let runs = ProgramRuns::select(&jobs, &jobs[0][0].context()).runs;
            images += runs.len();
            sims += runs.iter().map(|r| r.configs.len()).sum::<usize>();
        }
        assert_eq!(images, 80, "distinct selections: streamed, decoded traces");
        assert_eq!(sims, 274, "simulations");
        // Largest first: no item has more cells x instructions than
        // the one before it.
        let size = |item: &Item| item.iter().flatten().map(|&d| plan.cells[d].insts).sum::<usize>();
        assert!(items.windows(2).all(|w| size(&w[0]) >= size(&w[1])));
    }

    #[test]
    fn cells_served_by_another_image_keys_run_match_standalone_runs() {
        // Each workload's plain-program cells of the suite, with every
        // budget cut fifty-fold (100,000 -> 2,000, 60,000 -> 1,200:
        // distinct budgets stay distinct), form one work item. Its 8
        // image keys make 3 runs.
        let grids: Vec<Grid> = SweepSpec::ALL.iter().map(|s| s.grid()).collect();
        let suite = Plan::new(&grids);
        for bench in ["applu", "m88ksim"] {
            let grid: Grid = suite
                .cells
                .iter()
                .filter(|j| j.bench == bench && j.if_convert_arms.is_none())
                .map(|j| (String::new(), CellJob { insts: j.insts / 50, ..(*j).clone() }))
                .collect();
            let grids = [grid];
            let plan = Plan::new(&grids);
            let items = plan.items(|_| true);
            let images = plan.jobs(&items[0]);
            assert_eq!((items.len(), images.len()), (1, 8), "{bench}: one item, 8 image keys");
            let runs = ProgramRuns::select(&images, &images[0][0].context());
            assert_eq!(runs.runs.len(), 3, "{bench}: distinct selections");
            // The run each image key's cells simulate in.
            let run: Vec<usize> = runs.images.iter().map(|(_, slots)| slots[0].0).collect();
            // Figure 5's cf and dd cells at 4 out-of-order PUs pick the
            // same tasks and share a run.
            let fig5 = |h: Strategy| {
                let c = |cells: &Vec<&CellJob>| {
                    cells[0].heuristic == h && cells[0].insts == DEFAULT_TRACE_INSTS / 50
                };
                run[images.iter().position(c).unwrap()]
            };
            assert_eq!(fig5(Strategy::ControlFlow), fig5(Strategy::DataDependence), "{bench}");
            // Every cell served by an earlier image key's run equals its
            // standalone run.
            let outs = runs.simulate();
            for i in (0..images.len()).filter(|&i| run[..i].contains(&run[i])) {
                for (cell, out) in images[i].iter().zip(&outs[i]) {
                    assert_eq!(*out, cell.run(), "{cell:?}");
                }
            }
        }
    }

    /// `sel` with every function's task list reversed: the same tasks,
    /// numbered back to front.
    fn renumbered(sel: &Selection, included_calls: BTreeSet<(FuncId, BlockId)>) -> TaskPartition {
        let funcs = sel
            .partition
            .funcs()
            .iter()
            .map(|fp| {
                let tasks = fp.tasks().iter().rev().cloned().collect();
                FuncPartition::new(fp.func(), tasks, sel.program.function(fp.func()).num_blocks())
            })
            .collect();
        TaskPartition::new(funcs, included_calls, sel.partition.strategy())
    }

    #[test]
    fn same_selection_ignores_task_numbering_only() {
        // A `ts` selection that includes a call: renumbering its tasks
        // keeps it the same selection (though no longer `same_tasks`);
        // dropping its included calls or changing program does not.
        let (ctx, ts) = ms_workloads::suite()
            .iter()
            .find_map(|w| {
                let ctx = ProgramContext::new(w.build());
                let sel = Strategy::TaskSize.selector(4).select(&ctx);
                (!sel.partition.included_calls().is_empty()).then_some((ctx, sel))
            })
            .expect("some workload's ts selection includes a call");
        let select = || Strategy::TaskSize.selector(4).select(&ctx);
        let mut reversed = select();
        reversed.partition = renumbered(&ts, ts.partition.included_calls().clone());
        assert!(!reversed.partition.same_tasks(&ts.partition));
        assert!(same_selection(&ts, &reversed));
        let mut no_calls = select();
        no_calls.partition = renumbered(&ts, BTreeSet::new());
        assert!(!same_selection(&ts, &no_calls));
        let other = ms_workloads::suite().into_iter().find(|w| w.build() != *ts.program).unwrap();
        let elsewhere = Strategy::TaskSize.selector(4).select(&ProgramContext::new(other.build()));
        assert!(!same_selection(&ts, &elsewhere));
    }

    #[test]
    fn cell_json_is_schema_versioned_and_complete() {
        let job = CellJob { insts: 3_000, ..CellJob::new("compress", Strategy::ControlFlow) };
        let out = job.run();
        let j = cell_json("unit", "compress-cf", &job, &out);
        assert!(j.starts_with("{\"schema_version\":1,"));
        for key in [
            "\"sweep\":\"unit\"",
            "\"cell\":\"compress-cf\"",
            "\"bench\":\"compress\"",
            "\"strategy\":\"cf\"",
            "\"params\":{",
            "\"partition\":{",
            "\"sim\":{",
            "\"ctrl_squashes\":",
            "\"mem_squashes\":",
            "\"fwd_stall_cycles\":",
            "\"pu_idle_cycles\":",
            "\"task_size_hist\":[",
            "\"size_hist\":[",
        ] {
            assert!(j.contains(key), "cell JSON missing {key}: {j}");
        }
    }

    #[test]
    fn cell_jobs_are_deterministic() {
        let job = CellJob { insts: 2_000, ..CellJob::new("li", Strategy::BasicBlock) };
        let a = job.run();
        let b = job.run();
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.partition, b.partition);
    }
}
