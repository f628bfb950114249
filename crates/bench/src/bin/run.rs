//! The experiment driver: every sweep behind the paper's figures and
//! tables, ad-hoc single runs, event traces, and pipeline profiling,
//! from one binary. `run -- help` lists every subcommand with the
//! schema version of the artifact it writes.
//!
//! Sweep mode (parallel, writes JSON metrics artifacts — see
//! `EXPERIMENTS.md` for the schema):
//!
//! ```text
//! cargo run -p ms-bench --release --bin run -- sweeps --jobs 8
//! cargo run -p ms-bench --release --bin run -- figure5
//! cargo run -p ms-bench --release --bin run -- hardware --jobs 4 --out /tmp/exp
//! ```
//!
//! Single-run mode (any benchmark × heuristic × machine):
//!
//! ```text
//! cargo run -p ms-bench --release --bin run -- compress --strategy ts --pus 8
//! cargo run -p ms-bench --release --bin run -- all --strategy cf --in-order
//! ```
//!
//! Trace mode (one run with the event trace on — see `docs/TRACING.md`):
//!
//! ```text
//! cargo run -p ms-bench --release --bin run -- trace compress
//! ```
//!
//! Perf mode (pipeline self-profiling and the regression gate — see
//! `docs/PROFILING.md`):
//!
//! ```text
//! cargo run -p ms-bench --release --bin run -- perf
//! cargo run -p ms-bench --release --bin run -- perf --baseline best
//! cargo run -p ms-bench --release --bin run -- perf --baseline BENCH_old.json
//! cargo run -p ms-bench --release --bin run -- perf-validate BENCH_abc1234.json
//! ```
//!
//! Perf-history mode (the whole trajectory: trend table, dashboard,
//! cumulative-drift gate — see `docs/PERF-HISTORY.md`):
//!
//! ```text
//! cargo run -p ms-bench --release --bin run -- perf-history
//! ```
//!
//! Fuzz mode (differential conformance — see `docs/CONFORMANCE.md`):
//!
//! ```text
//! cargo run -p ms-bench --release --bin run -- fuzz --seeds 500
//! ```
//!
//! Gap mode (heuristics vs the exact-partition oracle — see
//! `docs/POLICIES.md`, which also documents `run -- policies`):
//!
//! ```text
//! cargo run -p ms-bench --release --bin run -- gap li
//! cargo run -p ms-bench --release --bin run -- gap all --oracle-max-blocks 12
//! ```
//!
//! Cached sweeps (the content-addressed cell cache — see
//! `EXPERIMENTS.md`): a repeated grid is re-rendered from the cache
//! without simulating, and its artifacts are byte-identical to an
//! uncached run:
//!
//! ```text
//! cargo run -p ms-bench --release --bin run -- sweeps --cache-dir target/experiments/cellcache
//! ```
//!
//! Observability (see `docs/OBSERVABILITY.md`): every sweep / perf /
//! perf-history / trace / fuzz / gap invocation appends a structured
//! JSONL run record under `target/experiments/runs/`, and the sweep
//! scheduler renders a live stderr progress line on a terminal
//! (`--quiet` or `MS_NO_PROGRESS` turn it off; artifacts are identical
//! either way):
//!
//! ```text
//! cargo run -p ms-bench --release --bin run -- runs --last 10
//! cargo run -p ms-bench --release --bin run -- runs show <id>
//! cargo run -p ms-bench --release --bin run -- runs-validate
//! ```
//!
//! All flags live in `ms_bench::cli` and are shared across subcommands
//! (`--out DIR`, `--jobs N`, `--strategy`, `--reps`, …).

use std::path::Path;

use ms_analysis::ProgramContext;
use ms_bench::cache::CellCache;
use ms_bench::cli::{self, Flags};
use ms_bench::error::closest;
use ms_bench::fuzzcmd;
use ms_bench::gapcmd::{self, GapOptions};
use ms_bench::historycmd::{self, BaselineEntry};
use ms_bench::perfcmd::{self, PerfOptions};
use ms_bench::progress::{ProgressLine, SweepObserver};
use ms_bench::runscmd;
use ms_bench::sweeps::{run_sweep, SweepSpec, SWEEP_NAMES};
use ms_bench::tracecmd::trace_selection;
use ms_bench::{run_selection, BenchError, DEFAULT_TRACE_INSTS};
use ms_conform::FuzzParams;
use ms_ir::Program;
use ms_prof::jsonv::Value;
use ms_prof::ledger::{ProgressSink, ProgressSnapshot, RunLedger, RunMeta};
use ms_sim::SimConfig;
use ms_workloads::{by_name, suite};

fn sim_config(flags: &Flags) -> SimConfig {
    let mut cfg = SimConfig::with_pus(flags.pus);
    if flags.in_order {
        cfg = cfg.in_order();
    }
    if !flags.dead_reg {
        cfg = cfg.without_dead_reg_analysis();
    }
    cfg
}

// ------------------------------------------------------------- ledger

/// The parsed parameters a run record's header carries — the
/// invocation's SimConfig/policy fingerprint, one deterministic set
/// for every subcommand (meaningless entries are simply defaults).
fn run_params(flags: &Flags) -> Vec<(String, String)> {
    let s = |v: String| v;
    vec![
        ("strategy".to_string(), flags.strategy.label().to_string()),
        ("pus".to_string(), s(flags.pus.to_string())),
        ("in_order".to_string(), s(flags.in_order.to_string())),
        ("dead_reg".to_string(), s(flags.dead_reg.to_string())),
        ("targets".to_string(), s(flags.targets.to_string())),
        ("insts".to_string(), flags.insts.map_or("default".to_string(), |i| i.to_string())),
        ("seed".to_string(), s(format!("{:#x}", flags.seed))),
        ("jobs".to_string(), s(flags.jobs.to_string())),
        ("out".to_string(), s(flags.out.display().to_string())),
    ]
}

/// Opens the run record for a ledgered subcommand. A ledger that cannot
/// open degrades to a warning — telemetry must never fail the science.
fn open_ledger(cmd: &str, flags: &Flags) -> Option<RunLedger> {
    let meta = RunMeta {
        cmd: cmd.to_string(),
        argv: std::env::args().skip(1).collect(),
        git: perfcmd::git_short(),
        params: run_params(flags),
    };
    match RunLedger::open(&runscmd::runs_dir(), &meta) {
        Ok(l) => Some(l),
        Err(e) => {
            eprintln!("warning: run ledger disabled: {e}");
            None
        }
    }
}

fn led_event(led: &mut Option<RunLedger>, kind: &str, fields: Vec<(&str, Value)>) {
    if let Some(l) = led.as_mut() {
        l.event(kind, fields);
    }
}

fn led_artifact(led: &mut Option<RunLedger>, path: &Path) {
    if let Some(l) = led.as_mut() {
        l.artifact(&path.display().to_string());
    }
}

// ----------------------------------------------------------- commands

fn run_one(name: &str, program: Program, flags: &Flags) {
    let sel = flags.strategy.selector(flags.targets).select(&ProgramContext::new(program));
    if flags.dump_ir {
        print!("{}", ms_ir::write_program(&sel.program));
        return;
    }
    let insts = flags.insts.unwrap_or(DEFAULT_TRACE_INSTS);
    let stats = run_selection(&sel, sim_config(flags), insts, flags.seed);
    if flags.json {
        println!(
            "{{\"bench\":\"{name}\",\"strategy\":\"{}\",\"stats\":{}}}",
            flags.strategy.label(),
            stats.to_json()
        );
        return;
    }
    println!(
        "── {name} [{}] {} PUs {} ──",
        flags.strategy.label(),
        flags.pus,
        if flags.in_order { "in-order" } else { "out-of-order" }
    );
    println!("{stats}");
}

fn unknown_benchmark(name: &str) -> i32 {
    // The name could be a misspelled sweep, subcommand or benchmark —
    // suggest the nearest match from whichever namespace is closest.
    if let Some(s) = closest(name, &SWEEP_NAMES) {
        let e = BenchError::UnknownSweep { name: name.to_string(), suggestion: Some(s) };
        eprintln!("error: {e}");
    } else if let Some(s) = closest(name, &cli::subcommand_names()) {
        eprintln!("error: unknown subcommand `{name}` (did you mean `{s}`?)");
    } else {
        let benches: Vec<&'static str> = suite().iter().map(|w| w.name).collect();
        let e = BenchError::UnknownBenchmark {
            name: name.to_string(),
            suggestion: closest(name, &benches),
        };
        eprintln!("error: {e}");
    }
    eprintln!("(`run -- list` enumerates benchmarks and sweeps; see `run -- help`)");
    2
}

/// `run -- fuzz`: the differential conformance fuzz loop (see
/// `docs/CONFORMANCE.md`), minimal repros written under `<out>/fuzz/`.
fn run_fuzz(flags: &Flags, led: &mut Option<RunLedger>) -> i32 {
    let params = FuzzParams {
        max_blocks: flags.max_blocks,
        insts: flags.insts.unwrap_or(FuzzParams::default().insts),
        inject: flags.inject,
    };
    let report = fuzzcmd::run_fuzz(flags.seeds, flags.seed, &params, flags.jobs, &flags.out);
    for (path, body) in &report.artifacts {
        write_or_die(path, body);
        led_artifact(led, path);
    }
    for f in &report.failures {
        led_event(
            led,
            "failure",
            vec![
                ("seed", Value::Str(format!("{:#x}", f.seed))),
                ("strategy", Value::Str(f.strategy.to_string())),
                ("violations", Value::Num(f.errors.len() as f64)),
            ],
        );
    }
    led_event(
        led,
        "fuzz",
        vec![
            ("seeds", Value::Num(report.seeds as f64)),
            ("failures", Value::Num(report.failures.len() as f64)),
        ],
    );
    print!("{}", report.text);
    if report.failures.is_empty() {
        0
    } else {
        1
    }
}

fn write_or_die(path: &Path, body: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// `run -- gap <benchmark> | all`: the heuristic-vs-optimal table (see
/// `docs/POLICIES.md`).
fn run_gap(bench: &str, flags: &Flags, led: &mut Option<RunLedger>) -> i32 {
    let opts = GapOptions {
        targets: flags.targets,
        oracle_max_blocks: flags.oracle_max_blocks,
        insts: flags.insts.unwrap_or(DEFAULT_TRACE_INSTS),
        seed: flags.seed,
        config: sim_config(flags),
    };
    let one = |w: &ms_workloads::Workload, led: &mut Option<RunLedger>| {
        let report = gapcmd::run_gap(w, &opts);
        led_event(
            led,
            "gap",
            vec![
                ("bench", Value::Str(w.name.to_string())),
                ("rows", Value::Num(report.rows.len() as f64)),
                ("eligible_funcs", Value::Num(report.eligible_funcs as f64)),
            ],
        );
        print!("{}", report.text);
    };
    if bench == "all" {
        for (i, w) in suite().iter().enumerate() {
            if i > 0 {
                println!();
            }
            one(w, led);
        }
        return 0;
    }
    let Some(w) = by_name(bench) else { return unknown_benchmark(bench) };
    one(&w, led);
    0
}

/// Runs one traced simulation (`run -- trace <workload>`): prints the
/// attribution tables and writes the JSONL + Chrome trace artifacts under
/// `<out>/trace/`.
fn run_trace(bench: &str, flags: &Flags, led: &mut Option<RunLedger>) -> i32 {
    let Some(w) = by_name(bench) else { return unknown_benchmark(bench) };
    let ctx = ProgramContext::new(w.build());
    let sel = flags.strategy.selector(flags.targets).select(&ctx);
    let insts = flags.insts.unwrap_or(DEFAULT_TRACE_INSTS);
    let art = trace_selection(&sel, sim_config(flags), insts, flags.seed);
    let dir = flags.out.join("trace");
    let stem = format!("{}-{}", w.name, flags.strategy.label());
    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    let chrome_path = dir.join(format!("{stem}.chrome.json"));
    write_or_die(&jsonl_path, &art.jsonl);
    write_or_die(&chrome_path, &art.chrome);
    led_event(led, "cell", vec![("cell", Value::Str(stem.clone()))]);
    led_artifact(led, &jsonl_path);
    led_artifact(led, &chrome_path);
    println!(
        "── trace {} [{}] {} PUs {} ──",
        w.name,
        flags.strategy.label(),
        flags.pus,
        if flags.in_order { "in-order" } else { "out-of-order" }
    );
    println!("{}", art.stats);
    print!("{}", art.tables);
    println!("[event trace  -> {}]", jsonl_path.display());
    println!("[chrome trace -> {}]", chrome_path.display());
    0
}

/// Runs the given sweeps, printing each report and noting its
/// artifacts. The scheduler streams telemetry into a [`ProgressSink`]
/// (returned as the run record's footer snapshot) and, on a terminal,
/// a live progress line.
fn run_sweeps(
    specs: &[SweepSpec],
    flags: &Flags,
    led: &mut Option<RunLedger>,
) -> (i32, ProgressSnapshot) {
    let sink = ProgressSink::new(flags.jobs.max(1));
    let label = if specs.len() == 1 { specs[0].name() } else { "sweeps" };
    let line = ProgressLine::stderr(label, flags.quiet);
    let tick = || line.tick(&sink);
    // `--cache-dir` opts into the content-addressed cell cache; without
    // it every cell simulates.
    let cache = match &flags.cache_dir {
        Some(dir) => match CellCache::at(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("warning: cell cache at {} disabled: {e}", dir.display());
                None
            }
        },
        None => None,
    };
    let obs = SweepObserver { sink: &sink, on_tick: &tick, cache: cache.as_ref() };
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            println!();
        }
        match run_sweep(*spec, flags.jobs, &flags.out, &obs) {
            Ok(report) => {
                line.finish();
                print!("{}", report.text);
                println!(
                    "[{} cells -> {}/{}/*.json]",
                    report.cells,
                    flags.out.display(),
                    report.name
                );
                let dir = flags.out.join(report.name);
                for id in &report.cell_ids {
                    led_event(
                        led,
                        "cell",
                        vec![
                            ("sweep", Value::Str(report.name.to_string())),
                            ("cell", Value::Str(id.clone())),
                        ],
                    );
                    led_artifact(led, &dir.join(format!("{id}.json")));
                }
                led_artifact(led, &dir.join("report.md"));
            }
            Err(e) => {
                line.finish();
                eprintln!("error: sweep {}: {e}", spec.name());
                return (1, sink.snapshot());
            }
        }
    }
    line.finish();
    (0, sink.snapshot())
}

/// `run -- perf`: profile the canonical cells, write the
/// `BENCH_<gitshort>.json` trajectory point and the Chrome pipeline
/// view, and (with `--baseline`) gate against a previous document.
fn run_perf(flags: &Flags, led: &mut Option<RunLedger>) -> i32 {
    match perf_inner(flags, led) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    }
}

fn perf_inner(flags: &Flags, led: &mut Option<RunLedger>) -> Result<i32, String> {
    let opts = PerfOptions {
        reps: flags.reps,
        insts: flags.insts.unwrap_or(PerfOptions::default().insts),
    };
    let doc = perfcmd::run_perf(&opts);
    print!("{}", doc.summary);

    let bench_path = flags
        .bench_out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", perfcmd::git_short()).into());
    write_or_die(&bench_path, &(doc.json.clone() + "\n"));
    let chrome_path = flags.out.join("perf").join("pipeline.chrome.json");
    write_or_die(&chrome_path, &doc.chrome);
    println!("[perf doc     -> {}]", bench_path.display());
    println!("[chrome trace -> {}]", chrome_path.display());
    led_artifact(led, &bench_path);
    led_artifact(led, &chrome_path);

    let current = ms_prof::jsonv::parse(&doc.json).map_err(|e| format!("current perf doc: {e}"))?;
    if let Some(cells) = current.get("cells").and_then(Value::as_arr) {
        for cell in cells {
            if let (Some(id), Some(med)) = (
                cell.get("id").and_then(Value::as_str),
                cell.get("median_ns").and_then(Value::as_u64),
            ) {
                led_event(
                    led,
                    "cell",
                    vec![
                        ("cell", Value::Str(id.to_string())),
                        ("median_ns", Value::Num(med as f64)),
                    ],
                );
            }
        }
    }

    let Some(baseline_path) = &flags.baseline else { return Ok(0) };

    // `--baseline best`: auto-select the best-ever comparable baseline
    // (same machine fingerprint and instruction budget) among the
    // committed BENCH_*.json files in the current directory — skipping
    // the document this run just wrote.
    let (baseline, label) = if baseline_path.as_os_str() == "best" {
        let current_entry =
            BaselineEntry::from_doc(&current, "current").map_err(|e| e.to_string())?;
        let written = std::fs::canonicalize(&bench_path).ok();
        let candidates = historycmd::discover(Path::new(".")).map_err(|e| e.to_string())?;
        let mut entries = Vec::new();
        for path in candidates {
            if std::fs::canonicalize(&path).ok() == written && written.is_some() {
                continue;
            }
            let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {file}: {e}"))?;
            let doc = ms_prof::jsonv::parse(&text).map_err(|e| format!("{file}: {e}"))?;
            let entry = BaselineEntry::from_doc(&doc, &file).map_err(|e| e.to_string())?;
            entries.push((entry, text));
        }
        let best = historycmd::best_baseline(
            &entries.iter().map(|(e, _)| e.clone()).collect::<Vec<_>>(),
            &current_entry,
        )
        .cloned();
        let Some(best) = best else {
            println!(
                "no committed baseline comparable to this machine ({} @ {} insts); \
                 best-ever gate skipped",
                current_entry.fingerprint(),
                current_entry.insts
            );
            return Ok(0);
        };
        let text = &entries.iter().find(|(e, _)| e.file == best.file).expect("from entries").1;
        let doc = ms_prof::jsonv::parse(text).map_err(|e| format!("{}: {e}", best.file))?;
        (doc, format!("best-ever {} (git {})", best.file, best.git))
    } else {
        let baseline_text = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
        let doc = ms_prof::jsonv::parse(&baseline_text)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        (doc, baseline_path.display().to_string())
    };
    let cmp = perfcmd::compare(&baseline, &current, flags.max_regress, flags.noise_floor_ns)
        .map_err(|e| e.to_string())?;
    println!("── regression gate vs {label} ──");
    print!("{}", cmp.table);
    led_event(
        led,
        "gate",
        vec![
            ("baseline", Value::Str(label.clone())),
            ("regressions", Value::Num(cmp.regressions.len() as f64)),
        ],
    );
    if cmp.regressions.is_empty() {
        println!(
            "gate passed (threshold {:.1}%, noise floor {} ns)",
            flags.max_regress, flags.noise_floor_ns
        );
        Ok(0)
    } else if flags.no_gate {
        eprintln!(
            "(--no-gate: {} phase(s) regressed beyond {:.1}%, not gating)",
            cmp.regressions.len(),
            flags.max_regress
        );
        Ok(0)
    } else {
        eprintln!(
            "error: {} phase(s) regressed beyond {:.1}%",
            cmp.regressions.len(),
            flags.max_regress
        );
        Ok(1)
    }
}

/// `run -- perf-history <dir>`: the trajectory trend engine — stdout
/// trend table, `<out>/perf/history.html` + `history.json`, exit
/// non-zero on cumulative drift vs best-ever in any phase **or any
/// individual cell** (`--no-gate` reports without failing). See
/// `docs/PERF-HISTORY.md`.
fn run_perf_history(dir: &str, flags: &Flags, led: &mut Option<RunLedger>) -> i32 {
    let history = match historycmd::load_history(Path::new(dir)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    print!("{}", history.trend_table(flags.max_regress, flags.noise_floor_ns));
    let json_path = flags.out.join("perf").join("history.json");
    let html_path = flags.out.join("perf").join("history.html");
    write_or_die(&json_path, &(history.to_json(flags.max_regress, flags.noise_floor_ns) + "\n"));
    write_or_die(&html_path, &history.to_html(flags.max_regress, flags.noise_floor_ns));
    println!("[history json -> {}]", json_path.display());
    println!("[history html -> {}]", html_path.display());
    led_artifact(led, &json_path);
    led_artifact(led, &html_path);
    for e in &history.entries {
        led_event(
            led,
            "baseline",
            vec![
                ("git", Value::Str(e.git.clone())),
                ("file", Value::Str(e.file.clone())),
                ("cells_per_s", Value::Num(e.cells_per_s)),
            ],
        );
    }
    let drifts = history.cumulative_drift(flags.max_regress, flags.noise_floor_ns);
    let cell_drifts = history.cell_drift(flags.max_regress, flags.noise_floor_ns);
    if drifts.is_empty() && cell_drifts.is_empty() {
        println!(
            "trajectory gate passed (threshold {:.1}%, noise floor {} ns)",
            flags.max_regress, flags.noise_floor_ns
        );
        return 0;
    }
    for d in &drifts {
        eprintln!(
            "drift: {} is {:+.1}% over its best-ever {} ns (git {}) at {} ns",
            d.phase, d.pct, d.best_ns, d.best_git, d.latest_ns
        );
        led_event(
            led,
            "drift",
            vec![("phase", Value::Str(d.phase.clone())), ("pct", Value::Num(d.pct))],
        );
    }
    for d in &cell_drifts {
        eprintln!(
            "drift: cell {} is {:+.1}% over its best-ever {} ns (git {}) at {} ns \
             (aggregate passes; per-cell gate)",
            d.phase, d.pct, d.best_ns, d.best_git, d.latest_ns
        );
        led_event(
            led,
            "drift",
            vec![("cell", Value::Str(d.phase.clone())), ("pct", Value::Num(d.pct))],
        );
    }
    if flags.no_gate {
        eprintln!(
            "(--no-gate: {} drifted phase(s)/cell(s) reported, not gating)",
            drifts.len() + cell_drifts.len()
        );
        return 0;
    }
    eprintln!(
        "error: {} phase(s)/cell(s) drifted beyond {:.1}% of their best-ever baseline \
         (--no-gate to report without failing; docs/PERF-HISTORY.md)",
        drifts.len() + cell_drifts.len(),
        flags.max_regress
    );
    1
}

/// `run -- perf-validate <file>`: schema-check one perf or history
/// document, dispatching on the `format` field (`ms-perf` →
/// [`perfcmd::validate`], `ms-perf-history` →
/// [`historycmd::validate_history`]).
fn run_perf_validate(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return 2;
        }
    };
    let doc = match ms_prof::jsonv::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return 1;
        }
    };
    let is_history = doc.get("format").and_then(|f| f.as_str()) == Some(historycmd::HISTORY_FORMAT);
    let (checked, schema_version) = if is_history {
        (historycmd::validate_history(&doc), historycmd::HISTORY_SCHEMA_VERSION)
    } else {
        (perfcmd::validate(&doc), perfcmd::PERF_SCHEMA_VERSION)
    };
    if let Err(e) = checked {
        eprintln!("error: {path}: {e}");
        return 1;
    }
    let format = if is_history { historycmd::HISTORY_FORMAT } else { "ms-perf" };
    println!("{path}: valid {format} document (schema v{schema_version})");
    0
}

/// `run -- runs [show <id>]`: query the run ledger.
fn run_runs(positionals: &[String], flags: &Flags) -> i32 {
    let dir = runscmd::runs_dir();
    match positionals.get(1).map(String::as_str) {
        None => {
            print!("{}", runscmd::list_runs(&dir, flags.last, flags.cmd_filter.as_deref()));
            0
        }
        Some("show") => match positionals.get(2) {
            Some(id) => match runscmd::show_run(&dir, id) {
                Ok(text) => {
                    print!("{text}");
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    2
                }
            },
            None => {
                eprintln!("error: `runs show` needs a record id (see `run -- runs`)");
                2
            }
        },
        Some(other) => {
            eprintln!("error: unknown runs subcommand `{other}` (try `runs` or `runs show <id>`)");
            2
        }
    }
}

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let (positionals, flags) = match cli::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", cli::help_text());
            return 2;
        }
    };
    let cmd = positionals.first().map(String::as_str).unwrap_or("all");
    if cmd == "help" {
        print!("{}", cli::help_text());
        return 0;
    }
    if let Some(path) = &flags.file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return 2;
            }
        };
        let program = match ms_ir::parse_program(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return 2;
            }
        };
        run_one(path, program, &flags);
        return 0;
    }

    // Every artifact-producing subcommand leaves a run record; queries
    // (`list`, `runs`, validators) and ad-hoc single runs do not.
    let ledgered = matches!(cmd, "sweeps" | "perf" | "perf-history" | "trace" | "fuzz" | "gap")
        || SWEEP_NAMES.contains(&cmd);
    let mut led = if ledgered { open_ledger(cmd, &flags) } else { None };

    let mut progress = ProgressSnapshot::default();
    let code = match cmd {
        "list" => {
            print!("{}", cli::list_text());
            0
        }
        "policies" => {
            print!("{}", cli::policies_text());
            0
        }
        "runs" => run_runs(&positionals, &flags),
        "runs-validate" => {
            let (text, code) = runscmd::validate_runs(
                &runscmd::runs_dir(),
                positionals.get(1).map(String::as_str),
            );
            print!("{text}");
            code
        }
        "gap" => {
            let bench = positionals.get(1).map(String::as_str).unwrap_or("compress");
            run_gap(bench, &flags, &mut led)
        }
        "fuzz" => run_fuzz(&flags, &mut led),
        "perf" => run_perf(&flags, &mut led),
        "perf-validate" => match positionals.get(1) {
            Some(path) => run_perf_validate(path),
            None => {
                eprintln!("error: perf-validate needs a file (see `run -- help`)");
                2
            }
        },
        "perf-history" => {
            let dir = positionals.get(1).map(String::as_str).unwrap_or(".");
            run_perf_history(dir, &flags, &mut led)
        }
        "trace" => {
            let bench = positionals.get(1).map(String::as_str).unwrap_or("compress");
            run_trace(bench, &flags, &mut led)
        }
        "sweeps" => {
            let (code, snap) = run_sweeps(&SweepSpec::ALL, &flags, &mut led);
            progress = snap;
            code
        }
        name if SWEEP_NAMES.contains(&name) => {
            let spec = SweepSpec::parse(name).expect("name is in SWEEP_NAMES");
            let (code, snap) = run_sweeps(&[spec], &flags, &mut led);
            progress = snap;
            code
        }
        "all" => {
            for w in suite() {
                run_one(w.name, w.build(), &flags);
            }
            0
        }
        name => match by_name(name) {
            Some(w) => {
                run_one(w.name, w.build(), &flags);
                0
            }
            None => unknown_benchmark(name),
        },
    };

    if let Some(ledger) = led.take() {
        let outcome = if code == 0 { "ok" } else { "failed" };
        match ledger.close(outcome, code, &progress) {
            Ok(path) => println!("[run record   -> {}]", path.display()),
            Err(e) => eprintln!("warning: run record not closed: {e}"),
        }
    }
    code
}
