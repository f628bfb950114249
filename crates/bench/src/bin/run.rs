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
//! Perf mode (pipeline self-profiling — see `docs/PROFILING.md`):
//!
//! ```text
//! cargo run -p ms-bench --release --bin run -- perf
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
//! trace / fuzz / gap invocation appends a structured JSONL run record
//! under `target/experiments/runs/`, and the sweep scheduler renders a
//! live stderr progress line on a terminal
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
use ms_bench::perfcmd::{self, PerfOptions};
use ms_bench::progress::{ProgressLine, SweepObserver};
use ms_bench::runscmd;
use ms_bench::sweeps::{run_suite, SweepSpec};
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
    vec![
        ("strategy".to_string(), flags.strategy.label().to_string()),
        ("pus".to_string(), flags.pus.to_string()),
        ("in_order".to_string(), flags.in_order.to_string()),
        ("dead_reg".to_string(), flags.dead_reg.to_string()),
        ("targets".to_string(), flags.targets.to_string()),
        ("insts".to_string(), flags.insts.map_or("default".to_string(), |i| i.to_string())),
        ("seed".to_string(), format!("{:#x}", flags.seed)),
        ("jobs".to_string(), flags.jobs.to_string()),
        ("out".to_string(), flags.out.display().to_string()),
    ]
}

/// Opens the run record for a ledgered subcommand. A ledger that cannot
/// open degrades to a warning — telemetry must never fail the science.
fn open_ledger(cmd: &str, flags: &Flags) -> Option<RunLedger> {
    let meta = RunMeta {
        cmd: cmd.to_string(),
        argv: std::env::args().skip(1).collect(),
        git: git_short(),
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

/// The repository's short commit hash, or `nogit` outside a checkout.
fn git_short() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric()))
        .unwrap_or_else(|| "nogit".to_string())
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
    if let Some(s) = closest(name, &SweepSpec::ALL.map(SweepSpec::name)) {
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

/// Runs the given sweeps as one suite, then prints each report and
/// notes its artifacts in `specs` order. The scheduler streams
/// telemetry into a [`ProgressSink`] (returned as the run record's
/// footer snapshot) and, on a terminal, a live progress line.
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
    let result = run_suite(specs, flags.jobs, &flags.out, &obs);
    line.finish();
    let reports = match result {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("error: {label}: {e}");
            return (1, sink.snapshot());
        }
    };
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", report.text);
        println!("[{} cells -> {}/{}/*.json]", report.cells, flags.out.display(), report.name);
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
    (0, sink.snapshot())
}

/// `run -- perf`: profile the canonical cells, print the phase/cell
/// tables, write the Chrome pipeline view, and record one ledger `cell`
/// event per cell.
fn run_perf(flags: &Flags, led: &mut Option<RunLedger>) -> i32 {
    let opts = PerfOptions {
        reps: flags.reps,
        insts: flags.insts.unwrap_or(PerfOptions::default().insts),
    };
    let doc = perfcmd::run_perf(&opts);
    print!("{}", doc.summary);
    let chrome_path = flags.out.join("perf").join("pipeline.chrome.json");
    write_or_die(&chrome_path, &doc.chrome);
    println!("[chrome trace -> {}]", chrome_path.display());
    led_artifact(led, &chrome_path);
    for (id, median_ns) in &doc.cells {
        led_event(
            led,
            "cell",
            vec![("cell", Value::Str(id.clone())), ("median_ns", Value::Num(*median_ns as f64))],
        );
    }
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
    let sweep = SweepSpec::parse(cmd).ok();
    let ledgered = matches!(cmd, "sweeps" | "perf" | "trace" | "fuzz" | "gap") || sweep.is_some();
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
        "trace" => {
            let bench = positionals.get(1).map(String::as_str).unwrap_or("compress");
            run_trace(bench, &flags, &mut led)
        }
        "sweeps" => {
            let (code, snap) = run_sweeps(&SweepSpec::ALL, &flags, &mut led);
            progress = snap;
            code
        }
        _ if sweep.is_some() => {
            let (code, snap) = run_sweeps(sweep.as_slice(), &flags, &mut led);
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
