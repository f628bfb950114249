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
//! uncached run. The sweep ends with a `[cell cache   -> H hits, M
//! misses]` line counting distinct cells:
//!
//! ```text
//! cargo run -p ms-bench --release --bin run -- sweeps --cache-dir target/experiments/cellcache
//! ```
//!
//! All flags live in `ms_bench::cli` and are shared across subcommands
//! (`--out DIR`, `--jobs N`, `--strategy`, `--reps`, …).

use std::path::Path;

use ms_analysis::ProgramContext;
use ms_bench::cache::CellCache;
use ms_bench::cli::{self, Flags};
use ms_bench::fuzzcmd;
use ms_bench::gapcmd::{self, GapOptions};
use ms_bench::perfcmd::{self, PerfOptions};
use ms_bench::sweeps::{run_suite, SweepSpec};
use ms_bench::tracecmd::trace_selection;
use ms_bench::{run_selection, BenchError, DEFAULT_TRACE_INSTS};
use ms_conform::FuzzParams;
use ms_ir::Program;
use ms_sim::SimConfig;
use ms_tasksel::closest;
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
fn run_fuzz(flags: &Flags) -> i32 {
    let params = FuzzParams {
        max_blocks: flags.max_blocks,
        insts: flags.insts.unwrap_or(FuzzParams::default().insts),
        inject: flags.inject,
    };
    let report = fuzzcmd::run_fuzz(flags.seeds, flags.seed, &params, flags.jobs, &flags.out);
    for (path, body) in &report.artifacts {
        write_or_die(path, body);
    }
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
fn run_gap(bench: &str, flags: &Flags) -> i32 {
    let opts = GapOptions {
        targets: flags.targets,
        oracle_max_blocks: flags.oracle_max_blocks,
        insts: flags.insts.unwrap_or(DEFAULT_TRACE_INSTS),
        seed: flags.seed,
        config: sim_config(flags),
    };
    let one = |w: &ms_workloads::Workload| print!("{}", gapcmd::run_gap(w, &opts).text);
    if bench == "all" {
        for (i, w) in suite().iter().enumerate() {
            if i > 0 {
                println!();
            }
            one(w);
        }
        return 0;
    }
    let Some(w) = by_name(bench) else { return unknown_benchmark(bench) };
    one(&w);
    0
}

/// Runs one traced simulation (`run -- trace <workload>`): prints the
/// attribution tables and writes the JSONL + Chrome trace artifacts under
/// `<out>/trace/`.
fn run_trace(bench: &str, flags: &Flags) -> i32 {
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
/// notes its artifacts in `specs` order. With `--cache-dir`, a last
/// line counts the cell cache's hits and misses (distinct cells).
fn run_sweeps(specs: &[SweepSpec], flags: &Flags) -> i32 {
    let label = if specs.len() == 1 { specs[0].name() } else { "sweeps" };
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
    let reports = match run_suite(specs, flags.jobs, &flags.out, cache.as_ref()) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("error: {label}: {e}");
            return 1;
        }
    };
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", report.text);
        println!("[{} cells -> {}/{}/*.json]", report.cells, flags.out.display(), report.name);
    }
    if let Some(cache) = &cache {
        println!("[cell cache   -> {} hits, {} misses]", cache.hits(), cache.misses());
    }
    0
}

/// `run -- perf`: profile the canonical cells, print the phase/cell
/// tables, and write the Chrome pipeline view.
fn run_perf(flags: &Flags) -> i32 {
    let opts = PerfOptions {
        reps: flags.reps,
        insts: flags.insts.unwrap_or(PerfOptions::default().insts),
    };
    let doc = perfcmd::run_perf(&opts);
    print!("{}", doc.summary);
    let chrome_path = flags.out.join("perf").join("pipeline.chrome.json");
    write_or_die(&chrome_path, &doc.chrome);
    println!("[chrome trace -> {}]", chrome_path.display());
    0
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

    let sweep = SweepSpec::parse(cmd).ok();
    match cmd {
        "list" => {
            print!("{}", cli::list_text());
            0
        }
        "policies" => {
            print!("{}", cli::policies_text());
            0
        }
        "gap" => {
            let bench = positionals.get(1).map(String::as_str).unwrap_or("compress");
            run_gap(bench, &flags)
        }
        "fuzz" => run_fuzz(&flags),
        "perf" => run_perf(&flags),
        "trace" => {
            let bench = positionals.get(1).map(String::as_str).unwrap_or("compress");
            run_trace(bench, &flags)
        }
        "sweeps" => run_sweeps(&SweepSpec::ALL, &flags),
        _ if sweep.is_some() => run_sweeps(sweep.as_slice(), &flags),
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
    }
}
