//! `ms-benchmark`: the end-to-end and per-layer benchmark of the `run`
//! CLI. See `README.md` for the workloads, metrics and outputs.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 0x5eed
//! cargo run --release --manifest-path benchmark/Cargo.toml -- measure \
//!     --workload grids --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path benchmark/Cargo.toml -- agree A.json B.json
//! cargo run --release --manifest-path benchmark/Cargo.toml -- bless
//! ```

mod probe;
mod procfs;
mod replay;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ms_bench::json::JsonObj;
use ms_prof::jsonv::{self, Value};

use replay::{layer_metrics, model_counts, replay, Metric, ModelCount, Round};
use stats::Summary;
use workload::{bench_dir, Env, Runner, Sample, Workload, FULL, SMOKE};

/// Samples per workload of `run`.
const SAMPLES: usize = 20;

/// The share of `replay.total_ms` that layer self times must cover.
const MIN_COVERAGE_PCT: f64 = 95.0;

/// One end-to-end metric, measured per sample with tracing off; a run
/// reports the median over its samples.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// The share of the parent's median by which the metric may worsen.
    bound: f64,
    value: fn(&Sample) -> f64,
}

const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "wall_s", unit: "s", better: "lower", bound: 0.25, value: |s| s.wall_s },
    EndToEnd { name: "cpu_s", unit: "s", better: "lower", bound: 0.25, value: |s| s.cpu_s },
    EndToEnd {
        name: "cells_per_s",
        unit: "cells/s",
        better: "higher",
        bound: 0.25,
        value: |s| s.cells_per_s,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        value: |s| s.peak_rss_mb,
    },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25, value: |s| s.setup_s },
];

#[derive(Debug)]
struct Opts {
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: PathBuf,
    workload: Option<Workload>,
    positional: Vec<String>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("`{s}`: {e}"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        seed: ms_bench::DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        out: bench_dir().join("out"),
        workload: None,
        positional: Vec::new(),
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => o.seed = parse_u64(&value()?)?,
            "--seconds" => {
                let v = value()?;
                o.seconds = Some(v.parse().map_err(|e| format!("--seconds `{v}`: {e}"))?);
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--workload" => {
                let v = value()?;
                o.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => o.positional.push(arg),
        }
    }
    Ok(o)
}

const USAGE: &str = "usage: ms-benchmark run [--seed S] [--smoke] [--out DIR]
       ms-benchmark measure --workload W --seed S --seconds T --trace 0|1
       ms-benchmark agree A.json B.json
       ms-benchmark bless";

fn main() {
    let code = match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<i32, String> {
    let o = parse_args(std::env::args().skip(1))?;
    let cmd = o.positional.first().map(String::as_str);
    match cmd {
        Some("run") => cmd_run(&o),
        Some("measure") => cmd_measure(&o),
        Some("agree") => match &o.positional[1..] {
            [a, b] => cmd_agree(Path::new(a), Path::new(b)),
            _ => Err(format!("agree needs two result files\n{USAGE}")),
        },
        Some("bless") => cmd_bless(&o),
        _ => Err(USAGE.to_string()),
    }
}

/// What the traced replay found.
struct Replayed {
    /// Per workload, each layer metric's median over its rounds.
    layers: Vec<Vec<Metric>>,
    /// Per workload, the model counts (the same in every round).
    model: Vec<Vec<ModelCount>>,
    ops: u64,
    /// Replayed outputs that differ from the untraced ones.
    mismatches: u64,
    /// Layer self times covered at least [`MIN_COVERAGE_PCT`] of every round.
    covered: bool,
}

/// Replays each sampled workload from what its runner kept, once and
/// then again until `until` has passed, and writes the spans.
fn traced_replay(
    env: &Env,
    runs: &[(&Runner, &Sample)],
    until: Instant,
) -> Result<Replayed, String> {
    let epoch = Instant::now();
    let (mut jsonl, mut events) = (String::new(), Vec::new());
    let mut r =
        Replayed { layers: Vec::new(), model: Vec::new(), ops: 0, mismatches: 0, covered: true };
    for (tid, (runner, untraced)) in runs.iter().enumerate() {
        let mut rounds: Vec<Vec<Metric>> = Vec::new();
        while rounds.is_empty() || Instant::now() < until {
            let round: Round = replay(runner.w, &runner.kept, env.sizes, env.seed, epoch)?;
            spans::jsonl(runner.w.name(), rounds.len(), &round.tracer, &mut jsonl);
            spans::chrome_events(runner.w.name(), tid, &round.tracer, &mut events);
            r.ops += round.counts.ops;
            r.mismatches += round.counts.mismatches;
            if rounds.is_empty() {
                r.model.push(model_counts(runner.w, &round));
            }
            let metrics = layer_metrics(runner.w, &round, untraced);
            let coverage =
                metrics.iter().find(|m| m.name == "replay.coverage_pct").map(|m| m.value);
            if coverage.is_some_and(|c| c < MIN_COVERAGE_PCT) {
                eprintln!(
                    "error: {} layer self times cover {coverage:?}% of the replay",
                    runner.w.name()
                );
                r.covered = false;
            }
            rounds.push(metrics);
        }
        let mut medians = rounds[0].clone();
        for (i, m) in medians.iter_mut().enumerate() {
            m.value = stats::median(&rounds.iter().map(|r| r[i].value).collect::<Vec<_>>());
        }
        r.layers.push(medians);
    }
    let write = |name: &str, text: String| {
        let path = env.out.join(name);
        fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("spans.jsonl", jsonl)?;
    write("spans.chrome.json", format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")))?;
    Ok(r)
}

/// `measure`: one workload for `--seconds`, printing the result as one
/// JSON line: end-to-end metrics (`--trace 0`) or per-layer ones.
fn cmd_measure(o: &Opts) -> Result<i32, String> {
    let w = o.workload.ok_or(format!("measure needs --workload\n{USAGE}"))?;
    let seconds = o.seconds.ok_or(format!("measure needs --seconds\n{USAGE}"))?;
    let trace = o.trace.ok_or(format!("measure needs --trace\n{USAGE}"))?;
    if o.smoke {
        return Err(format!("measure runs full sizes only; --smoke is for run\n{USAGE}"));
    }
    let env = Env::prepare(&o.out, o.seed, FULL)?;
    let mut runner = Runner::new(&env, w)?;
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = vec![runner.sample()?];
    let metrics: Vec<(&str, &str, f64)>;
    let (mut attempted, mut failed) = (samples[0].attempted, samples[0].failed);
    let mut correct = true;
    if trace {
        let r = traced_replay(&env, &[(&runner, &samples[0])], until)?;
        attempted += r.ops;
        failed += r.mismatches;
        correct = r.covered;
        metrics = r.layers[0].iter().map(|m| (m.name, m.unit, m.value)).collect();
    } else {
        while Instant::now() < until {
            let s = runner.sample()?;
            attempted += s.attempted;
            failed += s.failed;
            samples.push(s);
        }
        metrics = END_TO_END
            .iter()
            .map(|m| {
                let values: Vec<f64> = samples.iter().map(m.value).collect();
                (m.name, m.unit, stats::median(&values))
            })
            .collect();
    }
    correct &= failed == 0;
    let mut obj = JsonObj::new();
    for (name, unit, value) in metrics {
        obj.raw(name, &JsonObj::new().num_f64("value", value).str("unit", unit).finish());
    }
    let mut line = JsonObj::new();
    line.bool("correct", correct)
        .num_u64("attempted", attempted)
        .num_u64("failed", failed)
        .raw("metrics", &obj.finish());
    println!("{}", line.finish());
    Ok(if correct { 0 } else { 1 })
}

/// `run`: every workload, samples interleaved round-robin, then the
/// traced replay; prints both tables and writes `<out>/result.json`.
fn cmd_run(o: &Opts) -> Result<i32, String> {
    let n = if o.smoke { 1 } else { SAMPLES };
    let started = Instant::now();
    let env = Env::prepare(&o.out, o.seed, if o.smoke { SMOKE } else { FULL })?;
    let mut runners: Vec<Runner> =
        Workload::ALL.iter().map(|&w| Runner::new(&env, w)).collect::<Result<_, _>>()?;
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); runners.len()];
    for i in 0..n {
        for (runner, samples) in runners.iter_mut().zip(&mut samples) {
            let s = runner.sample()?;
            eprintln!(
                "[{}/{n}] {:<10} wall {:.3} s  setup {:.3} s  host {:.0} ns/step",
                i + 1,
                runner.w.name(),
                s.wall_s,
                s.setup_s,
                s.host_ns_per_step
            );
            samples.push(s);
        }
    }
    let last: Vec<(&Runner, &Sample)> =
        runners.iter().zip(&samples).map(|(r, s)| (r, s.last().expect("n >= 1"))).collect();
    let Replayed { layers, model, mismatches, covered, .. } =
        traced_replay(&env, &last, Instant::now())?;

    let mut text = format!(
        "── end to end: seed {:#x}, {n} sample(s) per workload, closed loop, 1 client, --jobs {}, \
         timings at {} ns/step ──\n",
        o.seed,
        workload::JOBS,
        probe::REF_NS_PER_STEP
    );
    let _ = writeln!(
        text,
        "{:<11} {:<12} {:<8} {:>12} {:>12} {:>12} {:>4} {:>6}",
        "workload", "metric", "unit", "median", "q1", "q3", "n", "bound"
    );
    let mut doc = Vec::new();
    let mut failed_any = mismatches > 0 || !covered;
    for (((runner, samples), layers), model) in
        runners.iter().zip(&samples).zip(&layers).zip(&model)
    {
        let (attempted, failed): (u64, u64) =
            samples.iter().fold((0, 0), |(a, f), s| (a + s.attempted, f + s.failed));
        failed_any |= failed > 0;
        let mut e2e = JsonObj::new();
        for m in &END_TO_END {
            let values: Vec<f64> = samples.iter().map(m.value).collect();
            let s = Summary::of(&values);
            let _ = writeln!(
                text,
                "{:<11} {:<12} {:<8} {:>12.4} {:>12.4} {:>12.4} {:>4} {:>5.0}%",
                runner.w.name(),
                m.name,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.n,
                m.bound * 100.0
            );
            e2e.raw(m.name, &summary_json(m, &s, &values));
        }
        let frac = failed as f64 / attempted.max(1) as f64;
        let _ =
            writeln!(text, "{:<11} failed_frac  {failed}/{attempted} = {frac}", runner.w.name());
        let mut lay = JsonObj::new();
        for m in layers {
            lay.raw(m.name, &JsonObj::new().str("unit", m.unit).num_f64("value", m.value).finish());
        }
        let mut counts = JsonObj::new();
        for m in model {
            counts.num_f64(m.name, m.value);
        }
        let mut wj = JsonObj::new();
        wj.str("name", runner.w.name())
            .num_u64("attempted", attempted)
            .num_u64("failed", failed)
            .num_f64("failed_frac", frac)
            .raw("end_to_end", &e2e.finish())
            .raw("layers", &lay.finish())
            .raw("model", &counts.finish());
        doc.push(wj.finish());
    }
    text.push_str("\n── per layer: traced replay (single-threaded, span self times) ──\n");
    let _ = write!(text, "{:<28} {:<8}", "metric", "unit");
    for r in &runners {
        let _ = write!(text, " {:>14}", r.w.name());
    }
    text.push('\n');
    for (i, m) in layers[0].iter().enumerate() {
        let _ = write!(text, "{:<28} {:<8}", m.name, m.unit);
        for l in &layers {
            let _ = write!(text, " {:>14.4}", l[i].value);
        }
        text.push('\n');
    }
    text.push_str("\n── model counts: exact, from the replayed outputs; a speed-only change leaves them equal ──\n");
    let _ = write!(text, "{:<28} {:<8}", "count", "unit");
    for r in &runners {
        let _ = write!(text, " {:>14}", r.w.name());
    }
    text.push('\n');
    let names = model.iter().find(|m| !m.is_empty()).map_or(&[][..], Vec::as_slice);
    for (i, c) in names.iter().enumerate() {
        let _ = write!(text, "{:<28} {:<8}", c.name, c.unit);
        for m in &model {
            let value = match m.get(i) {
                Some(c) if c.unit == "ratio" => format!("{:.6}", c.value),
                Some(c) => c.value.to_string(),
                None => "-".to_string(),
            };
            let _ = write!(text, " {value:>14}");
        }
        text.push('\n');
    }
    let _ = writeln!(
        text,
        "\nreplayed outputs differing from the untraced run: {mismatches}; total {:.1} s",
        started.elapsed().as_secs_f64()
    );
    print!("{text}");

    let mut result = JsonObj::new();
    result
        .str("format", "ms-benchmark-result")
        .num_u64("schema_version", 1)
        .num_u64("seed", o.seed)
        .bool("smoke", o.smoke)
        .raw("workloads", &format!("[{}]", doc.join(",")));
    let path = env.out.join("result.json");
    fs::write(&path, result.finish() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("[result -> {}]", path.display());
    Ok(if failed_any { 1 } else { 0 })
}

fn summary_json(m: &EndToEnd, s: &Summary, values: &[f64]) -> String {
    let mut o = JsonObj::new();
    o.str("unit", m.unit)
        .str("better", m.better)
        .num_f64("bound", m.bound)
        .num_f64("median", s.median)
        .num_f64("q1", s.q1)
        .num_f64("q3", s.q3)
        .num_u64("n", s.n as u64);
    if let Some((p, v)) = s.tail {
        o.num_u64("tail_pct", p as u64).num_f64("tail", v);
    }
    let values: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    o.raw("samples", &format!("[{}]", values.join(",")));
    o.finish()
}

/// `bless`: regenerates the committed digests from one run of `grids`
/// and one of `long_trace` at the default seed.
fn cmd_bless(o: &Opts) -> Result<i32, String> {
    let env = Env::prepare(&o.out, ms_bench::DEFAULT_SEED, FULL)?;
    for (w, file) in [(Workload::Grids, "grids.txt"), (Workload::LongTrace, "long_trace.txt")] {
        let mut runner = Runner::with_reference(&env, w, None);
        let s = runner.sample()?;
        if s.failed > 0 {
            return Err(format!("{}: {} operation(s) failed; not blessing", w.name(), s.failed));
        }
        let digests = runner.reference().ok_or(format!("{}: no outputs", w.name()))?;
        let path = bench_dir().join("expected").join(file);
        workload::write_digests(&path, digests)?;
        println!("{} digests -> {}", digests.len(), path.display());
    }
    Ok(0)
}

/// `agree A B`: does every end-to-end median of B lie within its bound
/// of A's, and is every model count the same? A metric whose quartile
/// spread exceeds its bound in either file is unresolved: it neither
/// agrees nor disagrees, and it fails the command like a disagreement.
fn cmd_agree(a: &Path, b: &Path) -> Result<i32, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        jsonv::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (da, db) = (load(a)?, load(b)?);
    let workloads = |d: &Value| d.get("workloads").and_then(Value::as_arr).map(<[Value]>::to_vec);
    let (wa, wb) =
        (workloads(&da).ok_or("A has no workloads")?, workloads(&db).ok_or("B has no workloads")?);
    println!(
        "{:<11} {:<12} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let (mut disagree, mut unresolved) = (0, 0);
    for x in &wa {
        let name = x.get("name").and_then(Value::as_str).ok_or("workload without a name")?;
        let y = wb.iter().find(|y| y.get("name").and_then(Value::as_str) == Some(name));
        let Some(y) = y else {
            println!("{name:<11} (missing from B)  DISAGREE");
            disagree += 1;
            continue;
        };
        let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64);
        for m in &END_TO_END {
            let get = |v: &Value| v.get("end_to_end").and_then(|e| e.get(m.name)).cloned();
            let (Some(ma), Some(mb)) = (get(x), get(y)) else {
                println!("{name:<11} {:<12} (missing)  DISAGREE", m.name);
                disagree += 1;
                continue;
            };
            let stat = |v: &Value| -> Option<Summary> {
                let (median, q1, q3) = (num(v, "median")?, num(v, "q1")?, num(v, "q3")?);
                Some(Summary { median, q1, q3, n: 0, tail: None })
            };
            let (Some(sa), Some(sb)) = (stat(&ma), stat(&mb)) else {
                return Err(format!("{name}/{}: median or quartiles missing", m.name));
            };
            let bound = num(&ma, "bound").unwrap_or(m.bound);
            let change = (sb.median - sa.median) / sa.median;
            let spread = sa.spread().max(sb.spread());
            let verdict = if spread > bound {
                unresolved += 1;
                "unresolved"
            } else if change.abs() <= bound {
                "agree"
            } else {
                disagree += 1;
                "DISAGREE"
            };
            println!(
                "{name:<11} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>6.0}%  {verdict}",
                m.name,
                sa.median,
                sb.median,
                100.0 * change,
                100.0 * spread,
                100.0 * bound
            );
        }
        let (fa, fb) = (num(x, "failed_frac"), num(y, "failed_frac"));
        let verdict = if fa == fb && fa.is_some() {
            "agree"
        } else {
            disagree += 1;
            "DISAGREE"
        };
        println!("{name:<11} failed_frac  {fa:?} vs {fb:?} (bound 0 absolute)  {verdict}");
        let verdict = if x.get("model") == y.get("model") {
            "agree"
        } else {
            disagree += 1;
            "DISAGREE"
        };
        println!("{name:<11} model counts (exact)  {verdict}");
    }
    println!("{disagree} disagreement(s), {unresolved} unresolved");
    Ok(if disagree + unresolved == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root describes exactly the
    /// metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = bench_dir().parent().unwrap().join("BENCHMARK.json");
        let doc = jsonv::parse(&fs::read_to_string(path).unwrap()).unwrap();
        let list = |k: &str| doc.get(k).and_then(Value::as_arr).unwrap().to_vec();
        let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let names: Vec<String> = list("workloads").iter().map(|w| s(w, "name")).collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (s(v, "name"), s(v, "unit"), s(v, "better")),
                (m.name.into(), m.unit.into(), m.better.into())
            );
            assert_eq!(v.get("bound").and_then(Value::as_f64), Some(m.bound));
        }

        let round = Round {
            tracer: spans::Tracer::new(Instant::now()),
            wall_ns: 0,
            counts: replay::Counts::default(),
        };
        let layers = layer_metrics(Workload::Grids, &round, &Sample::default());
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), layers.len());
        for (v, m) in per_layer.iter().zip(&layers) {
            assert_eq!(
                (s(v, "name"), s(v, "unit"), s(v, "better")),
                (m.name.into(), m.unit.into(), m.better.into())
            );
        }
    }

    #[test]
    fn args_parse_seeds_in_hex_and_decimal() {
        let o = parse_args(
            [
                "measure",
                "--workload",
                "fuzz",
                "--seed",
                "0x5eed",
                "--seconds",
                "2.5",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.workload),
            (0x5eed, Some(2.5), Some(true), Some(Workload::Fuzz))
        );
        assert_eq!(parse_args(["--seed", "17"].map(String::from).into_iter()).unwrap().seed, 17);
        assert!(parse_args(["--trace", "2"].map(String::from).into_iter()).is_err());
        assert!(parse_args(["--workload", "nope"].map(String::from).into_iter()).is_err());
        assert!(parse_args(["--frob"].map(String::from).into_iter()).is_err());
    }
}
