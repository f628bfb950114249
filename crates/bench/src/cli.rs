//! The one declarative CLI every `run` subcommand shares.
//!
//! Historically the sweep, trace and single-run paths each interpreted
//! their flags inline; later a shared parser owned the vocabulary but
//! still spelled every flag twice (once in the `match`, once in the
//! hand-written help). This module finishes the unification: the
//! complete flag vocabulary is one table of [`FlagSpec`]s (spelling,
//! metavar, help group, default, apply function) and the subcommand
//! registry is one table of [`SubcommandSpec`]s — the parser, `run --
//! help`, and the nearest-match suggestions are all generated from
//! them, so a flag or subcommand can never exist without appearing in
//! the help (pinned by `tests/cli_golden.rs`).

use std::path::PathBuf;

use crate::error::BenchError;
use crate::perfcmd::DEFAULT_PERF_REPS;
use crate::sweeps::SweepSpec;
use ms_tasksel::{closest, SelectError, Strategy};

/// Every flag any `run` subcommand accepts, with its default. Flags
/// meaningless to a given subcommand are accepted and ignored (so
/// wrapper scripts can pass one flag set everywhere).
#[derive(Debug, Clone)]
pub struct Flags {
    /// `--strategy bb|cf|dd|ts|cost|oracle` (default cf).
    pub strategy: Strategy,
    /// `--pus N` (default 4).
    pub pus: usize,
    /// `--in-order`.
    pub in_order: bool,
    /// `--insts N`; `None` lets each subcommand pick its default
    /// (100 000 for single runs and traces, the sweep budget for perf).
    pub insts: Option<usize>,
    /// `--seed N`, decimal or `0x`-prefixed hex (default
    /// [`crate::DEFAULT_SEED`]).
    pub seed: u64,
    /// `--targets N` (default 4).
    pub targets: usize,
    /// `--no-dead-reg` clears this (default true).
    pub dead_reg: bool,
    /// `--json` (single-run machine-readable output).
    pub json: bool,
    /// `--file path.msir` (run a textual-IR program).
    pub file: Option<String>,
    /// `--dump-ir`.
    pub dump_ir: bool,
    /// `--jobs N` (default: available cores).
    pub jobs: usize,
    /// `--out DIR` (default `target/experiments`).
    pub out: PathBuf,
    /// `--reps N`: timed repetitions for `perf` (default
    /// [`DEFAULT_PERF_REPS`]).
    pub reps: usize,
    /// `--seeds N`: fuzz cases for `fuzz` (default
    /// [`DEFAULT_FUZZ_SEEDS`]).
    pub seeds: u64,
    /// `--max-blocks N`: generated-program size cap for `fuzz`.
    pub max_blocks: usize,
    /// `--inject`: enable the engine's test-only fault injection so the
    /// fuzz loop demonstrably fails (a self-test of the harness).
    pub inject: bool,
    /// `--oracle-max-blocks N`: largest function (reachable blocks) the
    /// `oracle` policy and `gap` subcommand partition exactly (default
    /// [`ms_tasksel::DEFAULT_ORACLE_MAX_BLOCKS`]).
    pub oracle_max_blocks: usize,
    /// `--cache-dir DIR`: the content-addressed cell cache; sweeps run
    /// uncached unless this is given.
    pub cache_dir: Option<PathBuf>,
}

/// Default fuzz cases per `run -- fuzz` sweep.
pub const DEFAULT_FUZZ_SEEDS: u64 = 100;

impl Default for Flags {
    fn default() -> Self {
        Flags {
            strategy: Strategy::ControlFlow,
            pus: 4,
            in_order: false,
            insts: None,
            seed: crate::DEFAULT_SEED,
            targets: 4,
            dead_reg: true,
            json: false,
            file: None,
            dump_ir: false,
            jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            out: PathBuf::from("target/experiments"),
            reps: DEFAULT_PERF_REPS,
            seeds: DEFAULT_FUZZ_SEEDS,
            max_blocks: ms_conform::FuzzParams::default().max_blocks,
            inject: false,
            oracle_max_blocks: ms_tasksel::DEFAULT_ORACLE_MAX_BLOCKS,
            cache_dir: None,
        }
    }
}

// ----------------------------------------------------------- flag table

/// Which `run -- help` section a flag renders under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagGroup {
    /// Accepted by every subcommand.
    Shared,
    /// Ad-hoc single runs (`run -- <benchmark>`).
    SingleRun,
    /// Pipeline self-profiling (`perf`).
    Perf,
    /// The differential conformance fuzz loop.
    Fuzz,
    /// The heuristic-vs-oracle gap table.
    Gap,
}

impl FlagGroup {
    fn title(self) -> &'static str {
        match self {
            FlagGroup::Shared => "shared flags",
            FlagGroup::SingleRun => "single-run flags",
            FlagGroup::Perf => "perf flags",
            FlagGroup::Fuzz => "fuzz flags",
            FlagGroup::Gap => "gap flags",
        }
    }

    const ORDER: [FlagGroup; 5] =
        [FlagGroup::Shared, FlagGroup::SingleRun, FlagGroup::Perf, FlagGroup::Fuzz, FlagGroup::Gap];
}

/// How a flag consumes arguments and lands in [`Flags`].
enum Apply {
    /// A bare switch.
    Switch(fn(&mut Flags)),
    /// Consumes the following argument as the flag's value.
    Value(fn(&mut Flags, String) -> Result<(), BenchError>),
}

/// One flag the parser accepts — spelling, value metavar (`None` for a
/// bare switch), help group and line, optional rendered default, and
/// the function that applies it. The parser and `help_text` both read
/// [`FLAGS`], so the vocabulary cannot drift from its documentation.
pub struct FlagSpec {
    /// The flag's spelling, `--` included.
    pub name: &'static str,
    /// Value metavar (`DIR`, `N`, …); `None` for a bare switch.
    pub metavar: Option<&'static str>,
    /// The help section the flag renders under.
    pub group: FlagGroup,
    /// One help line; `{strategies}` renders as the `|`-joined
    /// [`Strategy::extended`] labels.
    pub help: &'static str,
    /// Rendered as ` (default …)` in the help, computed because some
    /// defaults are runtime values (core count) or library constants.
    pub default: Option<fn() -> String>,
    apply: Apply,
}

fn p<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, BenchError>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| BenchError::Usage(format!("{name}: {e}")))
}

/// Parses a seed: decimal, or hex with a `0x` prefix (the form `run --
/// help` and the fuzz loop's `FAIL seed` lines print).
fn parse_seed(v: &str) -> Result<u64, BenchError> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16)
            .map_err(|e| BenchError::Usage(format!("--seed: `{v}`: {e}"))),
        None => p("--seed", v),
    }
}

fn at_least_one(name: &str, v: u64) -> Result<(), BenchError> {
    if v == 0 {
        return Err(BenchError::Usage(format!("{name} must be at least 1")));
    }
    Ok(())
}

/// The complete flag vocabulary, in help order within each group.
pub static FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--out",
        metavar: Some("DIR"),
        group: FlagGroup::Shared,
        help: "artifact root directory",
        default: Some(|| "target/experiments".to_string()),
        apply: Apply::Value(|f, v| {
            f.out = PathBuf::from(v);
            Ok(())
        }),
    },
    FlagSpec {
        name: "--jobs",
        metavar: Some("N"),
        group: FlagGroup::Shared,
        help: "worker threads for sweeps and fuzzing",
        default: Some(|| "available cores".to_string()),
        apply: Apply::Value(|f, v| {
            f.jobs = p("--jobs", &v)?;
            Ok(())
        }),
    },
    FlagSpec {
        name: "--cache-dir",
        metavar: Some("DIR"),
        group: FlagGroup::Shared,
        help: "content-addressed cell cache: sweeps reuse finished cells",
        default: Some(|| "off".to_string()),
        apply: Apply::Value(|f, v| {
            f.cache_dir = Some(PathBuf::from(v));
            Ok(())
        }),
    },
    FlagSpec {
        name: "--strategy",
        metavar: Some("NAME"),
        group: FlagGroup::SingleRun,
        help: "selection policy: {strategies} (see `run -- policies`)",
        default: Some(|| Strategy::ControlFlow.label().to_string()),
        apply: Apply::Value(|f, v| {
            f.strategy = v.parse().map_err(|e| {
                let hint = match e {
                    SelectError::UnknownPolicy { suggestion: Some(s), .. } => {
                        format!(" (did you mean `{s}`?)")
                    }
                    _ => String::new(),
                };
                BenchError::Usage(format!("unknown strategy `{v}`{hint}; see `run -- policies`"))
            })?;
            Ok(())
        }),
    },
    FlagSpec {
        name: "--pus",
        metavar: Some("N"),
        group: FlagGroup::SingleRun,
        help: "processing units",
        default: Some(|| "4".to_string()),
        apply: Apply::Value(|f, v| {
            f.pus = p("--pus", &v)?;
            at_least_one("--pus", f.pus as u64)
        }),
    },
    FlagSpec {
        name: "--in-order",
        metavar: None,
        group: FlagGroup::SingleRun,
        help: "in-order PU pipelines (default out-of-order)",
        default: None,
        apply: Apply::Switch(|f| f.in_order = true),
    },
    FlagSpec {
        name: "--insts",
        metavar: Some("N"),
        group: FlagGroup::SingleRun,
        help: "dynamic instruction budget",
        default: Some(|| "per-subcommand".to_string()),
        apply: Apply::Value(|f, v| {
            f.insts = Some(p("--insts", &v)?);
            Ok(())
        }),
    },
    FlagSpec {
        name: "--seed",
        metavar: Some("N"),
        group: FlagGroup::SingleRun,
        help: "trace seed (fuzz: base seed)",
        default: Some(|| format!("{:#x}", crate::DEFAULT_SEED)),
        apply: Apply::Value(|f, v| {
            f.seed = parse_seed(&v)?;
            Ok(())
        }),
    },
    FlagSpec {
        name: "--targets",
        metavar: Some("N"),
        group: FlagGroup::SingleRun,
        help: "heuristic target limit",
        default: Some(|| "4".to_string()),
        apply: Apply::Value(|f, v| {
            f.targets = p("--targets", &v)?;
            at_least_one("--targets", f.targets as u64)
        }),
    },
    FlagSpec {
        name: "--no-dead-reg",
        metavar: None,
        group: FlagGroup::SingleRun,
        help: "naive ring forwarding (disable dead register analysis)",
        default: None,
        apply: Apply::Switch(|f| f.dead_reg = false),
    },
    FlagSpec {
        name: "--json",
        metavar: None,
        group: FlagGroup::SingleRun,
        help: "one-line JSON SimStats instead of the table",
        default: None,
        apply: Apply::Switch(|f| f.json = true),
    },
    FlagSpec {
        name: "--file",
        metavar: Some("PATH"),
        group: FlagGroup::SingleRun,
        help: "run a textual-IR (.msir) program instead of a named benchmark",
        default: None,
        apply: Apply::Value(|f, v| {
            f.file = Some(v);
            Ok(())
        }),
    },
    FlagSpec {
        name: "--dump-ir",
        metavar: None,
        group: FlagGroup::SingleRun,
        help: "print the post-selection IR and exit",
        default: None,
        apply: Apply::Switch(|f| f.dump_ir = true),
    },
    FlagSpec {
        name: "--reps",
        metavar: Some("N"),
        group: FlagGroup::Perf,
        help: "timed repetitions per cell",
        default: Some(|| DEFAULT_PERF_REPS.to_string()),
        apply: Apply::Value(|f, v| {
            f.reps = p("--reps", &v)?;
            at_least_one("--reps", f.reps as u64)
        }),
    },
    FlagSpec {
        name: "--seeds",
        metavar: Some("N"),
        group: FlagGroup::Fuzz,
        help: "fuzz cases per sweep",
        default: Some(|| DEFAULT_FUZZ_SEEDS.to_string()),
        apply: Apply::Value(|f, v| {
            f.seeds = p("--seeds", &v)?;
            at_least_one("--seeds", f.seeds)
        }),
    },
    FlagSpec {
        name: "--max-blocks",
        metavar: Some("N"),
        group: FlagGroup::Fuzz,
        help: "generated-program size cap",
        default: Some(|| ms_conform::FuzzParams::default().max_blocks.to_string()),
        apply: Apply::Value(|f, v| {
            f.max_blocks = p("--max-blocks", &v)?;
            at_least_one("--max-blocks", f.max_blocks as u64)
        }),
    },
    FlagSpec {
        name: "--inject",
        metavar: None,
        group: FlagGroup::Fuzz,
        help: "fault-injection self-test (the loop must fail)",
        default: None,
        apply: Apply::Switch(|f| f.inject = true),
    },
    FlagSpec {
        name: "--oracle-max-blocks",
        metavar: Some("N"),
        group: FlagGroup::Gap,
        help: "largest function the exact oracle partitions",
        default: Some(|| ms_tasksel::DEFAULT_ORACLE_MAX_BLOCKS.to_string()),
        apply: Apply::Value(|f, v| {
            f.oracle_max_blocks = p("--oracle-max-blocks", &v)?;
            at_least_one("--oracle-max-blocks", f.oracle_max_blocks as u64)
        }),
    },
];

// ----------------------------------------------------- subcommand table

/// Which artifact-schema tag a subcommand's help line carries.
#[derive(Debug, Clone, Copy)]
pub enum SchemaRef {
    /// Per-cell sweep metrics (`crate::sweeps::SCHEMA_VERSION`).
    Metrics,
    /// Event traces (`ms_sim::TRACE_SCHEMA_VERSION`).
    Trace,
}

impl SchemaRef {
    fn label(self) -> String {
        match self {
            SchemaRef::Metrics => format!("metrics schema v{}", crate::sweeps::SCHEMA_VERSION),
            SchemaRef::Trace => format!("trace schema v{}", ms_sim::TRACE_SCHEMA_VERSION),
        }
    }
}

/// One entry of the subcommand registry: invocation syntax, help lines,
/// and the schema version of what it writes. `run -- help`
/// and the driver's unknown-name suggestions are generated from
/// [`SUBCOMMANDS`].
pub struct SubcommandSpec {
    /// The first positional word (`<benchmark>` for the fallback).
    pub name: &'static str,
    /// Operand syntax after the name, or `""`.
    pub operands: &'static str,
    /// Help description lines (the first carries the schema tag).
    pub about: &'static [&'static str],
    /// Schema tag rendered after the description, if any.
    pub schema: Option<SchemaRef>,
}

/// Every subcommand, in help order. The eight sweep names are listed
/// as one entry (expanded from [`SweepSpec::ALL`] when rendering).
pub static SUBCOMMANDS: &[SubcommandSpec] = &[
    SubcommandSpec {
        name: "<benchmark>",
        operands: "| all",
        about: &["one simulation; prints SimStats (--json for one-line JSON)"],
        schema: None,
    },
    SubcommandSpec {
        name: "sweeps",
        operands: "",
        about: &["all eight experiment grids, in order"],
        schema: Some(SchemaRef::Metrics),
    },
    SubcommandSpec {
        name: "<sweep>",
        operands: "",
        about: &["one grid -> <out>/<sweep>/*.json; the sweeps are"],
        schema: Some(SchemaRef::Metrics),
    },
    SubcommandSpec {
        name: "trace",
        operands: "<benchmark>",
        about: &[
            "one traced run -> <out>/trace/<bench>-<strategy>.jsonl",
            "+ .chrome.json, plus attribution tables (docs/TRACING.md)",
        ],
        schema: Some(SchemaRef::Trace),
    },
    SubcommandSpec {
        name: "perf",
        operands: "",
        about: &[
            "profile the canonical cells: phase/cell/counter tables",
            "+ <out>/perf/pipeline.chrome.json (docs/PROFILING.md)",
        ],
        schema: None,
    },
    SubcommandSpec {
        name: "fuzz",
        operands: "",
        about: &[
            "differential conformance fuzzing: random programs x all",
            "heuristics vs the sequential reference; minimal repros ->",
            "<out>/fuzz/seed<seed>-<strategy>.msir (docs/CONFORMANCE.md)",
        ],
        schema: None,
    },
    SubcommandSpec {
        name: "gap",
        operands: "<benchmark> | all",
        about: &[
            "heuristic-vs-optimal table: every policy against the exact",
            "oracle on the benchmark's small functions (docs/POLICIES.md)",
        ],
        schema: None,
    },
    SubcommandSpec {
        name: "policies",
        operands: "",
        about: &["the selection strategies, one line per policy"],
        schema: None,
    },
    SubcommandSpec {
        name: "list",
        operands: "",
        about: &["enumerate sweeps (with schema versions) and benchmarks"],
        schema: None,
    },
    SubcommandSpec { name: "help", operands: "", about: &["this text"], schema: None },
];

/// The dispatchable first words, for nearest-match suggestions: every
/// concrete subcommand plus the sweep names (the `<benchmark>` and
/// `<sweep>` placeholder rows resolve through their own registries).
pub fn subcommand_names() -> Vec<&'static str> {
    SUBCOMMANDS.iter().map(|s| s.name).filter(|n| !n.starts_with('<')).chain(["all"]).collect()
}

// ---------------------------------------------------------------- parse

/// Parses an argument stream into positional words (subcommand and its
/// operands, in order) and the shared [`Flags`]. Driven entirely by
/// [`FLAGS`]; unknown flags get a nearest-match suggestion from the
/// same table.
pub fn parse(args: impl Iterator<Item = String>) -> Result<(Vec<String>, Flags), BenchError> {
    let mut flags = Flags::default();
    let mut positionals = Vec::new();
    let mut it = args;
    while let Some(arg) = it.next() {
        if arg == "-h" || arg == "--help" {
            positionals.insert(0, "help".to_string());
            continue;
        }
        if let Some(spec) = FLAGS.iter().find(|s| s.name == arg) {
            match spec.apply {
                Apply::Switch(apply) => apply(&mut flags),
                Apply::Value(apply) => {
                    let v = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("missing value for {}", spec.name))
                    })?;
                    apply(&mut flags, v)?;
                }
            }
        } else if arg.starts_with("--") {
            let names: Vec<&'static str> = FLAGS.iter().map(|s| s.name).collect();
            let hint = closest(&arg, &names)
                .map(|s| format!(" (did you mean `{s}`?)"))
                .unwrap_or_default();
            return Err(BenchError::Usage(format!(
                "unknown argument `{arg}`{hint} (see `run -- help`)"
            )));
        } else {
            positionals.push(arg);
        }
    }
    Ok((positionals, flags))
}

// ----------------------------------------------------------------- help

/// The `run -- help` text, generated from [`SUBCOMMANDS`] and [`FLAGS`]:
/// every subcommand with the schema version of the artifact it writes,
/// then every flag grouped by subcommand family with its default.
pub fn help_text() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("run — the Multiscalar experiment driver (see EXPERIMENTS.md)\n");
    out.push_str("\nsubcommands\n");
    for spec in SUBCOMMANDS {
        let invocation = if spec.operands.is_empty() {
            spec.name.to_string()
        } else {
            format!("{} {}", spec.name, spec.operands)
        };
        for (i, line) in spec.about.iter().enumerate() {
            let tag = match (i == spec.about.len() - 1, spec.schema) {
                (true, Some(s)) => format!("  [{}]", s.label()),
                _ => String::new(),
            };
            if i == 0 {
                let _ = writeln!(out, "  {invocation:<22} {line}{tag}");
            } else {
                let _ = writeln!(out, "  {:<22} {line}{tag}", "");
            }
        }
        if spec.name == "<sweep>" {
            let _ =
                writeln!(out, "  {:<22} {}", "", SweepSpec::ALL.map(SweepSpec::name).join(" | "));
        }
    }
    let strategies = Strategy::extended().map(|s| s.label()).join("|");
    for group in FlagGroup::ORDER {
        let _ = writeln!(out, "\n{}", group.title());
        for spec in FLAGS.iter().filter(|s| s.group == group) {
            let invocation = match spec.metavar {
                Some(m) => format!("{} {m}", spec.name),
                None => spec.name.to_string(),
            };
            let default = spec.default.map(|d| format!(" (default {})", d())).unwrap_or_default();
            let help = spec.help.replace("{strategies}", &strategies);
            let _ = writeln!(out, "  {invocation:<22} {help}{default}");
        }
    }
    out
}

/// The `run -- policies` text: every [`Strategy`] with its one-line
/// semantics, straight from the enum (so the list can never drift from
/// the code).
pub fn policies_text() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("selection policies (--strategy NAME; see docs/POLICIES.md):\n");
    for s in Strategy::extended() {
        let _ = writeln!(out, "  {:<8} {}", s.label(), s.summary());
    }
    out
}

/// The `run -- list` text: the typed sweep registry and the workload
/// suite (factored out of the binary so the golden test can pin it).
pub fn list_text() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("sweeps (per-cell metrics artifacts under --out):\n");
    for spec in SweepSpec::ALL {
        let _ = writeln!(
            out,
            "  {:<12} schema v{}  {}",
            spec.name(),
            crate::sweeps::SCHEMA_VERSION,
            spec.describe()
        );
    }
    out.push_str("benchmarks (single runs; also the sweeps' workloads):\n");
    for w in ms_workloads::suite() {
        let _ = writeln!(out, "  {}", w.name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(words: &[&str]) -> (Vec<String>, Flags) {
        parse(words.iter().map(|s| s.to_string())).expect("parse")
    }

    #[test]
    fn defaults_and_positional_order() {
        let (pos, flags) = parse_ok(&["trace", "compress", "--pus", "8"]);
        assert_eq!(pos, ["trace", "compress"]);
        assert_eq!(flags.pus, 8);
        assert_eq!(flags.insts, None);
        assert!(flags.dead_reg);
    }

    #[test]
    fn every_subcommand_shares_out_and_jobs() {
        for cmd in ["sweeps", "figure5", "trace", "perf", "compress"] {
            let (pos, flags) = parse_ok(&[cmd, "--out", "/tmp/x", "--jobs", "3"]);
            assert_eq!(pos[0], cmd);
            assert_eq!(flags.out, PathBuf::from("/tmp/x"));
            assert_eq!(flags.jobs, 3);
        }
    }

    #[test]
    fn perf_flags_parse() {
        let (_, flags) = parse_ok(&["perf", "--reps", "3"]);
        assert_eq!(flags.reps, 3);
    }

    #[test]
    fn rejects_unknown_flags_and_zero_reps() {
        assert!(parse(["--frobnicate".to_string()].into_iter()).is_err());
        for [cmd, flag] in [["perf", "--reps"], ["compress", "--pus"], ["compress", "--targets"]] {
            let err = parse([cmd, flag, "0"].into_iter().map(String::from)).unwrap_err();
            assert!(err.to_string().contains("must be at least 1"), "{flag}: {err}");
        }
    }

    #[test]
    fn unknown_flags_get_nearest_match_suggestions() {
        let err =
            parse(["figure5".to_string(), "--cache-dri".to_string()].into_iter()).unwrap_err();
        assert!(err.to_string().contains("did you mean `--cache-dir`?"), "{err}");
        let err = parse(["--jbos".to_string()].into_iter()).unwrap_err();
        assert!(err.to_string().contains("did you mean `--jobs`?"), "{err}");
    }

    #[test]
    fn cache_dir_parses_and_defaults_off() {
        let (pos, flags) = parse_ok(&["figure5", "--cache-dir", "/tmp/cc"]);
        assert_eq!(pos, ["figure5"]);
        assert_eq!(flags.cache_dir, Some(PathBuf::from("/tmp/cc")));
        let (_, flags) = parse_ok(&["sweeps"]);
        assert_eq!(flags.cache_dir, None);
    }

    #[test]
    fn strategy_suggestions_and_new_names() {
        let (_, flags) = parse_ok(&["compress", "--strategy", "oracle"]);
        assert_eq!(flags.strategy, Strategy::Oracle);
        let (_, flags) = parse_ok(&["compress", "--strategy", "cost", "--oracle-max-blocks", "9"]);
        assert_eq!(flags.strategy, Strategy::Cost);
        assert_eq!(flags.oracle_max_blocks, 9);
        let err = parse(
            ["compress".to_string(), "--strategy".to_string(), "oracel".to_string()].into_iter(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("did you mean `oracle`?"), "{err}");
    }

    #[test]
    fn help_lists_every_subcommand_and_schema_version() {
        let text = help_text();
        for cmd in subcommand_names() {
            assert!(text.contains(cmd), "help must mention `{cmd}`");
        }
        for sweep in SweepSpec::ALL.map(SweepSpec::name) {
            assert!(text.contains(sweep), "help must mention sweep `{sweep}`");
        }
        assert!(text.contains(&format!("metrics schema v{}", crate::sweeps::SCHEMA_VERSION)));
        assert!(text.contains(&format!("trace schema v{}", ms_sim::TRACE_SCHEMA_VERSION)));
    }

    #[test]
    fn help_lists_every_flag_in_its_group() {
        let text = help_text();
        for spec in FLAGS {
            assert!(text.contains(spec.name), "help must mention `{}`", spec.name);
        }
        for group in FlagGroup::ORDER {
            assert!(text.contains(group.title()), "help must have a `{}` section", group.title());
        }
    }

    #[test]
    fn subcommand_names_cover_the_dispatcher() {
        let names = subcommand_names();
        for cmd in ["sweeps", "fuzz", "all", "help"] {
            assert!(names.contains(&cmd), "`{cmd}` missing from subcommand_names()");
        }
        assert!(!names.iter().any(|n| n.starts_with('<')), "placeholders are filtered");
    }

    #[test]
    fn seed_parses_decimal_and_hex() {
        assert_eq!(parse_ok(&["fuzz", "--seed", "0x2a"]).1.seed, 42);
        assert_eq!(parse_ok(&["fuzz", "--seed", "42"]).1.seed, 42);
    }

    #[test]
    fn malformed_hex_seeds_are_usage_errors() {
        for bad in ["0x", "0xzz"] {
            let err = parse(["fuzz", "--seed", bad].into_iter().map(String::from)).unwrap_err();
            assert!(matches!(err, BenchError::Usage(_)), "{bad}: {err:?}");
            assert!(err.to_string().contains("--seed"), "{bad}: {err}");
        }
    }
}
