//! `run -- runs`: querying the run ledger.
//!
//! Every ledgered invocation (`sweep`, `perf`, `trace`, `fuzz`, `gap`)
//! leaves one `ms_prof::ledger` JSONL record under [`runs_dir`]. This
//! module renders that history: `runs [--last N] [--cmd X]` lists
//! records newest-first as a table, `runs show <id>` replays one
//! record, and `runs-validate` checks every record against the schema.
//! See `docs/OBSERVABILITY.md` for the schema and triage recipes.

use std::path::{Path, PathBuf};

use ms_prof::ledger::{self, RunRecord};

/// Where run records live: `MS_RUNS_DIR` if set (tests isolate
/// themselves with it), else `target/experiments/runs` relative to the
/// working directory — deliberately independent of `--out`, so one
/// ledger spans every invocation.
pub fn runs_dir() -> PathBuf {
    match std::env::var_os("MS_RUNS_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target/experiments/runs"),
    }
}

/// Record files under `dir`, newest first (the id's UTC-stamp prefix
/// makes the filename sort chronological).
pub fn record_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect(),
        Err(_) => Vec::new(),
    };
    files.sort();
    files.reverse();
    files
}

fn outcome_label(rec: &RunRecord) -> String {
    rec.outcome.clone().unwrap_or_else(|| "open".to_string())
}

/// A duration in the largest unit that keeps it at or above 1
/// (`2.50 ms`, `500 ns`).
pub(crate) fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn duration_label(rec: &RunRecord) -> String {
    rec.duration_ns.map_or("-".to_string(), |ns| fmt_ns(ns))
}

/// One table row per record under `dir`, newest first, capped at
/// `last` rows, optionally filtered to one subcommand. Unparseable
/// files surface as `invalid` rows rather than disappearing.
pub fn list_runs(dir: &Path, last: usize, cmd_filter: Option<&str>) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    let files = record_files(dir);
    if files.is_empty() {
        writeln!(text, "no run records under {} (run a sweep or perf first)", dir.display())
            .unwrap();
        return text;
    }
    writeln!(
        text,
        "{:<42} {:<10} {:<14} {:<8} {:>9} {:>6} {:>5} {:>9}",
        "id", "date", "cmd", "outcome", "duration", "events", "cells", "artifacts"
    )
    .unwrap();
    let mut shown = 0usize;
    let mut skipped = 0usize;
    for path in &files {
        if shown >= last {
            skipped += 1;
            continue;
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?").to_string();
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| ledger::parse_record(&t));
        match parsed {
            Ok(rec) => {
                if cmd_filter.is_some_and(|c| c != rec.cmd) {
                    continue;
                }
                writeln!(
                    text,
                    "{:<42} {:<10} {:<14} {:<8} {:>9} {:>6} {:>5} {:>9}",
                    rec.id,
                    &ledger::utc_stamp(rec.ts)[..8],
                    rec.cmd,
                    outcome_label(&rec),
                    duration_label(&rec),
                    rec.events,
                    rec.cells,
                    rec.artifacts.len()
                )
                .unwrap();
            }
            Err(_) => {
                if cmd_filter.is_some() {
                    continue;
                }
                writeln!(
                    text,
                    "{:<42} {:<10} {:<14} {:<8} {:>9} {:>6} {:>5} {:>9}",
                    stem, "-", "-", "invalid", "-", "-", "-", "-"
                )
                .unwrap();
            }
        }
        shown += 1;
    }
    if skipped > 0 {
        writeln!(text, "({skipped} older record{} not shown)", if skipped == 1 { "" } else { "s" })
            .unwrap();
    }
    text
}

/// Replays one record by id: header, every event line, footer summary.
pub fn show_run(dir: &Path, id: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let path = dir.join(format!("{id}.jsonl"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("no run record `{id}` under {} ({e})", dir.display()))?;
    let rec = ledger::parse_record(&text).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut out = String::new();
    writeln!(out, "run {}", rec.id).unwrap();
    writeln!(out, "  started   {} UTC (unix {})", ledger::utc_stamp(rec.ts), rec.ts).unwrap();
    writeln!(out, "  git       {}", rec.git).unwrap();
    writeln!(out, "  argv      run -- {}", rec.argv.join(" ")).unwrap();
    if !rec.params.is_empty() {
        let params: Vec<String> = rec.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        writeln!(out, "  params    {}", params.join(" ")).unwrap();
    }
    writeln!(
        out,
        "  outcome   {} (exit {}) in {}",
        outcome_label(&rec),
        rec.exit_code.map_or("-".to_string(), |c| c.to_string()),
        duration_label(&rec)
    )
    .unwrap();
    writeln!(out, "  events    {} ({} cells)", rec.events, rec.cells).unwrap();
    if rec.events > 0 {
        for line in text.lines().filter(|l| l.contains("\"record\":\"event\"")) {
            writeln!(out, "    {line}").unwrap();
        }
    }
    if !rec.artifacts.is_empty() {
        writeln!(out, "  artifacts {}", rec.artifacts.len()).unwrap();
        for a in &rec.artifacts {
            writeln!(out, "    {a}").unwrap();
        }
    }
    Ok(out)
}

/// Validates `file` (when given) or every record under `dir` against
/// the ledger schema. Returns the rendered report and the process exit
/// code (non-zero on any invalid record).
pub fn validate_runs(dir: &Path, file: Option<&str>) -> (String, i32) {
    use std::fmt::Write as _;
    let files: Vec<PathBuf> = match file {
        Some(f) => vec![PathBuf::from(f)],
        None => {
            let mut fs = record_files(dir);
            fs.reverse(); // oldest first reads naturally in a report
            fs
        }
    };
    let mut text = String::new();
    if files.is_empty() {
        writeln!(text, "no run records under {} — nothing to validate", dir.display()).unwrap();
        return (text, 0);
    }
    let mut bad = 0usize;
    for path in &files {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| ledger::validate_record(&t));
        match verdict {
            Ok(rec) => writeln!(
                text,
                "{}: valid {} record (schema v{}, {} events, {} cells, {} artifacts)",
                path.display(),
                ledger::LEDGER_FORMAT,
                ledger::LEDGER_SCHEMA_VERSION,
                rec.events,
                rec.cells,
                rec.artifacts.len()
            )
            .unwrap(),
            Err(e) => {
                bad += 1;
                writeln!(text, "{}: INVALID — {e}", path.display()).unwrap();
            }
        }
    }
    if bad > 0 {
        writeln!(text, "{bad} of {} record(s) failed validation", files.len()).unwrap();
    }
    (text, if bad > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ms-runscmd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_record(dir: &Path, ts: u64, cmd: &str, footer: bool) -> String {
        let meta = ledger::RunMeta {
            cmd: cmd.to_string(),
            argv: vec![cmd.to_string()],
            git: "abc1234".to_string(),
            params: vec![("jobs".to_string(), "2".to_string())],
        };
        let mut l = ledger::RunLedger::open_at(dir, &meta, ts).unwrap();
        let id = l.id().to_string();
        if footer {
            l.event("cell", vec![("cell", ms_prof::jsonv::Value::Str("x".to_string()))]);
            l.artifact("target/x.json");
            l.close("ok", 0, &ledger::ProgressSnapshot::default()).unwrap();
        }
        id
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(2_500), "2.50 us");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50 s");
    }

    #[test]
    fn listing_is_newest_first_filtered_and_capped() {
        let dir = tmp("list");
        write_record(&dir, 1_754_006_400, "forwarding", true);
        write_record(&dir, 1_754_092_800, "perf", true);
        write_record(&dir, 1_754_179_200, "forwarding", false);

        let all = list_runs(&dir, 20, None);
        let rows: Vec<&str> = all.lines().skip(1).collect();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].contains("open"), "newest (interrupted) first: {}", rows[0]);
        assert!(rows[1].contains("perf"));
        assert!(rows[2].contains("forwarding"));

        let only_fwd = list_runs(&dir, 20, Some("forwarding"));
        // The interrupted record still parses (header carries cmd).
        assert_eq!(only_fwd.lines().skip(1).count(), 2);

        let capped = list_runs(&dir, 1, None);
        assert!(capped.contains("(2 older records not shown)"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn show_replays_one_record_and_missing_ids_error() {
        let dir = tmp("show");
        let id = write_record(&dir, 1_754_006_400, "perf", true);
        let out = show_run(&dir, &id).unwrap();
        assert!(out.contains(&format!("run {id}")));
        assert!(out.contains("argv      run -- perf"));
        assert!(out.contains("outcome   ok (exit 0)"));
        assert!(out.contains("\"event\":\"cell\""));
        assert!(out.contains("target/x.json"));
        assert!(show_run(&dir, "nope").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_flags_interrupted_records() {
        let dir = tmp("validate");
        write_record(&dir, 1_754_006_400, "gap", true);
        write_record(&dir, 1_754_092_800, "trace", false);
        let (text, code) = validate_runs(&dir, None);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("valid ms-run-ledger record"));
        assert!(text.contains("INVALID"));
        assert!(text.contains("no footer"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
