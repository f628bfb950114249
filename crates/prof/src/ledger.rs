//! The run ledger: a schema-versioned, append-only record of every
//! `run` driver invocation.
//!
//! [`crate::jsonv`] reads artifacts back; this module writes the one
//! artifact that describes the *invocation itself*. A [`RunLedger`]
//! opens one JSONL file per run — `<runs dir>/<ts>-<git>-<cmd>.jsonl` —
//! and records three line kinds:
//!
//! * a **header** (written immediately at open, so an interrupted run
//!   still leaves a visible stub): schema/format tags, the run id,
//!   unix start time, git short hash, subcommand, raw argv, parsed
//!   parameters, and the machine fingerprint;
//! * zero or more **events** (buffered, flushed at close): structured
//!   progress facts — one per sweep cell, perf baseline, fuzz failure…
//!   Events deliberately carry **no wall-clock timestamps**, so the
//!   event section of a record is byte-identical across `--jobs`
//!   settings (timing lives in the header/footer and the progress
//!   counters);
//! * a **footer**: outcome, exit code, duration, event/cell counts,
//!   artifact paths, and a [`ProgressSnapshot`] of the live counters.
//!
//! A record with a header but no footer is an interrupted or crashed
//! run — [`parse_record`] surfaces it, [`validate_record`] rejects it.
//! Validation also reconciles the footer's counts against the actual
//! event lines, so a record whose cell count disagrees with its events
//! can never validate.
//!
//! The [`ProgressSink`] half is the lock-free instrumentation the
//! parallel sweep scheduler feeds: atomic cells-queued / started /
//! finished / context-cache warm-hit counters plus per-worker busy
//! tallies. A disabled sink ([`ProgressSink::disabled`]) costs one
//! branch per call and **allocates nothing** — pinned by the counting
//! global allocator in `tests/no_alloc.rs`, mirroring the
//! [`crate::NullProfiler`] guarantee.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::jsonv::{self, Value};

/// Version of the run-ledger JSONL schema (bump on any field change;
/// documented field-by-field in `docs/OBSERVABILITY.md`).
///
/// v2 added the `cache_hits` / `cache_misses` counters to the footer's
/// progress snapshot (the content-addressed cell cache behind
/// `--cache-dir`). Readers accept v1 records too — old records validate, minus
/// the fields their era did not have.
pub const LEDGER_SCHEMA_VERSION: u32 = 2;

/// The oldest schema version [`parse_record`] / [`validate_record`]
/// still accept.
pub const LEDGER_MIN_SCHEMA_VERSION: u32 = 1;

/// The `format` tag every ledger header carries, distinguishing run
/// records from the repository's other JSON artifacts.
pub const LEDGER_FORMAT: &str = "ms-run-ledger";

/// Everything a run record's header needs besides the clock: the
/// subcommand, the raw argument vector, the git short hash, and the
/// parsed parameters worth querying later (strategy, jobs, seeds, …).
#[derive(Debug, Clone, Default)]
pub struct RunMeta {
    /// The driver subcommand (`sweeps`, `perf`, `fuzz`, …) — also the
    /// last component of the record's file name.
    pub cmd: String,
    /// The raw argument vector, exactly as invoked (subcommand
    /// included, binary name excluded).
    pub argv: Vec<String>,
    /// Git short hash of the checkout (`nogit` outside one).
    pub git: String,
    /// Parsed parameters as ordered `(key, value)` pairs — the
    /// SimConfig/policy fingerprint of the invocation.
    pub params: Vec<(String, String)>,
}

/// A point-in-time copy of a [`ProgressSink`]'s counters, embedded in
/// the record footer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProgressSnapshot {
    /// Cells enqueued onto the scheduler.
    pub queued: u64,
    /// Cells a worker has picked up.
    pub started: u64,
    /// Cells fully simulated.
    pub finished: u64,
    /// Cells that found their shared analysis context already warmed.
    pub warm_hits: u64,
    /// Cells served verbatim from the content-addressed cell cache
    /// (no simulation ran).
    pub cache_hits: u64,
    /// Cells that missed the cell cache and were simulated (zero when
    /// no cache was configured).
    pub cache_misses: u64,
    /// Per-worker `(busy_ns, items)` tallies, indexed by worker slot.
    pub workers: Vec<(u64, u64)>,
}

/// One per-worker tally: wall time spent inside work items, and how
/// many items the worker completed.
#[derive(Debug, Default)]
struct WorkerTally {
    busy_ns: AtomicU64,
    items: AtomicU64,
}

/// Lock-free progress instrumentation for the parallel sweep
/// scheduler. All counters are relaxed atomics: they feed a progress
/// line and a footer snapshot, never control flow.
///
/// A disabled sink short-circuits every method on a single branch and
/// performs no atomic operation and no allocation.
#[derive(Debug)]
pub struct ProgressSink {
    enabled: bool,
    queued: AtomicU64,
    started: AtomicU64,
    finished: AtomicU64,
    warm_hits: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    workers: Vec<WorkerTally>,
}

impl ProgressSink {
    /// An enabled sink with `workers` per-worker tally slots.
    pub fn new(workers: usize) -> ProgressSink {
        ProgressSink {
            enabled: true,
            queued: AtomicU64::new(0),
            started: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            workers: std::iter::repeat_with(WorkerTally::default).take(workers).collect(),
        }
    }

    /// The no-op sink: every method returns after one branch. `const`,
    /// so a `static` disabled sink costs nothing at startup either.
    pub const fn disabled() -> ProgressSink {
        ProgressSink {
            enabled: false,
            queued: AtomicU64::new(0),
            started: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            workers: Vec::new(),
        }
    }

    /// Whether this sink records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Notes `n` cells entering the scheduler's queue.
    pub fn add_queued(&self, n: u64) {
        if self.enabled {
            self.queued.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Notes one cell picked up by a worker.
    pub fn cell_started(&self) {
        if self.enabled {
            self.started.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Notes one cell fully simulated.
    pub fn cell_finished(&self) {
        if self.enabled {
            self.finished.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Notes one cell that found its shared analysis context already
    /// warmed by the pipeline's first stage.
    pub fn warm_hit(&self) {
        if self.enabled {
            self.warm_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Notes one cell served whole from the content-addressed cell
    /// cache (artifact reproduced, no simulation).
    pub fn cache_hit(&self) {
        if self.enabled {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Notes one cell that missed the cell cache and had to simulate.
    pub fn cache_miss(&self) {
        if self.enabled {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charges `busy_ns` of work-item wall time (and `items` completed
    /// items) to worker slot `worker`. Out-of-range slots are ignored.
    pub fn worker_busy(&self, worker: usize, busy_ns: u64, items: u64) {
        if !self.enabled {
            return;
        }
        if let Some(t) = self.workers.get(worker) {
            t.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
            t.items.fetch_add(items, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            queued: self.queued.load(Ordering::Relaxed),
            started: self.started.load(Ordering::Relaxed),
            finished: self.finished.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            workers: self
                .workers
                .iter()
                .map(|t| (t.busy_ns.load(Ordering::Relaxed), t.items.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// A run record being written: header on open, events buffered, footer
/// on [`RunLedger::close`].
#[derive(Debug)]
pub struct RunLedger {
    path: PathBuf,
    id: String,
    start: Instant,
    events: Vec<String>,
    artifacts: Vec<String>,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn sanitize(word: &str) -> String {
    let mut out: String =
        word.chars().map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '-' }).collect();
    if out.is_empty() {
        out.push_str("run");
    }
    out
}

impl RunLedger {
    /// Opens a record under `dir` and writes its header line
    /// immediately, so even a crashed run leaves a header-only stub.
    /// The file is `<ts>-<git>-<cmd>.jsonl`; an existing file with the
    /// same stamp gets a `-2`, `-3`, … suffix.
    pub fn open(dir: &Path, meta: &RunMeta) -> std::io::Result<RunLedger> {
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Self::open_at(dir, meta, unix)
    }

    /// [`RunLedger::open`] with an explicit unix start time (tests pin
    /// the stamp; production callers use `open`).
    pub fn open_at(dir: &Path, meta: &RunMeta, unix: u64) -> std::io::Result<RunLedger> {
        std::fs::create_dir_all(dir)?;
        let base = format!("{}-{}-{}", utc_stamp(unix), sanitize(&meta.git), sanitize(&meta.cmd));
        let mut id = base.clone();
        let mut n = 1u32;
        while dir.join(format!("{id}.jsonl")).exists() {
            n += 1;
            id = format!("{base}-{n}");
        }
        let path = dir.join(format!("{id}.jsonl"));

        let machine = obj(vec![
            ("os", Value::Str(std::env::consts::OS.to_string())),
            ("arch", Value::Str(std::env::consts::ARCH.to_string())),
            (
                "cpus",
                Value::Num(
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as f64
                ),
            ),
        ]);
        let header = obj(vec![
            ("schema_version", Value::Num(LEDGER_SCHEMA_VERSION as f64)),
            ("format", Value::Str(LEDGER_FORMAT.to_string())),
            ("record", Value::Str("header".to_string())),
            ("id", Value::Str(id.clone())),
            ("ts", Value::Num(unix as f64)),
            ("git", Value::Str(meta.git.clone())),
            ("cmd", Value::Str(meta.cmd.clone())),
            ("argv", Value::Arr(meta.argv.iter().map(|a| Value::Str(a.clone())).collect())),
            (
                "params",
                Value::Obj(
                    meta.params.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect(),
                ),
            ),
            ("machine", machine),
        ]);
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{}", header.to_json())?;
        Ok(RunLedger { path, id, start: Instant::now(), events: Vec::new(), artifacts: Vec::new() })
    }

    /// The record's id (file stem): `<ts>-<git>-<cmd>`.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The record's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Buffers one event line. `kind` becomes the `event` field;
    /// `fields` follow in order. Events carry no timestamps — see the
    /// module docs for why.
    pub fn event(&mut self, kind: &str, fields: Vec<(&str, Value)>) {
        let mut all = vec![
            ("record", Value::Str("event".to_string())),
            ("event", Value::Str(kind.to_string())),
        ];
        all.extend(fields);
        self.events.push(obj(all).to_json());
    }

    /// Notes one emitted artifact path for the footer's manifest.
    pub fn artifact(&mut self, path: &str) {
        self.artifacts.push(path.to_string());
    }

    /// Flushes the buffered events and the footer, consuming the
    /// ledger. Returns the record's path.
    pub fn close(
        self,
        outcome: &str,
        exit_code: i32,
        progress: &ProgressSnapshot,
    ) -> std::io::Result<PathBuf> {
        let cells = self.events.iter().filter(|e| is_cell_event(e)).count();
        let workers = Value::Arr(
            progress
                .workers
                .iter()
                .map(|&(busy_ns, items)| {
                    obj(vec![
                        ("busy_ns", Value::Num(busy_ns as f64)),
                        ("items", Value::Num(items as f64)),
                    ])
                })
                .collect(),
        );
        let footer = obj(vec![
            ("record", Value::Str("footer".to_string())),
            ("outcome", Value::Str(outcome.to_string())),
            ("exit_code", Value::Num(exit_code as f64)),
            ("duration_ns", Value::Num(self.start.elapsed().as_nanos() as f64)),
            ("events", Value::Num(self.events.len() as f64)),
            ("cells", Value::Num(cells as f64)),
            (
                "artifacts",
                Value::Arr(self.artifacts.iter().map(|a| Value::Str(a.clone())).collect()),
            ),
            (
                "progress",
                obj(vec![
                    ("queued", Value::Num(progress.queued as f64)),
                    ("started", Value::Num(progress.started as f64)),
                    ("finished", Value::Num(progress.finished as f64)),
                    ("warm_hits", Value::Num(progress.warm_hits as f64)),
                    ("cache_hits", Value::Num(progress.cache_hits as f64)),
                    ("cache_misses", Value::Num(progress.cache_misses as f64)),
                    ("workers", workers),
                ]),
            ),
        ]);
        let mut body = String::new();
        for e in &self.events {
            body.push_str(e);
            body.push('\n');
        }
        body.push_str(&footer.to_json());
        body.push('\n');
        let mut file = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        file.write_all(body.as_bytes())?;
        Ok(self.path)
    }
}

fn is_cell_event(line: &str) -> bool {
    jsonv::parse(line)
        .ok()
        .and_then(|v| v.get("event").and_then(Value::as_str).map(|e| e == "cell"))
        .unwrap_or(false)
}

// ------------------------------------------------------------- reading

/// One parsed run record, as the `runs` subcommands consume it. A
/// record without a footer (interrupted run) parses with
/// `outcome == None`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The schema version the record was written under (within
    /// [`LEDGER_MIN_SCHEMA_VERSION`]..=[`LEDGER_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The record id (`<ts>-<git>-<cmd>`).
    pub id: String,
    /// Unix start time, seconds.
    pub ts: u64,
    /// Git short hash at invocation.
    pub git: String,
    /// The driver subcommand.
    pub cmd: String,
    /// The raw argument vector.
    pub argv: Vec<String>,
    /// Parsed `(key, value)` parameters.
    pub params: Vec<(String, String)>,
    /// Footer outcome (`ok`, `failed`, …); `None` when the run never
    /// closed its record.
    pub outcome: Option<String>,
    /// Footer exit code.
    pub exit_code: Option<i32>,
    /// Wall-clock duration, nanoseconds (footer).
    pub duration_ns: Option<u64>,
    /// Actual event lines in the record.
    pub events: usize,
    /// Actual `cell` events in the record.
    pub cells: usize,
    /// Artifact paths from the footer manifest.
    pub artifacts: Vec<String>,
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn parse_header(line: &str) -> Result<RunRecord, String> {
    let h = jsonv::parse(line).map_err(|e| format!("header: {e}"))?;
    let version = req_u64(&h, "schema_version").map_err(|e| format!("header: {e}"))?;
    if version < LEDGER_MIN_SCHEMA_VERSION as u64 || version > LEDGER_SCHEMA_VERSION as u64 {
        return Err(format!(
            "schema_version {version} (this tool reads \
             v{LEDGER_MIN_SCHEMA_VERSION}..v{LEDGER_SCHEMA_VERSION})"
        ));
    }
    let format = req_str(&h, "format").map_err(|e| format!("header: {e}"))?;
    if format != LEDGER_FORMAT {
        return Err(format!("format `{format}` (expected `{LEDGER_FORMAT}`)"));
    }
    if req_str(&h, "record")? != "header" {
        return Err("first line is not a header record".to_string());
    }
    let machine = h.get("machine").ok_or("header: missing `machine`")?;
    req_str(machine, "os").map_err(|e| format!("header machine: {e}"))?;
    req_str(machine, "arch").map_err(|e| format!("header machine: {e}"))?;
    req_u64(machine, "cpus").map_err(|e| format!("header machine: {e}"))?;
    let argv = h
        .get("argv")
        .and_then(Value::as_arr)
        .ok_or("header: missing `argv` array")?
        .iter()
        .map(|a| a.as_str().map(str::to_string).ok_or("header: non-string argv entry".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let params = match h.get("params") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|v| (k.clone(), v.to_string()))
                    .ok_or(format!("header: non-string param `{k}`"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("header: missing `params` object".to_string()),
    };
    Ok(RunRecord {
        schema_version: version as u32,
        id: req_str(&h, "id").map_err(|e| format!("header: {e}"))?,
        ts: req_u64(&h, "ts").map_err(|e| format!("header: {e}"))?,
        git: req_str(&h, "git").map_err(|e| format!("header: {e}"))?,
        cmd: req_str(&h, "cmd").map_err(|e| format!("header: {e}"))?,
        argv,
        params,
        outcome: None,
        exit_code: None,
        duration_ns: None,
        events: 0,
        cells: 0,
        artifacts: Vec::new(),
    })
}

/// Parses one run record leniently: the header is required, the footer
/// is optional (an interrupted run yields `outcome == None`). Event
/// and cell counts come from the actual event lines.
pub fn parse_record(text: &str) -> Result<RunRecord, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty record")?;
    let mut rec = parse_header(header)?;
    for (i, line) in lines.enumerate() {
        let v = jsonv::parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        match v.get("record").and_then(Value::as_str) {
            Some("event") => {
                let kind = req_str(&v, "event").map_err(|e| format!("line {}: {e}", i + 2))?;
                rec.events += 1;
                if kind == "cell" {
                    rec.cells += 1;
                }
            }
            Some("footer") => {
                if rec.outcome.is_some() {
                    return Err(format!("line {}: second footer", i + 2));
                }
                rec.outcome = Some(req_str(&v, "outcome").map_err(|e| format!("footer: {e}"))?);
                rec.exit_code = Some(
                    v.get("exit_code")
                        .and_then(Value::as_f64)
                        .ok_or("footer: missing or non-numeric `exit_code`")?
                        as i32,
                );
                rec.duration_ns =
                    Some(req_u64(&v, "duration_ns").map_err(|e| format!("footer: {e}"))?);
                rec.artifacts = v
                    .get("artifacts")
                    .and_then(Value::as_arr)
                    .ok_or("footer: missing `artifacts` array")?
                    .iter()
                    .map(|a| {
                        a.as_str()
                            .map(str::to_string)
                            .ok_or("footer: non-string artifact".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            Some(other) => return Err(format!("line {}: unknown record `{other}`", i + 2)),
            None => return Err(format!("line {}: missing `record` tag", i + 2)),
        }
        if rec.outcome.is_some() {
            // The footer must be the physically-last line.
            continue;
        }
    }
    Ok(rec)
}

/// Strictly validates one run record: header first, footer last and
/// present, every middle line an event, and the footer's `events` /
/// `cells` counts reconciling exactly with the actual event lines.
pub fn validate_record(text: &str) -> Result<RunRecord, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let rec = parse_record(text)?;
    if rec.outcome.is_none() {
        return Err("no footer: the run never closed its record (interrupted?)".to_string());
    }
    let last = lines.last().expect("parse_record demands a header");
    let footer = jsonv::parse(last).map_err(|e| format!("footer: {e}"))?;
    if footer.get("record").and_then(Value::as_str) != Some("footer") {
        return Err("last line is not the footer record".to_string());
    }
    let declared_events = req_u64(&footer, "events").map_err(|e| format!("footer: {e}"))?;
    let declared_cells = req_u64(&footer, "cells").map_err(|e| format!("footer: {e}"))?;
    if declared_events != rec.events as u64 {
        return Err(format!(
            "footer declares {declared_events} events but the record holds {}",
            rec.events
        ));
    }
    if declared_cells != rec.cells as u64 {
        return Err(format!(
            "footer declares {declared_cells} cells but the record holds {} cell events",
            rec.cells
        ));
    }
    let progress = footer.get("progress").ok_or("footer: missing `progress`")?;
    for key in ["queued", "started", "finished", "warm_hits"] {
        req_u64(progress, key).map_err(|e| format!("footer progress: {e}"))?;
    }
    if rec.schema_version >= 2 {
        // The cell-cache counters arrived with schema v2; a v1 record
        // legitimately lacks them.
        for key in ["cache_hits", "cache_misses"] {
            req_u64(progress, key).map_err(|e| format!("footer progress: {e}"))?;
        }
    }
    let workers =
        progress.get("workers").and_then(Value::as_arr).ok_or("footer: missing `workers` array")?;
    for w in workers {
        req_u64(w, "busy_ns").map_err(|e| format!("footer worker: {e}"))?;
        req_u64(w, "items").map_err(|e| format!("footer worker: {e}"))?;
    }
    Ok(rec)
}

/// A unix timestamp as a compact, lexicographically-sortable UTC stamp
/// (`YYYYMMDDTHHMMSSZ`; civil-from-days Gregorian arithmetic, no
/// timezone dependency).
pub fn utc_stamp(ts: u64) -> String {
    let days = (ts / 86_400) as i64;
    let secs = ts % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}{m:02}{d:02}T{:02}{:02}{:02}Z", secs / 3_600, (secs / 60) % 60, secs % 60)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ms-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta() -> RunMeta {
        RunMeta {
            cmd: "forwarding".to_string(),
            argv: vec!["forwarding".to_string(), "--jobs".to_string(), "2".to_string()],
            git: "abc1234".to_string(),
            params: vec![("jobs".to_string(), "2".to_string())],
        }
    }

    #[test]
    fn utc_stamps_are_civil_and_sortable() {
        assert_eq!(utc_stamp(0), "19700101T000000Z");
        assert_eq!(utc_stamp(951_782_400), "20000229T000000Z");
        assert_eq!(utc_stamp(1_754_006_400 + 3_661), "20250801T010101Z");
        assert!(utc_stamp(1_000_000_000) < utc_stamp(2_000_000_000));
    }

    #[test]
    fn record_round_trips_through_the_validator() {
        let dir = tmp("roundtrip");
        let mut ledger = RunLedger::open_at(&dir, &meta(), 1_754_006_400).unwrap();
        assert_eq!(ledger.id(), "20250801T000000Z-abc1234-forwarding");
        ledger.event("cell", vec![("cell", Value::Str("go-dead".to_string()))]);
        ledger.event("cell", vec![("cell", Value::Str("go-naive".to_string()))]);
        ledger.event("note", vec![("text", Value::Str("warmup done".to_string()))]);
        ledger.artifact("target/experiments/forwarding/go-dead.json");
        let mut snap = ProgressSnapshot::default();
        snap.queued = 2;
        snap.finished = 2;
        snap.workers = vec![(123, 2)];
        let path = ledger.close("ok", 0, &snap).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let rec = validate_record(&text).expect("record validates");
        assert_eq!(rec.cmd, "forwarding");
        assert_eq!(rec.git, "abc1234");
        assert_eq!(rec.ts, 1_754_006_400);
        assert_eq!(rec.events, 3);
        assert_eq!(rec.cells, 2);
        assert_eq!(rec.outcome.as_deref(), Some("ok"));
        assert_eq!(rec.exit_code, Some(0));
        assert_eq!(rec.artifacts.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_only_record_parses_but_never_validates() {
        let dir = tmp("stub");
        let ledger = RunLedger::open_at(&dir, &meta(), 1_754_006_400).unwrap();
        let text = std::fs::read_to_string(ledger.path()).unwrap();
        let rec = parse_record(&text).expect("header-only record parses");
        assert_eq!(rec.outcome, None);
        assert!(validate_record(&text).unwrap_err().contains("no footer"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn colliding_stamps_get_numeric_suffixes() {
        let dir = tmp("collide");
        let a = RunLedger::open_at(&dir, &meta(), 1_754_006_400).unwrap();
        let b = RunLedger::open_at(&dir, &meta(), 1_754_006_400).unwrap();
        assert_ne!(a.id(), b.id());
        assert!(b.id().ends_with("-2"), "got {}", b.id());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validation_rejects_count_mismatches() {
        let dir = tmp("mismatch");
        let mut ledger = RunLedger::open_at(&dir, &meta(), 1_754_006_400).unwrap();
        ledger.event("cell", vec![("cell", Value::Str("x".to_string()))]);
        let path = ledger.close("ok", 0, &ProgressSnapshot::default()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(validate_record(&text).is_ok());
        let broken = text.replace("\"cells\":1", "\"cells\":7");
        assert!(validate_record(&broken).unwrap_err().contains("7 cells"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_sink_counts_nothing_and_enabled_sink_counts() {
        let off = ProgressSink::disabled();
        off.add_queued(5);
        off.cell_started();
        off.worker_busy(0, 100, 1);
        assert_eq!(off.snapshot(), ProgressSnapshot::default());

        let on = ProgressSink::new(2);
        on.add_queued(3);
        on.cell_started();
        on.cell_finished();
        on.warm_hit();
        on.cache_hit();
        on.cache_hit();
        on.cache_miss();
        on.worker_busy(1, 250, 1);
        on.worker_busy(9, 999, 1); // out of range: ignored
        let snap = on.snapshot();
        assert_eq!(snap.queued, 3);
        assert_eq!(snap.started, 1);
        assert_eq!(snap.finished, 1);
        assert_eq!(snap.warm_hits, 1);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.workers, vec![(0, 0), (250, 1)]);
    }

    #[test]
    fn v1_records_without_cache_counters_still_validate() {
        let v1 = "{\"schema_version\":1,\"format\":\"ms-run-ledger\",\"record\":\"header\",\
                  \"id\":\"20250801T000000Z-abc1234-forwarding\",\"ts\":1754006400,\
                  \"git\":\"abc1234\",\"cmd\":\"forwarding\",\"argv\":[\"forwarding\"],\
                  \"params\":{},\"machine\":{\"os\":\"linux\",\"arch\":\"x86_64\",\"cpus\":8}}\n\
                  {\"record\":\"footer\",\"outcome\":\"ok\",\"exit_code\":0,\"duration_ns\":5,\
                  \"events\":0,\"cells\":0,\"artifacts\":[],\"progress\":{\"queued\":0,\
                  \"started\":0,\"finished\":0,\"warm_hits\":0,\"workers\":[]}}\n";
        let rec = validate_record(v1).expect("v1 record validates without cache counters");
        assert_eq!(rec.schema_version, 1);

        // The same footer under a v2 header must carry the counters.
        let v2 = v1.replace("\"schema_version\":1", "\"schema_version\":2");
        assert!(validate_record(&v2).unwrap_err().contains("cache_hits"));
        let v2_full =
            v2.replace("\"warm_hits\":0,", "\"warm_hits\":0,\"cache_hits\":0,\"cache_misses\":0,");
        assert_eq!(validate_record(&v2_full).expect("full v2 validates").schema_version, 2);

        // Versions outside the readable range are rejected outright.
        let v9 = v1.replace("\"schema_version\":1", "\"schema_version\":9");
        assert!(parse_record(&v9).unwrap_err().contains("schema_version 9"));
    }
}
