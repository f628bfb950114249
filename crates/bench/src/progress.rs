//! The live sweep progress line: a TTY-only stderr renderer fed by the
//! scheduler's [`ProgressSink`].
//!
//! The line is pure presentation — artifacts, ledger events and stdout
//! are byte-identical whether it renders or not. It turns itself off
//! (to a zero-cost no-op) when stderr is not a terminal (piped/CI),
//! when `--quiet` is passed, or when `MS_NO_PROGRESS` is set in the
//! environment. Anatomy (see `docs/OBSERVABILITY.md`):
//!
//! ```text
//! forwarding 7/12 cells · 118.3/s · eta 0s · warm 5 · [▆▇▅█]
//! ```
//!
//! left to right: sweep label, finished/queued cells, finish rate,
//! remaining-time estimate, context-cache warm hits, and one occupancy
//! glyph per worker (busy wall-time ÷ elapsed wall-time, ` ` → `█`).

use std::cell::Cell;
use std::io::{IsTerminal, Write};
use std::time::{Duration, Instant};

use ms_prof::ledger::{ProgressSink, ProgressSnapshot};

/// Minimum interval between repaints: fast enough to look live, slow
/// enough that rendering never shows up in a profile.
const REPAINT: Duration = Duration::from_millis(100);

/// Occupancy glyphs from idle to saturated, one per worker slot.
const OCCUPANCY: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// A throttled `\r`-rewriting stderr progress line. Construct one per
/// sweep via [`ProgressLine::stderr`]; call [`tick`](ProgressLine::tick)
/// from the scheduler's heartbeat and [`finish`](ProgressLine::finish)
/// before printing the sweep's report.
#[derive(Debug)]
pub struct ProgressLine {
    enabled: bool,
    label: String,
    start: Instant,
    last_paint: Cell<Option<Instant>>,
    painted: Cell<bool>,
}

impl ProgressLine {
    /// A progress line for `label`, enabled only when stderr is a
    /// terminal, `quiet` is false and `MS_NO_PROGRESS` is unset.
    pub fn stderr(label: &str, quiet: bool) -> ProgressLine {
        let enabled = !quiet
            && std::env::var_os("MS_NO_PROGRESS").is_none()
            && std::io::stderr().is_terminal();
        ProgressLine {
            enabled,
            label: label.to_string(),
            start: Instant::now(),
            last_paint: Cell::new(None),
            painted: Cell::new(false),
        }
    }

    /// Repaints the line from a fresh snapshot of `sink`, at most once
    /// per repaint interval (100 ms). A disabled line returns
    /// immediately.
    pub fn tick(&self, sink: &ProgressSink) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        if let Some(last) = self.last_paint.get() {
            if now.duration_since(last) < REPAINT {
                return;
            }
        }
        self.last_paint.set(Some(now));
        self.painted.set(true);
        let line = render(&self.label, &sink.snapshot(), now.duration_since(self.start));
        let mut err = std::io::stderr().lock();
        // Pad then carriage-return so a shrinking line leaves no tail.
        let _ = write!(err, "\r{line:<78}\r");
        let _ = err.flush();
    }

    /// Clears the line (if anything was painted) so the report that
    /// follows starts on a clean row.
    pub fn finish(&self) {
        if self.enabled && self.painted.get() {
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\r{:<78}\r", "");
            let _ = err.flush();
        }
    }
}

fn render(label: &str, snap: &ProgressSnapshot, elapsed: Duration) -> String {
    let secs = elapsed.as_secs_f64().max(1e-9);
    let rate = snap.finished as f64 / secs;
    let remaining = snap.queued.saturating_sub(snap.finished);
    let eta = if snap.finished == 0 || rate <= 0.0 {
        "?".to_string()
    } else {
        fmt_secs(remaining as f64 / rate)
    };
    let elapsed_ns = (secs * 1e9).max(1.0);
    let bar: String = snap
        .workers
        .iter()
        .map(|&(busy_ns, _)| {
            let occ = (busy_ns as f64 / elapsed_ns).clamp(0.0, 1.0);
            OCCUPANCY[(occ * (OCCUPANCY.len() - 1) as f64).round() as usize]
        })
        .collect();
    let cache = if snap.cache_hits + snap.cache_misses > 0 {
        format!(" · cache {}/{}", snap.cache_hits, snap.cache_hits + snap.cache_misses)
    } else {
        String::new()
    };
    format!(
        "{label} {}/{} cells · {rate:.1}/s · eta {eta} · warm {}{cache} · [{bar}]",
        snap.finished, snap.queued, snap.warm_hits
    )
}

fn fmt_secs(s: f64) -> String {
    if s >= 90.0 {
        format!("{:.0}m{:02.0}s", (s / 60.0).floor(), s % 60.0)
    } else {
        format!("{s:.0}s")
    }
}

/// The observability hooks the sweep scheduler threads through its
/// stages: the counter sink, the caller-thread heartbeat that drives
/// the progress line, plus the optional cell-cache handle.
pub struct SweepObserver<'a> {
    /// Destination for queued/started/finished/warm-hit counters and
    /// per-worker busy tallies.
    pub sink: &'a ProgressSink,
    /// Invoked on the coordinating thread each time a work item
    /// completes; the progress line repaints here.
    pub on_tick: &'a dyn Fn(),
    /// Content-addressed cell cache; `None` runs every cell (the
    /// default without `--cache-dir`).
    pub cache: Option<&'a crate::cache::CellCache>,
}

impl SweepObserver<'_> {
    /// The no-op observer: a disabled sink, an empty heartbeat, no
    /// cache. What library callers that don't care about telemetry
    /// pass.
    pub fn silent() -> SweepObserver<'static> {
        static SILENT: ProgressSink = ProgressSink::disabled();
        SweepObserver { sink: &SILENT, on_tick: &|| {}, cache: None }
    }
}

impl std::fmt::Debug for SweepObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepObserver").field("sink", self.sink).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shows_counts_rate_eta_and_occupancy() {
        let snap = ProgressSnapshot {
            queued: 12,
            started: 8,
            finished: 6,
            warm_hits: 5,
            workers: vec![(2_000_000_000, 3), (1_000_000_000, 2), (0, 0), (2_000_000_000, 1)],
            ..Default::default()
        };
        let line = render("forwarding", &snap, Duration::from_secs(2));
        assert!(line.starts_with("forwarding 6/12 cells · 3.0/s · eta 2s · warm 5 · ["));
        assert!(line.contains("[█▄ █]"), "occupancy bar renders per-worker glyphs: {line}");

        // With cell-cache traffic the line gains a hits/lookups field.
        let snap = ProgressSnapshot { cache_hits: 9, cache_misses: 3, ..snap };
        let line = render("forwarding", &snap, Duration::from_secs(2));
        assert!(line.contains("warm 5 · cache 9/12 · ["), "{line}");
    }

    #[test]
    fn eta_is_unknown_before_the_first_finish() {
        let snap = ProgressSnapshot { queued: 4, ..Default::default() };
        let line = render("x", &snap, Duration::from_millis(10));
        assert!(line.contains("eta ?"), "{line}");
    }

    #[test]
    fn long_etas_use_minutes() {
        assert_eq!(fmt_secs(125.0), "2m05s");
        assert_eq!(fmt_secs(45.0), "45s");
    }

    #[test]
    fn silent_observer_is_disabled() {
        let obs = SweepObserver::silent();
        assert!(!obs.sink.is_enabled());
        (obs.on_tick)();
    }
}
