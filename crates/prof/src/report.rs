//! The data a profiling session hands back, and its JSON form.

use std::fmt::Write as _;

/// Version of the profiler report JSON fragments
/// ([`Report::spans_json`], [`Report::registry_json`]): the `spans`,
/// `counters`, `gauges` and `hists` shapes.
pub const PROF_SCHEMA_VERSION: u32 = 1;

/// Number of log2 histogram buckets: bucket `i` holds values whose
/// `hist_bucket` is `i`, i.e. `0`, then `[2^(i-1), 2^i)`.
pub const HIST_BUCKETS: usize = 65;

/// The log2 bucket index for `v`: `0` for `v == 0`, otherwise
/// `64 - v.leading_zeros()` (so 1 → 1, 2..=3 → 2, 4..=7 → 3, …).
pub fn hist_bucket(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Aggregated wall time for one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// `/`-joined hierarchical path (`select/analysis.defuse`).
    pub path: String,
    /// Times the span closed.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
    /// Summed work items (0 when the span never called `add_items`).
    pub items: u64,
}

impl SpanStat {
    /// Items per second, if the span recorded items and took time.
    pub fn per_s(&self) -> Option<f64> {
        (self.items > 0 && self.total_ns > 0)
            .then(|| self.items as f64 / (self.total_ns as f64 / 1e9))
    }
}

/// One closed span occurrence — the raw material of the Chrome
/// `trace_event` pipeline view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanInstance {
    /// `/`-joined hierarchical path at closing time.
    pub path: String,
    /// Start, nanoseconds since the collector was enabled.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// A monotonic log2-bucketed histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistStat {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Fixed log2 buckets (see [`hist_bucket`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistStat {
    fn default() -> Self {
        HistStat { count: 0, sum: 0, buckets: [0; HIST_BUCKETS] }
    }
}

/// Everything one profiling session collected.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-path aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Raw span occurrences, in closing order.
    pub instances: Vec<SpanInstance>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by name.
    pub hists: Vec<(String, HistStat)>,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// Wall time charged to the top-level spans (paths without `/`) —
    /// by construction never more than the session's end-to-end wall
    /// time, since nested spans are charged to deeper paths.
    pub fn top_level_total_ns(&self) -> u64 {
        self.spans.iter().filter(|s| !s.path.contains('/')).map(|s| s.total_ns).sum()
    }

    /// The `spans` array as hand-rolled JSON (stable order — sorted by
    /// path), one object per path with `path`, `count`, `total_ns`,
    /// `items`.
    pub fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"path\":\"{}\",\"count\":{},\"total_ns\":{},\"items\":{}}}",
                    esc(&s.path),
                    s.count,
                    s.total_ns,
                    s.items
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }

    /// The registry (counters, gauges, non-empty histogram buckets) as
    /// one hand-rolled JSON object.
    pub fn registry_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{{\"name\":\"{}\",\"value\":{v}}}", esc(k)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| {
                if v.is_finite() {
                    format!("{{\"name\":\"{}\",\"value\":{v}}}", esc(k))
                } else {
                    format!("{{\"name\":\"{}\",\"value\":null}}", esc(k))
                }
            })
            .collect();
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(i, &n)| format!("[{i},{n}]"))
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"count\":{},\"sum\":{},\"log2_buckets\":[{}]}}",
                    esc(k),
                    h.count,
                    h.sum,
                    buckets.join(",")
                )
            })
            .collect();
        format!(
            "{{\"counters\":[{}],\"gauges\":[{}],\"hists\":[{}]}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(u64::MAX), 64);
    }

    #[test]
    fn per_s_requires_items_and_time() {
        let mut s = SpanStat { path: "p".into(), count: 1, total_ns: 500_000_000, items: 0 };
        assert!(s.per_s().is_none());
        s.items = 100;
        assert!((s.per_s().unwrap() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn top_level_total_excludes_nested_paths() {
        let r = Report {
            spans: vec![
                SpanStat { path: "a".into(), count: 1, total_ns: 10, items: 0 },
                SpanStat { path: "a/b".into(), count: 1, total_ns: 7, items: 0 },
                SpanStat { path: "c".into(), count: 1, total_ns: 5, items: 0 },
            ],
            ..Report::default()
        };
        assert_eq!(r.top_level_total_ns(), 15);
    }

    #[test]
    fn json_fragments_are_well_formed() {
        let mut h = HistStat::default();
        h.count = 1;
        h.sum = 5;
        h.buckets[hist_bucket(5)] = 1;
        let r = Report {
            spans: vec![SpanStat { path: "a\"b".into(), count: 1, total_ns: 2, items: 3 }],
            counters: vec![("c".into(), 4)],
            gauges: vec![("g".into(), f64::NAN)],
            hists: vec![("h".into(), h)],
            ..Report::default()
        };
        assert_eq!(
            r.spans_json(),
            "[{\"path\":\"a\\\"b\",\"count\":1,\"total_ns\":2,\"items\":3}]"
        );
        let reg = r.registry_json();
        assert!(reg.contains("\"counters\":[{\"name\":\"c\",\"value\":4}]"));
        assert!(reg.contains("\"value\":null"));
        assert!(reg.contains("\"log2_buckets\":[[3,1]]"));
    }
}
