//! The data a profiling session hands back.

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
    /// Histograms, sorted by name.
    pub hists: Vec<(String, HistStat)>,
}

impl Report {
    /// Wall time charged to the top-level spans (paths without `/`) —
    /// by construction never more than the session's end-to-end wall
    /// time, since nested spans are charged to deeper paths.
    pub fn top_level_total_ns(&self) -> u64 {
        self.spans.iter().filter(|s| !s.path.contains('/')).map(|s| s.total_ns).sum()
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
}
