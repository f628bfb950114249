//! The data a profiling session hands back.

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

/// Everything one profiling session collected.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-path aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Raw span occurrences, in closing order.
    pub instances: Vec<SpanInstance>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
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
