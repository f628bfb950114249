//! The thread-local collector behind [`span`] and the registry calls.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::report::{Report, SpanInstance, SpanStat};

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = RefCell::new(None);
}

/// Accumulated data for one span path.
#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    items: u64,
}

/// The live profiling session for one thread.
#[derive(Debug)]
struct Collector {
    /// Time zero for span instance timestamps.
    epoch: Instant,
    /// Names of the currently open spans, outermost first.
    stack: Vec<String>,
    /// Per-path aggregates, keyed by the `/`-joined span path.
    aggs: BTreeMap<String, SpanAgg>,
    /// Every closed span occurrence, in closing order.
    instances: Vec<SpanInstance>,
    counters: BTreeMap<&'static str, u64>,
}

impl Collector {
    fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            instances: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Closes the innermost span: pops the stack, charges `dur` and
    /// `items` to the full path, and records the instance.
    fn exit(&mut self, start: Instant, dur_ns: u64, items: u64) {
        let name = self.stack.pop().unwrap_or_else(|| "?".to_string());
        let path = if self.stack.is_empty() {
            name
        } else {
            let mut p = self.stack.join("/");
            p.push('/');
            p.push_str(&name);
            p
        };
        let agg = self.aggs.entry(path.clone()).or_default();
        agg.count += 1;
        agg.total_ns += dur_ns;
        agg.items += items;
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.instances.push(SpanInstance { path, start_ns, dur_ns });
    }

    fn into_report(self) -> Report {
        Report {
            spans: self
                .aggs
                .into_iter()
                .map(|(path, a)| SpanStat {
                    path,
                    count: a.count,
                    total_ns: a.total_ns,
                    items: a.items,
                })
                .collect(),
            instances: self.instances,
            counters: self.counters.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }
}

/// Installs a fresh collector on the current thread. A collector that
/// was already enabled is discarded (its data is lost).
pub fn enable() {
    COLLECTOR.with(|c| *c.borrow_mut() = Some(Collector::new()));
}

/// Uninstalls the current thread's collector and returns its
/// [`Report`]; `None` if profiling was not enabled. Spans still open
/// when `disable` runs are dropped from the report (their guards
/// outlived the session).
pub fn disable() -> Option<Report> {
    COLLECTOR.with(|c| c.borrow_mut().take()).map(Collector::into_report)
}

/// Whether a collector is installed on the current thread. Callers with
/// non-trivial *preparation* cost for registry values (e.g. walking a
/// partition to count tasks and blocks) should gate on this; plain
/// [`span`]/[`counter_add`] calls need no guard.
pub fn is_enabled() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// An open span. Created by [`span`]/[`span_owned`]; records its wall
/// time (and [items](Span::add_items)) to the thread's collector on
/// drop. Guards must drop in LIFO order — in practice, bind one per
/// scope (`let _span = ms_prof::span("phase");`).
#[derive(Debug)]
pub struct Span {
    /// `None` = the null span: profiling was off at creation.
    start: Option<Instant>,
    items: std::cell::Cell<u64>,
}

impl Span {
    /// The no-op span handed out while profiling is off.
    fn null() -> Self {
        Span { start: None, items: std::cell::Cell::new(0) }
    }

    /// Adds `n` work items (blocks, dynamic instructions, …) to the
    /// span, giving the report a throughput (`items / total_ns`).
    pub fn add_items(&self, n: u64) {
        if self.start.is_some() {
            self.items.set(self.items.get() + n);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur_ns = start.elapsed().as_nanos() as u64;
            COLLECTOR.with(|c| {
                if let Some(col) = c.borrow_mut().as_mut() {
                    col.exit(start, dur_ns, self.items.get());
                }
            });
        }
    }
}

/// Opens a span named `name` on the current thread. With profiling off
/// this is the null span: no clock read, no allocation.
pub fn span(name: &'static str) -> Span {
    span_impl(|| name.to_string())
}

/// [`span`] for dynamically built names (e.g. the per-cell spans of
/// `run -- perf`). The closure-free string is only constructed when
/// profiling is on — prefer passing a pre-built `String` only from
/// call sites that already know profiling is enabled.
pub fn span_owned(name: String) -> Span {
    span_impl(move || name)
}

fn span_impl(name: impl FnOnce() -> String) -> Span {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        match slot.as_mut() {
            Some(col) => {
                col.stack.push(name());
                Span { start: Some(Instant::now()), items: std::cell::Cell::new(0) }
            }
            None => Span::null(),
        }
    })
}

/// Adds `delta` to the named monotonic counter. No-op while profiling
/// is off.
pub fn counter_add(name: &'static str, delta: u64) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            *col.counters.entry(name).or_insert(0) += delta;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_null_span_is_inert() {
        assert!(!is_enabled());
        let s = span("nothing");
        s.add_items(10);
        drop(s);
        assert!(disable().is_none());
    }

    #[test]
    fn spans_nest_into_paths() {
        enable();
        {
            let _a = span("a");
            {
                let _b = span("b");
            }
            {
                let _b = span_owned("b".to_string());
            }
        }
        let r = disable().unwrap();
        let paths: Vec<(&str, u64)> = r.spans.iter().map(|s| (s.path.as_str(), s.count)).collect();
        assert_eq!(paths, [("a", 1), ("a/b", 2)]);
        assert_eq!(r.instances.len(), 3, "one instance per span occurrence");
        assert_eq!(r.instances[0].path, "a/b", "inner spans close first");
    }

    #[test]
    fn registry_records_counters_gauges_hists() {
        enable();
        counter_add("c", 2);
        counter_add("c", 3);
        let r = disable().unwrap();
        assert_eq!(r.counters, [("c".to_string(), 5)]);
    }

    #[test]
    fn items_accumulate_and_feed_throughput() {
        enable();
        {
            let s = span("work");
            s.add_items(7);
            s.add_items(5);
        }
        let r = disable().unwrap();
        assert_eq!(r.spans[0].items, 12);
    }
}
