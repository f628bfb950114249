//! Self-profiling for the reproduction pipeline: a dependency-free,
//! zero-cost-when-off hierarchical span profiler plus a metrics
//! registry.
//!
//! PR 2 made the *simulated machine* observable (`ms_sim::TraceSink`);
//! this crate makes the *pipeline itself* observable: where wall-clock
//! goes across workload build → analysis passes → task selection →
//! trace generation → simulation. Every pipeline phase in the library
//! crates opens a [`span`]; the `run -- perf` driver subcommand enables
//! a collector, runs the canonical sweep cells, and turns the report
//! into per-phase and per-cell median tables plus a Chrome
//! `trace_event` view (see `docs/PROFILING.md`).
//!
//! # Design
//!
//! Profiling state is **thread-local** and off by default. [`span`]
//! consults the thread's collector slot; with no collector installed it
//! returns the null span — no clock read, no allocation, no branch
//! beyond the thread-local check. That disabled path is the
//! [`NullProfiler`], mirroring `ms_sim::NullSink`: the
//! `tests/no_alloc.rs` integration test pins the no-allocation
//! guarantee with a counting global allocator, and `ms-sim` pins it on
//! the hot simulation loop.
//!
//! With a collector [`enable`]d, spans nest: each guard pushes its name
//! on a stack, and on drop charges its wall time to the `/`-joined
//! path (`select/analysis.defuse`). The registry half records named
//! [counters](counter_add), [gauges](gauge_set) and monotonic
//! [histograms](hist_record) with fixed log2 buckets. [`disable`]
//! returns everything as a [`Report`] — aggregated span stats, raw span
//! instances (for the Chrome `trace_event` view), and the registry.
//!
//! # Example
//!
//! ```
//! ms_prof::enable();
//! {
//!     let outer = ms_prof::span("select");
//!     outer.add_items(128); // e.g. blocks partitioned -> blocks/s
//!     let _inner = ms_prof::span("analysis.dom");
//!     ms_prof::counter_add("select.tasks", 3);
//!     ms_prof::hist_record("select.task_blocks", 5);
//! }
//! let report = ms_prof::disable().unwrap();
//! let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
//! assert_eq!(paths, ["select", "select/analysis.dom"]);
//! assert_eq!(report.counters[0], ("select.tasks".to_string(), 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jsonv;
pub mod ledger;
mod profiler;
mod report;

pub use profiler::{
    counter_add, disable, enable, gauge_set, hist_record, is_enabled, span, span_owned,
    NullProfiler, Span,
};
pub use report::{hist_bucket, HistStat, Report, SpanInstance, SpanStat};
