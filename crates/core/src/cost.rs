//! The measured cost model consumed by the `cost` selection policy:
//! squash cost per candidate task boundary and stall cycles per register
//! def-use arc, as attributed by a pilot simulation's event trace
//! (`ms_sim::EventLog` → `docs/TRACING.md`).
//!
//! The model is deliberately a plain data table so that the *producer*
//! (the tracer, which knows dynamic behaviour) and the *consumer* (the
//! selector, which only sees the static CFG) can live in different
//! crates: the bench harness converts the event log's
//! `(func, static_task)` attribution keys to the task entry blocks of
//! the pilot partition and feeds them in here; the `cost` policy then
//! re-selects the very same program with the measured costs in place of
//! the static profile estimates.

use std::collections::BTreeMap;

use ms_ir::{BlockId, FuncId};

/// Measured selection costs, keyed by static CFG locations.
///
/// Two tables, both additive (repeated `add_*` calls accumulate):
///
/// * **boundary cost** — squash damage charged to the task whose entry
///   is the given block (control squashes, memory violations and their
///   restart cycles, per the tracer's squash-attribution table),
/// * **arc cost** — forwarding-stall cycles charged to the def-use arc
///   from a producing block to a consuming block (the tracer's
///   stall-attribution table, summed over registers).
///
/// `BTreeMap` keys keep iteration deterministic, so selections driven
/// by a model are exactly reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostModel {
    boundary: BTreeMap<(FuncId, BlockId), u64>,
    arcs: BTreeMap<(FuncId, BlockId, BlockId), u64>,
}

impl CostModel {
    /// An empty model (no measured costs; the `cost` policy then falls
    /// back to profile-estimated scores).
    pub fn new() -> Self {
        CostModel::default()
    }

    /// Accumulates squash cost onto the boundary whose task entry is
    /// `entry` in function `func`.
    pub fn add_boundary_cost(&mut self, func: FuncId, entry: BlockId, cost: u64) {
        *self.boundary.entry((func, entry)).or_insert(0) += cost;
    }

    /// Accumulates stall cycles onto the def-use arc
    /// `producer → consumer` in function `func`.
    pub fn add_arc_cost(&mut self, func: FuncId, producer: BlockId, consumer: BlockId, cost: u64) {
        *self.arcs.entry((func, producer, consumer)).or_insert(0) += cost;
    }

    /// Measured squash cost of a task boundary entered at `entry`
    /// (0 when unmeasured).
    pub fn boundary_cost(&self, func: FuncId, entry: BlockId) -> u64 {
        self.boundary.get(&(func, entry)).copied().unwrap_or(0)
    }

    /// Measured stall cycles of the def-use arc `producer → consumer`
    /// (0 when unmeasured).
    pub fn arc_cost(&self, func: FuncId, producer: BlockId, consumer: BlockId) -> u64 {
        self.arcs.get(&(func, producer, consumer)).copied().unwrap_or(0)
    }

    /// Whether the model carries any measurement for `func` — when it
    /// does not, the `cost` policy scores that function from the static
    /// profile instead.
    pub fn has_func(&self, func: FuncId) -> bool {
        self.boundary.keys().any(|(f, _)| *f == func) || self.arcs.keys().any(|(f, ..)| *f == func)
    }

    /// Whether the model is entirely empty.
    pub fn is_empty(&self) -> bool {
        self.boundary.is_empty() && self.arcs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_accumulate_and_default_to_zero() {
        let f = FuncId::new(0);
        let (a, b) = (BlockId::new(1), BlockId::new(2));
        let mut m = CostModel::new();
        assert!(m.is_empty());
        m.add_boundary_cost(f, a, 10);
        m.add_boundary_cost(f, a, 5);
        m.add_arc_cost(f, a, b, 7);
        assert_eq!(m.boundary_cost(f, a), 15);
        assert_eq!(m.boundary_cost(f, b), 0);
        assert_eq!(m.arc_cost(f, a, b), 7);
        assert_eq!(m.arc_cost(f, b, a), 0);
        assert!(m.has_func(f));
        assert!(!m.has_func(FuncId::new(1)));
        assert!(!m.is_empty());
    }
}
