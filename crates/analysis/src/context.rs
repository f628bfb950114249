//! The shared, lazily-computed analysis bundle behind task selection.
//!
//! Every consumer of this crate's analyses — the task selector, the
//! task-size transform, partition statistics, the experiment sweeps —
//! historically recomputed dominators, loops, def-use chains and the
//! profile from scratch per use. A [`ProgramContext`] memoizes all of
//! them per program: results are computed on first access, cached
//! forever (the program is immutable), and shared across clones and
//! threads through one `Arc`.
//!
//! # Sharing model
//!
//! * A context owns its program via `Arc<Program>`; cloning a context is
//!   an `Arc` bump — all clones observe one cache.
//! * Each analysis lives in a [`std::sync::OnceLock`] slot, so two
//!   threads racing on a cold slot compute it **exactly once**: the
//!   loser blocks until the winner's result lands, then borrows it.
//! * Results are returned by reference and stay valid for the context's
//!   lifetime; nothing is ever invalidated (the program cannot change).
//!
//! Cache effectiveness is observable through [`ProgramContext::cache_stats`]
//! and, when the [`ms_prof`] collector is enabled, the `ctx.hit` /
//! `ctx.miss` registry counters.
//!
//! # Example
//!
//! ```
//! use ms_analysis::ProgramContext;
//! use ms_ir::{FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};
//!
//! let mut fb = FunctionBuilder::new("main");
//! let b = fb.add_block();
//! fb.push_inst(b, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
//! fb.set_terminator(b, Terminator::Halt);
//! let mut pb = ProgramBuilder::new();
//! let m = pb.declare_function("main");
//! pb.define_function(m, fb.finish(b)?);
//! let ctx = ProgramContext::new(pb.finish(m)?);
//!
//! let dom = ctx.dom(m);           // computed now
//! assert!(std::ptr::eq(dom, ctx.dom(m))); // served from the cache
//! assert_eq!(ctx.cache_stats().misses, 1);
//! assert_eq!(ctx.cache_stats().hits, 1);
//! # Ok::<(), ms_ir::BuildError>(())
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ms_ir::{FuncId, Function, Program};

use crate::callgraph::CallGraph;
use crate::defuse::DefUseChains;
use crate::dom::Dominators;
use crate::liveness::Liveness;
use crate::loops::LoopForest;
use crate::order::DfsOrder;
use crate::profile::Profile;
use crate::reach::Reachability;

/// The lazily-filled analysis slots of one function.
#[derive(Debug, Default)]
struct FuncSlots {
    dom: OnceLock<Dominators>,
    loops: OnceLock<LoopForest>,
    order: OnceLock<DfsOrder>,
    defuse: OnceLock<DefUseChains>,
    liveness: OnceLock<Liveness>,
    reach: OnceLock<Reachability>,
}

#[derive(Debug)]
struct Inner {
    program: Arc<Program>,
    funcs: Vec<FuncSlots>,
    profile: OnceLock<Profile>,
    callgraph: OnceLock<CallGraph>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// How often a context served a cached analysis vs. computed one.
///
/// A *miss* is counted once per slot actually computed; an access that
/// finds the slot warm is a *hit*. (A thread that loses a cold-slot race
/// counts as neither: it neither computed nor found the value warm.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses served from an already-computed slot.
    pub hits: u64,
    /// Slots computed (exactly once each, even under races).
    pub misses: u64,
}

/// An `Arc`-shared, lazily-computed, immutable bundle of every analysis
/// of one program.
///
/// See the module documentation above for the ownership and sharing
/// model. Cloning is cheap (`Arc` bump) and all clones share one cache.
#[derive(Debug, Clone)]
pub struct ProgramContext {
    inner: Arc<Inner>,
}

impl ProgramContext {
    /// Wraps a program (or an `Arc` of one) in an empty context. No
    /// analysis runs until first access.
    pub fn new(program: impl Into<Arc<Program>>) -> Self {
        let program = program.into();
        let funcs = (0..program.num_functions()).map(|_| FuncSlots::default()).collect();
        ProgramContext {
            inner: Arc::new(Inner {
                program,
                funcs,
                profile: OnceLock::new(),
                callgraph: OnceLock::new(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// The program every analysis refers to.
    pub fn program(&self) -> &Program {
        &self.inner.program
    }

    /// The shared program handle (for callers that keep the program
    /// alive beyond the context, e.g. a `Selection`).
    pub fn program_arc(&self) -> &Arc<Program> {
        &self.inner.program
    }

    /// The function behind `func` (convenience for analysis consumers).
    pub fn function(&self, func: FuncId) -> &Function {
        self.inner.program.function(func)
    }

    /// Cache hits and misses so far, across every clone of this context.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
        }
    }

    fn slots(&self, func: FuncId) -> &FuncSlots {
        &self.inner.funcs[func.index()]
    }

    /// Serves `slot`, computing it on first access, and keeps the
    /// hit/miss books (registry counters `ctx.hit` / `ctx.miss`).
    fn serve<'a, T>(&'a self, slot: &'a OnceLock<T>, compute: impl FnOnce() -> T) -> &'a T {
        if let Some(v) = slot.get() {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            ms_prof::counter_add("ctx.hit", 1);
            return v;
        }
        slot.get_or_init(|| {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
            ms_prof::counter_add("ctx.miss", 1);
            compute()
        })
    }

    /// The dominator tree of `func`.
    pub fn dom(&self, func: FuncId) -> &Dominators {
        self.serve(&self.slots(func).dom, || Dominators::compute(self.function(func)))
    }

    /// The natural-loop forest of `func`.
    pub fn loops(&self, func: FuncId) -> &LoopForest {
        self.serve(&self.slots(func).loops, || {
            LoopForest::compute(self.function(func), self.dom(func))
        })
    }

    /// The DFS numbering of `func`.
    pub fn order(&self, func: FuncId) -> &DfsOrder {
        self.serve(&self.slots(func).order, || DfsOrder::compute(self.function(func)))
    }

    /// The cross-block def-use chains of `func`.
    pub fn defuse(&self, func: FuncId) -> &DefUseChains {
        self.serve(&self.slots(func).defuse, || DefUseChains::compute(self.function(func)))
    }

    /// The live-register analysis of `func`.
    pub fn liveness(&self, func: FuncId) -> &Liveness {
        self.serve(&self.slots(func).liveness, || Liveness::compute(self.function(func)))
    }

    /// The block-to-block reachability (codependent sets) of `func`.
    pub fn reach(&self, func: FuncId) -> &Reachability {
        self.serve(&self.slots(func).reach, || Reachability::compute(self.function(func)))
    }

    /// The estimated execution-frequency profile of the whole program.
    pub fn profile(&self) -> &Profile {
        self.serve(&self.inner.profile, || Profile::estimate(self.program()))
    }

    /// The program's call graph.
    pub fn callgraph(&self) -> &CallGraph {
        self.serve(&self.inner.callgraph, || CallGraph::compute(self.program()))
    }

    /// Eagerly computes the control-flow analyses every selection
    /// strategy consumes (profile plus per-function dominators, loops
    /// and DFS order), and with `deps` also the dependence analyses
    /// (def-use chains and reachability) the data-dependence heuristic
    /// needs. A caller that times selection apart from analysis calls
    /// this first, so selection finds every slot hot.
    pub fn warm(&self, deps: bool) {
        self.profile();
        for fid in self.program().func_ids() {
            self.dom(fid);
            self.loops(fid);
            self.order(fid);
            if deps {
                self.defuse(fid);
                self.reach(fid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};

    fn looped_program() -> Program {
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let body = fb.add_block();
        let exit = fb.add_block();
        fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
        fb.set_terminator(entry, Terminator::Jump { target: body });
        fb.set_terminator(
            body,
            Terminator::Branch {
                taken: body,
                fall: exit,
                cond: vec![Reg::int(1)],
                behavior: BranchBehavior::exact_loop(8),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        pb.define_function(m, fb.finish(entry).unwrap());
        pb.finish(m).unwrap()
    }

    #[test]
    fn cached_results_match_direct_computation() {
        let p = looped_program();
        let ctx = ProgramContext::new(p.clone());
        let m = p.entry();
        let f = p.function(m);
        assert_eq!(format!("{:?}", ctx.dom(m)), format!("{:?}", Dominators::compute(f)));
        assert_eq!(format!("{:?}", ctx.order(m)), format!("{:?}", DfsOrder::compute(f)));
        assert_eq!(ctx.loops(m).loops().len(), 1);
    }

    #[test]
    fn second_access_is_a_hit_not_a_recompute() {
        let ctx = ProgramContext::new(looped_program());
        let m = ctx.program().entry();
        let first = ctx.dom(m) as *const Dominators;
        let second = ctx.dom(m) as *const Dominators;
        assert_eq!(first, second, "cached value must be the same object");
        let stats = ctx.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn clones_share_one_cache() {
        let ctx = ProgramContext::new(looped_program());
        let m = ctx.program().entry();
        let clone = ctx.clone();
        let a = ctx.defuse(m) as *const DefUseChains;
        let b = clone.defuse(m) as *const DefUseChains;
        assert_eq!(a, b);
        assert_eq!(clone.cache_stats().misses, 1);
    }

    #[test]
    fn warm_fills_every_selection_slot() {
        let ctx = ProgramContext::new(looped_program());
        ctx.warm(true);
        let cold_misses = ctx.cache_stats().misses;
        ctx.warm(true); // all hits now
        assert_eq!(ctx.cache_stats().misses, cold_misses);
        // profile + (dom, loops, order, defuse, reach) for the one function.
        assert_eq!(cold_misses, 6);
    }
}
