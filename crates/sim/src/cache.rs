//! Cache hierarchy timing model.
//!
//! Latency-only set-associative caches with LRU replacement; the paper's
//! hierarchy is L1 I/D (banked, lockup-free) over a unified L2 over main
//! memory. Bandwidth contention is not modelled (the paper's caches are
//! fully pipelined and banked one bank per PU).

use ms_ir::FxMap;

use crate::config::CacheParams;

/// Way storage: `(tag, last-use stamp)` pairs, `assoc` per set. Stamp 0
/// marks an empty way (the stamp counter starts at 1), and empty ways
/// fill first because 0 is always the LRU minimum.
///
/// Small caches use one dense flat allocation (set `s` owns
/// `ways[s * assoc .. (s + 1) * assoc]`; an access touches exactly one
/// cache line of model state). Large caches — a multi-megabyte L2 is
/// ~1 MB of way state — allocate per-set lazily: a short simulation
/// touches a few thousand L2 sets out of tens of thousands, and engines
/// are rebuilt per cell, so zero-filling the dense array dominated
/// construction cost.
#[derive(Debug, Clone)]
enum Ways {
    Dense(Vec<(u64, u64)>),
    Sparse {
        /// set → first-way offset into `pool`.
        index: FxMap<u64, u32>,
        pool: Vec<(u64, u64)>,
    },
}

/// Dense/sparse crossover, in ways (128 KB of dense state at 16 B/way).
const SPARSE_WAYS_THRESHOLD: u64 = 8192;

/// A set-associative LRU cache (tags only).
#[derive(Debug, Clone, Default)]
pub(crate) struct Cache {
    ways: Ways,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    /// Set-index bits above the line offset (`set_mask.count_ones()`,
    /// computed once: the build targets no `popcnt` instruction).
    tag_shift: u32,
    hit_latency: u32,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Default for Ways {
    fn default() -> Self {
        Ways::Dense(Vec::new())
    }
}

impl Cache {
    #[cfg(test)]
    pub(crate) fn new(p: CacheParams) -> Self {
        let mut c = Cache::default();
        c.reset(p);
        c
    }

    /// Re-initialises the cache in place for `p` — every way empty, the
    /// counters zero — reusing a dense cache's allocation. A sparse
    /// cache starts with no sets (see [`Cache::free_touched_sets`]).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are not powers of two or the cache has
    /// fewer than one set.
    pub(crate) fn reset(&mut self, p: CacheParams) {
        assert!(p.line.is_power_of_two(), "line size must be a power of two");
        let num_lines = p.size / p.line;
        let num_sets = (num_lines / p.assoc as u64).max(1);
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        let num_ways = num_sets * u64::from(p.assoc);
        if num_ways > SPARSE_WAYS_THRESHOLD {
            self.ways = Ways::Sparse { index: FxMap::default(), pool: Vec::new() };
        } else if let Ways::Dense(v) = &mut self.ways {
            v.clear();
            v.resize(num_ways as usize, (0, 0));
        } else {
            self.ways = Ways::Dense(vec![(0, 0); num_ways as usize]);
        }
        self.assoc = p.assoc as usize;
        self.line_shift = p.line.trailing_zeros();
        self.set_mask = num_sets - 1;
        self.tag_shift = num_sets.trailing_zeros();
        self.hit_latency = p.hit_latency;
        self.stamp = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// Accesses `addr`; returns `true` on hit and fills the line on miss.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        let line = addr >> self.line_shift;
        let set = line & self.set_mask;
        let tag = line >> self.tag_shift;
        let assoc = self.assoc;
        let ways: &mut [(u64, u64)] = match &mut self.ways {
            Ways::Dense(v) => &mut v[set as usize * assoc..][..assoc],
            Ways::Sparse { index, pool } => {
                let off = *index.entry(set).or_insert_with(|| {
                    let off = pool.len() as u32;
                    pool.resize(pool.len() + assoc, (0, 0));
                    off
                });
                &mut pool[off as usize..][..assoc]
            }
        };
        if let Some(w) = ways.iter_mut().find(|&&mut (t, s)| s != 0 && t == tag) {
            w.1 = self.stamp;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // Replace the LRU way; empty ways (stamp 0) fill first.
        let lru = ways
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(_, s))| s)
            .map(|(i, _)| i)
            .expect("assoc >= 1");
        ways[lru] = (tag, self.stamp);
        false
    }

    /// The hit latency in cycles.
    pub(crate) fn hit_latency(&self) -> u32 {
        self.hit_latency
    }

    /// (hits, misses) counters.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Frees the ways of a cache whose sets are allocated as they are
    /// touched: their number follows the trace's footprint, not the
    /// machine. The next [`Cache::reset`] starts them afresh.
    pub(crate) fn free_touched_sets(&mut self) {
        if matches!(self.ways, Ways::Sparse { .. }) {
            self.ways = Ways::default();
        }
    }
}

/// The L1 → L2 → memory hierarchy for one access stream.
#[derive(Debug, Clone, Default)]
pub(crate) struct Hierarchy {
    l1: Cache,
    l2: Cache,
    mem_latency: u32,
}

impl Hierarchy {
    #[cfg(test)]
    pub(crate) fn new(l1: CacheParams, l2: CacheParams, mem_latency: u32) -> Self {
        let mut h = Hierarchy::default();
        h.reset(l1, l2, mem_latency);
        h
    }

    /// Re-initialises both levels in place ([`Cache::reset`]). The L2 is
    /// private to this stream in the model; the engine keeps one
    /// hierarchy per stream kind.
    pub(crate) fn reset(&mut self, l1: CacheParams, l2: CacheParams, mem_latency: u32) {
        self.l1.reset(l1);
        self.l2.reset(l2);
        self.mem_latency = mem_latency;
    }

    /// Total access latency for `addr`.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64) -> u32 {
        if self.l1.access(addr) {
            return self.l1.hit_latency();
        }
        if self.l2.access(addr) {
            return self.l1.hit_latency() + self.l2.hit_latency();
        }
        self.l1.hit_latency() + self.l2.hit_latency() + self.mem_latency
    }

    /// (L1 hits, L1 misses) counters.
    pub(crate) fn l1_counters(&self) -> (u64, u64) {
        self.l1.counters()
    }

    /// [`Cache::free_touched_sets`] on both levels.
    pub(crate) fn free_touched_sets(&mut self) {
        self.l1.free_touched_sets();
        self.l2.free_touched_sets();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheParams {
        CacheParams { size: 256, assoc: 2, line: 32, hit_latency: 1 }
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = Cache::new(tiny());
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x104), "same line");
        assert!(!c.access(0x120), "next line");
        assert_eq!(c.counters(), (2, 2));
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        let mut c = Cache::new(tiny()); // 4 sets × 2 ways, 32B lines
                                        // Three lines mapping to set 0: 0x000, 0x080(=set0? 0x80>>5=4 → set 0), 0x100.
        assert!(!c.access(0x000));
        assert!(!c.access(0x080));
        assert!(!c.access(0x100)); // evicts 0x000
        assert!(c.access(0x080), "recently used stays");
        assert!(!c.access(0x000), "evicted line misses again");
    }

    #[test]
    fn hierarchy_latencies_stack() {
        let l2 = CacheParams { size: 1024, assoc: 2, line: 64, hit_latency: 12 };
        let mut h = Hierarchy::new(tiny(), l2, 58);
        // Cold: L1 miss + L2 miss + memory.
        assert_eq!(h.access(0x1000), 1 + 12 + 58);
        // Warm in L1.
        assert_eq!(h.access(0x1000), 1);
        // Evict from L1 only; L2 still holds it.
        // (Touch enough distinct lines mapping to the same L1 set.)
        let mut evict = 0x1000 + 0x100;
        for _ in 0..8 {
            h.access(evict);
            evict += 0x100;
        }
        let lat = h.access(0x1000);
        assert!(lat == 13 || lat == 71, "L2 hit (13) or re-fetched from memory (71), got {lat}");
    }
}
