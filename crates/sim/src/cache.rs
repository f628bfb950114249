//! Cache hierarchy timing model.
//!
//! Latency-only set-associative caches with LRU replacement; the paper's
//! hierarchy is L1 I/D (banked, lockup-free) over a unified L2 over main
//! memory. Bandwidth contention is not modelled (the paper's caches are
//! fully pipelined and banked one bank per PU).

use ms_ir::FxMap;

use crate::config::CacheParams;

/// Way storage: `assoc` tags per set, most recently used first.
/// [`EMPTY`] marks a way that was never filled; empty ways sit behind
/// every filled one, so a miss that shifts the set towards its LRU end
/// drops an empty way before it evicts a line. LRU's hit/miss sequence
/// does not depend on which physical way holds a line, so keeping the
/// set in use order replaces a per-way last-use stamp: 8 bytes a way.
///
/// Small caches use one dense flat allocation (set `s` owns
/// `ways[s * assoc .. (s + 1) * assoc]`; an access touches exactly one
/// cache line of model state). Large caches — a multi-megabyte L2 is
/// half a megabyte of way state — allocate per-set lazily: a short
/// simulation touches a few thousand L2 sets out of tens of thousands,
/// and zero-filling the dense array dominated an engine's set-up.
#[derive(Debug, Clone)]
enum Ways {
    Dense(Vec<u64>),
    Sparse {
        /// set → first-way offset into `pool`.
        index: FxMap<u64, u32>,
        pool: Vec<u64>,
    },
}

/// The tag of an empty way. No line has it: tags are addresses shifted
/// right by at least the line offset.
const EMPTY: u64 = u64::MAX;

/// Dense/sparse crossover, in ways (64 KB of dense state at 8 B/way).
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
            v.resize(num_ways as usize, EMPTY);
        } else {
            self.ways = Ways::Dense(vec![EMPTY; num_ways as usize]);
        }
        self.assoc = p.assoc as usize;
        self.line_shift = p.line.trailing_zeros();
        self.set_mask = num_sets - 1;
        self.tag_shift = num_sets.trailing_zeros();
        self.hit_latency = p.hit_latency;
        self.hits = 0;
        self.misses = 0;
    }

    /// Accesses `addr`; returns `true` on hit and fills the line on miss.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = line & self.set_mask;
        let tag = line >> self.tag_shift;
        let assoc = self.assoc;
        let ways: &mut [u64] = match &mut self.ways {
            Ways::Dense(v) => &mut v[set as usize * assoc..][..assoc],
            Ways::Sparse { index, pool } => {
                let off = *index.entry(set).or_insert_with(|| {
                    let off = pool.len() as u32;
                    pool.resize(pool.len() + assoc, EMPTY);
                    off
                });
                &mut pool[off as usize..][..assoc]
            }
        };
        if ways[0] == tag {
            self.hits += 1;
            return true;
        }
        // Move the hit way, or on a miss the LRU (or an empty) way, to
        // the front, shifting the more recent ones back by one.
        let hit = ways[1..].iter().position(|&t| t == tag);
        let last = hit.map_or(assoc - 1, |w| w + 1);
        for w in (1..=last).rev() {
            ways[w] = ways[w - 1];
        }
        ways[0] = tag;
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit.is_some()
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

    /// The stamp-LRU layout the tag-only ways replaced: `(tag, last-use
    /// stamp)` per way, stamp 0 for an empty way, the least recent
    /// stamp evicted first.
    struct StampLru {
        sets: FxMap<u64, Vec<(u64, u64)>>,
        p: CacheParams,
        num_sets: u64,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl StampLru {
        fn new(p: CacheParams) -> Self {
            let num_sets = (p.size / p.line / u64::from(p.assoc)).max(1);
            StampLru { sets: FxMap::default(), p, num_sets, stamp: 0, hits: 0, misses: 0 }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.stamp += 1;
            let line = addr / self.p.line;
            let (set, tag) = (line % self.num_sets, line / self.num_sets);
            let ways = self.sets.entry(set).or_insert_with(|| vec![(0, 0); self.p.assoc as usize]);
            if let Some(w) = ways.iter_mut().find(|w| w.1 != 0 && w.0 == tag) {
                w.1 = self.stamp;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            let lru = (0..ways.len()).min_by_key(|&w| ways[w].1).unwrap();
            ways[lru] = (tag, self.stamp);
            false
        }
    }

    #[test]
    fn mru_ordered_ways_match_stamp_lru() {
        let mut rng = ms_ir::rng::SplitMix64::seed_from_u64(7);
        for assoc in [1, 2, 4] {
            let dense = CacheParams { size: 4096, assoc, line: 32, hit_latency: 1 };
            let sparse = CacheParams { size: 4 * 1024 * 1024, assoc, line: 64, hit_latency: 12 };
            for (p, is_sparse) in [(dense, false), (sparse, true)] {
                let mut c = Cache::new(p);
                assert_eq!(matches!(c.ways, Ways::Sparse { .. }), is_sparse, "{p:?}");
                let mut r = StampLru::new(p);
                // A few hot sets, each hit by up to three times as many
                // lines as it has ways, plus the odd address anywhere.
                for n in 0..20_000 {
                    let addr = if rng.gen_bool(0.05) {
                        rng.next_u64() >> 8
                    } else {
                        let set = rng.gen_range(0..8u64);
                        let tag = rng.gen_range(0..3 * u64::from(assoc));
                        (tag * r.num_sets + set) * p.line + rng.gen_range(0..p.line)
                    };
                    let want = r.access(addr);
                    assert_eq!(c.access(addr), want, "{p:?}: access {n} to {addr:#x}");
                    assert_eq!(c.counters(), (r.hits, r.misses), "{p:?}: access {n}");
                }
                assert!(
                    r.hits > 1000 && r.misses > 1000,
                    "{p:?}: {} hits, {} misses",
                    r.hits,
                    r.misses
                );
            }
        }
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
