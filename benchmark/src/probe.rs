//! A probe of the host's speed while an invocation runs, and the CPU
//! pinning that puts the probe where the invocation runs.
//!
//! The benchmark was defined on a shared 2-vCPU virtual machine whose
//! speed drifts with what other tenants do on the same cores and memory
//! system: from one minute to the next the same invocation takes up to
//! twice as long. Code that keeps many instructions in flight, as the
//! simulator does, slows the most; a serial dependency chain hardly
//! slows at all. So the probe is a miniature of the simulator's demands:
//! short bursts of independent streams of arithmetic, data-dependent
//! branches and lookups into a table beyond the private caches, taken on
//! the invocation's CPUs and timed by the probing thread's own CPU clock
//! (time spent descheduled does not count). The benchmark scales each
//! timing by [`REF_NS_PER_STEP`] over the probe's reading: the timing as
//! it would read on a host running the probe at the reference speed.

use std::hint::black_box;
use std::sync::OnceLock;

/// The probe speed timings are scaled to, within what it reads on the
/// machine the benchmark was defined on (9.5 to 19 ns).
pub const REF_NS_PER_STEP: f64 = 14.0;
/// Steps per burst (about 0.1 ms at the reference speed).
const STEPS: usize = 8_192;
/// Independent streams the kernel interleaves.
const STREAMS: usize = 8;
/// Words of the table: 16 MiB, beyond the private caches.
const WORDS: usize = 1 << 22;

/// Pins the calling thread to `cpus`; children it spawns inherit the set.
/// Best effort: where the kernel refuses the set, the thread stays as it
/// was, and the probe still reads the CPUs it happens to run on.
#[cfg(target_os = "linux")]
pub fn pin(cpus: &[usize]) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const MASK_WORDS: usize = 16;
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < 64 * MASK_WORDS) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: pid 0 is the calling thread; the kernel reads
    // `size_of_val(&mask)` bytes from `mask`, which outlives the call.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_cpus: &[usize]) {}

/// Nanoseconds the calling thread has run on a CPU.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: the kernel writes one `struct timespec` (two 64-bit fields
    // on 64-bit Linux) into `ts`, which outlives the call.
    let ok = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0;
    ok.then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// The probe's table, built on first use.
pub fn table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| (0..WORDS as u32).map(|i| i.wrapping_mul(0x9E37_79B1)).collect())
}

/// One burst: `STEPS` steps spread over `STREAMS` xorshift streams, each
/// step a lookup at a pseudo-random index and a branch on what it reads.
fn kernel(table: &[u32], seed: u64) -> u64 {
    let mut streams: [u64; STREAMS] = std::array::from_fn(|k| {
        seed.wrapping_add(k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
    });
    let mut acc = 0u64;
    for _ in 0..STEPS / STREAMS {
        for x in &mut streams {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let t = u64::from(table[*x as usize & (table.len() - 1)]);
            if t & 1 == 0 {
                acc = acc.wrapping_add(t);
            } else {
                acc ^= *x;
            }
        }
    }
    acc
}

/// Bursts taken and their summed CPU time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Readings {
    pub bursts: u64,
    pub ns: u64,
}

impl Readings {
    pub fn add(&mut self, r: Readings) {
        self.bursts += r.bursts;
        self.ns += r.ns;
    }

    /// Mean nanoseconds per kernel step.
    pub fn ns_per_step(&self) -> Result<f64, String> {
        if self.bursts == 0 || self.ns == 0 {
            return Err("the host probe took no readings".into());
        }
        Ok(self.ns as f64 / (self.bursts * STEPS as u64) as f64)
    }

    /// What a timing taken meanwhile is multiplied by to read at the
    /// reference speed.
    pub fn factor(&self) -> Result<f64, String> {
        Ok(REF_NS_PER_STEP / self.ns_per_step()?)
    }
}

/// Takes bursts on each CPU of a set in turn.
#[derive(Debug)]
pub struct Probe<'a> {
    cpus: &'a [usize],
    turn: usize,
    pub readings: Readings,
}

impl<'a> Probe<'a> {
    pub fn new(cpus: &'a [usize]) -> Probe<'a> {
        Probe { cpus, turn: 0, readings: Readings::default() }
    }

    /// Moves to the next CPU of the set and takes one burst there.
    pub fn burst(&mut self) {
        let table = table();
        if self.cpus.len() > 1 {
            pin(&[self.cpus[self.turn % self.cpus.len()]]);
        }
        self.turn += 1;
        let start = thread_cpu_ns();
        black_box(kernel(table, black_box(self.turn as u64)));
        if let (Some(start), Some(end)) = (start, thread_cpu_ns()) {
            self.readings.bursts += 1;
            self.readings.ns += end - start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_read_a_speed_and_a_factor() {
        assert!(Readings::default().factor().is_err());
        let mut p = Probe::new(&[]);
        p.burst();
        p.burst();
        assert_eq!(p.readings.bursts, 2);
        let ns = p.readings.ns_per_step().unwrap();
        assert!(ns > 0.01 && ns < 1e4, "{ns} ns per step");
        let r = Readings { bursts: 2, ns: 4 * STEPS as u64 * REF_NS_PER_STEP as u64 };
        assert_eq!(r.factor().unwrap(), 0.5);
    }
}
