//! A deterministic std-only thread pool for embarrassingly parallel
//! experiment grids.
//!
//! Every sweep in this crate is a grid of independent (workload ×
//! heuristic × machine) cells, each fully determined by its own inputs
//! (the per-cell seed included). [`run_parallel`] fans the cells out
//! over `jobs` worker threads and returns the results **in input
//! order**, so the output is bit-identical to a serial run — parallelism
//! changes wall-clock, never results. No work stealing, no external
//! crates: an atomic next-index counter hands out cells, an mpsc channel
//! carries `(index, result)` pairs back.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use ms_prof::ledger::ProgressSink;

/// The disabled sink plain [`run_parallel`] callers share: `const`
/// constructed, so it costs nothing at startup and every method is a
/// single not-enabled branch.
static SILENT_SINK: ProgressSink = ProgressSink::disabled();

/// Runs `f` over every item, `jobs` cells at a time, and returns the
/// results in item order.
///
/// `f` receives the item and its index. With `jobs <= 1` the items run
/// serially on the caller's thread (no pool, same order, same results).
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated).
pub fn run_parallel<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, usize) -> R + Sync,
{
    run_parallel_observed(jobs, items, f, &SILENT_SINK, &|| {})
}

/// [`run_parallel`] with run-ledger observability: per-worker busy
/// tallies flow into `sink`, and `tick` runs on the **caller's** thread
/// each time a result lands (the live progress line's heartbeat).
///
/// Worker busy time covers every work item the closure runs — for the
/// suite scheduler that includes context warm-up items, so
/// the tallies measure worker *occupancy*, not just cell simulation.
/// With `sink` disabled this is exactly [`run_parallel`]: no clock
/// reads, no atomics beyond the scheduler's own.
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated).
pub fn run_parallel_observed<T, R, F>(
    jobs: usize,
    items: Vec<T>,
    f: F,
    sink: &ProgressSink,
    tick: &dyn Fn(),
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, usize) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let r = if sink.is_enabled() {
                    let t0 = Instant::now();
                    let r = f(item, i);
                    sink.worker_busy(0, t0.elapsed().as_nanos() as u64, 1);
                    r
                } else {
                    f(item, i)
                };
                tick();
                r
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let workers = jobs.min(items.len());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let items = &items;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = if sink.is_enabled() {
                    let t0 = Instant::now();
                    let r = f(&items[i], i);
                    sink.worker_busy(w, t0.elapsed().as_nanos() as u64, 1);
                    r
                } else {
                    f(&items[i], i)
                };
                // A send can only fail if the receiver was dropped,
                // which cannot happen while this scope is alive.
                let _ = tx.send((i, r));
            });
        }
        drop(tx);
        for (i, r) in rx {
            slots[i] = Some(r);
            tick();
        }
    });
    slots.into_iter().map(|r| r.expect("every cell index was claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = run_parallel(8, items.clone(), |&x, i| {
            assert_eq!(x, i as u64);
            // Uneven work so completion order differs from input order.
            std::thread::sleep(std::time::Duration::from_micros((x % 7) * 50));
            x * x
        });
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let serial = run_parallel(1, items.clone(), |&x, _| x.wrapping_mul(0x9e3779b97f4a7c15));
        let par = run_parallel(4, items, |&x, _| x.wrapping_mul(0x9e3779b97f4a7c15));
        assert_eq!(serial, par);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_parallel(4, empty, |&x, _| x).is_empty());
        assert_eq!(run_parallel(4, vec![7u32], |&x, _| x + 1), vec![8]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let out = run_parallel(64, vec![1u32, 2, 3], |&x, _| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn observed_run_ticks_once_per_item_and_tallies_workers() {
        use std::cell::Cell;

        let sink = ProgressSink::new(4);
        let ticks = Cell::new(0u32);
        let items: Vec<u64> = (0..23).collect();
        let out =
            run_parallel_observed(4, items, |&x, _| x + 1, &sink, &|| ticks.set(ticks.get() + 1));
        assert_eq!(out.len(), 23);
        assert_eq!(ticks.get(), 23, "tick fires on the caller thread once per result");
        let snap = sink.snapshot();
        let items_done: u64 = snap.workers.iter().map(|&(_, n)| n).sum();
        assert_eq!(items_done, 23, "every item is charged to exactly one worker");

        // Serial path charges worker 0 and still ticks.
        let sink = ProgressSink::new(1);
        let ticks = Cell::new(0u32);
        let out = run_parallel_observed(1, vec![1u64, 2, 3], |&x, _| x, &sink, &|| {
            ticks.set(ticks.get() + 1)
        });
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(ticks.get(), 3);
        assert_eq!(sink.snapshot().workers[0].1, 3);
    }
}
