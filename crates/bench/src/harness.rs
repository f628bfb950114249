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
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(item, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let workers = jobs.min(items.len());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let items = &items;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // A send can only fail if the receiver was dropped,
                // which cannot happen while this scope is alive.
                let _ = tx.send((i, f(&items[i], i)));
            });
        }
        drop(tx);
        for (i, r) in rx {
            slots[i] = Some(r);
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
}
