//! Order statistics for samples: median, quartiles and the tail
//! percentile rule.

/// The fewest samples that must lie beyond a reported tail percentile.
const TAIL_SAMPLES: usize = 10;

/// Median, quartiles and tail percentile of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// The highest whole percentile with at least ten samples beyond it,
    /// and its nearest-rank value; `None` with ten samples or fewer.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises `values`, which must not be empty.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        let tail = tail_percentile(sorted.len()).map(|p| (p, nearest_rank(&sorted, p as f64)));
        Summary { median, q1, q3, n: sorted.len(), tail }
    }

    /// The quartile spread as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Q1, median and Q3 of `sorted` (ascending, non-empty), computed as
/// Python's `statistics.quantiles(data, n=4)` does with its default
/// `exclusive` method (extrapolating for tiny samples), so spreads read
/// the same in both.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `values` (non-empty, any order).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quartiles(&sorted).1
}

/// The `p`-th percentile of `sorted` (ascending, non-empty) by nearest
/// rank: the smallest value with at least `p`% of the samples at or
/// below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile of `n` samples that leaves at least ten
/// samples beyond its nearest-rank value: with 20 samples that is the
/// median, with 100 the 90th percentile.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n <= TAIL_SAMPLES {
        return None;
    }
    Some((100 * (n - TAIL_SAMPLES) / n) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0] (extrapolated)
        assert_eq!(quartiles(&[3.0, 7.0]), (2.0, 5.0, 8.0));
        // Python refuses a single point; one sample is its own quartiles.
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn summary_sorts_and_reports_spread() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(s.tail, None);
        assert_eq!(median(&[9.0, 1.0, 5.0, 7.0]), 6.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        for n in 11..=300 {
            let p = tail_percentile(n).unwrap();
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = nearest_rank(&sorted, p as f64);
            let beyond = sorted.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n} p={p}: {beyond} beyond");
            // One percentile higher would leave fewer than ten beyond.
            let v1 = nearest_rank(&sorted, (p + 1) as f64);
            assert!(sorted.iter().filter(|&&x| x > v1).count() < TAIL_SAMPLES, "n={n} p={p}");
        }
        let s = Summary::of(&(1..=20).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, Some((50, 10.0)));
    }

    #[test]
    fn nearest_rank_picks_covering_sample() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(nearest_rank(&v, 50.0), 20.0);
        assert_eq!(nearest_rank(&v, 90.0), 40.0);
        assert_eq!(nearest_rank(&v, 0.0), 10.0);
    }
}
