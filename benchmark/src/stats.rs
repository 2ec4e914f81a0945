//! Order statistics used by the report: interpolated percentiles,
//! quartiles, and the tail rule.

/// Interpolated percentile of ascending-sorted values (`p` in [0, 1]); the
/// same rule as `diknn_workloads::RunMetrics` uses for its p50/p95.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Median and first/third quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let s = sorted(values);
    Quartiles {
        p25: percentile(&s, 0.25),
        median: percentile(&s, 0.5),
        p75: percentile(&s, 0.75),
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 0.5)
}

/// [`percentile`] of unsorted values.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples strictly above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile picked, in [0, 1].
    pub percentile: f64,
    pub value: f64,
    /// Samples strictly above `value`.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The tail of `values`, or `None` when even the median has fewer than
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    TAIL_LADDER.iter().find_map(|&p| {
        let value = percentile(&s, p);
        let beyond = s.len() - s.partition_point(|&x| x <= value);
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            percentile: p,
            value,
            beyond,
            samples: s.len(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending on purpose: every helper must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.5), 2.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_inclusive_method() {
        // statistics.quantiles([1..9], n=4, method="inclusive") == [3, 5, 7]
        let q = quartiles(&ramp(9));
        assert_eq!((q.p25, q.median, q.p75), (3.0, 5.0, 7.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 = 990.01 leaves 10 beyond (991..=1000); p99.9
        // leaves one.
        let t = tail(&ramp(1000)).expect("tail");
        assert_eq!((t.percentile, t.beyond, t.samples), (0.99, 10, 1000));
        // 989 samples: p99 = 979.12 still leaves 10 (980..=989) beyond.
        assert_eq!(tail(&ramp(989)).expect("tail").percentile, 0.99);
        // 100 samples: p95 = 95.05 leaves 5 beyond, p90 = 90.1 leaves 10.
        let t = tail(&ramp(100)).expect("tail");
        assert_eq!((t.percentile, t.beyond), (0.9, 10));
        // 50 samples: only the median qualifies.
        assert_eq!(tail(&ramp(50)).expect("tail").percentile, 0.5);
        // 20 samples: the median = 10.5 leaves exactly 10; 19 leave 9.
        assert_eq!(tail(&ramp(20)).expect("tail").percentile, 0.5);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_counts_ties_at_the_cut_as_not_beyond() {
        // Forty equal samples: nothing is strictly beyond any percentile.
        assert_eq!(tail(&[2.0; 40]), None);
        // 80 ones and 20 twos: p90 and above equal 2, with nothing beyond;
        // the median (1) has the twenty twos beyond it.
        let mut v = vec![1.0; 80];
        v.extend([2.0; 20]);
        let t = tail(&v).expect("tail");
        assert_eq!((t.percentile, t.value, t.beyond), (0.5, 1.0, 20));
    }
}
