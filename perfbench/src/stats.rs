//! Order statistics for timing samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it; with fewer, one outlier would set the value.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p < 100) among `n` sorted
/// samples.
fn rank_index(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// The fewest samples for which percentile `p` has [`MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| samples_beyond(n, p) >= MIN_BEYOND).expect("some n satisfies the rule")
}

/// Nearest-rank percentile of already sorted samples, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank_index(sorted.len(), p)])
}

/// Median of any non-empty sample set (no tail rule: used for small
/// repeat counts such as set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Share of the slowest samples a trimmed mean drops: preemption
/// spikes rather than the workload.
pub const TRIM: f64 = 0.01;

fn kept(n: usize) -> usize {
    n - (n as f64 * TRIM) as usize
}

/// Mean of all but the slowest [`TRIM`] of the samples. Unlike the
/// median it moves in proportion when the host alternates between two
/// speeds, instead of jumping from one speed to the other.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let keep = kept(v.len());
    v[..keep].iter().sum::<f64>() / keep as f64
}

/// Sorts samples in place for [`percentile`].
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// A sample set's trimmed mean, median and one tail percentile.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub tail: f64,
}

/// Summarizes `values` (sorting them); `None` when the `tail_p`-th
/// percentile does not have ten samples beyond it.
pub fn summarize(values: &mut [f64], tail_p: f64) -> Option<Summary> {
    sort(values);
    Some(Summary {
        n: values.len(),
        mean: trimmed_mean(values),
        p50: percentile(values, 50.0)?,
        tail: percentile(values, tail_p)?,
    })
}

/// A histogram of nanosecond samples at 1 ns resolution: pooled
/// percentiles in constant memory, so a run's peak RSS does not grow
/// with how many calls it timed. Samples above [`Histogram::CAP_NS`]
/// count in the top bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: usize,
    sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; Histogram::CAP_NS as usize + 1], n: 0, sum: 0.0 }
    }
}

impl Histogram {
    pub const CAP_NS: u64 = 1_000_000;

    pub fn record(&mut self, ns: u64) {
        self.counts[ns.min(Self::CAP_NS) as usize] += 1;
        self.n += 1;
        self.sum += ns as f64;
    }

    pub fn count(&self) -> usize {
        self.n
    }

    /// Sum of the recorded values (unclamped).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// [`trimmed_mean`] of the recorded values (clamped at the cap).
    pub fn trimmed_mean(&self) -> f64 {
        let keep = kept(self.n) as u64;
        let (mut seen, mut sum) = (0u64, 0.0);
        for (ns, &c) in self.counts.iter().enumerate() {
            let take = c.min(keep - seen);
            sum += take as f64 * ns as f64;
            seen += take;
            if seen == keep {
                break;
            }
        }
        sum / keep.max(1) as f64
    }

    /// Nearest-rank percentile under the same rule as [`percentile`].
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if samples_beyond(self.n, p) < MIN_BEYOND {
            return None;
        }
        let rank = rank_index(self.n, p) as u64;
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(ns as f64);
            }
        }
        None
    }
}
