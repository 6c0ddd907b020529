//! Order statistics: medians and interquartile means over per-round values,
//! exact quantiles of small sample sets, and a log-linear latency histogram
//! for per-call timings, whose memory stays small and constant however many
//! calls a run makes (so it barely shows in `peak_rss_mb`).

/// Median of `values` (mean of the middle two for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of `values` (all of them
/// below four).  As robust as the median to a few disturbed rounds, and
/// steadier than it when round values spread evenly, as timer-driven
/// wind-down waits do.
pub fn iqm(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The exact `q`-quantile (nearest rank) of `values`; 0 when empty.
pub fn quantile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Sub-buckets per power of two: values are resolved to within 1/64.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get exact buckets; above, one row of `SUB` buckets per
/// power of two up to 2^63.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Log-linear histogram of nanosecond durations.  Each bucket also sums its
/// samples, so a quantile reads as the mean of the samples in its bucket: a
/// measured value with all its digits, within 1/64 of the exact one.  The
/// buckets are allocated on the first sample.
#[derive(Clone, Default)]
pub struct LogHist {
    counts: Vec<u64>,
    sums: Vec<u64>,
    total: u64,
    sum_ns: u128,
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let top = 63 - ns.leading_zeros(); // >= SUB_BITS
    let shift = top - SUB_BITS;
    let sub = ((ns >> shift) as usize) & (SUB - 1);
    SUB + (shift as usize) * SUB + sub
}

impl LogHist {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
            self.sums = vec![0; BUCKETS];
        }
        let b = bucket_of(ns);
        self.counts[b] += 1;
        self.sums[b] = self.sums[b].saturating_add(ns);
        self.total += 1;
        self.sum_ns += ns as u128;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        if other.total == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
            self.sums = vec![0; BUCKETS];
        }
        for b in 0..BUCKETS {
            self.counts[b] += other.counts[b];
            self.sums[b] = self.sums[b].saturating_add(other.sums[b]);
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// The `q`-quantile in nanoseconds (nearest rank; the mean of its
    /// bucket), with the number of samples in higher buckets.
    pub fn quantile(&self, q: f64) -> (f64, u64) {
        if self.total == 0 {
            return (0.0, 0);
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return (self.sums[index] as f64 / count as f64, self.total - seen);
            }
        }
        unreachable!("rank is at most the sample total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -100.0]), 3.5);
        assert_eq!(iqm(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn histogram_resolves_quantiles_within_two_percent() {
        let mut h = LogHist::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        let (p50, beyond) = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.02, "{p50}");
        assert!((49_000..=51_000).contains(&beyond), "{beyond}");
        // `beyond` counts samples above the quantile's bucket.
        let (p999, beyond) = h.quantile(0.999);
        assert!((p999 - 99_900.0).abs() / 99_900.0 < 0.02, "{p999}");
        assert!(beyond <= 100, "{beyond}");
    }

    #[test]
    fn exact_quantiles_use_the_nearest_rank() {
        let v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.999), 999.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn buckets_keep_neighbouring_values_apart() {
        for ns in [63u64, 64, 65, 1000, 123_456, 9_876_543_210] {
            assert!(bucket_of(ns) <= bucket_of(ns + ns / 32 + 1));
            assert!(bucket_of(ns) < bucket_of(ns + ns / 16 + 1), "{ns}");
        }
    }
}
