//! Mergeable log2-bucket latency histograms.

/// Number of buckets in a [`LatencyHistogram`].
///
/// Bucket 0 holds the exact value 0; bucket `k >= 1` holds the half-open
/// power-of-two range `[2^(k-1), 2^k - 1]`, so bucket 64 tops out at
/// `u64::MAX` and every `u64` maps to exactly one bucket.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-size log2-bucket histogram of `u64` samples (DRAM-cycle
/// latencies in practice).
///
/// The histogram is *mergeable*: [`merge`](Self::merge) is associative and
/// commutative, so per-channel histograms can be combined in any grouping
/// and still produce identical aggregates — the property the simulator's
/// deterministic channel-order merges rely on. It is also
/// *subtractable*: [`delta`](Self::delta) recovers the histogram of a
/// measurement window from two cumulative observations.
///
/// All storage is fixed-size (no allocation), so histograms can live on the
/// simulator tick path without violating the telemetry-off no-allocation
/// invariant.
///
/// # Examples
///
/// ```
/// use cloudmc_telemetry::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [10, 20, 40, 400] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), Some(400));
/// assert!(h.percentile(0.5).unwrap() <= h.percentile(0.99).unwrap());
/// assert_eq!(LatencyHistogram::new().percentile(0.5), None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Index of the bucket `value` falls into.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive `(low, high)` value range of bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= HIST_BUCKETS`.
    #[must_use]
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < HIST_BUCKETS, "bucket index {index} out of range");
        if index == 0 {
            (0, 0)
        } else if index == 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (index - 1), (1 << index) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self`.
    ///
    /// Associative and commutative: merging the same set of histograms in
    /// any grouping or order yields identical results.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Histogram of the samples recorded after `baseline` was observed.
    ///
    /// `baseline` must be an earlier observation of the same cumulative
    /// histogram (bucket counts element-wise `<=` ours); the subtraction
    /// saturates defensively otherwise. The exact maximum of a window is
    /// not recoverable from two cumulative maxima, so the delta's `max` is
    /// the tightest bound available: the smaller of the cumulative maximum
    /// and the upper edge of the highest bucket the window touched (a
    /// bucket-resolution bound, within 2x of the true window maximum).
    #[must_use]
    pub fn delta(&self, baseline: &Self) -> Self {
        let mut out = Self::new();
        let mut highest = None;
        for (i, slot) in out.counts.iter_mut().enumerate() {
            *slot = self.counts[i].saturating_sub(baseline.counts[i]);
            if *slot > 0 {
                highest = Some(i);
            }
        }
        out.count = self.count.saturating_sub(baseline.count);
        out.sum = self.sum.saturating_sub(baseline.sum);
        out.max = match highest {
            Some(bucket) => self.max.min(Self::bucket_bounds(bucket).1),
            None => 0,
        };
        out
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded sample, or `None` for an empty histogram.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples, or `None` for an empty histogram.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimated value at quantile `p` (`0.0 < p <= 1.0`), or `None` for an
    /// empty histogram or an out-of-range `p`.
    ///
    /// The estimate walks cumulative bucket counts to the bucket containing
    /// the rank `ceil(p * count)` sample and interpolates linearly (and
    /// deterministically) within the bucket's value range, biased toward the
    /// bucket's lower edge. Accuracy is bounded by the log2 bucket width.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 || !(p > 0.0 && p <= 1.0) {
            return None;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cumulative + c >= rank {
                let position = rank - cumulative; // 1..=c
                let (lo, hi) = Self::bucket_bounds(i);
                let hi = hi.min(self.max); // never report above the exact max
                if hi <= lo {
                    return Some(lo as f64);
                }
                let span = (hi - lo) as f64;
                return Some(lo as f64 + span * ((position - 1) as f64 / c as f64));
            }
            cumulative += c;
        }
        // Unreachable: rank <= count and bucket counts sum to count.
        Some(self.max as f64)
    }

    /// Convenience: median ([`percentile`](Self::percentile) at 0.50).
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// Convenience: 95th percentile.
    #[must_use]
    pub fn p95(&self) -> Option<f64> {
        self.percentile(0.95)
    }

    /// Convenience: 99th percentile.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }

    /// Raw bucket counts, for serialization and inspection.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// Rebuilds a histogram from serialized parts.
    ///
    /// Intended for deserialization of a histogram previously captured via
    /// [`bucket_counts`](Self::bucket_counts)/[`count`](Self::count)/
    /// [`sum`](Self::sum) and the raw maximum (`max().unwrap_or(0)`).
    /// Returns `None` when the parts are inconsistent (`count` does not
    /// equal the bucket total), so corrupted images surface as typed errors
    /// instead of silently skewed percentiles.
    #[must_use]
    pub fn from_parts(counts: [u64; HIST_BUCKETS], count: u64, sum: u64, max: u64) -> Option<Self> {
        let total: u64 = counts.iter().fold(0u64, |a, &c| a.saturating_add(c));
        if total != count {
            return None;
        }
        Some(Self {
            counts,
            count,
            sum,
            max,
        })
    }
}

impl LatencyHistogram {
    /// A restored histogram must satisfy [`LatencyHistogram::from_parts`].
    fn check_restored(
        &mut self,
        r: &cloudmc_snap::SnapReader<'_>,
    ) -> Result<(), cloudmc_snap::SnapError> {
        match Self::from_parts(self.counts, self.count, self.sum, self.max) {
            Some(_) => Ok(()),
            None => Err(r.bad_value("histogram count differs from its bucket total")),
        }
    }
}

/// As a field of a counter block, a histogram adds and subtracts through its
/// own [`merge`](LatencyHistogram::merge) / [`delta`](LatencyHistogram::delta).
impl cloudmc_snap::Counter for LatencyHistogram {
    fn merge(&mut self, other: &Self) {
        LatencyHistogram::merge(self, other);
    }

    fn delta(&self, baseline: &Self) -> Self {
        LatencyHistogram::delta(self, baseline)
    }
}

cloudmc_snap::snap_fields! {
    LatencyHistogram {
        saved: { counts, count, sum, max },
        skipped: {},
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_values(values: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        for k in 1..64usize {
            let pow = 1u64 << k;
            // 2^k opens bucket k+1; 2^k - 1 closes bucket k.
            assert_eq!(LatencyHistogram::bucket_index(pow), k + 1, "2^{k}");
            assert_eq!(LatencyHistogram::bucket_index(pow - 1), k, "2^{k}-1");
            let (lo, hi) = LatencyHistogram::bucket_bounds(k + 1);
            assert_eq!(lo, pow);
            if k + 1 < 64 {
                assert_eq!(hi, (pow << 1) - 1);
            }
        }
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 64);
        assert_eq!(LatencyHistogram::bucket_bounds(64), (1 << 63, u64::MAX));
        assert_eq!(LatencyHistogram::bucket_bounds(0), (0, 0));
    }

    #[test]
    fn boundary_values_round_trip_through_record() {
        let mut h = LatencyHistogram::new();
        for v in [0, 1, (1 << 13) - 1, 1 << 13, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.bucket_counts()[1], 1);
        assert_eq!(h.bucket_counts()[13], 1);
        assert_eq!(h.bucket_counts()[14], 1);
        assert_eq!(h.bucket_counts()[64], 1);
    }

    #[test]
    fn merge_is_commutative() {
        let a = from_values(&[1, 5, 9, 1000]);
        let b = from_values(&[0, 2, 2, 7, u64::MAX]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative() {
        let a = from_values(&[3, 3, 70]);
        let b = from_values(&[0, 255, 256]);
        let c = from_values(&[1 << 40, 12]);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_matches_recording_everything_in_one_histogram() {
        let a = from_values(&[4, 8, 15]);
        let b = from_values(&[16, 23, 42]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, from_values(&[4, 8, 15, 16, 23, 42]));
    }

    #[test]
    fn empty_histogram_returns_typed_none() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn out_of_range_quantile_is_none() {
        let h = from_values(&[1, 2, 3]);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(1.5), None);
        assert_eq!(h.percentile(-0.1), None);
        assert!(h.percentile(1.0).is_some());
    }

    #[test]
    fn percentiles_are_monotonic_and_bounded_by_max() {
        let h = from_values(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 10_000]);
        let p50 = h.p50().unwrap();
        let p95 = h.p95().unwrap();
        let p99 = h.p99().unwrap();
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= h.max().unwrap() as f64);
    }

    #[test]
    fn single_value_histogram_reports_that_value() {
        let h = from_values(&[7, 7, 7, 7]);
        // All samples in one bucket [4,7]; interpolation stays within it and
        // the max clamp keeps estimates at or below the exact maximum.
        assert!(h.p50().unwrap() >= 4.0 && h.p50().unwrap() <= 7.0);
        assert_eq!(h.max(), Some(7));
        assert_eq!(h.mean(), Some(7.0));
    }

    #[test]
    fn delta_recovers_window_and_bounds_max() {
        let mut h = from_values(&[5, 9]);
        let baseline = h.clone();
        h.record(100);
        h.record(3);
        let window = h.delta(&baseline);
        assert_eq!(window.count(), 2);
        assert_eq!(window.sum(), 103);
        // 100 lives in bucket [64,127]; the cumulative max is also 100, so
        // the bound is exact here.
        assert_eq!(window.max(), Some(100));
        // An empty window has an empty delta.
        let empty = h.delta(&h);
        assert!(empty.is_empty());
        assert_eq!(empty.max(), None);
    }

    #[test]
    fn delta_max_is_bucket_resolution_bound() {
        let mut h = from_values(&[1000]);
        let baseline = h.clone();
        h.record(70); // bucket [64,127], below the cumulative max 1000
        let window = h.delta(&baseline);
        assert_eq!(window.count(), 1);
        // True window max is 70; bound is the bucket's upper edge.
        assert_eq!(window.max(), Some(127));
    }

    #[test]
    fn from_parts_rejects_inconsistent_count() {
        let h = from_values(&[1, 2, 3]);
        let rebuilt = LatencyHistogram::from_parts(*h.bucket_counts(), h.count(), h.sum(), 3);
        assert_eq!(rebuilt, Some(h.clone()));
        assert_eq!(
            LatencyHistogram::from_parts(*h.bucket_counts(), h.count() + 1, h.sum(), 3),
            None
        );
    }
}
