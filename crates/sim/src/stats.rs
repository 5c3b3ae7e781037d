//! Lightweight statistics primitives.
//!
//! Components keep strongly-typed stats structs built from monotonic
//! [`Counter`]s and [`Histogram`]s that nothing resets. The machine
//! gathers them into one `StatsSnapshot` (in the `fsencr` crate), and a
//! measurement is the delta of two snapshots.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use fsencr_sim::Counter;
///
/// let mut reads = Counter::new();
/// reads.incr();
/// reads.add(4);
/// assert_eq!(reads.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Ratio helper: `hits / (hits + misses)`, or 0.0 when empty.
///
/// # Examples
///
/// ```
/// use fsencr_sim::stats::hit_rate;
/// assert_eq!(hit_rate(3, 1), 0.75);
/// assert_eq!(hit_rate(0, 0), 0.0);
/// ```
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// A power-of-two-bucketed latency histogram.
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i)`; bucket 0 holds zero.
/// [`Histogram::percentile`] reports the upper bound of the bucket holding
/// the quantile sample. Fixed storage keeps it `Copy`, so components can
/// embed it in their stats structs.
///
/// # Examples
///
/// ```
/// use fsencr_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [60, 70, 130, 300] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.5) >= 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 40],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; 40],
            count: 0,
            sum: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).min(39)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the q-quantile sample, or 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << 39
    }

    /// Bucket-wise difference `self - base`: the histogram of samples
    /// recorded after `base` was captured. Counts saturate at zero, so a
    /// stale baseline degrades to an empty delta instead of wrapping.
    ///
    /// # Examples
    ///
    /// ```
    /// use fsencr_sim::stats::Histogram;
    ///
    /// let mut h = Histogram::new();
    /// h.record(100);
    /// let base = h;
    /// h.record(5000);
    /// let d = h.delta(&base);
    /// assert_eq!(d.count(), 1);
    /// assert_eq!(d.percentile(0.5), 8192);
    /// ```
    #[must_use]
    pub fn delta(&self, base: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (o, (a, b)) in out
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(base.buckets.iter()))
        {
            *o = a.saturating_sub(*b);
        }
        out.count = self.count.saturating_sub(base.count);
        out.sum = self.sum.saturating_sub(base.sum);
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Serializes the histogram into a snapshot section.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        for b in &self.buckets {
            enc.put_u64(*b);
        }
        enc.put_u64(self.count);
        enc.put_u64(self.sum);
    }

    /// Restores a histogram from a snapshot section.
    pub fn snap_load(
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<Histogram, fsencr_snapshot::SnapError> {
        let mut h = Histogram::new();
        for b in h.buckets.iter_mut() {
            *b = dec.get_u64()?;
        }
        h.count = dec.get_u64()?;
        h.sum = dec.get_u64()?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for _ in 0..90 {
            h.record(100); // bucket [64,128)
        }
        for _ in 0..10 {
            h.record(5000); // bucket [4096,8192)
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.5), 128);
        assert_eq!(h.percentile(0.99), 8192);
        assert!((h.mean() - 590.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_zero_and_huge_values() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(0.01), 1); // zero lands in bucket 0
        assert_eq!(h.percentile(1.0), 1 << 39);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(20);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), 20.0);
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(format!("{c}"), "10");
    }

    #[test]
    fn hit_rate_edge_cases() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(5, 0), 1.0);
        assert_eq!(hit_rate(0, 5), 0.0);
        assert!((hit_rate(1, 2) - 1.0 / 3.0).abs() < 1e-12);
    }
}
