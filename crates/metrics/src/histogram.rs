//! Log-bucketed histogram for latencies and sizes.
//!
//! An HDR-style histogram over `u64` values: buckets are arranged in
//! power-of-two magnitude bands, each band split into `1 << precision_bits`
//! linear sub-buckets, giving a bounded relative error of
//! `2^-precision_bits` across the whole range. The full range is 58 bands
//! (58 KiB of counts at the default precision), but the count array only
//! grows to the highest band actually recorded: an empty histogram
//! allocates nothing, and nanosecond latencies up to ~1 ms need 14 bands
//! (14 KiB). Recording is O(1) (a leading-zeros instruction plus a shift,
//! and a rare grow); quantile queries walk the bucket array once.

/// A fixed-precision log-bucketed histogram over `u64` values.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Sub-bucket count per magnitude band, always a power of two.
    sub_buckets: u64,
    precision_bits: u32,
    /// Whole bands only, up to the highest band recorded so far.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Create a histogram with ~`2^-precision_bits` relative error.
    /// `precision_bits` of 7 gives <1% error, the workspace default.
    pub fn new(precision_bits: u32) -> Self {
        assert!(
            (1..=14).contains(&precision_bits),
            "precision_bits must be in 1..=14"
        );
        // Bands: values < sub_buckets land in the linear band 0; each further
        // doubling adds one band of `sub_buckets` entries, up to
        // (64 - precision) + 1 bands. None is allocated until recorded into.
        Histogram {
            sub_buckets: 1u64 << precision_bits,
            precision_bits,
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The workspace default precision (<1% relative error).
    pub fn default_precision() -> Self {
        Histogram::new(7)
    }

    #[inline]
    fn index_of(&self, value: u64) -> usize {
        // Band 0 stores [0, m) exactly (m = sub_buckets). Band b >= 1 stores
        // [m << (b-1), m << b); shifting such a value right by (b-1) lands it
        // in [m, 2m), so subtracting m yields the sub-bucket.
        if value < self.sub_buckets {
            return value as usize;
        }
        let k = 63 - value.leading_zeros(); // floor(log2(value)), >= precision
        let band = (k - self.precision_bits + 1) as usize;
        let sub = ((value >> (band - 1)) - self.sub_buckets) as usize;
        band * self.sub_buckets as usize + sub
    }

    /// Lowest value a bucket index represents.
    fn value_of(&self, index: usize) -> u64 {
        let band = index / self.sub_buckets as usize;
        let sub = (index % self.sub_buckets as usize) as u64;
        if band == 0 {
            sub
        } else {
            (sub + self.sub_buckets) << (band - 1)
        }
    }

    /// Extend `counts` with zeroed bands through the one holding `index`.
    #[cold]
    fn grow_to(&mut self, index: usize) {
        let band_len = self.sub_buckets as usize;
        self.counts.resize((index / band_len + 1) * band_len, 0);
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` identical observations.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(value);
        if idx >= self.counts.len() {
            self.grow_to(idx);
        }
        self.counts[idx] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the smallest bucket lower bound
    /// such that at least `ceil(q * count)` observations are at or below it.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                // Report the representative (lower bound) of this bucket,
                // clamped into the recorded range for tight min/max behaviour.
                return self.value_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median shorthand.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Merge another histogram (same precision) into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.precision_bits, other.precision_bits,
            "histogram precision mismatch"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Reset to empty without deallocating.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::default_precision();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn exact_for_small_values() {
        // Band 0 is exact: values below 2^precision are stored losslessly.
        let mut h = Histogram::new(7);
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 127);
        let med = h.median();
        assert!((63..=64).contains(&med), "median {med}");
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = Histogram::new(7);
        let values = [1_000u64, 10_000, 123_456, 999_999_937, 42];
        for &v in &values {
            h.clear();
            h.record(v);
            let got = h.quantile(0.5);
            let err = (got as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.02, "value {v}: got {got}, err {err}");
        }
    }

    #[test]
    fn mean_and_count() {
        let mut h = Histogram::default_precision();
        h.record_n(10, 3);
        h.record(70);
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 25.0);
    }

    #[test]
    fn quantiles_monotone() {
        let mut h = Histogram::default_precision();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            h.record(x % 10_000_000);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0);
            assert!(q >= prev, "quantile not monotone at {i}: {q} < {prev}");
            prev = q;
        }
        // q=1.0 returns the top bucket's representative, within the
        // precision bound of the true maximum.
        let top = h.quantile(1.0) as f64;
        assert!((top - h.max() as f64).abs() / (h.max() as f64) < 0.02);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new(7);
        let mut b = Histogram::new(7);
        a.record_n(5, 10);
        b.record_n(500_000, 10);
        a.merge(&b);
        assert_eq!(a.count(), 20);
        assert_eq!(a.min(), 5);
        assert!(a.max() >= 490_000);
        assert!(a.quantile(0.25) <= 5);
        assert!(a.quantile(0.95) >= 490_000);
    }

    #[test]
    #[should_panic(expected = "precision mismatch")]
    fn merge_requires_same_precision() {
        let mut a = Histogram::new(7);
        let b = Histogram::new(8);
        a.merge(&b);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::default_precision();
        h.record(123);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
        h.record(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 7);
    }

    #[test]
    fn counts_grow_by_whole_bands_only_when_recorded() {
        let mut h = Histogram::default_precision();
        assert_eq!(h.counts.capacity(), 0, "new must not allocate");
        h.record(100); // band 0
        assert_eq!(h.counts.len(), 128);
        h.record(1_000_000); // ~1 ms in ns: band 13
        assert_eq!(h.counts.len(), 14 * 128);
        h.record(5); // lower bands never shrink or regrow the array
        assert_eq!(h.counts.len(), 14 * 128);
        h.clear();
        assert_eq!(h.counts.len(), 14 * 128, "clear keeps the allocation");
        assert!(h.is_empty());
    }

    #[test]
    fn merge_across_lengths_matches_recording_into_one() {
        let values = [3u64, 90, 4_000, 77_777, 1_000_000, 250_000_000];
        let mut one = Histogram::default_precision();
        values.iter().for_each(|&v| one.record(v));
        // Short into long, long into short, and into an empty histogram.
        let mut short = Histogram::default_precision();
        let mut long = Histogram::default_precision();
        values[..2].iter().for_each(|&v| short.record(v));
        values[2..].iter().for_each(|&v| long.record(v));
        let mut a = short.clone();
        a.merge(&long);
        let mut b = long.clone();
        b.merge(&short);
        let mut c = Histogram::default_precision();
        c.merge(&a);
        for h in [&a, &b, &c] {
            assert_eq!(h.count(), one.count());
            assert_eq!(
                (h.min(), h.max(), h.mean()),
                (one.min(), one.max(), one.mean())
            );
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.quantile(q), one.quantile(q), "q={q}");
            }
        }
        assert_eq!(a.counts, one.counts);
        assert_eq!(b.counts, one.counts);
        // Merging an empty histogram changes nothing and allocates nothing.
        let mut empty = Histogram::default_precision();
        empty.merge(&Histogram::default_precision());
        assert_eq!(empty.counts.capacity(), 0);
        a.merge(&Histogram::default_precision());
        assert_eq!(a.quantile(0.5), one.quantile(0.5));
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new(7);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        let q = h.quantile(0.99);
        assert!(q > u64::MAX / 2);
    }
}
