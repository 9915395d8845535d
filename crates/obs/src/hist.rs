//! Fixed-bucket histograms with deterministic, order-independent merging.
//!
//! Buckets are keyed by *bit length*: bucket `0` holds exact zeros and
//! bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`. Bit-length bucketing
//! needs no configuration, costs one `leading_zeros`, and merges by plain
//! addition — which is what makes histogram contents part of the
//! deterministic "counts" side of the observability contract (see
//! DESIGN.md §8). Values too large for the fixed range land in an
//! explicit `overflow` bucket rather than being dropped.

/// Number of fixed buckets: bit lengths `0..=39`, i.e. values below
/// `2^39` (~5.5·10¹¹) resolve to a bucket; anything larger overflows.
pub const HIST_BUCKETS: usize = 40;

/// A mergeable fixed-bucket histogram. Every field is additive, so the
/// merge of per-thread histograms is independent of merge order and a
/// `delta` between two snapshots is well-defined field-wise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// `buckets[0]` counts zeros; `buckets[i]` counts values of bit
    /// length `i`, i.e. in `[2^(i-1), 2^i)`.
    pub buckets: [u64; HIST_BUCKETS],
    /// Values of bit length ≥ [`HIST_BUCKETS`] (still included in
    /// `count` and `sum`).
    pub overflow: u64,
    /// Total recorded values (including overflow).
    pub count: u64,
    /// Sum of recorded values; `u128` so `u64::MAX`-sized overflow
    /// values cannot wrap within any realistic run.
    pub sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub const fn new() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            overflow: 0,
            count: 0,
            sum: 0,
        }
    }

    /// The bucket index for `v`, or `None` when `v` overflows the fixed
    /// range. Bucket `0` is exact zero; bucket `i` covers `[2^(i-1), 2^i)`.
    pub fn bucket_index(v: u64) -> Option<usize> {
        let bits = (u64::BITS - v.leading_zeros()) as usize;
        if bits < HIST_BUCKETS {
            Some(bits)
        } else {
            None
        }
    }

    /// The inclusive value range `[lo, hi]` covered by bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += u128::from(v);
        match Self::bucket_index(v) {
            Some(i) => self.buckets[i] += 1,
            None => self.overflow += 1,
        }
    }

    /// Adds `other` into `self`. Addition-only, so merging per-thread
    /// histograms in any order yields identical contents.
    pub fn merge_from(&mut self, other: &Hist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Field-wise saturating difference `self - before`; the delta of two
    /// cumulative snapshots of the same histogram.
    pub fn delta_since(&self, before: &Hist) -> Hist {
        let mut d = Hist::new();
        for (i, (a, b)) in self.buckets.iter().zip(before.buckets.iter()).enumerate() {
            d.buckets[i] = a.saturating_sub(*b);
        }
        d.overflow = self.overflow.saturating_sub(before.overflow);
        d.count = self.count.saturating_sub(before.count);
        d.sum = self.sum.saturating_sub(before.sum);
        d
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_goes_to_bucket_zero_only() {
        let mut h = Hist::new();
        h.record(0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1..].iter().sum::<u64>(), 0);
        assert_eq!((h.count, h.sum, h.overflow), (1, 0, 0));
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        for i in 1..HIST_BUCKETS {
            let (lo, hi) = Hist::bucket_bounds(i);
            assert_eq!(Hist::bucket_index(lo), Some(i), "lo of bucket {i}");
            assert_eq!(Hist::bucket_index(hi), Some(i), "hi of bucket {i}");
            assert_ne!(Hist::bucket_index(lo - 1), Some(i), "below bucket {i}");
        }
    }

    #[test]
    fn max_bucket_then_overflow() {
        let (_, top) = Hist::bucket_bounds(HIST_BUCKETS - 1);
        let mut h = Hist::new();
        h.record(top);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(h.overflow, 0);
        h.record(top + 1);
        h.record(u64::MAX);
        assert_eq!(h.overflow, 2, "past the last bucket lands in overflow");
        assert_eq!(h.count, 3, "overflow values still count");
        assert_eq!(
            h.sum,
            u128::from(top) + u128::from(top + 1) + u128::from(u64::MAX)
        );
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        for v in [0u64, 1, 7, 1 << 20, u64::MAX] {
            a.record(v);
        }
        for v in [3u64, 3, 1 << 39] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 8);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let mut before = Hist::new();
        before.record(5);
        let mut after = before.clone();
        after.record(5);
        after.record(1 << 50);
        let d = after.delta_since(&before);
        assert_eq!(d.buckets[3], 1, "one new 5 (bit length 3)");
        assert_eq!(d.overflow, 1);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 5 + (1u128 << 50));
    }
}
