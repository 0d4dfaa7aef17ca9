//! Virtual-time latency histogram: HDR-style log-octave buckets.

/// Number of linear subbuckets per power-of-two octave (8 keeps the
/// relative quantile error under ~12%).
const HIST_SUB_BITS: u32 = 3;
const HIST_SUB: usize = 1 << HIST_SUB_BITS;

/// A latency histogram with logarithmic octaves split into linear
/// subbuckets — constant memory, bounded relative error, cheap merge.
///
/// The traffic harness's per-tenant tail reports build on it; the
/// metrics registry holds counters and probes only.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; (64 - HIST_SUB_BITS as usize) * HIST_SUB],
            total: 0,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        let v = v.max(1);
        let octave = 63 - v.leading_zeros();
        if octave < HIST_SUB_BITS {
            return v as usize; // exact below 2^SUB_BITS
        }
        let sub = ((v >> (octave - HIST_SUB_BITS)) & (HIST_SUB as u64 - 1)) as usize;
        (octave - HIST_SUB_BITS + 1) as usize * HIST_SUB + sub
    }

    /// Upper edge of `bucket` (quantiles report this conservative bound).
    fn value_of(bucket: usize) -> u64 {
        if bucket < HIST_SUB {
            return bucket as u64;
        }
        let octave = (bucket / HIST_SUB) as u32 + HIST_SUB_BITS - 1;
        let sub = (bucket % HIST_SUB) as u64;
        (1u64 << octave) + (sub + 1) * (1u64 << (octave - HIST_SUB_BITS)) - 1
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0.5` = p50), as the upper edge of the bucket
    /// holding the `ceil(q * total)`-th sample; exact max for `q = 1`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(b).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((500..=625).contains(&p50), "p50 = {p50}");
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000);

        let mut other = Histogram::new();
        other.record(4000);
        h.merge(&other);
        assert_eq!(h.count(), 1001);
        assert!(h.quantile(1.0) == 4000);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.25), 1, "values below 2^3 are exact");
    }
}
