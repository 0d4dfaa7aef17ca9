//! Order statistics, the seeded generator, and span self-time — the
//! arithmetic every reported number goes through.

/// SplitMix64: the benchmark's only source of randomness. Everything a
/// workload feeds the program (offsets, lengths, traces, corpora) is
/// drawn from one of these seeded with `--seed`, so the same seed gives
/// the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two draws
    /// sites never share a sequence.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Inverse-CDF sampler for a Zipf(`s`) popularity over `n` ranks.
#[derive(Debug, Clone)]
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    /// Rank `r` (1-based) is drawn with weight `1 / r^s`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cum = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        Self { cum }
    }

    /// Draw a 0-based rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cum[self.cum.len() - 1];
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `check` and the acceptance driver agree
/// digit for digit. One value is its own quartiles; none is all zeros.
#[must_use]
pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        match n {
            0 => 0.0,
            1 => v[0],
            _ => {
                // Position (n + 1) * k / 4 on a 1-based axis, clamped
                // into the sample and interpolated linearly.
                let pos = (n + 1) as f64 * k as f64 / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * frac
            }
        }
    };
    Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
        n,
    }
}

/// Median of a sample (0 for an empty one).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Percentile `q ∈ [0, 1]` of an unsorted sample of whole nanoseconds,
/// by the grouped-data formula: each whole value `v` stands for the
/// interval `[v - 0.5, v + 0.5)` and the percentile is interpolated
/// inside the interval the rank falls in,
/// `v - 0.5 + (q·n - below) / equal`.
///
/// Virtual costs are whole nanoseconds and heavily tied — every cache
/// hit of one size costs the same — so a nearest-rank percentile is a
/// step function of the mix: it sits still while the share of hits
/// drifts and then jumps by the whole hit/miss gap. Interpolating in the
/// tied interval moves smoothly with the mix and agrees with nearest
/// rank to within half a nanosecond. Sorts `samples` in place.
#[must_use]
pub fn percentile(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let n = samples.len();
    let target = q.clamp(0.0, 1.0) * n as f64;
    let v = samples[((target.ceil() as usize).clamp(1, n)) - 1];
    let below = samples.partition_point(|&x| x < v);
    let equal = samples.partition_point(|&x| x <= v) - below;
    f64::from(v) - 0.5 + (target - below as f64) / equal as f64
}

/// One span of a causal tree, reduced to what self-time needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanIv {
    /// Span id (unique in the set).
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Start, any monotonic unit.
    pub start: u64,
    /// End, same unit.
    pub end: u64,
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval that its direct children cover. Children may overlap
/// one another (pipelined chunks) and may stick out of the parent (a
/// completion that lands after the caller moved on); the covered part
/// is the union of the children clipped to the parent.
#[must_use]
pub fn self_times(spans: &[SpanIv]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            kids.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start);
            let Some(ch) = kids.get_mut(&s.id) else {
                return dur;
            };
            ch.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = s.start;
            for &(a, b) in ch.iter() {
                let a = a.clamp(frontier, s.end);
                let b = b.clamp(frontier, s.end);
                covered += b - a;
                frontier = frontier.max(b);
            }
            dur - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]).median, 7.0);
        assert_eq!(quartiles(&[]).median, 0.0);
    }

    #[test]
    fn percentile_interpolates_inside_ties() {
        // Distinct values: within half a unit of nearest rank.
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50.5);
        assert_eq!(percentile(&mut v, 0.99), 99.5);
        assert_eq!(percentile(&mut v, 1.0), 100.5);
        // All tied: the value itself at the median.
        assert_eq!(percentile(&mut [831; 1000], 0.5), 831.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        // 60 hits at 800 ns, 40 misses at 9000: the median sits in the
        // hit interval, 50/60 of the way through it, and moves smoothly
        // as the hit share drifts instead of jumping to 9000.
        let mix = |hits: usize| {
            let mut s = vec![800u32; hits];
            s.resize(100, 9000);
            percentile(&mut s, 0.5)
        };
        assert!((mix(60) - (799.5 + 50.0 / 60.0)).abs() < 1e-9);
        assert!(mix(55) > mix(60) && mix(55) < 801.0);
        assert!(mix(49) > 8999.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let iv = |id, parent, start, end| SpanIv {
            id,
            parent,
            start,
            end,
        };
        let spans = [
            iv(1, 0, 0, 100),
            // Two children overlapping on [30, 40): union covers [10, 60).
            iv(2, 1, 10, 40),
            iv(3, 1, 30, 60),
            // A child sticking out past the parent is clipped to [90, 100).
            iv(4, 1, 90, 130),
            // A grandchild only reduces its own parent.
            iv(5, 2, 10, 25),
            // An orphan (parent not in the set) is all self time.
            iv(6, 99, 0, 7),
        ];
        assert_eq!(self_times(&spans), vec![40, 15, 30, 40, 15, 7]);
    }

    #[test]
    fn rng_is_seeded_and_zipf_is_skewed() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 3);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let z = Zipf::new(1000, 0.9);
        let mut r = Rng::new(5, 0);
        let top = (0..10_000).filter(|_| z.sample(&mut r) < 10).count();
        assert!(top > 1500, "10 of 1000 ranks drew only {top} of 10000");
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
