//! Exact moments ([`Moments`]) and [`Summary`], the name the Monte-Carlo
//! consumers record into: one [`QuantileSketch`] read two ways. The sketch
//! stages samples in a single buffer and, once per flush, folds the batch
//! into its centroids *and* into the exact moments it carries.

use crate::runner::Mergeable;
use crate::sketch::QuantileSketch;

/// Exact count / mean / variance / extrema in O(1) memory. Batches combine
/// through the Chan et al. parallel update ([`Mergeable::merge`]); `record`
/// is that update for a batch of one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    pub(crate) n: u64,
    pub(crate) mean: f64,
    pub(crate) m2: f64,
    pub(crate) min: f64,
    pub(crate) max: f64,
}

impl Moments {
    /// Record one sample. Panics on NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "samples must not be NaN");
        self.merge(Self { n: 1, mean: x, m2: 0.0, min: x, max: x });
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Arithmetic mean. Panics when empty.
    pub fn mean(&self) -> f64 {
        assert!(self.n > 0, "empty moments");
        self.mean
    }

    /// Population variance (`M2/n`). Panics when empty.
    pub fn variance(&self) -> f64 {
        assert!(self.n > 0, "empty moments");
        self.m2 / self.n as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample. Panics when empty.
    pub fn min(&self) -> f64 {
        assert!(self.n > 0, "empty moments");
        self.min
    }

    /// Largest sample. Panics when empty.
    pub fn max(&self) -> f64 {
        assert!(self.n > 0, "empty moments");
        self.max
    }
}

impl Mergeable for Moments {
    fn merge(&mut self, other: Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The standard per-shard accumulator *is* the sketch: distributional
/// queries from its centroids, exact count / mean / variance / extrema from
/// the moments it keeps of the same stream. Memory is O(sketch compression),
/// independent of trials; `Summary::default()` is the empty one.
pub type Summary = QuantileSketch;

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_dist::LatencyDistribution;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn moments_match_naive() {
        let xs = [3.0, -1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut m = Moments::default();
        for &x in &xs {
            m.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
        assert_eq!(m.min(), -1.0);
        assert_eq!(m.max(), 9.0);
        assert_eq!(m.count(), 8);
    }

    #[test]
    fn moments_merge_equals_concatenation() {
        let mut rng = StdRng::seed_from_u64(0);
        let xs: Vec<f64> = (0..1_000).map(|_| rng.gen::<f64>() * 100.0 - 50.0).collect();
        let mut whole = Moments::default();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Moments::default();
        let mut b = Moments::default();
        for (i, &x) in xs.iter().enumerate() {
            if i < 300 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = Moments::default();
        m.record(2.0);
        let snapshot = m;
        m.merge(Moments::default());
        assert_eq!(m, snapshot);
        let mut e = Moments::default();
        e.merge(snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn summary_combines_exact_and_approximate() {
        let mut s = Summary::default();
        for i in 1..=1_000 {
            s.record(i as f64);
        }
        assert_eq!(s.count(), 1_000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 1_000.0);
        assert!((s.percentile(50.0) - 500.0).abs() < 10.0);
        assert!((s.cdf(250.0) - 0.25).abs() < 0.01);
    }

    /// Per-sample Welford — what `Summary::record` did before the moments
    /// moved to once per batch — and the textbook two-pass sums.
    fn welford_and_two_pass(xs: &[f64]) -> [(f64, f64); 2] {
        let (mut mean, mut m2) = (0.0, 0.0);
        for (i, &x) in xs.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        let n = xs.len() as f64;
        let naive_mean = xs.iter().sum::<f64>() / n;
        let naive_var = xs.iter().map(|x| (x - naive_mean) * (x - naive_mean)).sum::<f64>() / n;
        [(mean, m2 / n), (naive_mean, naive_var)]
    }

    #[test]
    fn batch_moments_match_per_sample_references() {
        let disk = pbs_dist::production::lnkd_disk_write();
        let mut rng = StdRng::seed_from_u64(12);
        let legs: Vec<f64> = (0..100_000).map(|_| disk.sample(&mut rng)).collect();
        let offset: Vec<f64> =
            legs.iter().enumerate().map(|(i, x)| x + [1e9, -1e9][i % 2]).collect();
        for (name, xs) in [("LNKD-DISK", &legs), ("±1e9 offset", &offset)] {
            let mut whole = Summary::default();
            let mut shards = vec![Summary::default(); 4];
            for (i, &x) in xs.iter().enumerate() {
                whole.record(x);
                shards[i * 4 / xs.len()].record(x);
            }
            let mut merged = shards.remove(0);
            shards.into_iter().for_each(|shard| merged.merge(shard));
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let scale = min.abs().max(max.abs());
            for (mean, var) in welford_and_two_pass(xs) {
                for (how, s) in [("one stream", &whole), ("four shards", &merged)] {
                    assert_eq!((s.count(), s.min(), s.max()), (100_000, min, max), "{name} {how}");
                    assert!((s.mean() - mean).abs() <= 1e-12 * scale, "{name} {how}: mean");
                    let gap = (s.variance() - var).abs() / var;
                    assert!(gap <= 1e-12, "{name} {how}: variance off by {gap:e}");
                }
            }
        }
    }

    #[test]
    fn a_clone_records_like_its_original() {
        let mut rng = StdRng::seed_from_u64(13);
        let xs: Vec<f64> = (0..15_000).map(|_| rng.gen::<f64>() * 100.0).collect();
        let mut original = Summary::default();
        xs[..5_000].iter().for_each(|&x| original.record(x));
        original.seal();
        let mut clone = original.clone();
        for &x in &xs[5_000..] {
            original.record(x);
            clone.record(x);
        }
        assert_eq!(original, clone);
        assert_eq!(original.percentile(99.0).to_bits(), clone.percentile(99.0).to_bits());

        let mut fresh = Summary::default();
        let mut cloned = vec![Summary::default(); 3];
        for &x in &xs[..10_000] {
            fresh.record(x);
            cloned.iter_mut().for_each(|s| s.record(x));
        }
        assert!(cloned.iter().all(|s| *s == fresh));
    }
}
