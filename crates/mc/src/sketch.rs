//! A mergeable streaming quantile sketch (merging t-digest) that also keeps
//! the exact moments of its stream.
//!
//! Replaces the buffer-everything-and-sort idiom (`SortedSamples`) in the
//! Monte-Carlo hot paths: memory is **O(compression)** — independent of the
//! number of recorded samples — and per-sample cost is amortised O(1).
//! `record` only pushes the sample's order-preserving integer key into one
//! staging buffer. A full batch of `4·δ` is flushed at once: its moments are
//! taken in two passes and Chan-merged into the running [`Moments`], its keys
//! are sorted as integers (the IEEE 754 total order), and one merge-join
//! folds it and the existing centroids into at most ~2·δ weighted centroids
//! under the t-digest `k1` scale function — one `sqrt` per centroid.
//!
//! Error model: rank (quantile) error, not value error. With the `k1`
//! scale function the rank error at quantile `q` is
//! `O(q(1−q)/compression)` — tightest exactly at the tails the paper cares
//! about (p99.9 t-visibility), where centroids degenerate to singletons and
//! queries become exact. The default compression of 200 keeps mid-quantile
//! rank error well under 0.5%.
//!
//! Determinism: insertion and merge are deterministic and the batch size
//! depends on the compression alone, so a fixed sample stream (and fixed merge
//! order — see `runner`) yields bit-identical results, in a new sketch or a clone.

use crate::runner::Mergeable;
use crate::summary::Moments;

/// Default compression (δ): ~2δ centroids ceiling, <0.5% mid-rank error.
pub const DEFAULT_COMPRESSION: f64 = 200.0;

/// Order-preserving image of a non-NaN sample: integer order of the keys is the
/// IEEE 754 total order of the samples (`−∞ < … < −0.0 < +0.0 < … < +∞`).
/// A negative sample has all its bits flipped, any other only its sign bit.
fn key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

/// The sample behind a [`key`], bit for bit.
fn unkey(key: u64) -> f64 {
    f64::from_bits(key ^ (((!key as i64 >> 63) as u64) | (1 << 63)))
}

/// Exact moments of one batch of keys, in the order given: the mean, then M2
/// about it. A pending batch read by a query and the same batch at its flush
/// go through this one function, so both see the same bits.
fn batch_moments(keys: &[u64]) -> Moments {
    if keys.is_empty() {
        return Moments::default();
    }
    let (min, max, sum) = keys.iter().fold((u64::MAX, 0, 0.0), |(min, max, sum), &k| {
        (min.min(k), max.max(k), sum + unkey(k))
    });
    let mean = sum / keys.len() as f64;
    let m2 = keys.iter().map(|&k| (unkey(k) - mean) * (unkey(k) - mean)).sum();
    Moments { n: keys.len() as u64, mean, m2, min: unkey(min), max: unkey(max) }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Centroid {
    mean: f64,
    weight: f64,
}

/// A mergeable t-digest over `f64` samples (NaN rejected, negatives fine —
/// staleness thresholds are frequently negative).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Samples staged before a flush: `4·δ`.
    batch: usize,
    /// `sin` and `cos` of `2π/δ`, one unit of the `k1` scale as an angle.
    sin_b: f64,
    cos_b: f64,
    /// Merged centroids, sorted by mean.
    centroids: Vec<Centroid>,
    /// Exact moments of the samples in `centroids` (the buffer holds the rest).
    moments: Moments,
    /// Staged samples as [`key`]s, folded in when the batch fills or on `seal`.
    buffer: Vec<u64>,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_COMPRESSION)
    }
}

impl QuantileSketch {
    /// Build with an explicit compression `δ`, finite and in `[20, 10_000]`
    /// (memory ≈ 6·δ words, rank error ∝ 1/δ). Panics otherwise.
    pub fn new(compression: f64) -> Self {
        assert!(
            (20.0..=10_000.0).contains(&compression),
            "compression must be finite and in [20, 10000]: {compression}"
        );
        let (sin_b, cos_b) = (2.0 * std::f64::consts::PI / compression).sin_cos();
        Self {
            batch: (4.0 * compression) as usize,
            sin_b,
            cos_b,
            centroids: Vec::new(),
            moments: Moments::default(),
            buffer: Vec::new(),
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.moments.count() + self.buffer.len() as u64
    }

    /// Whether any sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Smallest recorded sample. Panics when empty.
    pub fn min(&self) -> f64 {
        assert!(!self.is_empty(), "empty sketch");
        self.moments().min()
    }

    /// Largest recorded sample. Panics when empty.
    pub fn max(&self) -> f64 {
        assert!(!self.is_empty(), "empty sketch");
        self.moments().max()
    }

    /// Exact arithmetic mean. Panics when empty.
    pub fn mean(&self) -> f64 {
        self.moments().mean()
    }

    /// Exact population variance. Panics when empty.
    pub fn variance(&self) -> f64 {
        self.moments().variance()
    }

    /// Exact population standard deviation. Panics when empty.
    pub fn std_dev(&self) -> f64 {
        self.moments().std_dev()
    }

    /// Exact moments of everything recorded. A pending batch is folded into
    /// a copy of the running moments: O(batch), no sort, no centroid cloned.
    pub(crate) fn moments(&self) -> Moments {
        let mut all = self.moments;
        all.merge(batch_moments(&self.buffer));
        all
    }

    /// Record one sample. Amortised O(1); panics on NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "samples must not be NaN");
        if self.buffer.is_empty() {
            // Allocates only in the first batch of a new sketch or of a clone.
            self.buffer.reserve_exact(self.batch);
        }
        self.buffer.push(key(x));
        if self.buffer.len() >= self.batch {
            self.seal();
        }
    }

    /// Rank fraction a centroid opened at rank fraction `q` may reach under
    /// the t-digest `k1` scale `k(q) = δ/2π · arcsin(2q−1)`: `k⁻¹(k(q) + 1)`
    /// `= (sin(arcsin x + b) + 1)/2` with `x = 2q−1`, `b = 2π/δ`, expanded by
    /// angle addition and saturating at 1 once `arcsin x + b ≥ π/2`.
    fn q_limit(&self, q: f64) -> f64 {
        let x = 2.0 * q - 1.0;
        if x >= self.cos_b {
            return 1.0;
        }
        (x * self.cos_b + (1.0 - x * x).sqrt() * self.sin_b + 1.0) / 2.0
    }

    /// Fold any staged samples into the moments and the centroid set. Queries
    /// do this on a temporary copy when needed; sealing once after a recording
    /// burst keeps subsequent queries allocation-free.
    pub fn seal(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.moments.merge(batch_moments(&self.buffer));
        self.buffer.sort_unstable();
        let singleton = |&k: &u64| Centroid { mean: unkey(k), weight: 1.0 };
        self.centroids = self.merge_join(&self.centroids, &self.buffer, singleton);
        self.buffer.clear();
    }

    /// Merge-join two sequences sorted by mean (`ours` first on ties) into
    /// one compressed centroid list of `self.moments.count()` total weight.
    /// The open centroid is held as `(Σ mean·weight, weight)` and divided
    /// once, when the next item would take it past its size limit.
    fn merge_join<T>(
        &self,
        ours: &[Centroid],
        theirs: &[T],
        centroid: impl Fn(&T) -> Centroid,
    ) -> Vec<Centroid> {
        let (mut i, mut j) = (0, 0);
        let mut next = || match theirs.get(j).map(&centroid) {
            Some(c) if i == ours.len() || c.mean < ours[i].mean => {
                j += 1;
                Some(c)
            }
            _ => {
                i += 1;
                ours.get(i - 1).copied()
            }
        };
        let total = self.moments.count() as f64;
        let mut out = Vec::with_capacity(ours.len() + 16);
        let first = next().expect("a flush or a merge brings at least one item");
        let (mut sum, mut weight, mut w_so_far) = (first.mean * first.weight, first.weight, 0.0);
        let mut limit = self.q_limit(0.0) * total;
        while let Some(c) = next() {
            if w_so_far + weight + c.weight <= limit {
                sum += c.mean * c.weight;
                weight += c.weight;
            } else {
                out.push(Centroid { mean: sum / weight, weight });
                w_so_far += weight;
                limit = self.q_limit(w_so_far / total) * total;
                (sum, weight) = (c.mean * c.weight, c.weight);
            }
        }
        out.push(Centroid { mean: sum / weight, weight });
        out
    }

    /// Run `f` against a fully compressed view of the sketch (cheap clone
    /// only when unsealed samples are pending).
    fn with_sealed<R>(&self, f: impl FnOnce(&QuantileSketch) -> R) -> R {
        if self.buffer.is_empty() {
            f(self)
        } else {
            let mut sealed = self.clone();
            sealed.seal();
            f(&sealed)
        }
    }

    /// Approximate quantile: the value at cumulative probability
    /// `q ∈ [0, 1]` (`0 → min`, `1 → max`). Panics when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        assert!(!self.is_empty(), "empty sketch");
        self.with_sealed(|s| {
            let (min, max, total) = (s.moments.min(), s.moments.max(), s.moments.count() as f64);
            if min == max {
                return min;
            }
            let target = q * total;
            // Piecewise-linear through (0, min), (center_i, mean_i)…,
            // (total, max), where center_i is the centroid's mid-rank.
            let mut cum = 0.0;
            let mut prev_rank = 0.0;
            let mut prev_val = min;
            for c in &s.centroids {
                let center = cum + c.weight / 2.0;
                if target <= center {
                    let span = center - prev_rank;
                    let frac = if span > 0.0 { (target - prev_rank) / span } else { 1.0 };
                    return prev_val + frac * (c.mean - prev_val);
                }
                cum += c.weight;
                prev_rank = center;
                prev_val = c.mean;
            }
            let span = total - prev_rank;
            let frac = if span > 0.0 { (target - prev_rank) / span } else { 1.0 };
            (prev_val + frac * (max - prev_val)).min(max)
        })
    }

    /// Approximate percentile, `pct ∈ [0, 100]` — the sorted-samples
    /// `percentile` call sites read unchanged.
    pub fn percentile(&self, pct: f64) -> f64 {
        assert!((0.0..=100.0).contains(&pct), "percentile out of range: {pct}");
        self.quantile(pct / 100.0)
    }

    /// Approximate CDF: the fraction of samples `≤ x`. Returns `0` below
    /// the observed minimum and `1` at or above the observed maximum.
    /// Panics when empty.
    ///
    /// Ties count inclusively, matching `SortedSamples::ecdf`: repeated
    /// values (atoms — e.g. the `threshold = 0` mass of instantaneous
    /// reads) survive compression as runs of equal-mean centroids, which
    /// are treated as vertical steps whose full weight counts at `x`
    /// rather than being smeared by mid-rank interpolation.
    pub fn cdf(&self, x: f64) -> f64 {
        assert!(!x.is_nan(), "cdf of NaN");
        assert!(!self.is_empty(), "empty sketch");
        self.with_sealed(|s| {
            let (min, max, total) = (s.moments.min(), s.moments.max(), s.moments.count() as f64);
            if x < min {
                return 0.0;
            }
            if x >= max {
                return 1.0;
            }
            let cs = &s.centroids;
            let mut cum = 0.0;
            let mut prev_rank = 0.0;
            let mut prev_val = min;
            let mut i = 0;
            while i < cs.len() {
                // Gather the run of centroids sharing one mean.
                let v = cs[i].mean;
                let mut w_run = cs[i].weight;
                let mut j = i + 1;
                while j < cs.len() && cs[j].mean == v {
                    w_run += cs[j].weight;
                    j += 1;
                }
                if x < v {
                    // A multi-centroid run is (almost surely) an atom: its
                    // mass sits entirely at `v`, so interpolate toward the
                    // step's base rather than its mid-rank.
                    let anchor = if j - i >= 2 { cum } else { cum + w_run / 2.0 };
                    let span = v - prev_val;
                    let frac = if span > 0.0 { (x - prev_val) / span } else { 0.0 };
                    return (prev_rank + frac * (anchor - prev_rank)) / total;
                }
                cum += w_run;
                if x == v {
                    // Inclusive tie semantics: the whole run counts.
                    return (cum / total).min(1.0);
                }
                prev_val = v;
                prev_rank = if j - i >= 2 { cum } else { cum - w_run / 2.0 };
                i = j;
            }
            let span = max - prev_val;
            let frac = if span > 0.0 { (x - prev_val) / span } else { 1.0 };
            ((prev_rank + frac * (total - prev_rank)) / total).min(1.0)
        })
    }
}

impl Mergeable for QuantileSketch {
    /// Absorb another sketch: both are sealed, then their centroid lists
    /// go through the same merge-join a flush uses. Deterministic given
    /// operand order (the runner always merges in shard order).
    fn merge(&mut self, mut other: Self) {
        if other.is_empty() {
            return;
        }
        self.seal();
        other.seal();
        self.moments.merge(other.moments);
        self.centroids = if self.centroids.is_empty() {
            other.centroids
        } else {
            self.merge_join(&self.centroids, &other.centroids, |&c| c)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn constant_stream_is_exact() {
        let mut s = QuantileSketch::default();
        for _ in 0..10_000 {
            s.record(5.0);
        }
        assert_eq!(s.quantile(0.0), 5.0);
        assert_eq!(s.quantile(0.5), 5.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.cdf(5.0), 1.0);
        assert_eq!(s.cdf(4.999), 0.0);
        assert_eq!(s.count(), 10_000);
    }

    #[test]
    fn uniform_quantiles_close_to_truth() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = QuantileSketch::default();
        let mut all = Vec::new();
        for _ in 0..100_000 {
            let x: f64 = rng.gen();
            s.record(x);
            all.push(x);
        }
        all.sort_unstable_by(f64::total_cmp);
        for &q in &[0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let approx = s.quantile(q);
            let exact = exact_quantile(&all, q);
            assert!((approx - exact).abs() < 0.01, "q={q}: {approx} vs {exact}");
            // Rank error is the real contract: <0.5%.
            let rank = all.partition_point(|&v| v <= approx) as f64 / all.len() as f64;
            assert!((rank - q).abs() < 0.005, "q={q}: rank {rank}");
        }
        for &x in &[0.05, 0.25, 0.5, 0.75, 0.95] {
            assert!((s.cdf(x) - x).abs() < 0.005, "cdf({x}) = {}", s.cdf(x));
        }
    }

    #[test]
    fn negative_and_mixed_values() {
        let mut s = QuantileSketch::default();
        for i in 0..1_000 {
            s.record(i as f64 - 500.0);
        }
        assert_eq!(s.min(), -500.0);
        assert_eq!(s.max(), 499.0);
        assert!(s.quantile(0.5).abs() < 5.0);
        assert!((s.cdf(0.0) - 0.5).abs() < 0.01);
        assert_eq!(s.cdf(-501.0), 0.0);
        assert_eq!(s.cdf(499.0), 1.0);
    }

    #[test]
    fn memory_is_bounded() {
        let mut s = QuantileSketch::new(100.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1_000_000 {
            s.record(rng.gen::<f64>() * 1e3);
        }
        s.seal();
        assert!(
            s.centroids.len() <= 2 * 100 + 10,
            "centroid count {} should be O(compression)",
            s.centroids.len()
        );
        assert_eq!(s.count(), 1_000_000);
    }

    #[test]
    fn merge_matches_single_stream_statistically() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut whole = QuantileSketch::default();
        let mut parts: Vec<QuantileSketch> =
            (0..4).map(|_| QuantileSketch::default()).collect();
        for i in 0..80_000 {
            let x = -(rng.gen::<f64>().max(1e-12)).ln() * 10.0; // Exp(mean 10)
            whole.record(x);
            parts[i % 4].record(x);
        }
        let mut merged = parts.remove(0);
        for p in parts {
            merged.merge(p);
        }
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        for &q in &[0.5, 0.9, 0.99, 0.999] {
            let a = merged.quantile(q);
            let b = whole.quantile(q);
            assert!((a - b).abs() < 0.02 * b.max(1.0), "q={q}: merged {a} vs whole {b}");
        }
    }

    #[test]
    fn deterministic_for_fixed_stream() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(9);
            let mut s = QuantileSketch::default();
            for _ in 0..50_000 {
                s.record(rng.gen::<f64>());
            }
            s.seal();
            s
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.quantile(0.999).to_bits(), b.quantile(0.999).to_bits());
    }

    #[test]
    fn queries_with_pending_buffer_match_sealed() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = QuantileSketch::default();
        for _ in 0..10_123 {
            s.record(rng.gen::<f64>());
        }
        let before = s.quantile(0.9);
        let cdf_before = s.cdf(0.25);
        let exact = |s: &QuantileSketch| {
            let m = s.moments();
            [m.mean(), m.variance(), m.min(), m.max(), s.min(), s.max()].map(f64::to_bits)
        };
        let (count_before, exact_before) = (s.count(), exact(&s));
        assert_eq!(s.buffer.len(), 10_123 % 800, "the queries run against a pending batch");
        s.seal();
        assert_eq!(before.to_bits(), s.quantile(0.9).to_bits());
        assert_eq!(cdf_before.to_bits(), s.cdf(0.25).to_bits());
        assert_eq!((count_before, exact_before), (s.count(), exact(&s)));
        assert_eq!(s.count(), 10_123);
    }

    #[test]
    fn cdf_and_quantile_are_monotone() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = QuantileSketch::default();
        for _ in 0..30_000 {
            s.record(rng.gen::<f64>() * rng.gen::<f64>() * 100.0);
        }
        s.seal();
        let mut prev = 0.0;
        for i in 0..=100 {
            let c = s.cdf(i as f64);
            assert!(c >= prev - 1e-12, "cdf not monotone at {i}: {c} < {prev}");
            prev = c;
        }
        let mut prevq = f64::NEG_INFINITY;
        for i in 0..=100 {
            let v = s.quantile(i as f64 / 100.0);
            assert!(v >= prevq - 1e-12, "quantile not monotone at {i}");
            prevq = v;
        }
    }

    #[test]
    #[should_panic(expected = "empty sketch")]
    fn empty_quantile_panics() {
        QuantileSketch::default().quantile(0.5);
    }

    /// Samples that stress the key map: every class of non-NaN bit pattern.
    fn any_sample() -> impl Strategy<Value = f64> {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
        ];
        (any::<u64>(), 0usize..24).prop_map(|(bits, pick)| match f64::from_bits(bits) {
            _ if pick < SPECIAL.len() => SPECIAL[pick],
            // A subnormal of either sign: exponent field cleared.
            _ if pick < 12 => f64::from_bits(bits & !(0x7ff << 52)),
            x if x.is_nan() => f64::from_bits(bits & !(1 << 62)),
            x => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        /// The integer keys order exactly as `f64::total_cmp` and lose no bit.
        #[test]
        fn key_orders_as_total_cmp_and_round_trips(a in any_sample(), b in any_sample()) {
            prop_assert!(!a.is_nan() && !b.is_nan());
            prop_assert_eq!(key(a).cmp(&key(b)), a.total_cmp(&b), "{:e} vs {:e}", a, b);
            prop_assert_eq!(unkey(key(a)).to_bits(), a.to_bits());
        }
    }

    /// The `k1` size limit as the parent computed it: `k⁻¹(k(q) + 1)` with
    /// one `asin` and one `sin`.
    fn q_limit_reference(compression: f64, q: f64) -> f64 {
        use std::f64::consts::{FRAC_PI_2, PI};
        let k = compression / (2.0 * PI) * (2.0 * q - 1.0).clamp(-1.0, 1.0).asin();
        let arg = 2.0 * PI * (k + 1.0) / compression;
        if arg >= FRAC_PI_2 {
            return 1.0;
        }
        (arg.sin() + 1.0) / 2.0
    }

    #[test]
    fn size_limit_matches_the_scale_function() {
        for compression in [20.0, 100.0, 200.0, 1000.0] {
            let s = QuantileSketch::new(compression);
            let mut prev = 0.0;
            for i in 0..=10_000 {
                let q = i as f64 / 10_000.0;
                let (got, want) = (s.q_limit(q), q_limit_reference(compression, q));
                assert!((got - want).abs() <= 1e-12, "δ={compression} q={q}: {got} vs {want}");
                assert!(got >= prev, "δ={compression}: not monotone at q={q}: {got} < {prev}");
                assert!(got <= 1.0 && (got > q || q == 1.0), "δ={compression} q={q}: {got}");
                if 2.0 * q - 1.0 >= s.cos_b || prev == 1.0 {
                    assert_eq!(got, 1.0, "δ={compression}: saturated at q={q}");
                }
                prev = got;
            }
            assert_eq!(prev, 1.0);
        }
    }

    #[test]
    fn flush_count_depends_on_the_compression_alone() {
        let feed = |s: &mut QuantileSketch| (0..3_000).for_each(|i| s.record(f64::from(i % 97)));
        let mut original = QuantileSketch::default();
        let mut clone = original.clone();
        for s in [&mut original, &mut clone] {
            feed(s);
            assert_eq!(s.buffer.len(), 600, "3 flushes of 800, 600 pending");
            assert_eq!(s.moments.count(), 2_400);
            s.seal();
            assert_eq!((s.buffer.len(), s.moments.count()), (0, 3_000));
        }
        assert_eq!(original, clone);
        // A clone of a sealed, non-empty sketch stages on the same schedule.
        let mut clone = original.clone();
        for s in [&mut original, &mut clone] {
            feed(s);
            assert_eq!(s.buffer.len(), 600);
        }
        assert_eq!(original, clone);
    }

    #[test]
    fn compression_out_of_range_panics_with_the_constructors_message() {
        QuantileSketch::new(20.0);
        QuantileSketch::new(10_000.0);
        for bad in [f64::INFINITY, 1e15, 10_000.5, 19.9, 0.0, -200.0, f64::NAN] {
            let err = std::panic::catch_unwind(|| QuantileSketch::new(bad)).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.contains("finite and in [20, 10000]"), "δ={bad}: {msg}");
        }
    }
}
