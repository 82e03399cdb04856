//! Key-popularity models.
//!
//! Each key has its own quorum system (§2.2), so the per-key write rate —
//! set by popularity — determines that key's γgw and its monotonic-reads
//! behaviour (§3.2).
//!
//! [`Zipf`] draws in O(1) time and O(1) memory via rejection-inversion
//! sampling, so key universes of hundreds of millions are fine; the
//! table-based [`ZipfCdf`] is kept as the exact property-test oracle for
//! small universes.

use rand::Rng;
use rand::RngCore;

/// Chooses which key an operation targets.
pub trait KeyChooser: Send + Sync {
    /// Number of distinct keys.
    fn key_count(&self) -> u64;

    /// Sample a key id in `0..key_count()`.
    fn choose(&self, rng: &mut dyn RngCore) -> u64;
}

/// Uniform popularity over `count` keys.
#[derive(Debug, Clone, Copy)]
pub struct UniformKeys {
    count: u64,
}

impl UniformKeys {
    /// Uniform over `count ≥ 1` keys.
    pub fn new(count: u64) -> Self {
        assert!(count >= 1);
        Self { count }
    }
}

impl KeyChooser for UniformKeys {
    fn key_count(&self) -> u64 {
        self.count
    }

    fn choose(&self, rng: &mut dyn RngCore) -> u64 {
        rng.gen_range(0..self.count)
    }
}

/// Zipf-distributed popularity: key `i` (0-based rank) has probability
/// proportional to `1/(i+1)^s`.
///
/// Sampling is rejection-inversion over the hazard integral
/// (Hörmann & Derflinger 1996): O(1) expected time per draw with **no
/// precomputed table**, so the key universe is bounded only by `u64` —
/// this is the construction path for the realistic-scale sweeps (tens of
/// millions of keys and up). For small universes where an exact PMF is
/// needed, [`ZipfCdf`] remains the oracle.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    count: u64,
    s: f64,
    /// `H(1.5) − 1` — the left edge of the inversion domain.
    h_x1: f64,
    /// `H(count + 0.5)` — the right edge of the inversion domain.
    h_n: f64,
    /// Acceptance shortcut: draws with `k − x ≤ dd` skip the exact test.
    dd: f64,
}

/// The hazard integral `H(x) = ∫ t^−s dt` (antiderivative of the
/// unnormalised density), continuous in `s` through `s = 1`.
fn h_integral(x: f64, s: f64) -> f64 {
    if s == 1.0 {
        x.ln()
    } else {
        (x.powf(1.0 - s) - 1.0) / (1.0 - s)
    }
}

/// Inverse of [`h_integral`].
fn h_integral_inv(v: f64, s: f64) -> f64 {
    if s == 1.0 {
        v.exp()
    } else {
        (1.0 + v * (1.0 - s)).max(0.0).powf(1.0 / (1.0 - s))
    }
}

/// The unnormalised density `h(x) = x^−s`.
fn h(x: f64, s: f64) -> f64 {
    x.powf(-s)
}

impl Zipf {
    /// Build over `count ≥ 1` keys with exponent `s ≥ 0` (0 = uniform,
    /// ~1 = classic web-like skew). No size cap: construction is O(1).
    pub fn new(count: u64, s: f64) -> Self {
        assert!(count >= 1, "need at least one key");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be finite and nonnegative");
        let h_x1 = h_integral(1.5, s) - 1.0;
        let h_n = h_integral(count as f64 + 0.5, s);
        let dd = 2.0 - h_integral_inv(h_integral(2.5, s) - h(2.0, s), s);
        Self { count, s, h_x1, h_n, dd }
    }
}

impl KeyChooser for Zipf {
    fn key_count(&self) -> u64 {
        self.count
    }

    fn choose(&self, rng: &mut dyn RngCore) -> u64 {
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = h_integral_inv(u, self.s);
            let k = x.round().clamp(1.0, self.count as f64);
            // Accept when k is within the guaranteed-acceptance band of x,
            // or when the exact majorising test passes.
            if k - x <= self.dd || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k as u64 - 1;
            }
        }
    }
}

/// Exact table-based Zipf: precomputed CDF plus binary search, O(n) build
/// and O(log n) per draw. Capped at 16M keys; kept as the property-test
/// oracle for [`Zipf`]'s rejection-inversion path (exact [`pmf`]
/// evaluation needs the normalising constant, which is inherently O(n)).
///
/// [`pmf`]: ZipfCdf::pmf
#[derive(Debug, Clone)]
pub struct ZipfCdf {
    cdf: Vec<f64>,
}

impl ZipfCdf {
    /// Build over `count ≥ 1` keys with exponent `s ≥ 0` (0 = uniform,
    /// ~1 = classic web-like skew).
    pub fn new(count: u64, s: f64) -> Self {
        assert!((1..=16_000_000).contains(&count), "key universe too large for CDF table");
        assert!(s >= 0.0 && s.is_finite());
        let mut cdf = Vec::with_capacity(count as usize);
        let mut acc = 0.0;
        for i in 0..count {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Probability of the given key rank.
    pub fn pmf(&self, key: u64) -> f64 {
        let i = key as usize;
        assert!(i < self.cdf.len());
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    /// Cumulative probability of ranks `0..=key`.
    pub fn cdf(&self, key: u64) -> f64 {
        self.cdf[key as usize]
    }
}

impl KeyChooser for ZipfCdf {
    fn key_count(&self) -> u64 {
        self.cdf.len() as u64
    }

    fn choose(&self, rng: &mut dyn RngCore) -> u64 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_all_keys() {
        let k = UniformKeys::new(10);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[k.choose(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_cdf_pmf_sums_to_one_and_is_decreasing() {
        let z = ZipfCdf::new(1000, 1.0);
        let sum: f64 = (0..1000).map(|i| z.pmf(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for i in 1..1000 {
            assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-15);
        }
    }

    #[test]
    fn zipf_s0_is_uniform() {
        let oracle = ZipfCdf::new(50, 0.0);
        for i in 0..50 {
            assert!((oracle.pmf(i) - 0.02).abs() < 1e-12);
        }
        // The rejection-inversion path at s = 0 is uniform too.
        let z = Zipf::new(50, 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mut counts = vec![0usize; 50];
        for _ in 0..n {
            counts[z.choose(&mut rng) as usize] += 1;
        }
        for (key, &c) in counts.iter().enumerate() {
            let emp = c as f64 / n as f64;
            assert!((emp - 0.02).abs() < 0.005, "key {key}: emp {emp}");
        }
    }

    /// The tentpole property test: the O(1) sampler agrees with the exact
    /// CDF oracle — per-key PMF at the head and a KS statistic over the
    /// whole distribution — for several exponents including s = 1 (the
    /// logarithmic special case) and s > 1.
    #[test]
    fn zipf_sampling_matches_cdf_oracle() {
        for &s in &[0.5, 1.0, 1.2, 2.5] {
            let keys = 100u64;
            let oracle = ZipfCdf::new(keys, s);
            let z = Zipf::new(keys, s);
            let mut rng = StdRng::seed_from_u64(5);
            let n = 200_000;
            let mut counts = vec![0usize; keys as usize];
            for _ in 0..n {
                counts[z.choose(&mut rng) as usize] += 1;
            }
            for key in [0u64, 1, 5, 20] {
                let emp = counts[key as usize] as f64 / n as f64;
                let expected = oracle.pmf(key);
                assert!(
                    (emp - expected).abs() < 0.01 + 0.1 * expected,
                    "s {s} key {key}: emp {emp} vs pmf {expected}"
                );
            }
            // KS distance between the empirical CDF and the oracle CDF.
            let mut acc = 0usize;
            let mut ks = 0.0f64;
            for key in 0..keys {
                acc += counts[key as usize];
                let emp_cdf = acc as f64 / n as f64;
                ks = ks.max((emp_cdf - oracle.cdf(key)).abs());
            }
            assert!(ks < 0.01, "s {s}: KS distance {ks} too large for n={n}");
        }
    }

    /// Per-seed bitwise determinism: the rejection loop consumes a
    /// deterministic number of draws, so two samplers with equal seeds
    /// yield the identical key sequence.
    #[test]
    fn zipf_draws_are_bitwise_deterministic_per_seed() {
        let z = Zipf::new(1_000_000_007, 0.99);
        let seq = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..1000).map(|_| z.choose(&mut rng)).collect()
        };
        assert_eq!(seq(42), seq(42), "same seed must replay bit-identically");
        assert_ne!(seq(42), seq(43), "different seeds must differ");
    }

    /// No table behind the sampler: a 10^9-key universe builds in O(1) and
    /// every draw stays in range, with rank 0 still the most popular key.
    #[test]
    fn zipf_handles_huge_universes_in_o1() {
        let keys = 1_000_000_000u64;
        let z = Zipf::new(keys, 1.0);
        assert_eq!(z.key_count(), keys);
        let mut rng = StdRng::seed_from_u64(7);
        let mut rank0 = 0usize;
        let n = 50_000;
        for _ in 0..n {
            let k = z.choose(&mut rng);
            assert!(k < keys);
            if k == 0 {
                rank0 += 1;
            }
        }
        // p(0) = 1/H_{1e9} ≈ 1/21.3 ≈ 4.7%; loose band.
        let frac = rank0 as f64 / n as f64;
        assert!((0.02..0.08).contains(&frac), "rank-0 fraction {frac}");
    }
}
