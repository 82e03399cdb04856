//! The statistics every Monte-Carlo result in this workspace stands on:
//! `StdRng`'s bits, `gen_range`'s buckets and `gen::<f64>()`'s
//! independence, each held to a pinned floor at fixed seeds — and a
//! deliberately broken generator, to show the floors can fail.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const SEEDS: [u64; 3] = [1, 2, 3];
const DRAWS: usize = 1 << 18;

/// Upper critical values of chi-square at p = 0.001, by buckets − 1
/// degrees of freedom.
const CHI_SQUARE_FLOORS: [(u64, f64); 4] = [(2, 10.828), (3, 13.816), (10, 27.877), (64, 103.442)];

/// A standard-normal score this far out has two-sided p ≈ 7e-6; over the
/// 64 bits (or 8 lags) of one run, under 5e-4.
const Z_FLOOR: f64 = 4.5;

/// Chi-square statistic of `DRAWS` values of `gen_range(0..k)` against the
/// uniform distribution on `k` buckets.
fn chi_square(rng: &mut impl RngCore, k: u64) -> f64 {
    let mut counts = vec![0u64; k as usize];
    for _ in 0..DRAWS {
        counts[rng.gen_range(0..k) as usize] += 1;
    }
    let expected = DRAWS as f64 / k as f64;
    counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum()
}

/// The largest |z| over the 64 bit positions of `DRAWS` values of
/// `next_u64`, each position a fair coin under the null.
fn worst_bit_z(rng: &mut impl RngCore) -> f64 {
    let mut ones = [0u64; 64];
    for _ in 0..DRAWS {
        let x = rng.next_u64();
        for (bit, count) in ones.iter_mut().enumerate() {
            *count += (x >> bit) & 1;
        }
    }
    let (mean, sd) = (DRAWS as f64 / 2.0, (DRAWS as f64 / 4.0).sqrt());
    ones.iter().map(|&c| ((c as f64 - mean) / sd).abs()).fold(0.0, f64::max)
}

/// The largest |z| over the lag-1..8 autocorrelations of `DRAWS` values
/// of `gen::<f64>()`; each is N(0, 1/n) under independence.
fn worst_serial_z(rng: &mut impl RngCore) -> f64 {
    let xs: Vec<f64> = (0..DRAWS).map(|_| rng.gen::<f64>() - 0.5).collect();
    let variance = xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64;
    (1..=8)
        .map(|lag| {
            let n = (xs.len() - lag) as f64;
            let covariance = xs.iter().zip(&xs[lag..]).map(|(a, b)| a * b).sum::<f64>() / n;
            (covariance / variance * n.sqrt()).abs()
        })
        .fold(0.0, f64::max)
}

#[test]
fn gen_range_fills_its_buckets_evenly() {
    for seed in SEEDS {
        for (k, floor) in CHI_SQUARE_FLOORS {
            let stat = chi_square(&mut StdRng::seed_from_u64(seed), k);
            assert!(stat < floor, "seed {seed}, {k} buckets: chi-square {stat:.2} ≥ {floor}");
        }
    }
}

#[test]
fn every_bit_of_next_u64_is_a_fair_coin() {
    for seed in SEEDS {
        let z = worst_bit_z(&mut StdRng::seed_from_u64(seed));
        assert!(z < Z_FLOOR, "seed {seed}: a bit is off balance by {z:.2} sigma");
    }
}

#[test]
fn successive_f64s_are_uncorrelated_at_lags_one_to_eight() {
    for seed in SEEDS {
        let z = worst_serial_z(&mut StdRng::seed_from_u64(seed));
        assert!(z < Z_FLOOR, "seed {seed}: a lag correlates at {z:.2} sigma");
    }
}

/// `StdRng` with the low bit of every output cleared.
struct LowBitCleared(StdRng);

impl RngCore for LowBitCleared {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64() & !1
    }
}

/// The floors have teeth: a generator that drops its low bit fails the
/// bit-balance test.
#[test]
fn a_generator_that_drops_its_low_bit_fails_the_bit_balance() {
    for seed in SEEDS {
        let z = worst_bit_z(&mut LowBitCleared(StdRng::seed_from_u64(seed)));
        assert!(z > Z_FLOOR, "seed {seed}: the stuck bit went unnoticed ({z:.2} sigma)");
    }
}
