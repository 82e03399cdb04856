//! The samplers every latency in this workspace is drawn from, held to
//! their own analytic CDFs: a Kolmogorov–Smirnov distance over the whole
//! range and the sample mass beyond p99 / p99.9, where the paper's
//! staleness lives — at fixed seeds and pinned floors, and a Pareto drawn
//! with the wrong exponent, to show the floors can fail.

use pbs_dist::{production, Exponential, LatencyDistribution, Pareto};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: [u64; 3] = [1, 2, 3];
const DRAWS: usize = 1 << 16;

/// `√n·D` beyond this has p ≈ 1e-3 under the Kolmogorov distribution
/// (`2·exp(−2·1.95²)`).
const KS_FLOOR: f64 = 1.95;

/// A standard-normal score this far out has two-sided p ≈ 7e-6; over the
/// 48 tail counts below, under 4e-4.
const Z_FLOOR: f64 = 4.5;

/// Every sampler a run can draw a leg from: the two bare families at the
/// parameters the workspace uses (the checker's heavy-tailed W leg and
/// LNKD-SSD's short-tailed body) and the five production mixtures.
fn families() -> Vec<(&'static str, Box<dyn LatencyDistribution>)> {
    vec![
        ("Exponential(0.183)", Box::new(Exponential::from_rate(0.183))),
        ("Pareto(1.5, 1.2)", Box::new(Pareto::new(1.5, 1.2))),
        ("Pareto(0.235, 10)", Box::new(Pareto::new(0.235, 10.0))),
        ("lnkd_ssd", Box::new(production::lnkd_ssd())),
        ("lnkd_disk_write", Box::new(production::lnkd_disk_write())),
        ("lnkd_disk_ars", Box::new(production::lnkd_disk_ars())),
        ("ymmr_write", Box::new(production::ymmr_write())),
        ("ymmr_ars", Box::new(production::ymmr_ars())),
    ]
}

/// `DRAWS` samples of `sampler` at `seed`, ascending.
fn sorted_draws(sampler: &dyn LatencyDistribution, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs: Vec<f64> = (0..DRAWS).map(|_| sampler.sample(&mut rng)).collect();
    xs.sort_unstable_by(f64::total_cmp);
    xs
}

/// The Kolmogorov–Smirnov statistic `√n·D` of the ascending `xs` against
/// `truth`'s CDF: `D` is the largest gap between it and the sample's step
/// function, on either side of a step.
fn ks(xs: &[f64], truth: &dyn LatencyDistribution) -> f64 {
    let n = xs.len() as f64;
    let gap = |(i, &x): (usize, &f64)| {
        let f = truth.cdf(x);
        (f - i as f64 / n).max((i + 1) as f64 / n - f)
    };
    xs.iter().enumerate().map(gap).fold(0.0, f64::max) * n.sqrt()
}

/// The standard score of the number of `xs` above `truth.quantile(p)`,
/// binomial(`n`, `1 − p`) under the null.
fn tail_z(xs: &[f64], truth: &dyn LatencyDistribution, p: f64) -> f64 {
    let n = xs.len() as f64;
    let above = xs.len() - xs.partition_point(|&x| x <= truth.quantile(p));
    (above as f64 - n * (1.0 - p)) / (n * p * (1.0 - p)).sqrt()
}

#[test]
fn every_family_follows_its_own_cdf() {
    for (name, family) in families() {
        for seed in SEEDS {
            let stat = ks(&sorted_draws(family.as_ref(), seed), family.as_ref());
            assert!(stat < KS_FLOOR, "{name}, seed {seed}: √n·D = {stat:.2} ≥ {KS_FLOOR}");
        }
    }
}

#[test]
fn the_tails_hold_the_mass_the_parameters_promise() {
    for (name, family) in families() {
        for seed in SEEDS {
            let xs = sorted_draws(family.as_ref(), seed);
            for p in [0.99, 0.999] {
                let z = tail_z(&xs, family.as_ref(), p);
                let run = format!("{name}, seed {seed}");
                assert!(z.abs() < Z_FLOOR, "{run}: mass above p{p} off by {z:.2} sigma");
            }
        }
    }
}

/// The floors have teeth: the checker's W leg drawn with its exponent 10%
/// high — a tail a shade too light — is at least 8σ short of mass above
/// p99 and reads √n·D ≈ 8.7, at every seed.
#[test]
fn a_pareto_with_the_wrong_exponent_fails_both_floors() {
    let (truth, mutant) = (Pareto::new(1.5, 1.2), Pareto::new(1.5, 1.2 * 1.1));
    for seed in SEEDS {
        let xs = sorted_draws(&mutant, seed);
        let (stat, z) = (ks(&xs, &truth), tail_z(&xs, &truth, 0.99));
        assert!(stat > KS_FLOOR, "seed {seed}: the wrong exponent went unnoticed ({stat:.2})");
        assert!(z < -Z_FLOOR, "seed {seed}: the light tail went unnoticed ({z:.2} sigma)");
    }
}
