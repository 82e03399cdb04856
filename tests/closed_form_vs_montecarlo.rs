//! Cross-crate validation: the pbs-core closed forms, the pbs-quorum
//! Monte Carlo, and the pbs-wars engine must all agree where their domains
//! overlap.

use pbs::dist::Constant;
use pbs::math::tvisibility::{t_visibility_violation, EmpiricalDiffusion};
use pbs::math::{staleness, ReplicaConfig};
use pbs::quorum::analysis;
use pbs::wars::{IidModel, TVisibility};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
    ReplicaConfig::new(n, r, w).unwrap()
}

/// Equation 1 (closed form) vs. random-subset Monte Carlo, across a grid of
/// configurations.
#[test]
fn eq1_matches_random_subset_mc() {
    for (n, r, w) in [(2u32, 1u32, 1u32), (3, 1, 1), (3, 1, 2), (4, 2, 1), (7, 2, 3)] {
        let c = cfg(n, r, w);
        let exact = staleness::non_intersection_probability(c);
        let mc = 1.0 - analysis::intersection_probability(&c, 150_000, 99);
        assert!((exact - mc).abs() < 0.006, "N={n},R={r},W={w}: {exact} vs {mc}");
    }
}

/// Equation 2 vs. k independent write-quorum draws.
#[test]
fn eq2_matches_k_quorum_mc() {
    let c = cfg(4, 1, 2);
    for k in [1u32, 2, 4, 8] {
        let exact = staleness::k_staleness_violation(c, k);
        let mc = analysis::k_staleness_mc(&c, k, 150_000, 7);
        assert!((exact - mc).abs() < 0.006, "k={k}: {exact} vs {mc}");
    }
}

/// Equation 4 with an *empirical* diffusion extracted from WARS write
/// propagation must match the WARS engine itself when reads are
/// instantaneous (Eq. 4's assumption).
///
/// Setup: W ~ Exp, A = R = S = 0. WARS commit time is the W-th smallest
/// write delay; the straggler arrival offsets feed an
/// `EmpiricalDiffusion`; both sides then predict `p_st(t)`.
#[test]
fn eq4_empirical_diffusion_matches_instantaneous_wars() {
    let c = cfg(3, 1, 1);
    let trials = 120_000;

    // Extract straggler offsets the same way WARS computes commit times.
    let mut rng = StdRng::seed_from_u64(1234);
    let exp = pbs::dist::Exponential::from_rate(0.25);
    let mut offsets: Vec<Vec<f64>> = Vec::with_capacity(trials);
    {
        use pbs::dist::LatencyDistribution;
        for _ in 0..trials {
            let mut ws: Vec<f64> = (0..3).map(|_| exp.sample(&mut rng)).collect();
            ws.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let wt = ws[0]; // W = 1
            offsets.push(ws[1..].iter().map(|w| w - wt).collect());
        }
    }
    let diffusion = EmpiricalDiffusion::new(c, offsets);

    // WARS with zero A/R/S: reads are instantaneous at commit + t.
    let model = IidModel::new(
        c,
        "instant-reads",
        Arc::new(pbs::dist::Exponential::from_rate(0.25)),
        Arc::new(Constant::new(0.0)),
        Arc::new(Constant::new(0.0)),
        Arc::new(Constant::new(0.0)),
    );
    let tv = TVisibility::simulate(&model, trials, 77);

    for t in [0.0, 1.0, 4.0, 10.0, 25.0] {
        let eq4 = t_visibility_violation(c, &diffusion, t);
        let wars = tv.violation(t);
        assert!(
            (eq4 - wars).abs() < 0.01,
            "t={t}: Eq.4 {eq4} vs WARS {wars}"
        );
    }
}

/// Expanding quorums can only be fresher than the frozen closed form: the
/// WARS violation at any t is bounded by Eq. 1.
#[test]
fn wars_never_exceeds_frozen_bound() {
    for (n, r, w) in [(3u32, 1u32, 1u32), (3, 1, 2), (5, 2, 1)] {
        let c = cfg(n, r, w);
        let model = pbs::wars::production::exponential_model(c, 0.2, 0.5);
        let tv = TVisibility::simulate(&model, 60_000, 5);
        let bound = staleness::non_intersection_probability(c);
        for t in [0.0, 1.0, 10.0] {
            assert!(
                tv.violation(t) <= bound + 0.01,
                "N={n},R={r},W={w},t={t}: {} > {bound}",
                tv.violation(t)
            );
        }
    }
}
