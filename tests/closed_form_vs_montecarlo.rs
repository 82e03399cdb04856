//! Cross-crate validation: the pbs-core closed forms, the pbs-quorum
//! Monte Carlo, and the pbs-wars engine must all agree where their domains
//! overlap.

use pbs::dist::Constant;
use pbs::math::tvisibility::t_visibility_violation;
use pbs::math::{staleness, ReplicaConfig};
use pbs::quorum::analysis;
use pbs::wars::{IidModel, TVisibility};
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

/// Equation 4's exponential law must match the WARS engine itself when
/// reads are instantaneous (Eq. 4's assumption).
///
/// Setup: W ~ Exp(0.25), A = R = S = 0. WARS commits at the W-th smallest
/// write delay; by memorylessness each straggler then arrives after a
/// fresh Exp(0.25) delay, which is Eq. 4's law, so both sides predict the
/// same `p_st(t)`.
#[test]
fn eq4_exponential_law_matches_instantaneous_wars() {
    let c = cfg(3, 1, 1);
    let model = IidModel::new(
        c,
        "instant-reads",
        Arc::new(pbs::dist::Exponential::from_rate(0.25)),
        Arc::new(Constant::new(0.0)),
        Arc::new(Constant::new(0.0)),
        Arc::new(Constant::new(0.0)),
    );
    let tv = TVisibility::simulate(&model, 120_000, 77);

    for t in [0.0, 1.0, 4.0, 10.0, 25.0] {
        let eq4 = t_visibility_violation(c, 0.25, t);
        let wars = tv.violation(t);
        assert!((eq4 - wars).abs() < 0.01, "t={t}: Eq.4 {eq4} vs WARS {wars}");
    }
}

/// Figure 4's legs (W ~ Exp(λ_W), A = R = S ~ Exp(1)): reads that take
/// time can only find the write on more replicas, so WARS never sits above
/// Eq. 4 by more than its sampling error, at every ratio `fig4` plots.
#[test]
fn eq4_bounds_wars_with_fig4_legs() {
    let c = cfg(3, 1, 1);
    let trials = 50_000;
    for w_rate in [4.0, 2.0, 1.0, 0.5, 0.2, 0.1] {
        let model = pbs::wars::production::exponential_model(c, w_rate, 1.0);
        let tv = TVisibility::simulate(&model, trials, 11);
        for t in [0.0, 1.0, 5.0, 20.0] {
            let eq4 = t_visibility_violation(c, w_rate, t);
            let se = (eq4 * (1.0 - eq4) / trials as f64).sqrt();
            let wars = tv.violation(t);
            assert!(wars <= eq4 + 3.0 * se, "λ_W={w_rate} t={t}: WARS {wars} > Eq.4 {eq4}");
        }
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
