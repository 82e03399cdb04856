//! Property-based tests for the closed-form PBS math.

use pbs_core::combinatorics::{binomial_pmf, choose_exact, ln_choose};
use pbs_core::staleness::{
    k_staleness_violation, monotonic_reads_violation, non_intersection_probability,
    prob_within_k_versions,
};
use pbs_core::tvisibility::t_visibility_violation;
use pbs_core::{load, ReplicaConfig};
use proptest::prelude::*;

/// Strategy producing an arbitrary valid (N, R, W) configuration.
fn any_config() -> impl Strategy<Value = ReplicaConfig> {
    (1u32..=24).prop_flat_map(|n| {
        (Just(n), 1u32..=n, 1u32..=n)
            .prop_map(|(n, r, w)| ReplicaConfig::new(n, r, w).expect("valid by construction"))
    })
}

proptest! {
    #[test]
    fn eq1_is_probability(cfg in any_config()) {
        let p = non_intersection_probability(cfg);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn eq1_strict_iff_zero(cfg in any_config()) {
        let p = non_intersection_probability(cfg);
        if cfg.is_strict() {
            prop_assert_eq!(p, 0.0);
        } else {
            prop_assert!(p > 0.0);
        }
    }

    #[test]
    fn eq1_monotone_in_r_and_w(cfg in any_config()) {
        // Larger read or write quorums can only decrease miss probability.
        let p = non_intersection_probability(cfg);
        if cfg.r() < cfg.n() {
            let bigger_r = ReplicaConfig::new(cfg.n(), cfg.r() + 1, cfg.w()).unwrap();
            prop_assert!(non_intersection_probability(bigger_r) <= p + 1e-12);
        }
        if cfg.w() < cfg.n() {
            let bigger_w = ReplicaConfig::new(cfg.n(), cfg.r(), cfg.w() + 1).unwrap();
            prop_assert!(non_intersection_probability(bigger_w) <= p + 1e-12);
        }
    }

    #[test]
    fn eq2_probability_and_monotone_in_k(cfg in any_config(), k in 1u32..64) {
        let pk = k_staleness_violation(cfg, k);
        let pk1 = k_staleness_violation(cfg, k + 1);
        prop_assert!((0.0..=1.0).contains(&pk));
        prop_assert!(pk1 <= pk + 1e-15);
        prop_assert!((prob_within_k_versions(cfg, k) - (1.0 - pk)).abs() < 1e-15);
    }

    #[test]
    fn eq3_bounded_by_eq1(cfg in any_config(), gw in 0.001f64..1000.0, cr in 0.001f64..1000.0) {
        // Monotonic-reads violation (k ≥ 1 exponent ≥ 1) never exceeds the
        // single-read miss probability.
        let p = monotonic_reads_violation(cfg, gw, cr);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(p <= non_intersection_probability(cfg) + 1e-15);
    }

    #[test]
    fn eq4_bounded_and_monotone(cfg in any_config(), rate in 0.01f64..10.0, t in 0.0f64..100.0) {
        let p_now = t_visibility_violation(cfg, rate, t);
        let p_later = t_visibility_violation(cfg, rate, t + 1.0);
        prop_assert!((0.0..=1.0).contains(&p_now));
        prop_assert!(p_later <= p_now + 1e-12);
        // Expanding quorums are never staler than frozen ones (Eq. 1).
        prop_assert!(p_now <= non_intersection_probability(cfg) + 1e-12);
    }

    #[test]
    fn choose_exact_matches_log_space(n in 0u64..80, frac in 0.0f64..=1.0) {
        let k = ((n as f64) * frac).round() as u64;
        if let Some(exact) = choose_exact(n, k) {
            let approx = ln_choose(n, k).exp();
            let exact = exact as f64;
            let rel = (exact - approx).abs() / exact.max(1.0);
            prop_assert!(rel < 1e-8, "C({},{}) exact {} vs log {}", n, k, exact, approx);
        }
    }

    #[test]
    fn pascals_rule(n in 1u64..60, frac in 0.0f64..=1.0) {
        let k = 1 + ((n.saturating_sub(2)) as f64 * frac).round() as u64;
        if k <= n {
            let c = |n, k| choose_exact(n, k).expect("C(n < 60, k) fits in u128");
            prop_assert_eq!(c(n, k), c(n - 1, k - 1) + c(n - 1, k));
        }
    }

    #[test]
    fn binomial_normalises(n in 0u64..120, p in 0.0f64..=1.0) {
        let sum: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum={}", sum);
    }

    #[test]
    fn load_bounds_ordered(n in 1u32..100, p in 0.0f64..=1.0, k in 1u32..20) {
        let strict = load::strict_load_lower_bound(n);
        let eps = load::epsilon_intersecting_load_lower_bound(n, p);
        let kb = load::k_staleness_load_lower_bound(n, p, k);
        prop_assert!(eps <= strict + 1e-12);
        prop_assert!(kb <= eps + 1e-12, "k-staleness bound must not exceed k=1 bound");
        prop_assert!(kb >= 0.0);
    }
}
