//! Multi-key read staleness (§6 "Multi-key operations").
//!
//! For read-only multi-key operations over randomly distributed keys with
//! independent quorums, the probability that *every* key returns fresh data
//! is the product of the per-key probabilities; the violation probability
//! compounds quickly with the key count — the quantitative reason
//! multi-key transactions "require considerable care" on partial quorums.

use crate::predictor::Predictor;

/// Probability that a multi-key read over independent keys is fully fresh,
/// given each key's individual `P(consistent)`.
pub fn all_fresh_probability(per_key_consistency: &[f64]) -> f64 {
    assert!(!per_key_consistency.is_empty());
    per_key_consistency
        .iter()
        .inspect(|p| assert!((0.0..=1.0).contains(*p), "probability out of range"))
        .product()
}

/// Violation probability of a `keys`-way read when every key shares the
/// same per-key consistency `p`.
pub fn uniform_multikey_violation(p_consistent: f64, keys: u32) -> f64 {
    assert!((0.0..=1.0).contains(&p_consistent));
    assert!(keys >= 1);
    1.0 - p_consistent.powi(keys as i32)
}

/// Largest key-set size whose all-fresh probability still meets `target`,
/// given uniform per-key consistency `p` (`None` when even one key fails).
pub fn max_keys_for_target(p_consistent: f64, target: f64) -> Option<u32> {
    assert!((0.0..1.0).contains(&target) && target > 0.0);
    assert!((0.0..=1.0).contains(&p_consistent));
    if p_consistent < target {
        return None;
    }
    if p_consistent >= 1.0 {
        return Some(u32::MAX);
    }
    // p^k ≥ target ⇔ k ≤ ln(target)/ln(p).
    Some((target.ln() / p_consistent.ln()).floor() as u32)
}

/// Multi-key consistency for a batch read `t_ms` after the last write to
/// each key, using a single-key [`Predictor`] for the shared configuration.
pub fn multikey_consistency_at(predictor: &Predictor, t_ms: f64, keys: u32) -> f64 {
    assert!(keys >= 1);
    predictor.prob_consistent(t_ms).powi(keys as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_core::ReplicaConfig;
    use pbs_wars::production::exponential_model;

    #[test]
    fn product_rule() {
        let p = all_fresh_probability(&[0.9, 0.8, 1.0]);
        assert!((p - 0.72).abs() < 1e-12);
        assert_eq!(all_fresh_probability(&[1.0; 8]), 1.0);
    }

    #[test]
    fn violation_compounds_with_keys() {
        let single = uniform_multikey_violation(0.99, 1);
        let hundred = uniform_multikey_violation(0.99, 100);
        assert!((single - 0.01).abs() < 1e-12);
        assert!(hundred > 0.63, "100 keys at 99% each → ~63% violation, got {hundred}");
    }

    #[test]
    fn max_keys_inverts_power() {
        assert_eq!(max_keys_for_target(0.999, 0.99), Some(10));
        assert_eq!(max_keys_for_target(0.5, 0.9), None);
        assert_eq!(max_keys_for_target(1.0, 0.9), Some(u32::MAX));
        // Round trip: k keys at p each still meets target, k+1 does not.
        let p = 0.995f64;
        let target = 0.95f64;
        let k = max_keys_for_target(p, target).unwrap();
        assert!(p.powi(k as i32) >= target);
        assert!(p.powi(k as i32 + 1) < target);
    }

    #[test]
    fn predictor_based_multikey() {
        let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
        let model = exponential_model(cfg, 0.1, 0.5);
        let pred = crate::predictor::Predictor::from_model_threads(&model, 20_000, 7, 2);
        let one = multikey_consistency_at(&pred, 10.0, 1);
        let ten = multikey_consistency_at(&pred, 10.0, 10);
        assert!(ten < one);
        assert!((ten - one.powi(10)).abs() < 1e-12);
    }
}
