//! Closed-form PBS k-staleness and monotonic-reads probabilities
//! (Equations 1–3 of the paper).
//!
//! These formulas model *non-expanding* quorums: `W` of `N` replicas are
//! chosen uniformly at random per write, `R` of `N` per read, and replica
//! sets do not grow via anti-entropy. For Dynamo-style expanding quorums
//! they are conservative upper bounds on staleness (§3.1).

use crate::combinatorics::choose_ratio;
use crate::config::ReplicaConfig;

/// **Equation 1** — probability that a uniformly random read quorum does
/// *not* intersect the most recent write quorum:
///
/// `p_s = C(N − W, R) / C(N, R)`
///
/// Returns `0` for strict quorums (`R + W > N`), where intersection is
/// guaranteed.
pub fn non_intersection_probability(cfg: ReplicaConfig) -> f64 {
    let (n, r, w) = (cfg.n() as u64, cfg.r() as u64, cfg.w() as u64);
    if cfg.is_strict() {
        return 0.0;
    }
    choose_ratio(n - w, n, r)
}

/// **Equation 2** — probability of violating PBS *k-staleness*: the read
/// quorum misses *all* of the last `k` independent write quorums, so the
/// returned value is more than `k` versions old:
///
/// `p_sk = (C(N − W, R) / C(N, R))^k`
///
/// `k = 0` is degenerate ("stale by more than zero versions" before any
/// intersection requirement) and returns `1.0`; callers normally use
/// `k ≥ 1`.
pub fn k_staleness_violation(cfg: ReplicaConfig, k: u32) -> f64 {
    non_intersection_probability(cfg).powi(k as i32)
}

/// Probability that a read returns a value within the last `k` committed
/// versions — the complement of [`k_staleness_violation`].
pub fn prob_within_k_versions(cfg: ReplicaConfig, k: u32) -> f64 {
    1.0 - k_staleness_violation(cfg, k)
}

/// Expected number of versions of staleness under the Eq.-2 geometric tail.
///
/// A read is "at least k versions stale" with probability `p_s^k`, so the
/// expectation telescopes to `Σ_{k≥1} p_s^k = p_s / (1 − p_s)`. Strict
/// quorums return `0`; the degenerate fully-miss case (`p_s = 1`, impossible
/// for valid configs since `W ≥ 1` forces intersection mass) would return
/// infinity.
pub fn expected_staleness_versions(cfg: ReplicaConfig) -> f64 {
    let ps = non_intersection_probability(cfg);
    if ps >= 1.0 {
        f64::INFINITY
    } else {
        ps / (1.0 - ps)
    }
}

/// **Equation 3** — probability of violating PBS *monotonic reads*: with a
/// client read rate `γcr` and a global write rate `γgw` to the same key,
/// `k = 1 + γgw/γcr` versions land between successive client reads, and the
/// violation probability is `p_s^(1 + γgw/γcr)`.
///
/// Rates must be positive. Non-integer exponents are meaningful here (the
/// paper computes expectations over the rate distribution).
pub fn monotonic_reads_violation(cfg: ReplicaConfig, gamma_gw: f64, gamma_cr: f64) -> f64 {
    assert!(gamma_gw > 0.0, "global write rate must be positive");
    assert!(gamma_cr > 0.0, "client read rate must be positive");
    let ps = non_intersection_probability(cfg);
    ps.powf(1.0 + gamma_gw / gamma_cr)
}

/// Strict monotonic reads (§3.2): the client must observe *strictly newer*
/// data when it exists, so the exponent drops to `γgw/γcr`.
pub fn strict_monotonic_reads_violation(cfg: ReplicaConfig, gamma_gw: f64, gamma_cr: f64) -> f64 {
    assert!(gamma_gw > 0.0, "global write rate must be positive");
    assert!(gamma_cr > 0.0, "client read rate must be positive");
    let ps = non_intersection_probability(cfg);
    ps.powf(gamma_gw / gamma_cr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
        ReplicaConfig::new(n, r, w).unwrap()
    }

    #[test]
    fn eq1_paper_values() {
        // §2.1: N=100, R=W=30 → 1.88e-6.
        let p = non_intersection_probability(cfg(100, 30, 30));
        assert!((p / 1.88e-6 - 1.0).abs() < 0.01);
        // §2.1: N=3, R=W=1 → 2/3 (printed as 0.6-repeating in the paper).
        let p = non_intersection_probability(cfg(3, 1, 1));
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn eq1_strict_is_zero() {
        for n in 1..=10 {
            for r in 1..=n {
                for w in 1..=n {
                    let c = cfg(n, r, w);
                    if c.is_strict() {
                        assert_eq!(non_intersection_probability(c), 0.0, "{c}");
                    } else {
                        assert!(non_intersection_probability(c) > 0.0, "{c}");
                    }
                }
            }
        }
    }

    #[test]
    fn eq2_section_3_1_values() {
        // §3.1, N=3, R=W=1 (probabilities of returning within k versions;
        // the paper prints repeating decimals: 0.5̄ = 5/9, 0.703, 0.868, 0.98).
        let c = cfg(3, 1, 1);
        assert!((prob_within_k_versions(c, 2) - 5.0 / 9.0).abs() < 1e-12);
        assert!((prob_within_k_versions(c, 3) - 0.7037).abs() < 1e-4);
        assert!(prob_within_k_versions(c, 5) > 0.868);
        assert!(prob_within_k_versions(c, 10) > 0.98);

        // §3.1, N=3, R=1, W=2: k=1 → 2/3, k=2 → 8/9, k=5 → >0.995.
        let c = cfg(3, 1, 2);
        assert!((prob_within_k_versions(c, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((prob_within_k_versions(c, 2) - 8.0 / 9.0).abs() < 1e-12);
        assert!(prob_within_k_versions(c, 5) > 0.995);

        // R=2, W=1 is equivalent by symmetry of Eq. 1? Not algebraically
        // identical in general, but for N=3 the paper calls them equivalent:
        // C(2,2)/C(3,2) = 1/3 = C(1,1)/C(3,1).
        let c2 = cfg(3, 2, 1);
        assert!(
            (non_intersection_probability(c2) - non_intersection_probability(c)).abs() < 1e-12
        );
    }

    #[test]
    fn eq2_monotone_decreasing_in_k() {
        let c = cfg(5, 2, 1);
        let mut prev = 1.0;
        for k in 1..30 {
            let p = k_staleness_violation(c, k);
            assert!(p <= prev + 1e-15, "k={k}");
            prev = p;
        }
    }

    #[test]
    fn expected_staleness_matches_geometric() {
        let c = cfg(3, 1, 1); // ps = 2/3 → expectation 2.
        assert!((expected_staleness_versions(c) - 2.0).abs() < 1e-12);
        let strict = cfg(3, 2, 2);
        assert_eq!(expected_staleness_versions(strict), 0.0);
    }

    #[test]
    fn monotonic_reads_special_cases() {
        let c = cfg(3, 1, 1);
        // γgw = γcr → k = 2 → (2/3)^2 = 4/9.
        let p = monotonic_reads_violation(c, 10.0, 10.0);
        assert!((p - 4.0 / 9.0).abs() < 1e-12);
        // Strict variant uses k = γgw/γcr = 1 → 2/3.
        let p = strict_monotonic_reads_violation(c, 10.0, 10.0);
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        // Faster client reads (γcr ≫ γgw) approach plain Eq. 1 from below.
        let p = monotonic_reads_violation(c, 0.001, 10.0);
        assert!(p < 2.0 / 3.0 && p > 0.6);
    }
}
