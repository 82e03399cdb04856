//! Quorum-system load and capacity under staleness tolerance (§3.3).
//!
//! *Load* (Naor & Wool) is the access frequency of the busiest replica under
//! the best possible access strategy; *capacity* is its inverse. Strict
//! quorum systems obey `load ≥ 1/√N`. An ε-intersecting probabilistic quorum
//! system (Malkhi et al.) obeys `load ≥ (1 − √ε)/√N`. The paper's §3.3
//! observation: tolerating `k` versions of staleness with overall violation
//! probability `p` only requires each of the `k` constituent systems to be
//! `ε = p^{1/k}`-intersecting, giving
//!
//! `load ≥ (1 − p^{1/(2k)}) / √N`
//!
//! which is *asymptotically* lower than both the strict bound and the plain
//! probabilistic bound — staleness tolerance buys capacity.
//!
//! `pbs_quorum::analysis::load` is the load of a construction's own sampling
//! strategy, an upper bound on the Naor–Wool minimum: equal for the counted
//! R-of-N system and the grid, but for a tree only at a fitting skip
//! probability (the depth-2 tree is the 2-of-3 majority, load 2/3, which its
//! sampler reaches at skip 1/3 alone).
//!
//! Note on the paper text: the flattened arXiv rendering prints this bound as
//! `(1−p)^{1/2k}/√N`; the derivation from `ε = p^{1/k}` (also stated inline,
//! as "ε = k√p", i.e. the k-th root) pins the intended grouping to
//! `1 − p^{1/(2k)}`, which is also the only reading under which the bound
//! decreases as staleness tolerance grows.

/// Lower bound on the load of any strict quorum system over `n` replicas:
/// `1/√n` (Naor & Wool).
pub fn strict_load_lower_bound(n: u32) -> f64 {
    assert!(n > 0, "n must be positive");
    1.0 / (n as f64).sqrt()
}

/// Lower bound on the load of an ε-intersecting probabilistic quorum system:
/// `(1 − √ε)/√n` (Malkhi et al., Corollary 3.12).
pub fn epsilon_intersecting_load_lower_bound(n: u32, epsilon: f64) -> f64 {
    assert!(n > 0, "n must be positive");
    assert!((0.0..=1.0).contains(&epsilon), "epsilon must be a probability");
    ((1.0 - epsilon.sqrt()) / (n as f64).sqrt()).max(0.0)
}

/// §3.3 — lower bound on the load of a PBS *k-staleness*-tolerant system
/// with overall violation probability at most `p`:
/// `(1 − p^{1/(2k)})/√n`.
pub fn k_staleness_load_lower_bound(n: u32, p: f64, k: u32) -> f64 {
    assert!(k > 0, "k must be positive");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let epsilon = p.powf(1.0 / k as f64);
    epsilon_intersecting_load_lower_bound(n, epsilon)
}

/// §3.3 — lower bound on load under PBS *monotonic reads* with client read
/// rate `γcr` and global write rate `γgw`: the effective staleness tolerance
/// is `C = 1 + γgw/γcr`.
pub fn monotonic_reads_load_lower_bound(n: u32, p: f64, gamma_gw: f64, gamma_cr: f64) -> f64 {
    assert!(gamma_gw > 0.0 && gamma_cr > 0.0, "rates must be positive");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let c = 1.0 + gamma_gw / gamma_cr;
    let epsilon = p.powf(1.0 / c);
    epsilon_intersecting_load_lower_bound(n, epsilon)
}

/// Capacity (sustainable aggregate request rate relative to a single
/// replica's capacity) implied by a load value: `1/load`. Infinite when the
/// load bound is zero (i.e. the bound is vacuous).
pub fn capacity_from_load(load: f64) -> f64 {
    assert!(load >= 0.0, "load cannot be negative");
    if load == 0.0 {
        f64::INFINITY
    } else {
        1.0 / load
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_bound_decreases_with_n() {
        assert!((strict_load_lower_bound(1) - 1.0).abs() < 1e-12);
        assert!((strict_load_lower_bound(4) - 0.5).abs() < 1e-12);
        assert!(strict_load_lower_bound(100) < strict_load_lower_bound(99));
    }

    #[test]
    fn epsilon_zero_recovers_strict_bound() {
        for n in [1, 3, 10, 100] {
            assert!(
                (epsilon_intersecting_load_lower_bound(n, 0.0) - strict_load_lower_bound(n)).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn staleness_tolerance_lowers_load() {
        let n = 9;
        let p = 0.01;
        let l1 = k_staleness_load_lower_bound(n, p, 1);
        let l2 = k_staleness_load_lower_bound(n, p, 2);
        let l5 = k_staleness_load_lower_bound(n, p, 5);
        assert!(l1 > l2 && l2 > l5, "load bound must fall with k: {l1} {l2} {l5}");
        // k = 1 equals the plain ε-intersecting bound with ε = p.
        assert!((l1 - epsilon_intersecting_load_lower_bound(n, p)).abs() < 1e-12);
        // And every probabilistic bound sits below the strict one.
        assert!(l1 < strict_load_lower_bound(n));
    }

    #[test]
    fn load_bound_vanishes_as_k_grows() {
        let bound = k_staleness_load_lower_bound(9, 0.01, 10_000);
        assert!(bound < 1e-4, "huge staleness tolerance → vacuous load bound, got {bound}");
    }

    #[test]
    fn monotonic_reads_matches_k_formula() {
        // γgw/γcr = 4 → C = 5, so must match k=5 exactly.
        let a = monotonic_reads_load_lower_bound(16, 0.05, 4.0, 1.0);
        let b = k_staleness_load_lower_bound(16, 0.05, 5);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn capacity_inverts_load() {
        assert!((capacity_from_load(0.25) - 4.0).abs() < 1e-12);
        assert!(capacity_from_load(0.0).is_infinite());
    }
}
