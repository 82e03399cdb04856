//! Closed-form PBS t-visibility for *expanding* quorums (Equation 4 of the
//! paper) under exponential write propagation.
//!
//! ## The erratum in Equation 4
//!
//! The paper prints the first term of Eq. 4 as `C(N−W, N)/C(N, R)`, which is
//! dimensionally inconsistent (`C(N−W, N) = 0` whenever `W ≥ 1`). Equation 5
//! and the surrounding prose make the intent clear: conditioned on exactly
//! `c` replicas holding the version `t` seconds after commit, the read
//! quorum misses it with probability `C(N−c, R)/C(N, R)`, and Eq. 4 is the
//! expectation of that miss probability over the distribution of `c`:
//!
//! `p_st(t) = Σ_{c=W..N}  P[W_r(t) = c] · C(N−c, R)/C(N, R)`
//!
//! We implement this corrected form. At `t = 0`, expanding quorums have
//! exactly `W` replicas with the version (`P[W_r(0)=W] = 1`), recovering
//! Eq. 1; as `t → ∞`, `P[W_r = N] → 1` and the violation probability goes
//! to zero. Eq. 4 remains a conservative bound with respect to real
//! Dynamo-style systems because it assumes instantaneous reads (§3.4); the
//! `pbs-wars` crate models the full WARS message timeline.
//!
//! ## The propagation law
//!
//! Each of the `N − W` replicas that missed the synchronous write receives
//! it after an i.i.d. `Exp(λ)` delay, so
//! `W_r(t) = W + Binomial(N − W, 1 − e^{−λt})` — the exponential-legs case
//! of Figure 4, where `fig4` inverts it for the instant-read t-visibility
//! at 99.9%. Eq. 5's ⟨k,t⟩ bound is a t-visibility violation to the `k`-th
//! power; `pbs-wars` carries it as `TVisibility::kt_violation`.

use crate::combinatorics::{binomial_pmf, choose_ratio};
use crate::config::ReplicaConfig;

/// **Equation 4 (corrected)** — probability that an instantaneous read
/// starting `t` after a write commits misses that write, when each
/// straggler replica receives the write after an i.i.d. exponential delay
/// of rate `straggler_rate` (per unit of `t`):
///
/// `p_st(t) = Σ_{c=W..N} Binomial(N−W, c−W; 1−e^{−λt}) · C(N−c, R)/C(N, R)`
///
/// Nonincreasing in `t`, equal to Eq. 1 at `t ≤ 0`. This assumes
/// instantaneous reads and is therefore a conservative upper bound for real
/// systems (§3.4). Panics if `straggler_rate` is not positive.
pub fn t_visibility_violation(cfg: ReplicaConfig, straggler_rate: f64, t: f64) -> f64 {
    assert!(straggler_rate > 0.0, "straggler rate must be positive");
    let (n, r, w) = (cfg.n(), cfg.r(), cfg.w());
    let arrived = if t <= 0.0 { 0.0 } else { -(-straggler_rate * t).exp_m1() };
    let p: f64 = (w..=n)
        .map(|c| {
            binomial_pmf((n - w) as u64, (c - w) as u64, arrived)
                * choose_ratio((n - c) as u64, n as u64, r as u64)
        })
        .sum();
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staleness::non_intersection_probability;

    fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
        ReplicaConfig::new(n, r, w).unwrap()
    }

    #[test]
    fn exponential_diffusion_at_zero_matches_eq1_and_decays() {
        for (n, r, w) in [(3, 1, 1), (3, 1, 2), (5, 2, 1), (10, 3, 2)] {
            let c = cfg(n, r, w);
            let p0 = t_visibility_violation(c, 0.5, 0.0);
            assert!((p0 - non_intersection_probability(c)).abs() < 1e-12, "{c}");
            let mut prev = p0;
            for i in 1..=50 {
                let p = t_visibility_violation(c, 0.5, i as f64 * 0.5);
                assert!(p <= prev + 1e-12, "{c}: must be nonincreasing in t");
                prev = p;
            }
            assert!(prev < 1e-4, "{c}: staleness should vanish for large t, got {prev}");
        }
    }

    #[test]
    fn strict_quorum_never_stale_under_any_diffusion() {
        let c = cfg(3, 2, 2);
        for rate in [0.01, 1.0, 100.0] {
            for &t in &[0.0, 0.1, 10.0] {
                assert_eq!(t_visibility_violation(c, rate, t), 0.0, "rate={rate} t={t}");
            }
        }
    }

    /// `N = 3, R = W = 1`: the read's one replica is the committed one with
    /// probability 1/3, else a straggler still missing it w.p. `e^{−λt}`.
    #[test]
    fn cassandra_default_is_two_thirds_times_the_straggler_survival() {
        let c = cfg(3, 1, 1);
        for (rate, t) in [(0.1_f64, 65.0), (1.0, 0.5), (4.0, 2.0)] {
            let expected = 2.0 / 3.0 * (-rate * t).exp();
            let p = t_visibility_violation(c, rate, t);
            assert!((p - expected).abs() < 1e-12, "λ={rate} t={t}: {p} vs {expected}");
        }
    }
}
