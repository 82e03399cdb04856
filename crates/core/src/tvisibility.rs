//! Closed-form PBS t-visibility and ⟨k,t⟩-staleness for *expanding* quorums
//! (Equations 4–5 of the paper), parameterised by a write-diffusion model.
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
//! ## Diffusions
//!
//! Three [`WriteDiffusion`] laws are provided: [`FrozenDiffusion`] (the
//! write quorum never grows, so Eq. 4 is Eq. 1), [`ExponentialDiffusion`]
//! (each straggler replica receives the write after an i.i.d. exponential
//! delay) and [`EmpiricalDiffusion`] (straggler arrival offsets recorded
//! from a simulation or a trace). Eq. 5 is the paper's conservative form
//! only: all `k` versions are taken to have committed together.

use crate::combinatorics::{binomial_pmf, choose_ratio};
use crate::config::ReplicaConfig;

/// A model of write propagation: the distribution of the number of replicas
/// `W_r(t)` holding a committed version `t` seconds after commit.
///
/// Implementations must guarantee `pmf(c, t) = 0` for `c < W` or `c > N`
/// (at commit time `W` replicas already hold the value by definition) and
/// `Σ_c pmf(c, t) = 1` for every `t ≥ 0`.
pub trait WriteDiffusion {
    /// `P[W_r(t) = c]` — probability exactly `c` replicas hold the version
    /// `t` seconds (or whatever unit the caller uses consistently) after the
    /// write committed.
    fn pmf(&self, c: u32, t: f64) -> f64;
}

/// Frozen (non-expanding) quorums: the write quorum never grows. Under this
/// model Eq. 4 degenerates to Eq. 1, which is how the paper's closed-form
/// k-staleness analysis treats quorums.
#[derive(Debug, Clone, Copy)]
pub struct FrozenDiffusion {
    cfg: ReplicaConfig,
}

impl FrozenDiffusion {
    /// Diffusion that never propagates beyond the initial `W` replicas.
    pub fn new(cfg: ReplicaConfig) -> Self {
        Self { cfg }
    }
}

impl WriteDiffusion for FrozenDiffusion {
    fn pmf(&self, c: u32, _t: f64) -> f64 {
        if c == self.cfg.w() {
            1.0
        } else {
            0.0
        }
    }
}

/// Exponential anti-entropy with rate `λ` (mean straggler delay `1/λ`):
/// each of the `N − W` replicas that missed the synchronous write receives
/// it after an i.i.d. `Exp(λ)` delay, so
/// `W_r(t) = W + Binomial(N − W, 1 − e^{−λt})`.
///
/// This matches the "expanding partial quorum" behaviour of §2.2: the
/// coordinator sent the write to all `N` replicas, the slowest `N − W`
/// deliveries are the anti-entropy tail.
#[derive(Debug, Clone, Copy)]
pub struct ExponentialDiffusion {
    cfg: ReplicaConfig,
    rate: f64,
}

impl ExponentialDiffusion {
    /// Exponential straggler-arrival model with the given rate (per time
    /// unit). Panics if `rate` is not positive.
    pub fn new(cfg: ReplicaConfig, rate: f64) -> Self {
        assert!(rate > 0.0, "diffusion rate must be positive");
        Self { cfg, rate }
    }
}

impl WriteDiffusion for ExponentialDiffusion {
    fn pmf(&self, c: u32, t: f64) -> f64 {
        let (n, w) = (self.cfg.n(), self.cfg.w());
        if c < w || c > n {
            return 0.0;
        }
        let p = if t <= 0.0 { 0.0 } else { 1.0 - (-self.rate * t).exp() };
        binomial_pmf((n - w) as u64, (c - w) as u64, p)
    }
}

/// Empirical diffusion built from observed per-replica arrival offsets,
/// e.g. extracted from a `pbs-kvs` simulation or production tracing.
///
/// `arrival_offsets[i]` holds, for trial `i`, the sorted delays (relative to
/// commit) at which the `N − W` straggler replicas received the write.
#[derive(Debug, Clone)]
pub struct EmpiricalDiffusion {
    cfg: ReplicaConfig,
    /// Per-trial sorted straggler arrival offsets.
    trials: Vec<Vec<f64>>,
}

impl EmpiricalDiffusion {
    /// Build from per-trial straggler arrival offsets. Each inner vector is
    /// sorted internally; trials shorter than `N − W` are treated as if the
    /// missing replicas never receive the write (e.g. crashed nodes).
    pub fn new(cfg: ReplicaConfig, mut trials: Vec<Vec<f64>>) -> Self {
        for t in &mut trials {
            t.sort_by(|a, b| a.partial_cmp(b).expect("arrival offsets must not be NaN"));
        }
        Self { cfg, trials }
    }

    /// Number of recorded trials.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// True when no trials were recorded.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }
}

impl WriteDiffusion for EmpiricalDiffusion {
    fn pmf(&self, c: u32, t: f64) -> f64 {
        let (n, w) = (self.cfg.n(), self.cfg.w());
        if c < w || c > n || self.trials.is_empty() {
            return 0.0;
        }
        let extra = (c - w) as usize;
        let mut hits = 0usize;
        for trial in &self.trials {
            // Number of stragglers that have arrived by t (sorted → partition
            // point).
            let arrived = trial.partition_point(|&x| x <= t);
            let arrived = arrived.min((n - w) as usize);
            if arrived == extra {
                hits += 1;
            }
        }
        hits as f64 / self.trials.len() as f64
    }
}

/// **Equation 4 (corrected)** — probability that a read starting `t` after a
/// write commits misses that write, under the given diffusion model:
///
/// `p_st(t) = Σ_{c=W..N} P[W_r(t)=c] · C(N−c, R)/C(N, R)`
///
/// This assumes instantaneous reads and is therefore a conservative upper
/// bound for real systems (§3.4).
pub fn t_visibility_violation<D: WriteDiffusion + ?Sized>(
    cfg: ReplicaConfig,
    diffusion: &D,
    t: f64,
) -> f64 {
    let (n, r, w) = (cfg.n(), cfg.r(), cfg.w());
    let mut p = 0.0;
    for c in w..=n {
        let mass = diffusion.pmf(c, t);
        if mass > 0.0 {
            p += mass * choose_ratio((n - c) as u64, n as u64, r as u64);
        }
    }
    p.clamp(0.0, 1.0)
}

/// **Equation 5** — ⟨k,t⟩-staleness violation probability: the read misses
/// all of the last `k` versions even though the oldest of them committed at
/// least `t` ago. The paper's conservative bound assumes all `k` writes
/// committed simultaneously, so the single-write probability is
/// exponentiated by `k`.
pub fn kt_staleness_violation<D: WriteDiffusion + ?Sized>(
    cfg: ReplicaConfig,
    diffusion: &D,
    t: f64,
    k: u32,
) -> f64 {
    t_visibility_violation(cfg, diffusion, t).powi(k as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staleness::non_intersection_probability;

    fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
        ReplicaConfig::new(n, r, w).unwrap()
    }

    #[test]
    fn frozen_reduces_to_eq1() {
        for (n, r, w) in [(3, 1, 1), (3, 1, 2), (5, 2, 1), (10, 3, 2)] {
            let c = cfg(n, r, w);
            let d = FrozenDiffusion::new(c);
            for &t in &[0.0, 1.0, 1e6] {
                let p = t_visibility_violation(c, &d, t);
                assert!((p - non_intersection_probability(c)).abs() < 1e-12, "{c} t={t}");
            }
        }
    }

    #[test]
    fn exponential_diffusion_at_zero_matches_eq1_and_decays() {
        let c = cfg(3, 1, 1);
        let d = ExponentialDiffusion::new(c, 0.5);
        let p0 = t_visibility_violation(c, &d, 0.0);
        assert!((p0 - 2.0 / 3.0).abs() < 1e-12);
        let mut prev = p0;
        for i in 1..=50 {
            let p = t_visibility_violation(c, &d, i as f64 * 0.5);
            assert!(p <= prev + 1e-12, "must be nonincreasing in t");
            prev = p;
        }
        assert!(prev < 1e-4, "staleness should vanish for large t, got {prev}");
    }

    #[test]
    fn strict_quorum_never_stale_under_any_diffusion() {
        let c = cfg(3, 2, 2);
        let d = ExponentialDiffusion::new(c, 0.01);
        for &t in &[0.0, 0.1, 10.0] {
            assert_eq!(t_visibility_violation(c, &d, t), 0.0);
        }
    }

    #[test]
    fn binomial_diffusion_pmf_sums_to_one() {
        let c = cfg(7, 2, 2);
        let d = ExponentialDiffusion::new(c, 1.0);
        for &t in &[0.0, 0.5, 2.0, 100.0] {
            let sum: f64 = (0..=7).map(|x| d.pmf(x, t)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "t={t} sum={sum}");
        }
    }

    #[test]
    fn empirical_diffusion_counts_arrivals() {
        let c = cfg(3, 1, 1);
        // Two trials; stragglers (N−W = 2) arrive at the given offsets.
        let d = EmpiricalDiffusion::new(c, vec![vec![1.0, 5.0], vec![2.0, 3.0]]);
        assert_eq!(d.len(), 2);
        // t=0: nobody extra arrived → c=1 w.p. 1.
        assert!((d.pmf(1, 0.0) - 1.0).abs() < 1e-12);
        // t=1.5: trial 1 has one arrival, trial 2 has none.
        assert!((d.pmf(2, 1.5) - 0.5).abs() < 1e-12);
        assert!((d.pmf(1, 1.5) - 0.5).abs() < 1e-12);
        // t=10: both trials fully propagated → c=3.
        assert!((d.pmf(3, 10.0) - 1.0).abs() < 1e-12);
        // Violation probability decreases across those times.
        let p0 = t_visibility_violation(c, &d, 0.0);
        let p1 = t_visibility_violation(c, &d, 1.5);
        let p2 = t_visibility_violation(c, &d, 10.0);
        assert!(p0 > p1 && p1 > p2);
        assert_eq!(p2, 0.0);
    }

    #[test]
    fn eq5_exponentiates_eq4() {
        let c = cfg(3, 1, 1);
        let d = ExponentialDiffusion::new(c, 0.3);
        let t = 1.2;
        let p1 = t_visibility_violation(c, &d, t);
        for k in 1..5 {
            let pk = kt_staleness_violation(c, &d, t, k);
            assert!((pk - p1.powi(k as i32)).abs() < 1e-12);
        }
    }
}
