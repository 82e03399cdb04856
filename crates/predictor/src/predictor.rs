//! The PBS oracle: every paper metric for one configuration behind one
//! handle.

use pbs_core::{staleness, ReplicaConfig};
use pbs_dist::{DynDistribution, Empirical};
use pbs_wars::{IidModel, LatencyModel, TVisibility};
use std::sync::Arc;

/// A PBS predictor for a single `(N, R, W)` configuration and latency
/// model.
///
/// Construction runs the WARS Monte Carlo once; every query afterwards is
/// O(log trials) or closed-form.
pub struct Predictor {
    cfg: ReplicaConfig,
    tvis: TVisibility,
}

impl std::fmt::Debug for Predictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Predictor")
            .field("cfg", &self.cfg)
            .field("trials", &self.tvis.trials())
            .finish()
    }
}

impl Predictor {
    /// Build from any WARS latency model, sharding the Monte Carlo over
    /// `threads`. Deterministic per `(seed, threads)` pair, on any host.
    pub fn from_model_threads<M: LatencyModel + Sync + ?Sized>(
        model: &M,
        trials: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        Self {
            cfg: model.config(),
            tvis: TVisibility::simulate_parallel(model, trials, seed, threads),
        }
    }

    /// Fold another predictor's Monte-Carlo run (same configuration) into
    /// this one — the streaming summaries merge, so trial budgets can be
    /// accumulated across batches, processes, or machines without ever
    /// materialising raw sample vectors.
    pub fn merge(&mut self, other: Predictor) {
        self.tvis.merge(other.tvis);
    }

    /// Build from **measured one-way latency samples**, one vector per leg
    /// in `W, A, R, S` order — the online profiling path of §5.5/§6 (e.g.
    /// WARS timestamps exported by a real store, or `pbs-kvs`
    /// instrumentation).
    pub fn from_samples(
        cfg: ReplicaConfig,
        legs: [Vec<f64>; 4],
        trials: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        let [w, a, r, s] =
            legs.map(|leg| Arc::new(Empirical::from_samples(leg)) as DynDistribution);
        let model = IidModel::new(cfg, "measured", w, a, r, s);
        Self::from_model_threads(&model, trials, seed, threads)
    }

    /// The configuration under analysis.
    pub fn config(&self) -> ReplicaConfig {
        self.cfg
    }

    /// `P(consistent)` for reads starting `t` ms after commit.
    pub fn prob_consistent(&self, t_ms: f64) -> f64 {
        self.tvis.prob_consistent(t_ms)
    }

    /// Smallest `t` with `P(consistent) ≥ p`, if resolvable at the trial
    /// count.
    pub fn t_visibility(&self, p: f64) -> Option<f64> {
        self.tvis.t_at_probability(p)
    }

    /// Closed-form probability of reading a version within `k` versions of
    /// the latest committed write (Eq. 2).
    pub fn prob_within_k_versions(&self, k: u32) -> f64 {
        staleness::prob_within_k_versions(self.cfg, k)
    }

    /// Expected consistency of a read arriving at a *random* time into a
    /// key written by a stationary Poisson process committing at
    /// `commit_rate_per_ms` — the open-loop traffic regime (cf. Zhong et
    /// al.'s staleness-under-arrival-traffic model, and the comparison
    /// target for `pbs-kvs`'s `throughput` sweep).
    ///
    /// By PASTA, the age of the newest commit at the read's start is
    /// `T ~ Exp(γ)`; treating staleness with respect to that newest write
    /// (exact when at most one write is in flight per key — the low-load
    /// regime) gives `E[P_c(T)] = ∫₀¹ P_c(−ln u / γ) du`, evaluated by a
    /// 512-point midpoint rule on the substituted integrand.
    pub fn expected_consistency_under_poisson(&self, commit_rate_per_ms: f64) -> f64 {
        assert!(
            commit_rate_per_ms > 0.0 && commit_rate_per_ms.is_finite(),
            "commit rate must be positive"
        );
        const POINTS: usize = 512;
        let mut total = 0.0;
        for i in 0..POINTS {
            let u = (i as f64 + 0.5) / POINTS as f64;
            let t = -u.ln() / commit_rate_per_ms;
            total += self.prob_consistent(t);
        }
        total / POINTS as f64
    }

    /// Closed-form monotonic-reads violation probability (Eq. 3).
    pub fn monotonic_reads_violation(&self, gamma_gw: f64, gamma_cr: f64) -> f64 {
        staleness::monotonic_reads_violation(self.cfg, gamma_gw, gamma_cr)
    }

    /// ⟨k,t⟩-staleness violation (Eq. 5's conservative bound over the
    /// simulated t-visibility).
    pub fn kt_violation(&self, t_ms: f64, k: u32) -> f64 {
        self.tvis.kt_violation(t_ms, k)
    }

    /// Read operation latency at `pct ∈ [0, 100]`.
    pub fn read_latency(&self, pct: f64) -> f64 {
        self.tvis.read_latency_percentile(pct)
    }

    /// Write operation latency at `pct ∈ [0, 100]`.
    pub fn write_latency(&self, pct: f64) -> f64 {
        self.tvis.write_latency_percentile(pct)
    }

    /// The underlying Monte-Carlo run.
    pub fn tvisibility(&self) -> &TVisibility {
        &self.tvis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_dist::{Exponential, LatencyDistribution};
    use pbs_wars::production::exponential_model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
        ReplicaConfig::new(n, r, w).unwrap()
    }

    /// The exponential model every test here predicts, on two shards.
    fn predictor(cfg: ReplicaConfig, trials: usize, seed: u64) -> Predictor {
        Predictor::from_model_threads(&exponential_model(cfg, 0.1, 0.5), trials, seed, 2)
    }

    #[test]
    fn from_model_exposes_all_metrics() {
        let p = predictor(cfg(3, 1, 1), 20_000, 1);
        assert!(p.prob_consistent(0.0) < 1.0);
        assert!(p.prob_consistent(100.0) > 0.99);
        assert!(p.t_visibility(0.9).is_some());
        assert!((p.prob_within_k_versions(1) - 1.0 / 3.0).abs() < 1e-12);
        assert!(p.read_latency(99.0) > p.read_latency(50.0));
        assert!(p.kt_violation(5.0, 2) <= p.kt_violation(5.0, 1));
        assert!(p.monotonic_reads_violation(1.0, 1.0) < 1.0);
    }

    #[test]
    fn from_samples_matches_analytic_model() {
        // Sampling from the analytic distributions and feeding the samples
        // back as empirical models should reproduce the analytic results.
        let c = cfg(3, 1, 1);
        let analytic = predictor(c, 40_000, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let wdist = Exponential::from_rate(0.1);
        let adist = Exponential::from_rate(0.5);
        let sample = |d: &Exponential, rng: &mut StdRng| -> Vec<f64> {
            (0..50_000).map(|_| d.sample(rng)).collect()
        };
        let legs = [&wdist, &adist, &adist, &adist].map(|d| sample(d, &mut rng));
        let empirical = Predictor::from_samples(c, legs, 40_000, 4, 2);
        for t in [0.0, 5.0, 20.0, 60.0] {
            let a = analytic.prob_consistent(t);
            let b = empirical.prob_consistent(t);
            assert!((a - b).abs() < 0.02, "t={t}: analytic {a} vs empirical {b}");
        }
    }

    #[test]
    fn expected_consistency_under_poisson_bounds_and_monotonicity() {
        let p = predictor(cfg(3, 1, 1), 40_000, 7);
        let at0 = p.prob_consistent(0.0);
        // Slow writes (rare commits) → reads land long after the last
        // commit → near the asymptote; fast writes → near P_c(0).
        let slow = p.expected_consistency_under_poisson(1e-4);
        let fast = p.expected_consistency_under_poisson(10.0);
        assert!(slow > 0.99, "rare commits should look consistent: {slow}");
        assert!(fast < at0 + 0.05, "hot keys should look like t≈0: {fast} vs {at0}");
        let mut last = 1.0 + 1e-9;
        for rate in [1e-4, 1e-3, 1e-2, 1e-1, 1.0] {
            let e = p.expected_consistency_under_poisson(rate);
            assert!(e <= last, "expected consistency must fall with write rate");
            last = e;
        }
        // Strict quorums are immune to load.
        let strict = predictor(cfg(3, 2, 2), 5_000, 8);
        assert_eq!(strict.expected_consistency_under_poisson(1.0), 1.0);
    }

    #[test]
    fn strict_config_trivially_consistent() {
        let p = predictor(cfg(3, 2, 2), 5_000, 5);
        assert_eq!(p.prob_consistent(0.0), 1.0);
        assert_eq!(p.t_visibility(0.9999), Some(0.0));
        assert_eq!(p.prob_within_k_versions(1), 1.0);
    }

    #[test]
    fn merged_predictors_accumulate_trials() {
        let model = exponential_model(cfg(3, 1, 1), 0.1, 0.5);
        let mut a = Predictor::from_model_threads(&model, 15_000, 1, 2);
        let b = Predictor::from_model_threads(&model, 15_000, 2, 2);
        let before = a.prob_consistent(5.0);
        a.merge(b);
        assert_eq!(a.tvisibility().trials(), 30_000);
        assert!((a.prob_consistent(5.0) - before).abs() < 0.02);
    }
}
