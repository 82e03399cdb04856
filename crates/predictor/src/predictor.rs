//! The PBS predictor: one WARS t-visibility run for one configuration,
//! and the query it answers on top of that run.

use pbs_wars::{LatencyModel, TVisibility};

/// A PBS predictor for a single `(N, R, W)` configuration and latency
/// model: one WARS Monte-Carlo run (§5.1).
///
/// Construction runs the Monte Carlo once. The predictor answers
/// `P(consistent)` at a read offset and the expected consistency under
/// Poisson commits itself; everything else the run knows (its
/// configuration, t-visibility at a target probability, ⟨k,t⟩-staleness,
/// latency percentiles) is read through [`tvisibility`](Self::tvisibility),
/// and the closed forms of §3 through `pbs_core::staleness`.
pub struct Predictor {
    tvis: TVisibility,
}

impl std::fmt::Debug for Predictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Predictor")
            .field("cfg", &self.tvis.config())
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
        Self { tvis: TVisibility::simulate_parallel(model, trials, seed, threads) }
    }

    /// `P(consistent)` for reads starting `t` ms after commit.
    pub fn prob_consistent(&self, t_ms: f64) -> f64 {
        self.tvis.prob_consistent(t_ms)
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

    /// The underlying Monte-Carlo run.
    pub fn tvisibility(&self) -> &TVisibility {
        &self.tvis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveController, SlaSpec};
    use pbs_core::ReplicaConfig;
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
        let tv = p.tvisibility();
        assert_eq!(tv.config(), cfg(3, 1, 1));
        assert!(tv.t_at_probability(0.9).is_finite());
        assert!(tv.read_latency_percentile(99.0) > tv.read_latency_percentile(50.0));
        assert!(tv.kt_violation(5.0, 2) <= tv.kt_violation(5.0, 1));
    }

    #[test]
    fn from_samples_matches_analytic_model() {
        // Sampling from the analytic distributions and feeding the samples
        // back, through a controller whose window holds all of them, as
        // empirical models should reproduce the analytic results.
        let c = cfg(3, 1, 1);
        let analytic = predictor(c, 40_000, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let wdist = Exponential::from_rate(0.1);
        let adist = Exponential::from_rate(0.5);
        let sample = |d: &Exponential, rng: &mut StdRng| -> Vec<f64> {
            (0..50_000).map(|_| d.sample(rng)).collect()
        };
        let [w, a, r, s] = [&wdist, &adist, &adist, &adist].map(|d| sample(d, &mut rng));
        let spec = SlaSpec::consistency(0.9, 5.0);
        let mut ctl = AdaptiveController::new(spec, vec![3], 50_000, 40_000, 4).with_threads(2);
        ctl.observe_many(&w, &a, &r, &s);
        let empirical = ctl.predict(c).unwrap();
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
        assert_eq!(p.tvisibility().t_at_probability(0.9999), 0.0);
    }
}
