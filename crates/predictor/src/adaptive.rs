//! Adaptive reconfiguration (§6 "Variable configurations"): keep a sliding
//! window of measured one-way latencies, refit empirical distributions, and
//! re-run the SLA optimizer when conditions drift.
//!
//! The controller is built for **in-loop** use by a scenario driver: feed
//! it drained leg samples with [`AdaptiveController::observe_many`] on a
//! cadence, then either [`predict`](AdaptiveController::predict) the
//! current configuration's behaviour or
//! [`reoptimize`](AdaptiveController::reoptimize) the whole `(R, W)` space.
//! Both are fallible (`Err` on an empty window) rather than panicking, and
//! both recycle internal scratch buffers so steady-state refits perform no
//! per-call sample-vector reallocation.

use crate::predictor::Predictor;
use crate::sla::{assert_valid, optimize, SlaReport, SlaSpec};
use pbs_core::ReplicaConfig;
use pbs_dist::Empirical;
use pbs_wars::{IidModel, LatencyModel};
use std::collections::VecDeque;
use std::sync::Arc;

/// Why a refit could not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveError {
    /// No samples have been observed yet — call
    /// [`AdaptiveController::observe`] /
    /// [`observe_many`](AdaptiveController::observe_many) first.
    EmptyWindow,
}

impl std::fmt::Display for AdaptiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptiveError::EmptyWindow => {
                write!(f, "sample window is empty; observe latencies before refitting")
            }
        }
    }
}

impl std::error::Error for AdaptiveError {}

/// A bounded sliding window of latency samples for one WARS leg.
#[derive(Debug, Clone)]
pub struct SampleWindow {
    samples: VecDeque<f64>,
    capacity: usize,
}

impl SampleWindow {
    /// Window holding at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self { samples: VecDeque::with_capacity(capacity), capacity }
    }

    /// Record one observation, evicting the oldest if full.
    pub fn push(&mut self, value_ms: f64) {
        assert!(value_ms >= 0.0 && value_ms.is_finite());
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(value_ms);
    }

    /// Number of samples held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Copy the windowed samples into `out` (cleared first), reusing its
    /// allocation.
    pub fn write_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.samples.iter().copied());
    }

    #[cfg(test)]
    fn to_empirical(&self) -> Empirical {
        Empirical::from_samples(self.samples.iter().copied().collect())
    }
}

/// The online controller: observes per-leg latencies, periodically refits
/// and re-optimizes the replication configuration.
///
/// ```
/// use pbs_predictor::adaptive::AdaptiveController;
/// use pbs_predictor::SlaSpec;
/// use pbs_core::ReplicaConfig;
/// use pbs_dist::{Exponential, LatencyDistribution};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let spec = SlaSpec::consistency(0.99, 10.0);
/// let mut ctl = AdaptiveController::new(spec, vec![3], 2_000, 4_000, 1);
///
/// // An empty window is an error, not a panic.
/// assert!(ctl.reoptimize().is_err());
///
/// // Observe measured one-way latencies (e.g. drained from a live store)…
/// let (w, ars) = (Exponential::from_mean(2.0), Exponential::from_mean(0.5));
/// let mut rng = StdRng::seed_from_u64(7);
/// for _ in 0..2_000 {
///     ctl.observe(w.sample(&mut rng), ars.sample(&mut rng),
///                 ars.sample(&mut rng), ars.sample(&mut rng));
/// }
///
/// // …then predict the current config or re-optimize the whole space.
/// let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
/// let p = ctl.predict(cfg).unwrap();
/// assert!(p.prob_consistent(10.0) > 0.9);
/// let report = ctl.reoptimize().unwrap();
/// assert!(report.best_config().is_some());
/// ```
#[derive(Debug)]
pub struct AdaptiveController {
    w: SampleWindow,
    a: SampleWindow,
    r: SampleWindow,
    s: SampleWindow,
    spec: SlaSpec,
    /// Candidate replication factors.
    ns: Vec<u32>,
    /// Monte-Carlo budget per candidate evaluation.
    trials: usize,
    seed: u64,
    /// Shards per Monte-Carlo evaluation.
    threads: usize,
    /// Recycled per-leg sample buffers (W, A, R, S): refits take them,
    /// hand them to `Empirical`, and reclaim them afterwards, so the
    /// steady state allocates nothing per call.
    scratch: [Vec<f64>; 4],
}

impl AdaptiveController {
    /// Build a controller with the given SLA, candidate `N`s, window size,
    /// and per-evaluation trial budget. Monte-Carlo evaluations run on one
    /// shard — the same refit on every host — unless
    /// [`with_threads`](Self::with_threads) says otherwise.
    ///
    /// Panics if `ns` is empty or `spec` fails [`SlaSpec::check`].
    pub fn new(spec: SlaSpec, ns: Vec<u32>, window: usize, trials: usize, seed: u64) -> Self {
        assert!(!ns.is_empty());
        assert_valid(&spec);
        Self {
            w: SampleWindow::new(window),
            a: SampleWindow::new(window),
            r: SampleWindow::new(window),
            s: SampleWindow::new(window),
            spec,
            ns,
            trials,
            seed,
            threads: 1,
            scratch: Default::default(),
        }
    }

    /// Set the Monte-Carlo shard count (default 1, which is also what a
    /// driver that already parallelises at a coarser grain wants). Refits
    /// are bit-reproducible per `(seed, threads)` pair.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0);
        self.threads = threads;
        self
    }

    /// The SLA the optimizer targets.
    pub fn spec(&self) -> &SlaSpec {
        &self.spec
    }

    /// Record one WARS observation (one message per leg).
    pub fn observe(&mut self, w: f64, a: f64, r: f64, s: f64) {
        self.w.push(w);
        self.a.push(a);
        self.r.push(r);
        self.s.push(s);
    }

    /// Bulk-ingest drained per-leg samples (the shape
    /// `pbs_kvs::Cluster::drain_leg_samples` produces). Legs may have
    /// different lengths — each feeds its own window.
    pub fn observe_many(&mut self, w: &[f64], a: &[f64], r: &[f64], s: &[f64]) {
        for &v in w {
            self.w.push(v);
        }
        for &v in a {
            self.a.push(v);
        }
        for &v in r {
            self.r.push(v);
        }
        for &v in s {
            self.s.push(v);
        }
    }

    /// Smallest per-leg window fill — refit quality is bounded by the
    /// least-observed leg.
    pub fn window_len(&self) -> usize {
        self.w.len().min(self.a.len()).min(self.r.len()).min(self.s.len())
    }

    /// Refit the windowed per-leg empirical distributions, taking the
    /// scratch buffers. Callers must pass the result to
    /// [`reclaim`](Self::reclaim) once the models built on it are dropped.
    fn windowed_legs(&mut self) -> Result<[Arc<Empirical>; 4], AdaptiveError> {
        if self.w.is_empty() || self.a.is_empty() || self.r.is_empty() || self.s.is_empty() {
            return Err(AdaptiveError::EmptyWindow);
        }
        let [sw, sa, sr, ss] = &mut self.scratch;
        self.w.write_into(sw);
        self.a.write_into(sa);
        self.r.write_into(sr);
        self.s.write_into(ss);
        Ok([
            Arc::new(Empirical::from_samples(std::mem::take(sw))),
            Arc::new(Empirical::from_samples(std::mem::take(sa))),
            Arc::new(Empirical::from_samples(std::mem::take(sr))),
            Arc::new(Empirical::from_samples(std::mem::take(ss))),
        ])
    }

    /// Recover the scratch buffers from refit legs whose models are gone
    /// (no-op for any leg still shared).
    fn reclaim(&mut self, legs: [Arc<Empirical>; 4]) {
        for (slot, leg) in self.scratch.iter_mut().zip(legs) {
            if let Ok(emp) = Arc::try_unwrap(leg) {
                *slot = emp.into_samples();
            }
        }
    }

    /// Refit from the current window and predict the behaviour of **one**
    /// configuration — the cheap in-loop query a closed-loop driver issues
    /// every control interval (vs. the full `O(N²)` sweep of
    /// [`reoptimize`](Self::reoptimize)).
    ///
    /// # Errors
    ///
    /// [`AdaptiveError::EmptyWindow`] when any leg has no samples yet.
    pub fn predict(&mut self, cfg: ReplicaConfig) -> Result<Predictor, AdaptiveError> {
        let legs = self.windowed_legs()?;
        let [we, ae, re, se] = &legs;
        let model =
            IidModel::new(cfg, "windowed", we.clone(), ae.clone(), re.clone(), se.clone());
        let p = Predictor::from_model_threads(&model, self.trials, self.seed, self.threads);
        drop(model);
        self.reclaim(legs);
        Ok(p)
    }

    /// Refit empirical distributions from the current window and run the
    /// SLA optimizer over every candidate `(N, R, W)`: one Monte-Carlo
    /// stream of `trials` trials per candidate `N`, every partial `(R, W)`
    /// and `(N, N)` read off it, every strict `(R, W)` judged exactly with
    /// the latency summaries of its `R` and `W` ([`optimize`]).
    ///
    /// # Errors
    ///
    /// [`AdaptiveError::EmptyWindow`] when any leg has no samples yet.
    pub fn reoptimize(&mut self) -> Result<SlaReport, AdaptiveError> {
        self.reoptimize_through(&|model| Box::new(model))
    }

    /// [`reoptimize`](Self::reoptimize) with each windowed model passed
    /// through `wrap` on its way to the optimizer — where a test counts the
    /// trials a refit draws.
    fn reoptimize_through(
        &mut self,
        wrap: &dyn Fn(IidModel) -> Box<dyn LatencyModel>,
    ) -> Result<SlaReport, AdaptiveError> {
        let legs = self.windowed_legs()?;
        let report = {
            let [we, ae, re, se] = &legs;
            let (we, ae, re, se) = (we.clone(), ae.clone(), re.clone(), se.clone());
            let factory = move |cfg: ReplicaConfig| -> Box<dyn LatencyModel> {
                wrap(IidModel::new(
                    cfg,
                    "windowed",
                    we.clone(),
                    ae.clone(),
                    re.clone(),
                    se.clone(),
                ))
            };
            optimize(&factory, &self.ns, &self.spec, self.trials, self.seed, self.threads)
        };
        self.reclaim(legs);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_dist::{Exponential, LatencyDistribution};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn window_evicts_oldest() {
        let mut w = SampleWindow::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.len(), 3);
        let emp = w.to_empirical();
        assert_eq!(emp.samples().min(), 2.0);
        assert_eq!(emp.samples().max(), 4.0);
    }

    #[test]
    fn empty_window_is_an_error_not_a_panic() {
        let spec = SlaSpec::consistency(0.9, 5.0);
        let mut ctl = AdaptiveController::new(spec, vec![3], 100, 100, 1);
        assert_eq!(ctl.reoptimize().unwrap_err(), AdaptiveError::EmptyWindow);
        let cfg = pbs_core::ReplicaConfig::new(3, 1, 1).unwrap();
        assert_eq!(ctl.predict(cfg).unwrap_err(), AdaptiveError::EmptyWindow);
        // A partially fed window (legs uneven) is still an error.
        ctl.observe_many(&[1.0, 2.0], &[1.0], &[], &[]);
        assert_eq!(ctl.reoptimize().unwrap_err(), AdaptiveError::EmptyWindow);
        assert_eq!(ctl.window_len(), 0);
    }

    /// A controller whose SLA would panic in its first refit is refused
    /// at construction.
    #[test]
    #[should_panic(expected = "within_ms must be >= 0")]
    fn a_nan_window_is_refused_at_construction() {
        AdaptiveController::new(SlaSpec::consistency(0.9, f64::NAN), vec![3], 100, 100, 1);
    }

    #[test]
    fn scratch_buffers_are_recycled() {
        let spec = SlaSpec::consistency(0.5, 50.0);
        let mut ctl = AdaptiveController::new(spec, vec![3], 1_000, 500, 1);
        let d = Exponential::from_mean(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1_000 {
            ctl.observe(d.sample(&mut rng), d.sample(&mut rng), d.sample(&mut rng), d.sample(&mut rng));
        }
        ctl.reoptimize().unwrap();
        let caps: Vec<usize> = ctl.scratch.iter().map(|s| s.capacity()).collect();
        assert!(caps.iter().all(|&c| c >= 1_000), "buffers reclaimed: {caps:?}");
        // A second refit reuses them (capacity unchanged ⇒ no realloc).
        ctl.reoptimize().unwrap();
        let caps2: Vec<usize> = ctl.scratch.iter().map(|s| s.capacity()).collect();
        assert_eq!(caps, caps2);
    }

    #[test]
    fn predict_matches_reoptimize_evaluation() {
        let spec = SlaSpec::consistency(0.9, 5.0);
        let mut ctl = AdaptiveController::new(spec, vec![3], 2_000, 4_000, 3);
        let w = Exponential::from_mean(5.0);
        let ars = Exponential::from_mean(0.8);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..2_000 {
            ctl.observe(w.sample(&mut rng), ars.sample(&mut rng), ars.sample(&mut rng), ars.sample(&mut rng));
        }
        let cfg = pbs_core::ReplicaConfig::new(3, 1, 1).unwrap();
        let p = ctl.predict(cfg).unwrap();
        let report = ctl.reoptimize().unwrap();
        let eval = report.evaluations.iter().find(|e| e.cfg == cfg).unwrap();
        // Same window, same trials, same seed, same thread count → the
        // sweep's evaluation of this config matches the direct prediction.
        assert_eq!(p.prob_consistent(5.0), eval.consistency);
    }

    /// Counts the trials drawn through it.
    struct Counting {
        inner: IidModel,
        calls: Arc<AtomicUsize>,
    }

    impl LatencyModel for Counting {
        fn config(&self) -> ReplicaConfig {
            self.inner.config()
        }
        fn sample_trial(&self, rng: &mut dyn rand::RngCore, out: &mut pbs_wars::WarsSample) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.sample_trial(rng, out);
        }
        fn describe(&self) -> String {
            self.inner.describe()
        }
    }

    /// A refit draws one stream per candidate N — `2·T` trials for
    /// `ns = [3, 5]` — and still evaluates all 9 + 25 configurations
    /// (a simulation per configuration would draw `34·T`).
    #[test]
    fn reoptimize_draws_one_stream_per_candidate_n() {
        const T: usize = 700;
        let spec = SlaSpec::consistency(0.9, 5.0);
        let mut ctl = AdaptiveController::new(spec, vec![3, 5], 500, T, 9);
        let d = Exponential::from_mean(1.0);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..500 {
            let mut leg = || d.sample(&mut rng);
            ctl.observe(leg(), leg(), leg(), leg());
        }
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = calls.clone();
        let report = ctl
            .reoptimize_through(&move |inner| Box::new(Counting { inner, calls: counted.clone() }))
            .unwrap();
        assert_eq!(report.evaluations.len(), 9 + 25);
        assert_eq!(calls.load(Ordering::Relaxed), 2 * T);
        // The seam changes nothing: the plain refit reports the same numbers.
        let plain = ctl.reoptimize().unwrap();
        assert_eq!(plain.best, report.best);
        for (a, b) in plain.evaluations.iter().zip(&report.evaluations) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    /// The shard count is never read from the host: a controller built
    /// without `with_threads` refits exactly as `.with_threads(1)` does.
    #[test]
    fn default_shard_count_is_one_on_every_host() {
        let refit = |mut ctl: AdaptiveController| {
            let d = Exponential::from_mean(2.0);
            let mut rng = StdRng::seed_from_u64(8);
            for _ in 0..1_000 {
                let mut leg = || d.sample(&mut rng);
                ctl.observe(leg(), leg(), leg(), leg());
            }
            format!("{:?}", ctl.reoptimize().unwrap())
        };
        let build = || {
            AdaptiveController::new(SlaSpec::consistency(0.9, 5.0), vec![3], 1_000, 3_000, 5)
        };
        assert_eq!(refit(build()), refit(build().with_threads(1)));
        assert_ne!(refit(build()), refit(build().with_threads(2)), "shards do change the stream");
    }

    /// The §6 story: fast disks → partial quorum qualifies; disks degrade →
    /// the same SLA now requires waiting (a strict quorum or bust).
    #[test]
    fn controller_reacts_to_latency_drift() {
        let spec = SlaSpec::consistency(0.99, 5.0);
        let mut ctl = AdaptiveController::new(spec, vec![3], 4_000, 8_000, 1);
        let mut rng = StdRng::seed_from_u64(2);

        // Phase 1: fast, low-variance writes (SSD-like).
        let fast = Exponential::from_mean(0.3);
        let ars = Exponential::from_mean(0.5);
        for _ in 0..4_000 {
            ctl.observe(fast.sample(&mut rng), ars.sample(&mut rng), ars.sample(&mut rng), ars.sample(&mut rng));
        }
        let report = ctl.reoptimize().expect("window is full");
        let best = report.best_config().expect("fast phase qualifies");
        assert!(best.cfg.is_partial(), "fast writes → partial quorum wins: {}", best.cfg);

        // Phase 2: disks degrade badly (mean 30ms writes) — the window
        // rolls over entirely.
        let slow = Exponential::from_mean(30.0);
        for _ in 0..4_000 {
            ctl.observe(slow.sample(&mut rng), ars.sample(&mut rng), ars.sample(&mut rng), ars.sample(&mut rng));
        }
        let report = ctl.reoptimize().expect("window is full");
        match report.best_config() {
            Some(best) => assert!(
                best.cfg.is_strict(),
                "slow writes → only strict quorums meet a 5ms/99% SLA: {}",
                best.cfg
            ),
            None => { /* no config qualifies — also a valid drift outcome */ }
        }
    }
}
