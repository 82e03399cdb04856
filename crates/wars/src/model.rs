//! Latency models: how one trial's worth of W/A/R/S delays is sampled.

use pbs_core::ReplicaConfig;
use pbs_dist::DynDistribution;
use rand::Rng;
use rand::RngCore;

/// One trial's worth of per-replica one-way delays (all in milliseconds).
///
/// Index `i` refers to the same replica across all four vectors — the WAN
/// model depends on this (a remote replica is remote for both its request
/// and its response legs).
#[derive(Debug, Clone, Default)]
pub struct WarsSample {
    /// Write propagation delays (`W`), one per replica.
    pub w: Vec<f64>,
    /// Write acknowledgment delays (`A`).
    pub a: Vec<f64>,
    /// Read request delays (`R`).
    pub r: Vec<f64>,
    /// Read response delays (`S`).
    pub s: Vec<f64>,
}

impl WarsSample {
    /// Clear and ensure capacity for `n` replicas.
    ///
    /// Reserves only when capacity is actually short: after the first trial
    /// warms the vectors this is four clears and four comparisons — the
    /// Monte-Carlo hot loop performs no per-trial allocation.
    pub fn reset(&mut self, n: usize) {
        self.w.clear();
        self.a.clear();
        self.r.clear();
        self.s.clear();
        if self.w.capacity() < n {
            self.w.reserve(n);
            self.a.reserve(n);
            self.r.reserve(n);
            self.s.reserve(n);
        }
    }
}

/// A full WARS latency model: a replication configuration plus a sampling
/// rule for per-replica delays.
///
/// Implementations must fill all four vectors with exactly `config().n()`
/// finite, nonnegative entries per trial. That is what makes a strict
/// quorum (`R + W > N`) exact: a replica among the first `W` ackers and the
/// first `R` responders has `W[i] ≤ W[i] + A[i] ≤` the commit time, so its
/// staleness threshold `W[i] − w_t − R[i]` is `≤ 0` on every trial, and
/// `pbs_predictor::sla::optimize` judges such a configuration at
/// `P(consistent) = 1` without simulating its staleness.
///
/// **A trial's draws depend on `config().n()` only, never on `R` or `W`:**
/// two models that differ in `(R, W)` alone sample the same trial from the
/// same generator state. [`TVisibility::simulate_grid`] relies on it — it
/// samples one stream per `N` and reads every `(R, W)` off it.
///
/// [`TVisibility::simulate_grid`]: crate::TVisibility::simulate_grid
pub trait LatencyModel: Send + Sync {
    /// The `(N, R, W)` configuration this model simulates.
    fn config(&self) -> ReplicaConfig;

    /// Sample one trial into `out`, replacing whatever it held: the
    /// implementation [`reset`](WarsSample::reset)s it, callers need not.
    fn sample_trial(&self, rng: &mut dyn RngCore, out: &mut WarsSample);

    /// Human-readable description for bench output.
    fn describe(&self) -> String;
}

/// The i.i.d. model of §5.5: every replica's delays are drawn independently
/// from four shared distributions. This covers LNKD-SSD, LNKD-DISK, YMMR,
/// and all synthetic experiments.
pub struct IidModel {
    cfg: ReplicaConfig,
    w: DynDistribution,
    a: DynDistribution,
    r: DynDistribution,
    s: DynDistribution,
    name: String,
}

impl IidModel {
    /// Build from four independent one-way distributions.
    pub fn new(
        cfg: ReplicaConfig,
        name: impl Into<String>,
        w: DynDistribution,
        a: DynDistribution,
        r: DynDistribution,
        s: DynDistribution,
    ) -> Self {
        Self { cfg, w, a, r, s, name: name.into() }
    }

    /// Common shorthand: one distribution for `W`, one shared by `A=R=S`
    /// (the shape of every production fit in Table 3).
    pub fn w_ars(cfg: ReplicaConfig, name: impl Into<String>, w: DynDistribution, ars: DynDistribution) -> Self {
        Self::new(cfg, name, w, ars.clone(), ars.clone(), ars)
    }
}

impl LatencyModel for IidModel {
    fn config(&self) -> ReplicaConfig {
        self.cfg
    }

    fn sample_trial(&self, rng: &mut dyn RngCore, out: &mut WarsSample) {
        let n = self.cfg.n() as usize;
        out.reset(n);
        for _ in 0..n {
            out.w.push(self.w.sample(rng));
            out.a.push(self.a.sample(rng));
            out.r.push(self.r.sample(rng));
            out.s.push(self.s.sample(rng));
        }
    }

    fn describe(&self) -> String {
        format!("{} ({})", self.name, self.cfg)
    }
}

impl std::fmt::Debug for IidModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IidModel({})", self.describe())
    }
}

/// The multi-datacenter model of §5.5: each operation originates in a random
/// datacenter holding exactly one replica; messages to/from the other
/// `N − 1` replicas pay a fixed one-way WAN penalty on top of the base
/// distribution.
///
/// The write's local replica and the read's local replica are drawn
/// *independently* — a later reader usually sits in a different datacenter
/// than the writer, which is why WAN consistency immediately after commit is
/// ≈ `1/N` (Figure 6).
pub struct WanModel {
    cfg: ReplicaConfig,
    w: DynDistribution,
    a: DynDistribution,
    r: DynDistribution,
    s: DynDistribution,
    one_way_penalty_ms: f64,
    name: String,
}

impl WanModel {
    /// Build from base (intra-datacenter) distributions and a one-way WAN
    /// penalty in milliseconds.
    pub fn new(
        cfg: ReplicaConfig,
        name: impl Into<String>,
        w: DynDistribution,
        a: DynDistribution,
        r: DynDistribution,
        s: DynDistribution,
        one_way_penalty_ms: f64,
    ) -> Self {
        assert!(one_way_penalty_ms >= 0.0 && one_way_penalty_ms.is_finite());
        Self { cfg, w, a, r, s, one_way_penalty_ms, name: name.into() }
    }
}

impl LatencyModel for WanModel {
    fn config(&self) -> ReplicaConfig {
        self.cfg
    }

    fn sample_trial(&self, rng: &mut dyn RngCore, out: &mut WarsSample) {
        let n = self.cfg.n() as usize;
        out.reset(n);
        let write_local = rng.gen_range(0..n);
        let read_local = rng.gen_range(0..n);
        for i in 0..n {
            let wp = if i == write_local { 0.0 } else { self.one_way_penalty_ms };
            let rp = if i == read_local { 0.0 } else { self.one_way_penalty_ms };
            out.w.push(wp + self.w.sample(rng));
            out.a.push(wp + self.a.sample(rng));
            out.r.push(rp + self.r.sample(rng));
            out.s.push(rp + self.s.sample(rng));
        }
    }

    fn describe(&self) -> String {
        format!("{} ({}, +{}ms one-way WAN)", self.name, self.cfg, self.one_way_penalty_ms)
    }
}

impl std::fmt::Debug for WanModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WanModel({})", self.describe())
    }
}

/// §5.3's alternative to growing quorums: *delay reads*. Wraps any model
/// and adds a fixed delay to every read-request (`R`) leg, giving writes
/// extra time to propagate at the cost of read latency — "potentially
/// detrimental to performance for read-dominated workloads".
pub struct WithReadDelay<M> {
    inner: M,
    delay_ms: f64,
}

impl<M: LatencyModel> WithReadDelay<M> {
    /// Delay every read request by `delay_ms ≥ 0`.
    pub fn new(inner: M, delay_ms: f64) -> Self {
        assert!(delay_ms >= 0.0 && delay_ms.is_finite());
        Self { inner, delay_ms }
    }
}

impl<M: LatencyModel> LatencyModel for WithReadDelay<M> {
    fn config(&self) -> ReplicaConfig {
        self.inner.config()
    }

    fn sample_trial(&self, rng: &mut dyn RngCore, out: &mut WarsSample) {
        self.inner.sample_trial(rng, out);
        for r in &mut out.r {
            *r += self.delay_ms;
        }
    }

    fn describe(&self) -> String {
        format!("{} + {}ms read delay", self.inner.describe(), self.delay_ms)
    }
}

impl<M: LatencyModel> std::fmt::Debug for WithReadDelay<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WithReadDelay({})", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_dist::Constant;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
        ReplicaConfig::new(n, r, w).unwrap()
    }

    #[test]
    fn iid_model_fills_all_vectors() {
        let m = IidModel::w_ars(
            cfg(5, 2, 1),
            "test",
            Arc::new(Constant::new(2.0)),
            Arc::new(Constant::new(1.0)),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = WarsSample::default();
        m.sample_trial(&mut rng, &mut s);
        assert_eq!(s.w, vec![2.0; 5]);
        assert_eq!(s.a, vec![1.0; 5]);
        assert_eq!(s.r, vec![1.0; 5]);
        assert_eq!(s.s, vec![1.0; 5]);
    }

    #[test]
    fn wan_model_has_exactly_one_local_per_leg() {
        let m = WanModel::new(
            cfg(3, 1, 1),
            "wan-test",
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
            75.0,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = WarsSample::default();
        for _ in 0..100 {
            m.sample_trial(&mut rng, &mut s);
            let local_writes = s.w.iter().filter(|&&x| x < 75.0).count();
            let local_reads = s.r.iter().filter(|&&x| x < 75.0).count();
            assert_eq!(local_writes, 1, "exactly one write-local replica");
            assert_eq!(local_reads, 1, "exactly one read-local replica");
            // W and A share locality per replica.
            for i in 0..3 {
                assert_eq!(s.w[i] >= 75.0, s.a[i] >= 75.0);
                assert_eq!(s.r[i] >= 75.0, s.s[i] >= 75.0);
            }
        }
    }

    #[test]
    fn wan_read_write_localities_independent() {
        let m = WanModel::new(
            cfg(3, 1, 1),
            "wan-test",
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
            75.0,
        );
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = WarsSample::default();
        let mut same = 0usize;
        let trials = 30_000;
        for _ in 0..trials {
            m.sample_trial(&mut rng, &mut s);
            let wl = s.w.iter().position(|&x| x < 75.0).unwrap();
            let rl = s.r.iter().position(|&x| x < 75.0).unwrap();
            if wl == rl {
                same += 1;
            }
        }
        let frac = same as f64 / trials as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.02, "co-location fraction {frac} ≈ 1/N");
    }
}
