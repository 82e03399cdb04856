//! Monte-Carlo t-visibility curves and operation-latency percentiles.

use crate::model::{LatencyModel, WarsSample};
use crate::trial::TrialScratch;
use pbs_core::ReplicaConfig;
use pbs_mc::{Mergeable, Runner, Summary};
use std::sync::Arc;

/// The result of a batch of WARS trials: the t-visibility curve (a
/// streaming summary of per-trial staleness thresholds) plus read/write
/// operation-latency distributions.
///
/// All three channels are [`Summary`] accumulators — O(1) memory
/// regardless of the trial count, with exact count/mean/extrema and
/// sketch-approximated quantiles/CDF:
/// `P(consistent at t) = CDF_T(t)` and the inverse
/// ["t-visibility at probability p"](Self::t_at_probability) is a quantile
/// query.
#[derive(Debug, Clone)]
pub struct TVisibility {
    cfg: ReplicaConfig,
    thresholds: Summary,
    /// Read latency depends on `R` alone and write latency on `W` alone, so
    /// the results of one [`simulate_grid`](Self::simulate_grid) share one
    /// summary per distinct `R` and one per distinct `W`.
    read_latency: Arc<Summary>,
    write_latency: Arc<Summary>,
    /// Exact count of trials with `threshold ≤ 0`. The threshold
    /// distribution is *mixed* — an atom of immediately-consistent mass
    /// (ties, strict quorums, instantaneous reads) plus a continuous
    /// tail — and quantile sketches smear atoms, so the paper's headline
    /// "P(consistent at t = 0)" is kept exact on the side.
    consistent_at_zero: u64,
}

/// Per-shard accumulator of a grid: thresholds and the exact zero count per
/// pair, read latency per distinct `R`, write latency per distinct `W`.
struct GridShard {
    thresholds: Vec<(Summary, u64)>,
    reads: Vec<Summary>,
    writes: Vec<Summary>,
}

impl Mergeable for GridShard {
    fn merge(&mut self, other: Self) {
        for ((sum, zero), (other_sum, other_zero)) in
            self.thresholds.iter_mut().zip(other.thresholds)
        {
            sum.merge(other_sum);
            *zero += other_zero;
        }
        for (sum, other_sum) in self.reads.iter_mut().zip(other.reads) {
            sum.merge(other_sum);
        }
        for (sum, other_sum) in self.writes.iter_mut().zip(other.writes) {
            sum.merge(other_sum);
        }
    }
}

/// The distinct values of `side` over `pairs`, ascending.
fn distinct(pairs: &[(u32, u32)], side: impl Fn(&(u32, u32)) -> u32) -> Vec<u32> {
    let mut values: Vec<u32> = pairs.iter().map(side).collect();
    values.sort_unstable();
    values.dedup();
    values
}

impl TVisibility {
    /// Run `trials` WARS trials single-threaded — equivalent to
    /// [`simulate_parallel`](Self::simulate_parallel) with `threads = 1`
    /// (shard 0 replays the plain `seed` stream).
    ///
    /// Panics if `trials == 0`. 10⁴ trials resolve probabilities to ~1%;
    /// the paper's headline numbers use 5×10⁴–10⁶.
    ///
    /// ```
    /// use pbs_core::ReplicaConfig;
    /// use pbs_wars::{production, TVisibility};
    ///
    /// // Figure 6's LNKD-SSD curve at Cassandra's default N=3, R=W=1.
    /// let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    /// let tv = TVisibility::simulate(&production::lnkd_ssd_model(cfg), 20_000, 42);
    /// assert!((tv.prob_consistent(0.0) - 0.974).abs() < 0.01); // ≈97.4% at t=0
    /// assert!(tv.t_at_probability(0.999) < 5.0);
    /// assert!(tv.read_latency_percentile(99.9) < 2.0);
    /// ```
    pub fn simulate<M: LatencyModel + ?Sized>(model: &M, trials: usize, seed: u64) -> Self {
        Self::simulate_parallel(model, trials, seed, 1)
    }

    /// Run `trials` WARS trials of the model's own configuration sharded
    /// across `threads` threads: the one-pair case of
    /// [`simulate_grid`](Self::simulate_grid), with its determinism and
    /// memory contract.
    pub fn simulate_parallel<M: LatencyModel + Sync + ?Sized>(
        model: &M,
        trials: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        let cfg = model.config();
        Self::simulate_grid(model, &[(cfg.r(), cfg.w())], trials, seed, threads)
            .pop()
            .expect("one pair in, one result out")
    }

    /// Run `trials` WARS trials **once** and read every `(R, W)` of `pairs`
    /// off each trial — one result per pair, in `pairs` order, each equal to
    /// what [`simulate_parallel`](Self::simulate_parallel) returns for a
    /// model of that configuration.
    ///
    /// `N` is the model's; its own `(R, W)` is not consulted, because a
    /// trial's draws depend on `N` alone ([`LatencyModel`]'s contract). A
    /// trial is sampled once and prepared once up to the largest `R` and `W`
    /// of `pairs`, its write latency recorded once per distinct `W`, its
    /// read latency once per distinct `R`, its threshold once per pair.
    ///
    /// Trials shard across `threads` threads on the [`pbs_mc::Runner`].
    /// Deterministic for a fixed `(seed, threads)` pair: shard `i` uses seed
    /// `rand::child(seed, i)` and shard summaries merge in shard order, so
    /// repeated runs are bit-identical regardless of scheduling. Peak memory
    /// is O(threads · summaries · sketch compression) — independent of
    /// `trials`.
    ///
    /// Panics if `trials == 0`, `threads == 0`, or a pair is not a valid
    /// quorum configuration for the model's `N`.
    pub fn simulate_grid<M: LatencyModel + Sync + ?Sized>(
        model: &M,
        pairs: &[(u32, u32)],
        trials: usize,
        seed: u64,
        threads: usize,
    ) -> Vec<Self> {
        assert!(trials > 0, "need at least one trial");
        assert!(threads > 0, "need at least one thread");
        let n = model.config().n();
        let replicas = n as usize;
        let cfgs: Vec<ReplicaConfig> = pairs
            .iter()
            .map(|&(r, w)| ReplicaConfig::new(n, r, w).expect("valid (R, W) for the model's N"))
            .collect();
        let rs = distinct(pairs, |p| p.0);
        let ws = distinct(pairs, |p| p.1);
        // Every pair's view lies within the largest R and W asked for.
        let r_max = rs.last().map_or(0, |&r| r as usize);
        let w_max = ws.last().map_or(0, |&w| w as usize);

        let shard = Runner::new(trials, seed, threads).run(|rng, info| {
            let mut acc = GridShard {
                thresholds: vec![(Summary::default(), 0); pairs.len()],
                reads: vec![Summary::default(); rs.len()],
                writes: vec![Summary::default(); ws.len()],
            };
            let mut sample = WarsSample::default();
            let mut scratch = TrialScratch::default();
            for i in 0..info.trials {
                model.sample_trial(rng, &mut sample);
                if i == 0 {
                    assert_eq!(sample.w.len(), replicas, "sample/config mismatch");
                    assert_eq!(sample.a.len(), replicas);
                    assert_eq!(sample.r.len(), replicas);
                    assert_eq!(sample.s.len(), replicas);
                }
                let trial = scratch.prepare(&sample, r_max, w_max);
                for (sum, &w) in acc.writes.iter_mut().zip(&ws) {
                    sum.record(trial.write_latency(w as usize));
                }
                for (sum, &r) in acc.reads.iter_mut().zip(&rs) {
                    sum.record(trial.read_latency(r as usize));
                }
                for ((sum, zero), &(r, w)) in acc.thresholds.iter_mut().zip(pairs) {
                    let threshold = trial.staleness_threshold(r as usize, w as usize);
                    sum.record(threshold);
                    if threshold <= 0.0 {
                        *zero += 1;
                    }
                }
            }
            let sums = acc.thresholds.iter_mut().map(|(sum, _)| sum);
            sums.chain(&mut acc.reads).chain(&mut acc.writes).for_each(Summary::seal);
            acc
        });

        let reads: Vec<Arc<Summary>> = shard.reads.into_iter().map(Arc::new).collect();
        let writes: Vec<Arc<Summary>> = shard.writes.into_iter().map(Arc::new).collect();
        let shared = |of: &[Arc<Summary>], keys: &[u32], key: u32| {
            Arc::clone(&of[keys.binary_search(&key).expect("every pair's side is listed")])
        };
        cfgs.into_iter()
            .zip(shard.thresholds)
            .map(|(cfg, (thresholds, consistent_at_zero))| Self {
                cfg,
                thresholds,
                read_latency: shared(&reads, &rs, cfg.r()),
                write_latency: shared(&writes, &ws, cfg.w()),
                consistent_at_zero,
            })
            .collect()
    }

    /// Fold another run (same configuration) into this one — the
    /// mergeable-accumulator surface for callers that scale trials across
    /// batches, processes, or machines.
    pub fn merge(&mut self, other: TVisibility) {
        assert_eq!(self.cfg, other.cfg, "cannot merge different configurations");
        self.thresholds.merge(other.thresholds);
        Arc::make_mut(&mut self.read_latency).merge(Arc::unwrap_or_clone(other.read_latency));
        Arc::make_mut(&mut self.write_latency).merge(Arc::unwrap_or_clone(other.write_latency));
        self.consistent_at_zero += other.consistent_at_zero;
    }

    /// The simulated configuration.
    pub fn config(&self) -> ReplicaConfig {
        self.cfg
    }

    /// Number of trials aggregated.
    pub fn trials(&self) -> usize {
        self.thresholds.count() as usize
    }

    /// `P(consistent)` for a read starting `t` ms after commit
    /// (t-visibility, Definition 3).
    ///
    /// `t = 0` (the paper's "immediate consistency") is **exact** — the
    /// `threshold ≤ 0` atom is counted outside the sketch — and for
    /// `t > 0` the exact atom lower-bounds the sketch CDF, so the curve
    /// stays monotone through the origin.
    pub fn prob_consistent(&self, t: f64) -> f64 {
        let atom = self.consistent_at_zero as f64 / self.trials() as f64;
        if t == 0.0 {
            atom
        } else if t > 0.0 {
            self.thresholds.cdf(t).max(atom)
        } else {
            self.thresholds.cdf(t).min(atom)
        }
    }

    /// Probability of *violating* t-visibility at offset `t` (`p_st`).
    pub fn violation(&self, t: f64) -> f64 {
        1.0 - self.prob_consistent(t)
    }

    /// Smallest `t ≥ 0` such that `P(consistent at t) ≥ p` — e.g.
    /// `t_at_probability(0.999)` is Table 4's "t-visibility for
    /// `p_st = .001`" — as a sketch quantile query (exact at `p = 1`,
    /// rank error ∝ 1/compression elsewhere, tightest at the tails).
    pub fn t_at_probability(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.thresholds.quantile(p).max(0.0)
    }

    /// ⟨k,t⟩-staleness violation probability under the paper's conservative
    /// Eq.-5 assumption (all `k` writes committed simultaneously):
    /// `violation(t)^k`. For the direct multi-write Monte Carlo see
    /// [`crate::kt`].
    pub fn kt_violation(&self, t: f64, k: u32) -> f64 {
        self.violation(t).powi(k as i32)
    }

    /// Read-latency percentile (`pct ∈ [0, 100]`).
    pub fn read_latency_percentile(&self, pct: f64) -> f64 {
        self.read_latency.percentile(pct)
    }

    /// Write-latency percentile (`pct ∈ [0, 100]`).
    pub fn write_latency_percentile(&self, pct: f64) -> f64 {
        self.write_latency.percentile(pct)
    }

    /// The streaming summary of per-trial staleness thresholds (for
    /// cross-validation and plotting).
    pub fn thresholds(&self) -> &Summary {
        &self.thresholds
    }

    /// The streaming summary of read operation latencies.
    pub fn read_latencies(&self) -> &Summary {
        &self.read_latency
    }

    /// The streaming summary of write operation latencies.
    pub fn write_latencies(&self) -> &Summary {
        &self.write_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::IidModel;
    use pbs_dist::{Constant, Exponential};
    use std::sync::Arc;

    fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
        ReplicaConfig::new(n, r, w).unwrap()
    }

    fn exp_model(c: ReplicaConfig, w_rate: f64, ars_rate: f64) -> IidModel {
        IidModel::w_ars(
            c,
            format!("Exp(w={w_rate},ars={ars_rate})"),
            Arc::new(Exponential::from_rate(w_rate)),
            Arc::new(Exponential::from_rate(ars_rate)),
        )
    }

    #[test]
    fn strict_quorum_always_consistent() {
        for (r, w) in [(2, 2), (1, 3), (3, 1)] {
            let m = exp_model(cfg(3, r, w), 0.1, 0.5);
            let tv = TVisibility::simulate(&m, 5_000, 7);
            assert_eq!(tv.prob_consistent(0.0), 1.0, "R={r} W={w}");
            assert_eq!(tv.t_at_probability(1.0), 0.0);
            assert!(tv.thresholds().max() <= 0.0);
        }
    }

    #[test]
    fn partial_quorum_eventually_consistent() {
        let m = exp_model(cfg(3, 1, 1), 0.1, 0.5);
        let tv = TVisibility::simulate(&m, 20_000, 11);
        let p0 = tv.prob_consistent(0.0);
        assert!(p0 < 1.0 && p0 > 0.2, "immediate consistency {p0}");
        // Monotone nondecreasing in t and → 1.
        let mut prev = 0.0;
        for i in 0..40 {
            let p = tv.prob_consistent(i as f64 * 5.0);
            assert!(p >= prev);
            prev = p;
        }
        assert!(tv.prob_consistent(200.0) > 0.999);
    }

    #[test]
    fn t_at_probability_inverts_curve() {
        let m = exp_model(cfg(3, 1, 1), 0.1, 0.5);
        let tv = TVisibility::simulate(&m, 50_000, 13);
        for &p in &[0.5, 0.9, 0.99, 0.999] {
            let t = tv.t_at_probability(p);
            // The sketch contract is rank error, tightening toward the
            // tails: the curve at the returned t must sit within half a
            // percentage point of p.
            assert!(
                (tv.prob_consistent(t) - p).abs() < 0.005,
                "p={p}: curve({t}) = {}",
                tv.prob_consistent(t)
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = exp_model(cfg(3, 1, 2), 0.2, 0.2);
        let a = TVisibility::simulate(&m, 2_000, 99);
        let b = TVisibility::simulate(&m, 2_000, 99);
        assert_eq!(a.thresholds(), b.thresholds());
        assert_eq!(a.read_latencies(), b.read_latencies());
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            assert_eq!(
                a.thresholds.quantile(q).to_bits(),
                b.thresholds.quantile(q).to_bits(),
                "q={q}"
            );
        }
    }

    #[test]
    fn parallel_matches_distribution() {
        let m = exp_model(cfg(3, 1, 1), 0.1, 0.5);
        let serial = TVisibility::simulate(&m, 40_000, 5);
        let par = TVisibility::simulate_parallel(&m, 40_000, 5, 4);
        assert_eq!(par.trials(), 40_000);
        // Same distribution statistically (not identical samples).
        for &p in &[0.5, 0.9, 0.99] {
            let a = serial.t_at_probability(p);
            let b = par.t_at_probability(p);
            assert!((a - b).abs() < 2.0 + 0.1 * a.max(b), "p={p}: {a} vs {b}");
        }
    }

    #[test]
    fn merge_combines_runs() {
        let m = exp_model(cfg(3, 1, 1), 0.1, 0.5);
        let mut a = TVisibility::simulate(&m, 20_000, 1);
        let b = TVisibility::simulate(&m, 20_000, 2);
        let p_a = a.prob_consistent(5.0);
        a.merge(b);
        assert_eq!(a.trials(), 40_000);
        assert!((a.prob_consistent(5.0) - p_a).abs() < 0.02);
    }

    #[test]
    fn constant_latency_threshold_exact() {
        // Deterministic delays: w=4, a=0 → commit at 4 for W=1 (all equal).
        // Reads reach replicas at commit + t + r. With w=4, r=1: replica has
        // the write at 4; read arrives at 4 + t + 1 ≥ 4 always → consistent.
        let m = IidModel::w_ars(
            cfg(3, 1, 1),
            "const",
            Arc::new(Constant::new(4.0)),
            Arc::new(Constant::new(1.0)),
        );
        let tv = TVisibility::simulate(&m, 100, 0);
        assert_eq!(tv.prob_consistent(0.0), 1.0);
        assert_eq!(tv.write_latency_percentile(50.0), 5.0);
        assert_eq!(tv.read_latency_percentile(99.0), 2.0);
    }

    #[test]
    fn faster_writes_improve_tvisibility() {
        // §5.3's headline effect: holding A=R=S fixed, slower/longer-tailed
        // writes worsen t-visibility.
        let fast = TVisibility::simulate(&exp_model(cfg(3, 1, 1), 4.0, 1.0), 30_000, 3);
        let slow = TVisibility::simulate(&exp_model(cfg(3, 1, 1), 0.1, 1.0), 30_000, 3);
        assert!(fast.prob_consistent(0.0) > slow.prob_consistent(0.0));
        assert!(fast.t_at_probability(0.999) < slow.t_at_probability(0.999));
    }

    #[test]
    fn kt_violation_exponentiates() {
        let m = exp_model(cfg(3, 1, 1), 0.1, 0.5);
        let tv = TVisibility::simulate(&m, 10_000, 21);
        let v = tv.violation(1.0);
        assert!((tv.kt_violation(1.0, 3) - v.powi(3)).abs() < 1e-12);
    }
}
