//! Direct multi-write ⟨k,t⟩-staleness Monte Carlo (§3.5 / §5.1).
//!
//! Equation 5 bounds ⟨k,t⟩-staleness by pessimistically assuming the last
//! `k` writes all committed simultaneously. This module simulates `k`
//! writes issued a fixed gap apart instead, yielding both the violation
//! probability and the full distribution of version staleness observed by
//! reads. A gap of 0 issues all `k` writes at once. §5.1's extension to a
//! *distribution* of write arrival times is not modelled: no program here
//! uses one. Trials run on the deterministic sharded [`pbs_mc::Runner`].

use crate::model::{LatencyModel, WarsSample};
use crate::trial::TrialScratch;
use pbs_mc::Runner;

/// Parameters for a ⟨k,t⟩ Monte Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct KtOptions {
    /// Staleness tolerance in versions (`k ≥ 1`).
    pub k: u32,
    /// Read offset after the newest write's commit, in ms.
    pub t_ms: f64,
    /// Gap between consecutive writes' issue times, in ms (`≥ 0`).
    pub gap_ms: f64,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Shards for the deterministic runner (1 = single-threaded; results
    /// are bit-reproducible for a fixed `(seed, threads)` pair).
    pub threads: usize,
}

/// Result of a ⟨k,t⟩ Monte Carlo run.
#[derive(Debug, Clone)]
pub struct KtResult {
    /// Probability that a read misses *all* of the last `k` versions —
    /// the ⟨k,t⟩-staleness violation probability.
    pub violation: f64,
    /// `versions_behind[j]` = fraction of reads returning a value exactly
    /// `j` versions behind the newest committed write, for `j < k`;
    /// `versions_behind[k]` aggregates "`k` or more versions behind".
    pub versions_behind: Vec<f64>,
    /// Trials run.
    pub trials: usize,
}

/// Per-shard reusable state for the ⟨k,t⟩ hot loop — allocated once per
/// shard, never per trial.
struct KtScratch {
    samples: Vec<WarsSample>,
    trial: TrialScratch,
}

impl KtScratch {
    fn new(k: usize) -> Self {
        Self {
            samples: (0..k).map(|_| WarsSample::default()).collect(),
            trial: TrialScratch::default(),
        }
    }
}

/// Run the direct ⟨k,t⟩ Monte Carlo.
///
/// Per trial: `k` writes are issued `gap_ms` apart; each write's
/// per-replica `W`/`A` delays come from a fresh model trial. A read
/// is issued `t` after the *newest* write commits, using the read legs
/// (`R`/`S`) of the newest sample so any per-operation structure (e.g. WAN
/// locality) is preserved — the newest write and its read are one ordinary
/// WARS trial, prepared by the trial kernel ([`TrialScratch::prepare`]). The
/// read returns the newest version visible on any of its first `R`
/// responders.
pub fn kt_violation_direct<M: LatencyModel + ?Sized>(model: &M, opts: KtOptions) -> KtResult {
    assert!(opts.k >= 1, "k must be at least 1");
    assert!(opts.trials > 0);
    assert!(opts.threads > 0);
    assert!(opts.t_ms >= 0.0);
    assert!(opts.gap_ms >= 0.0, "writes cannot be issued before the previous one");
    let cfg = model.config();
    let r_quorum = cfg.r() as usize;
    let w_quorum = cfg.w() as usize;
    let k = opts.k as usize;
    // Write issue times, oldest (= index 0) to newest (= k−1): the same in
    // every trial.
    let starts: Vec<f64> =
        std::iter::successors(Some(0.0), |s| Some(s + opts.gap_ms)).take(k).collect();

    let behind_counts: Vec<u64> =
        Runner::new(opts.trials, opts.seed, opts.threads).run(|rng, info| {
            let mut counts = vec![0u64; k + 1];
            let mut scratch = KtScratch::new(k);
            for _ in 0..info.trials {
                for s in scratch.samples.iter_mut() {
                    model.sample_trial(rng, s);
                }
                // The newest write and the read are one WARS trial: its
                // commit time, and its responders in arrival order.
                let newest = k - 1;
                let trial = scratch.trial.prepare(&scratch.samples[newest], r_quorum, w_quorum);
                let newest_commit = starts[newest] + trial.write_latency(w_quorum);
                let read_issue = newest_commit + opts.t_ms;
                let r = &scratch.samples[newest].r;

                // Newest version visible on any of the first R responders.
                let mut best: Option<usize> = None; // write index; larger = newer
                for &i in trial.responders(r_quorum) {
                    let read_arrival = read_issue + r[i];
                    for j in (0..k).rev() {
                        if best.is_some_and(|b| j <= b) {
                            break;
                        }
                        if starts[j] + scratch.samples[j].w[i] <= read_arrival {
                            best = Some(j);
                            break;
                        }
                    }
                }
                let behind = match best {
                    Some(j) => newest - j,
                    None => k, // missed all k sampled versions
                };
                counts[behind] += 1;
            }
            counts
        });

    let trials = opts.trials as f64;
    KtResult {
        violation: behind_counts[k] as f64 / trials,
        versions_behind: behind_counts.iter().map(|&c| c as f64 / trials).collect(),
        trials: opts.trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::IidModel;
    use crate::tvisibility::TVisibility;
    use pbs_core::ReplicaConfig;
    use pbs_dist::Exponential;
    use std::sync::Arc;

    fn model(n: u32, r: u32, w: u32) -> IidModel {
        IidModel::w_ars(
            ReplicaConfig::new(n, r, w).unwrap(),
            "exp",
            Arc::new(Exponential::from_rate(0.1)),
            Arc::new(Exponential::from_rate(0.5)),
        )
    }

    fn opts(k: u32, t_ms: f64, gap_ms: f64, trials: usize, seed: u64) -> KtOptions {
        KtOptions { k, t_ms, gap_ms, trials, seed, threads: 1 }
    }

    #[test]
    fn k1_matches_single_write_tvisibility() {
        // With k=1 the direct simulation reduces to ordinary t-visibility.
        let m = model(3, 1, 1);
        let t = 5.0;
        let direct = kt_violation_direct(&m, opts(1, t, 0.0, 60_000, 4));
        let tv = TVisibility::simulate(&m, 60_000, 4);
        let reference = tv.violation(t);
        assert!(
            (direct.violation - reference).abs() < 0.01,
            "direct {} vs tvisibility {}",
            direct.violation,
            reference
        );
    }

    #[test]
    fn violation_decreases_with_k() {
        let m = model(3, 1, 1);
        let mut prev = 1.0;
        for k in [1u32, 2, 4] {
            let res = kt_violation_direct(&m, opts(k, 0.0, 20.0, 30_000, 9));
            assert!(res.violation <= prev + 0.01, "k={k}");
            prev = res.violation;
        }
    }

    #[test]
    fn wide_spacing_beats_eq5_bound() {
        // With widely spaced writes the older versions have had time to
        // propagate, so the direct violation is at most the conservative
        // Eq.-5 bound (violation(t)^k with simultaneous commits).
        let m = model(3, 1, 1);
        let t = 1.0;
        let k = 3u32;
        let tv = TVisibility::simulate(&m, 60_000, 10);
        let bound = tv.kt_violation(t, k);
        let direct = kt_violation_direct(&m, opts(k, t, 50.0, 60_000, 10));
        assert!(
            direct.violation <= bound + 0.01,
            "direct {} should not exceed bound {}",
            direct.violation,
            bound
        );
    }

    #[test]
    fn versions_behind_is_distribution() {
        let m = model(3, 1, 1);
        let res = kt_violation_direct(&m, opts(4, 0.0, 10.0, 20_000, 2));
        let sum: f64 = res.versions_behind.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(res.versions_behind.len(), 5);
        assert!((res.versions_behind[4] - res.violation).abs() < 1e-12);
    }

    #[test]
    fn strict_quorum_never_violates() {
        let m = model(3, 2, 2);
        let res = kt_violation_direct(&m, opts(1, 0.0, 1.0, 5_000, 0));
        assert_eq!(res.violation, 0.0);
        assert_eq!(res.versions_behind[0], 1.0);
    }

    /// Pinned to the read (and so to the bit): moves if the trial stream,
    /// the draw order or either selection does.
    #[test]
    fn fixed_seed_golden() {
        let m = crate::production::lnkd_disk_model(ReplicaConfig::new(3, 1, 1).unwrap());
        let res = kt_violation_direct(
            &m,
            KtOptions {
                k: 3,
                t_ms: 1.0,
                gap_ms: 10.0,
                trials: 20_000,
                seed: 7,
                threads: 2,
            },
        );
        let behind = [11_691.0, 7_790.0, 509.0, 10.0].map(|reads| reads / 20_000.0);
        assert_eq!(res.versions_behind, behind);
        assert_eq!(res.violation.to_bits(), 0x3f40_624d_d2f1_a9fc, "{}", res.violation);
    }

    #[test]
    fn sharded_run_is_deterministic_and_statistically_equivalent() {
        let m = model(3, 1, 1);
        let mk = |threads| {
            kt_violation_direct(
                &m,
                KtOptions {
                    k: 2,
                    t_ms: 1.0,
                    gap_ms: 15.0,
                    trials: 40_000,
                    seed: 6,
                    threads,
                },
            )
        };
        let (a, b) = (mk(4), mk(4));
        assert_eq!(a.versions_behind, b.versions_behind, "bit-reproducible");
        let single = mk(1);
        assert!(
            (a.violation - single.violation).abs() < 0.01,
            "threads=4 {} vs threads=1 {}",
            a.violation,
            single.violation
        );
    }
}
