//! Cross-thread-count equivalence of the deterministic runner (the
//! `pbs-mc` contract, exercised through the WARS engine):
//!
//! 1. identical `(seed, threads)` pairs are **bit-reproducible**;
//! 2. different thread counts at the same total trial budget agree within
//!    Monte-Carlo tolerance (different shard RNG streams, same
//!    distribution).

use pbs_core::ReplicaConfig;
use pbs_wars::production::{exponential_model, lnkd_disk_model};
use pbs_wars::TVisibility;

fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
    ReplicaConfig::new(n, r, w).unwrap()
}

#[test]
fn identical_seed_threads_is_bit_reproducible() {
    let model = exponential_model(cfg(3, 1, 1), 0.1, 0.5);
    for threads in [1usize, 2, 4] {
        let a = TVisibility::simulate_parallel(&model, 30_000, 17, threads);
        let b = TVisibility::simulate_parallel(&model, 30_000, 17, threads);
        assert_eq!(a.trials(), 30_000);
        assert_eq!(a.thresholds(), b.thresholds(), "threads={threads}");
        assert_eq!(a.read_latencies(), b.read_latencies(), "threads={threads}");
        assert_eq!(a.write_latencies(), b.write_latencies(), "threads={threads}");
        // Query-level bit-equality over the full quantile and CDF grids.
        for i in 0..=1000 {
            let q = i as f64 / 1000.0;
            assert_eq!(
                a.t_at_probability(q).to_bits(),
                b.t_at_probability(q).to_bits(),
                "threads={threads}, q={q}"
            );
        }
        for t in 0..200 {
            let t = t as f64 * 0.5;
            assert_eq!(
                a.prob_consistent(t).to_bits(),
                b.prob_consistent(t).to_bits(),
                "threads={threads}, t={t}"
            );
        }
    }
}

#[test]
fn thread_counts_statistically_equivalent() {
    // Same total trials, threads=1 vs threads=4: estimates must agree
    // within Monte-Carlo tolerance. 3σ on p ≈ 0.5 at 200k trials is
    // ~0.0034; allow 0.01 across the full curve.
    let trials = 200_000;
    for model in [
        exponential_model(cfg(3, 1, 1), 0.1, 0.5),
        exponential_model(cfg(3, 1, 2), 0.05, 1.0),
    ] {
        let single = TVisibility::simulate_parallel(&model, trials, 23, 1);
        let sharded = TVisibility::simulate_parallel(&model, trials, 23, 4);
        assert_eq!(single.trials(), sharded.trials());
        for t in [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
            let (a, b) = (single.prob_consistent(t), sharded.prob_consistent(t));
            assert!((a - b).abs() < 0.01, "t={t}: threads=1 {a} vs threads=4 {b}");
        }
        // Inverse queries: mid-quantiles within value tolerance.
        for p in [0.5, 0.9, 0.99] {
            let a = single.t_at_probability(p);
            let b = sharded.t_at_probability(p);
            assert!(
                (a - b).abs() < 0.5 + 0.05 * a.max(b),
                "p={p}: threads=1 {a}ms vs threads=4 {b}ms"
            );
        }
        // Latency channels too.
        for pct in [50.0, 99.0] {
            let a = single.read_latency_percentile(pct);
            let b = sharded.read_latency_percentile(pct);
            assert!((a - b).abs() < 0.05 * a.max(1.0), "read p{pct}: {a} vs {b}");
        }
    }
}

#[test]
fn production_fit_parallel_equivalence() {
    // The heavy-tailed LNKD-DISK write mixture is the adversarial case for
    // sharded sketches (tail mass split across shards).
    let model = lnkd_disk_model(cfg(3, 1, 1));
    let single = TVisibility::simulate_parallel(&model, 150_000, 31, 1);
    let sharded = TVisibility::simulate_parallel(&model, 150_000, 31, 4);
    for t in [0.0, 5.0, 20.0, 60.0] {
        let (a, b) = (single.prob_consistent(t), sharded.prob_consistent(t));
        assert!((a - b).abs() < 0.01, "t={t}: {a} vs {b}");
    }
    let a = single.t_at_probability(0.999);
    let b = sharded.t_at_probability(0.999);
    assert!((a - b).abs() < 0.15 * a.max(b) + 1.0, "t@99.9%: {a} vs {b}");
}
