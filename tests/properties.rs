//! Cross-crate property tests: randomized configurations and latency
//! models must preserve the paper's structural invariants.

use pbs::dist::{Exponential, Pareto};
use pbs::kvs::cluster::{Cluster, ClusterOptions, EngineKind};
use pbs::kvs::{
    CheckReport, ClientOptions, FaultProfile, NetworkModel, OpenLoopOptions, OpenLoopRun,
};
use pbs::sim::SimTime;
use pbs::math::{staleness, ReplicaConfig};
use pbs::wars::production::exponential_model;
use pbs::wars::TVisibility;
use pbs::workload::{OpMix, OpSource, OpStream, Poisson, UniformKeys};
use proptest::prelude::*;
use std::sync::Arc;

fn any_config(max_n: u32) -> impl Strategy<Value = ReplicaConfig> {
    (2u32..=max_n).prop_flat_map(|n| {
        (Just(n), 1u32..=n, 1u32..=n)
            .prop_map(|(n, r, w)| ReplicaConfig::new(n, r, w).expect("valid"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// WARS t-visibility curves are monotone, bounded by Eq. 1, and invert
    /// correctly — for random configurations and random latency scales.
    #[test]
    fn wars_curve_invariants(cfg in any_config(6), w_mean in 0.5f64..30.0, ars_mean in 0.5f64..10.0) {
        let model = exponential_model(cfg, 1.0 / w_mean, 1.0 / ars_mean);
        let tv = TVisibility::simulate(&model, 6_000, 11);
        let bound = staleness::non_intersection_probability(cfg);
        let mut prev = 0.0;
        for i in 0..12 {
            let t = i as f64 * w_mean;
            let p = tv.prob_consistent(t);
            prop_assert!(p >= prev - 1e-12, "monotone");
            prop_assert!(1.0 - p <= bound + 0.03, "frozen bound");
            prev = p;
        }
        let t = tv.t_at_probability(0.9);
        prop_assert!(tv.prob_consistent(t) >= 0.9);
    }

    /// The live store never violates strict-quorum consistency, regardless
    /// of configuration or latency scales.
    #[test]
    fn kvs_strict_quorum_always_consistent(
        n in 2u32..=5,
        seed in 0u64..1000,
        w_mean in 1.0f64..20.0,
    ) {
        // Derive a strict (R, W) for this N.
        let r = n / 2 + 1;
        let w = n - r + 1; // R + W = N + 1 > N
        let cfg = ReplicaConfig::new(n, r, w).expect("valid strict config");
        prop_assert!(cfg.is_strict());
        let mut cluster = Cluster::new(
            ClusterOptions::validation(cfg, seed),
            NetworkModel::w_ars(
                Arc::new(Exponential::from_mean(w_mean)),
                Arc::new(Exponential::from_mean(1.0)),
            ),
        );
        for key in 0..10u64 {
            let wr = cluster.write(key);
            let commit = wr.commit.expect("writes commit");
            let rd = cluster.read_at(key, commit);
            prop_assert!(rd.consistent(), "stale read on {cfg} key {key}");
            prop_assert_eq!(rd.op.seq, wr.seq);
        }
    }

    /// Timestamp versioning: sequential writes to one key return strictly
    /// increasing sequence numbers (the write-start instant + 1), and a
    /// full-quorum read sees the last.
    #[test]
    fn kvs_versions_monotone(seed in 0u64..1000) {
        let cfg = ReplicaConfig::new(3, 3, 1).unwrap();
        let mut cluster = Cluster::new(
            ClusterOptions::validation(cfg, seed),
            NetworkModel::w_ars(
                Arc::new(Exponential::from_mean(3.0)),
                Arc::new(Exponential::from_mean(1.0)),
            ),
        );
        let mut prev = 0;
        for _ in 0..8 {
            let w = cluster.write(5);
            let seq = w.seq.expect("the coordinator reported back");
            prop_assert_eq!(seq, w.start.as_nanos() + 1);
            prop_assert!(seq > prev, "write-start timestamps strictly increase");
            prev = seq;
        }
        // R = N read after settling sees the newest version.
        let settle = cluster.now() + pbs::sim::SimDuration::from_ms(1_000.0);
        cluster.advance_to(settle);
        let r = cluster.read(5);
        prop_assert_eq!(r.op.seq, Some(prev));
    }

    /// Monotonic-reads violation never exceeds the plain non-intersection
    /// probability and decreases as the client reads more often.
    #[test]
    fn monotonic_reads_ordering(cfg in any_config(8), gw in 0.01f64..100.0) {
        let slow_reader = staleness::monotonic_reads_violation(cfg, gw, 0.1);
        let fast_reader = staleness::monotonic_reads_violation(cfg, gw, 100.0);
        let eq1 = staleness::non_intersection_probability(cfg);
        prop_assert!(slow_reader <= fast_reader + 1e-12);
        prop_assert!(fast_reader <= eq1 + 1e-12);
    }
}

/// A small checked open-loop run on the given engine; `prepare` runs on the
/// fresh cluster before load starts (faults, crashes).
fn lin_run(
    kind: EngineKind,
    cfg: ReplicaConfig,
    net: &NetworkModel,
    seed: u64,
    prepare: impl FnOnce(&mut Cluster),
) -> CheckReport {
    let mut o = ClusterOptions::validation(cfg, seed);
    o.nodes = 6;
    let source = |_: u32| -> Box<dyn OpSource> {
        Box::new(OpStream::new(Poisson::per_second(25.0), UniformKeys::new(8), OpMix::new(0.5), 1))
    };
    OpenLoopRun::new(
        o,
        net.clone(),
        OpenLoopOptions::new(800.0, 400.0, 1_000.0),
        4,
        ClientOptions::default(),
    )
    .on(kind)
    .run_checked(source, prepare)
    .expect("model partitions cleanly")
    .1
}

/// The sweep's network and, per seed, its strict majority config:
/// N in 2..=5, majority R, matching W.
fn sweep_net() -> NetworkModel {
    NetworkModel::w_ars(
        Arc::new(Exponential::from_mean(4.0)),
        Arc::new(Exponential::from_mean(1.0)),
    )
}

fn strict_cfg(seed: u64) -> ReplicaConfig {
    let n = 2 + (seed % 4) as u32;
    let r = n / 2 + 1;
    let cfg = ReplicaConfig::new(n, r, n - r + 1).expect("valid strict config");
    assert!(cfg.is_strict());
    cfg
}

/// Property over the seed space, run as a *fixed* sweep rather than a
/// proptest draw: Dynamo-style R+W>N quorums are regular, not strictly
/// atomic — a read racing an in-flight write can legally invert — so a
/// freshly-randomized seed each run could flake on behaviour that is not
/// a bug. 64 fixed seeds × every strict majority config for N ≤ 5, no
/// faults, serial engine: every key must verify `Linearizable`.
#[test]
fn strict_quorum_open_loop_linearizable_across_64_seeds() {
    let net = sweep_net();
    for seed in 0..64u64 {
        let cfg = strict_cfg(seed);
        let check = lin_run(EngineKind::Serial, cfg, &net, seed, |_| {});
        assert!(check.is_clean(), "seed {seed} {cfg}: {check:?}");
        assert!(
            check.lin.all_linearizable(),
            "seed {seed} {cfg} not linearizable: {:?}",
            check.lin
        );
        assert!(check.lin.ops_checked > 0, "seed {seed}: empty history proves nothing");
    }
}

/// The same 64 seeds under `FaultProfile::storm` plus one non-wiping
/// crash: strict quorums need not stay linearizable there, but every run
/// must stay regular — no read older than the newest write completed
/// before it began, none returning a write invoked after it finished.
#[test]
fn strict_quorum_open_loop_regular_under_the_storm_across_64_seeds() {
    let net = sweep_net();
    let mut labelled = 0;
    for seed in 0..64u64 {
        let cfg = strict_cfg(seed);
        let check = lin_run(EngineKind::Serial, cfg, &net, seed, |cluster| {
            cluster.network().set_fault_profile(FaultProfile::storm(seed)).unwrap();
            cluster.crash_node_at((seed % 6) as usize, SimTime::from_ms(300.0), 200.0);
        });
        assert!(check.is_clean(), "seed {seed} {cfg}: {check:?}");
        assert_eq!(check.regular(), Some(true), "seed {seed} {cfg}: {check:?}");
        labelled += check.labels.labelled_reads;
    }
    assert!(labelled > 0, "the storm sweep labelled no reads");
}

/// The checker is deterministic across PDES parallelism: 1-worker and
/// 4-worker runs of the same seed produce bitwise-identical `LinCheck`s
/// (violation windows included), on both partitioned engines.
#[test]
fn lin_check_identical_across_pdes_worker_counts() {
    let cfg = ReplicaConfig::new(3, 2, 2).unwrap();
    // Positive-minimum legs, as the parallel engine's lookahead requires.
    let net = NetworkModel::w_ars(Arc::new(Pareto::new(1.5, 1.2)), Arc::new(Pareto::new(0.8, 2.0)));
    for seed in [3u64, 17] {
        let base = lin_run(EngineKind::SerialPartitioned { workers: 1 }, cfg, &net, seed, |_| {});
        for kind in [
            EngineKind::SerialPartitioned { workers: 4 },
            EngineKind::Parallel { workers: 1 },
            EngineKind::Parallel { workers: 4 },
        ] {
            let other = lin_run(kind, cfg, &net, seed, |_| {});
            assert_eq!(base.lin, other.lin, "seed {seed} {kind:?} diverged");
            assert_eq!(base, other, "seed {seed} {kind:?}: full report diverged");
        }
    }
}
