//! Serial-vs-parallel equivalence of the in-cluster simulation.
//!
//! The conservative parallel engine must be **invisible** in the results:
//! a `W`-worker run and a serial run over the same partition plan must
//! produce the identical operation history (diffed through the checker's
//! `OpHistory`) and identical streaming counters, clean or under a
//! buggify storm — and every `(seed, workers)` pair must be bitwise
//! reproducible.

use pbs::dist::{Exponential, Pareto};
use pbs::kvs::checker::{CheckReport, OpHistory};
use pbs::kvs::cluster::{Cluster, ClusterOptions, EngineKind};
use pbs::kvs::{
    ClientOptions, FaultProfile, FaultSchedule, NetworkModel, OpenLoopOptions, OpenLoopReport,
    OpenLoopRun,
};
use pbs::math::ReplicaConfig;
use pbs::sim::PdesError;
use pbs::workload::{OpMix, OpSource, OpStream, Poisson, UniformKeys};
use std::sync::Arc;

/// Heavy-tailed legs with a positive support minimum (Pareto `xm`), as the
/// parallel engine requires: the lookahead is the A/R/S scale, 0.8 ms.
fn pareto_net() -> NetworkModel {
    NetworkModel::w_ars(Arc::new(Pareto::new(1.5, 1.2)), Arc::new(Pareto::new(0.8, 2.0)))
}

fn opts(seed: u64) -> ClusterOptions {
    let mut o = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).unwrap(), seed);
    o.nodes = 8;
    o.op_timeout_ms = 2_000.0;
    o
}

fn source(seed_rate: f64) -> Box<dyn OpSource> {
    Box::new(OpStream::new(
        Poisson::per_second(seed_rate),
        UniformKeys::new(8),
        OpMix::new(0.5),
        1,
    ))
}

/// The 6-client, 1.2 s workload every test here runs, on the given engine.
fn workload(kind: EngineKind, seed: u64) -> OpenLoopRun {
    OpenLoopRun::new(
        opts(seed),
        pareto_net(),
        OpenLoopOptions::new(1_200.0, 300.0, 1_500.0),
        6,
        ClientOptions { op_timeout_ms: 2_000.0, ..ClientOptions::default() },
    )
    .on(kind)
}

/// One open-loop run on the given engine, returning the report and the
/// recorded history; `storm` installs the all-faults buggify preset and a
/// mid-run crash before load starts.
fn run(kind: EngineKind, seed: u64, storm: bool) -> (OpenLoopReport, OpHistory) {
    let (report, check, history) = workload(kind, seed)
        .run_checked(
            |_| source(30.0),
            |cluster| {
                if storm {
                    cluster.network().set_fault_profile(FaultProfile::storm(seed)).unwrap();
                    cluster.crash_node_at(2, pbs::sim::SimTime::from_ms(400.0), 300.0);
                }
            },
        )
        .expect("positive-minimum model partitions cleanly");
    assert!(check.is_clean(), "checker oracle disagreed with the streaming engine: {check:?}");
    (report, history)
}

/// The tentpole invariant: for each worker count, the parallel engine's
/// op history and report are identical to a serial run over the same
/// partition plan — verified through the checker oracle on both sides.
#[test]
fn parallel_history_matches_serial_clean() {
    for workers in [1usize, 2, 4] {
        let (serial_report, serial_hist) =
            run(EngineKind::SerialPartitioned { workers }, 17, false);
        let (par_report, par_hist) = run(EngineKind::Parallel { workers }, 17, false);
        assert_eq!(serial_hist, par_hist, "{workers}-worker history diverged from serial");
        assert_eq!(serial_report, par_report, "{workers}-worker counters diverged");
        assert!(par_report.clients.issued > 100, "workload too small to be meaningful");
    }
}

/// A one-partition plan is the unrestricted coordinator pick, so the
/// plain serial engine and the partitioned ones agree exactly.
#[test]
fn one_partition_reproduces_the_plain_serial_run() {
    let (plain_report, plain_hist) = run(EngineKind::Serial, 23, false);
    let (sp_report, sp_hist) = run(EngineKind::SerialPartitioned { workers: 1 }, 23, false);
    let (par_report, par_hist) = run(EngineKind::Parallel { workers: 1 }, 23, false);
    assert_eq!(plain_hist, sp_hist);
    assert_eq!(plain_report, sp_report);
    assert_eq!(plain_hist, par_hist);
    assert_eq!(plain_report, par_report);
}

/// Equivalence must survive the everything-at-once buggify storm plus a
/// mid-run crash: drops, duplicates, reorders, slow nodes, disk lag, and
/// clock drift are all sender- or node-local decisions, so partitioning
/// cannot perturb them.
#[test]
fn parallel_history_matches_serial_under_buggify_storm() {
    for workers in [2usize, 4] {
        let (serial_report, serial_hist) =
            run(EngineKind::SerialPartitioned { workers }, 29, true);
        let (par_report, par_hist) = run(EngineKind::Parallel { workers }, 29, true);
        assert_eq!(serial_hist, par_hist, "storm: {workers}-worker history diverged");
        assert_eq!(serial_report, par_report, "storm: {workers}-worker counters diverged");
        // The storm must actually bite for this to mean anything.
        assert!(
            par_report.failed_writes() + par_report.incomplete_reads() > 0
                || par_report.consistency_rate() < 1.0,
            "storm run suspiciously clean: {par_report:?}"
        );
    }
}

/// One open-loop run under a **scheduled** storm (calm 0–300 ms, full
/// storm 300–900 ms, calm tail) plus a mid-storm crash, returning the
/// report, the history, and the complete checker verdict — order oracle
/// included.
fn run_scheduled(kind: EngineKind, seed: u64) -> (OpenLoopReport, OpHistory, CheckReport) {
    let (report, check, history) = workload(kind, seed)
        .run_checked(
            |_| source(30.0),
            |cluster| {
                cluster
                    .network()
                    .set_fault_schedule(FaultSchedule::calm_storm_calm(
                        FaultProfile::storm(seed),
                        300.0,
                        900.0,
                    ))
                    .unwrap();
                cluster.crash_node_at(2, pbs::sim::SimTime::from_ms(400.0), 300.0);
            },
        )
        .expect("positive-minimum model partitions cleanly");
    (report, history, check)
}

/// The adversarial audit across engines: under a scheduled storm with a
/// mid-storm crash, every worker count must produce the identical op
/// history **and the identical full `CheckReport`** — session counters,
/// label recount, and the per-key order oracle — and that report must be
/// clean (the oracle never false-positives on fault-induced staleness).
#[test]
fn scheduled_storm_order_oracle_agrees_across_engines() {
    for workers in [1usize, 2, 4] {
        let (serial_report, serial_hist, serial_check) =
            run_scheduled(EngineKind::SerialPartitioned { workers }, 41);
        let (par_report, par_hist, par_check) =
            run_scheduled(EngineKind::Parallel { workers }, 41);
        assert_eq!(serial_hist, par_hist, "{workers}-worker scheduled-storm history diverged");
        assert_eq!(serial_report, par_report, "{workers}-worker counters diverged");
        assert_eq!(
            serial_check, par_check,
            "{workers}-worker CheckReport diverged from serial"
        );
        assert!(
            par_check.is_clean(),
            "order oracle false-positived under the scheduled storm: {par_check:?}"
        );
        assert!(par_check.order.reads_checked > 100, "audit too small to be meaningful");
        assert!(par_check.order.writes_tracked > 50);
        // The storm window must actually bite for the cleanliness claim
        // to carry weight.
        assert!(
            par_report.failed_writes() + par_report.incomplete_reads() > 0
                || par_report.consistency_rate() < 1.0,
            "scheduled storm suspiciously clean: {par_report:?}"
        );
    }
}

/// Bitwise reproducibility per `(seed, workers)`: the paper's whole
/// methodology rests on reproducible runs, and threads must not cost it.
#[test]
fn parallel_runs_are_bit_reproducible_per_seed_and_workers() {
    for workers in [1usize, 2, 4] {
        let (a_report, a_hist) = run(EngineKind::Parallel { workers }, 31, false);
        let (b_report, b_hist) = run(EngineKind::Parallel { workers }, 31, false);
        assert_eq!(a_hist, b_hist, "{workers}-worker rerun diverged");
        assert_eq!(a_report, b_report);
    }
    let (x, _) = run(EngineKind::Parallel { workers: 2 }, 31, false);
    let (y, _) = run(EngineKind::Parallel { workers: 2 }, 32, false);
    assert_ne!(x, y, "different seeds must differ");
}

/// A latency model whose support minimum is zero (exponential legs can be
/// arbitrarily fast) cannot bound cross-partition delays: the engine must
/// reject it with a typed error at partition time, not deadlock or creep.
#[test]
fn zero_minimum_latency_model_is_rejected_at_partition_time() {
    let exp_net = NetworkModel::w_ars(
        Arc::new(Exponential::from_mean(5.0)),
        Arc::new(Exponential::from_mean(1.0)),
    );
    let err = Cluster::with_engine(opts(1), exp_net.clone(), EngineKind::Parallel { workers: 2 })
        .expect_err("exponential legs have a zero support minimum");
    assert_eq!(err, PdesError::DegenerateLookahead { lookahead_ms: 0.0 });

    let err = OpenLoopRun::new(
        opts(1),
        exp_net.clone(),
        OpenLoopOptions::new(500.0, 250.0, 500.0),
        2,
        ClientOptions::default(),
    )
    .on(EngineKind::Parallel { workers: 2 })
    .run(|_| source(10.0), |_| {})
    .expect_err("the open-loop entry point surfaces the same typed error");
    assert!(matches!(err, PdesError::DegenerateLookahead { .. }));

    // The serial engines accept the very same model.
    assert!(Cluster::with_engine(opts(1), exp_net, EngineKind::Serial).is_ok());
}

/// Partition-plan structure at the cluster level: every node in exactly
/// one partition, replica sets free to span partitions, and a live
/// `set_replication` ring rebuild leaves the plan untouched.
#[test]
fn partition_plan_covers_nodes_and_survives_replication_changes() {
    let mut cluster = Cluster::with_engine(
        opts(5),
        pareto_net(),
        EngineKind::SerialPartitioned { workers: 3 },
    )
    .unwrap();
    let plan = cluster.partition_plan().clone();
    assert_eq!(plan.workers(), 3);

    let mut owner = vec![None; 8];
    for w in 0..3 {
        for node in plan.node_range(w) {
            assert!(owner[node].is_none(), "node {node} owned twice");
            owner[node] = Some(w);
        }
    }
    assert!(owner.iter().all(Option::is_some), "uncovered node: {owner:?}");

    // With 8 nodes in 3 partitions and N=3 replica sets off the hash
    // ring, some key's replicas must straddle a partition boundary —
    // replica placement is *not* constrained by the plan.
    let spans = (0..200u64).any(|key| {
        let partitions: Vec<usize> = cluster
            .replicas_of(key)
            .iter()
            .map(|&n| plan.worker_of_node(n as u32))
            .collect();
        partitions.iter().any(|&p| p != partitions[0])
    });
    assert!(spans, "no replica set spans partitions — the test lost its teeth");

    // A live N change rebuilds the ring but never the partition plan.
    cluster.set_replication(ReplicaConfig::new(5, 2, 4).unwrap());
    assert_eq!(cluster.partition_plan(), &plan, "plan must survive a ring rebuild");
    for key in 0..50u64 {
        let reps = cluster.replicas_of(key);
        assert_eq!(reps.len(), 5, "new replication factor in effect");
        assert!(reps.iter().all(|&n| n < 8));
    }
}
