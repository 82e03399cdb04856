//! End-to-end consistency invariants of the Dynamo-style store, including
//! the read-repair and hinted-handoff ablations DESIGN.md calls out.
//! Mixed-traffic cases run on the open-loop client-actor engine.

use pbs::dist::{Constant, Exponential, Pareto};
use pbs::kvs::checker::check_run;
use pbs::kvs::cluster::{Cluster, ClusterOptions};
use pbs::kvs::experiments::measure_t_visibility;
use pbs::kvs::{ClientOptions, FaultProfile, NetworkModel, OpenLoopOptions, OpenLoopRun};
use pbs::math::ReplicaConfig;
use pbs::sim::SimTime;
use pbs::workload::{FixedRate, OpMix, OpSource, OpStream, Poisson, UniformKeys};
use std::sync::Arc;

fn net(w_mean: f64, ars_mean: f64) -> NetworkModel {
    NetworkModel::w_ars(
        Arc::new(Exponential::from_mean(w_mean)),
        Arc::new(Exponential::from_mean(ars_mean)),
    )
}

/// R + W > N ⇒ zero staleness, for every strict configuration at N=3, even
/// at t = 0 with adversarial (slow-write) latencies.
#[test]
fn strict_quorums_are_never_stale() {
    for (r, w) in [(1u32, 3u32), (2, 2), (3, 1), (3, 3), (2, 3)] {
        let cfg = ReplicaConfig::new(3, r, w).unwrap();
        let mut cluster = Cluster::new(ClusterOptions::validation(cfg, 31), net(20.0, 1.0));
        let m = measure_t_visibility(&mut cluster, 1, &[0.0], 500);
        assert_eq!(
            m.points[0].probability(),
            1.0,
            "strict R={r},W={w} returned stale data"
        );
    }
}

/// Partial quorums converge: staleness at t=0 is substantial with slow
/// writes, and vanishes by t ≫ the write tail.
#[test]
fn partial_quorums_converge() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let mut cluster = Cluster::new(ClusterOptions::validation(cfg, 32), net(10.0, 1.0));
    let m = measure_t_visibility(&mut cluster, 1, &[0.0, 100.0], 1_500);
    assert!(m.points[0].probability() < 0.9);
    assert!(m.points[1].probability() > 0.99);
}

/// Read repair ablation: with lossy write propagation and repeated reads of
/// the same keys, enabling read repair must improve consistency. Traffic is
/// open-loop: one write per 5 keys per 35 ms with six reads between writes,
/// generated lazily by an in-sim client.
#[test]
fn read_repair_improves_consistency_under_loss() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let run = |read_repair: bool| {
        let mut opts = ClusterOptions::validation(cfg, 33);
        opts.read_repair = read_repair;
        opts.op_timeout_ms = 10_000.0;
        let report = OpenLoopRun::new(
            opts,
            net(2.0, 1.0),
            OpenLoopOptions::new(5_250.0, 1_000.0, opts.op_timeout_ms),
            1,
            ClientOptions { op_timeout_ms: opts.op_timeout_ms, ..ClientOptions::default() },
        )
        .run(
            |_| -> Box<dyn OpSource> {
                Box::new(OpStream::new(
                    FixedRate::new(5.0),
                    UniformKeys::new(5),
                    OpMix::new(6.0 / 7.0),
                    1,
                ))
            },
            |cluster| {
                // Writes frequently miss replicas outright.
                let lossy = FaultProfile::new(33).with_drop(0.35);
                cluster.network().set_fault_profile(lossy).unwrap();
            },
        )
        .unwrap()
        .0;
        assert!(report.reads() > 500, "enough labelled reads to compare");
        report.consistency_rate()
    };
    let without = run(false);
    let with = run(true);
    assert!(
        with > without + 0.02,
        "read repair should help under loss: with={with} without={without}"
    );
}

/// Hinted-handoff ablation: a replica that was down during a write burst
/// catches up via hints after recovery; without hints (and without read
/// repair or anti-entropy) it stays behind indefinitely.
///
/// Note hints do not change *commit* availability here — with N=3 and W=2
/// the two healthy replicas still form the quorum; what hints provide is
/// convergence of the crashed replica (Dynamo §4.6).
#[test]
fn hinted_handoff_heals_crashed_replica() {
    let cfg = ReplicaConfig::new(3, 1, 2).unwrap();
    let keys: Vec<u64> = (0..12).collect();
    let run = |hinted: bool| -> usize {
        let mut opts = ClusterOptions::validation(cfg, 34);
        opts.hinted_handoff = hinted;
        opts.hint_timeout_ms = 50.0;
        opts.hint_flush_interval_ms = 100.0;
        let mut cluster = Cluster::new(opts, net(2.0, 1.0));
        // Node 1 is down for the whole write burst.
        cluster.crash_node_at(1, pbs::sim::SimTime::from_ms(0.0), 3_000.0);
        cluster.advance_to(pbs::sim::SimTime::from_ms(10.0));
        let mut latest = std::collections::HashMap::new();
        for &key in &keys {
            // Healthy coordinator (node 1 would drop client requests).
            let w = cluster.write_from(0, key);
            assert!(w.commit.is_some(), "two healthy replicas still commit W=2");
            latest.insert(key, w.seq.expect("committed"));
        }
        // Recovery + generous settle for hint flushes.
        let settle = cluster.now() + pbs::sim::SimDuration::from_ms(10_000.0);
        cluster.advance_to(settle);
        keys.iter()
            .filter(|&&key| {
                cluster.ring().is_replica(key, 1)
                    && cluster.node(1).stored_version(key).map(|v| v.seq) == latest.get(&key).copied()
            })
            .count()
    };
    let caught_up_without = run(false);
    let caught_up_with = run(true);
    assert!(
        caught_up_with > caught_up_without,
        "hints must heal the crashed replica: with={caught_up_with} without={caught_up_without}"
    );
    assert_eq!(caught_up_without, 0, "no healing path exists without hints");
}

/// Dense per-key versions survive concurrent open-loop mixed traffic:
/// every read returns a version that was actually written, and the online
/// (watermark-labelled) ground truth is internally consistent window by
/// window.
#[test]
fn open_loop_labels_are_internally_consistent() {
    let cfg = ReplicaConfig::new(3, 2, 1).unwrap();
    let mut opts = ClusterOptions::validation(cfg, 35);
    opts.op_timeout_ms = 5_000.0;
    let mut cluster = Cluster::new(opts, net(5.0, 1.0));
    for _ in 0..4 {
        cluster.add_client(
            Box::new(OpStream::new(
                FixedRate::new(8.0),
                UniformKeys::new(3),
                OpMix::new(0.75),
                1,
            )),
            ClientOptions { op_timeout_ms: opts.op_timeout_ms, ..ClientOptions::default() },
        );
    }
    cluster.start_clients();
    let mut labelled = 0usize;
    let mut writes = 0usize;
    for window in 1..=8u32 {
        let drain = cluster.drain_window(pbs::sim::SimTime::from_ms(window as f64 * 500.0));
        writes += drain.writes.len();
        for w in &drain.writes {
            assert!(w.commit.is_some(), "reliable network: every write commits");
            assert!(w.seq.unwrap() >= 1, "coordinator sequences are 1-based");
        }
        for r in &drain.reads {
            let label = r.label.expect("reliable network: every read completes");
            labelled += 1;
            if let Some(seq) = r.op.seq {
                assert!(seq >= 1, "returned versions are 1-based");
            }
            if label.consistent {
                assert_eq!(label.versions_behind, 0);
            } else {
                assert!(label.versions_behind >= 1);
            }
        }
    }
    assert!(labelled > 1_000, "got {labelled} labelled reads");
    assert!(writes > 300, "got {writes} writes");
    // The watermark advanced with the drains and nothing is stuck pending.
    assert_eq!(cluster.ground_truth().pending_commits(), 0);
    assert_eq!(cluster.ground_truth().watermark(), pbs::sim::SimTime::from_ms(4_000.0));
}

/// A strict quorum stays strict on an at-least-once network: under nothing
/// but message duplication (every other message arrives twice), each read
/// of an N=3, R=W=2 store completes on two *distinct* replicas and none is
/// stale. Before the coordinator ignored a second response from one
/// replica, about a third of these reads completed on a single replica
/// and some of those returned stale data.
#[test]
fn duplicated_responses_do_not_count_twice_toward_a_strict_quorum() {
    let cfg = ReplicaConfig::new(3, 2, 2).unwrap();
    let mut cluster = Cluster::new(ClusterOptions::validation(cfg, 36), net(5.0, 1.0));
    cluster.network().set_fault_profile(FaultProfile::new(36).with_duplicate(0.5)).unwrap();
    for _ in 0..16 {
        let source =
            OpStream::new(Poisson::per_second(400.0), UniformKeys::new(8), OpMix::new(0.5), 1);
        cluster.add_client(Box::new(source), ClientOptions::default());
    }
    cluster.start_clients();
    let (mut reads, mut stale, mut short) = (0, 0, 0);
    for window in 1..=6u32 {
        let drain = cluster.drain_window(SimTime::from_ms(f64::from(window) * 500.0));
        for read in drain.reads.iter().filter(|r| r.op.finish.is_some()) {
            reads += 1;
            stale += usize::from(!read.consistent());
            short += usize::from(read.op.quorum_mask.count_ones() < 2);
        }
    }
    assert!(reads > 5_000, "only {reads} reads completed");
    assert_eq!((short, stale), (0, 0), "of {reads} reads: short quorums, stale returns");
}

/// Anti-entropy keeps its cadence across a crash shorter than its period:
/// the tick armed before the crash still fires after recovery, so recovery
/// must not start a second chain beside it. (It did: one 100 ms crash at
/// 600 ms and the node ran 40 rounds in 20 s where its peers ran 20.)
#[test]
fn a_short_crash_does_not_double_the_anti_entropy_cadence() {
    let mut opts = ClusterOptions::validation(ReplicaConfig::new(3, 2, 2).unwrap(), 37);
    opts.sync_interval_ms = Some(1_000.0);
    let leg = || Arc::new(Constant::new(1.0));
    let mut cluster = Cluster::new(opts, NetworkModel::w_ars(leg(), leg()));
    cluster.crash_node_at(0, SimTime::from_ms(600.0), 100.0);
    cluster.advance_to(SimTime::from_ms(20_000.0));
    let [crashed, a, b] = [0, 1, 2].map(|node| cluster.node(node).sync_rounds);
    assert!((19..=20).contains(&a) && a == b, "peers ran {a} and {b} rounds");
    assert!(crashed.abs_diff(a) <= 1, "the crashed node ran {crashed} rounds, its peers {a}");
}

/// Strict quorums are regular under every fault the store claims to
/// survive, and not linearizable: each strict `(R, W)` at N=3 on 8 nodes,
/// healing off and on, 16 seeds of `FaultProfile::storm` (drops,
/// duplicates, reorders, slow nodes, disk lag, clock skew) with a
/// non-wiping crash mid-run. No read is older than the newest write
/// committed before it began and none returns a version nobody wrote —
/// while WGL convicts reads across the sweep, the new-old inversions a
/// partial write leaves behind.
#[test]
fn strict_quorums_are_regular_under_the_storm_and_not_linearizable() {
    let (mut labelled, mut wgl_violations) = (0, 0);
    for (r, w) in [(2u32, 2u32), (1, 3), (3, 1), (2, 3)] {
        for seed in 1..=16u64 {
            let healing = seed % 2 == 0;
            let mut opts = ClusterOptions::validation(ReplicaConfig::new(3, r, w).unwrap(), seed);
            opts.nodes = 8;
            opts.op_timeout_ms = 2_000.0;
            opts.read_repair = healing;
            opts.hinted_handoff = healing;
            let (w_leg, ars_legs) = (Pareto::new(1.5, 1.2), Pareto::new(0.8, 2.0));
            let legs = NetworkModel::w_ars(Arc::new(w_leg), Arc::new(ars_legs));
            let mut cluster = Cluster::new(opts, legs);
            cluster.enable_history();
            cluster.network().set_fault_profile(FaultProfile::storm(seed)).unwrap();
            cluster.crash_node_at((seed % 8) as usize, SimTime::from_ms(1_500.0), 1_200.0);
            for _ in 0..16 {
                let (arrivals, keys) = (Poisson::per_second(60.0), UniformKeys::new(64));
                let source = OpStream::new(arrivals, keys, OpMix::new(0.5), 1);
                let copts = ClientOptions { op_timeout_ms: 2_000.0, ..ClientOptions::default() };
                cluster.add_client(Box::new(source), copts);
            }
            cluster.start_clients();
            cluster.drain_window(SimTime::from_ms(4_000.0));
            cluster.stop_clients();
            cluster.drain_window(SimTime::from_ms(6_500.0));
            let check = check_run(&cluster.take_history(), &cluster, false);
            let run = format!("R={r} W={w} seed {seed}");
            assert_eq!(check.regular(), Some(true), "{run}: {:?} {:?}", check.labels, check.order);
            assert!(check.is_clean(), "{run}: {check:?}");
            labelled += check.labels.labelled_reads;
            wgl_violations += check.lin.violation_count();
        }
    }
    assert!(labelled > 50_000, "only {labelled} labelled reads");
    assert!(wgl_violations > 0, "no WGL violation in {labelled} reads: the storm went soft");
}
