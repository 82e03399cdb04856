//! Scenario event semantics against a live cluster: partitions heal,
//! crashes recover in order, regime swaps take effect at the scheduled
//! simulated time, and whole runs are bit-reproducible.

use pbs_core::ReplicaConfig;
use pbs_dist::Constant;
use pbs_kvs::{Cluster, ClusterOptions, NetworkModel};
use pbs_scenario::{
    apply_event, run_scenario, run_scenario_sharded, Scenario, ScenarioEvent, TimedEvent,
};
use pbs_sim::SimTime;
use std::sync::Arc;

fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
    ReplicaConfig::new(n, r, w).unwrap()
}

fn constant_cluster(replication: ReplicaConfig, seed: u64, timeout_ms: f64) -> Cluster {
    let mut opts = ClusterOptions::validation(replication, seed);
    opts.op_timeout_ms = timeout_ms;
    Cluster::new(
        opts,
        NetworkModel::w_ars(Arc::new(Constant::new(1.0)), Arc::new(Constant::new(1.0))),
    )
}

#[test]
fn partition_heal_restores_delivery() {
    let mut cluster = constant_cluster(cfg(3, 1, 3), 1, 300.0);
    apply_event(&mut cluster, &ScenarioEvent::Partition { groups: vec![0, 0, 1] }).unwrap();
    let w = cluster.write_from(0, 7);
    assert!(w.commit.is_none(), "W=3 cannot commit across the partition");
    apply_event(&mut cluster, &ScenarioEvent::HealPartition).unwrap();
    let w = cluster.write_from(0, 7);
    assert!(w.commit.is_some(), "healing restores full delivery");
    let r = cluster.read(7);
    assert!(r.consistent());
    // The replica that sat behind the partition holds the healed write.
    assert_eq!(cluster.node(2).stored_version(7).map(|v| v.seq), w.seq);
}

#[test]
fn crash_recover_ordering() {
    let mut cluster = constant_cluster(cfg(3, 1, 3), 2, 300.0);
    cluster.advance_to(SimTime::from_ms(100.0));
    apply_event(&mut cluster, &ScenarioEvent::Crash { node: 1, down_ms: 500.0 }).unwrap();
    cluster.advance_to(SimTime::from_ms(101.0));
    assert!(cluster.node(1).is_down(), "crash takes effect at its scheduled time");
    let w = cluster.write_from(0, 3);
    assert!(w.commit.is_none(), "W=3 fails while a replica is down");
    // Recovery happens exactly `down_ms` after the crash instant.
    cluster.advance_to(SimTime::from_ms(599.0));
    assert!(cluster.node(1).is_down());
    cluster.advance_to(SimTime::from_ms(601.0));
    assert!(!cluster.node(1).is_down(), "recovered after down_ms");
    let w = cluster.write_from(0, 3);
    assert!(w.commit.is_some(), "full quorum available again");
}

#[test]
fn regime_swap_takes_effect_at_scheduled_simtime() {
    // Constant 1ms legs: a W=3 write commits exactly 2ms after issue
    // (W leg + A leg). After the swap to 5ms legs at t=100, exactly 10ms.
    let mut cluster = constant_cluster(cfg(3, 1, 3), 3, 60_000.0);
    let w = cluster.write_from(0, 1);
    assert_eq!(w.latency_ms(), Some(2.0));

    cluster.advance_to(SimTime::from_ms(100.0));
    apply_event(
        &mut cluster,
        &ScenarioEvent::SwapRegime {
            w: Arc::new(Constant::new(5.0)),
            a: Arc::new(Constant::new(5.0)),
            r: Arc::new(Constant::new(5.0)),
            s: Arc::new(Constant::new(5.0)),
        },
    )
    .unwrap();
    assert_eq!(cluster.now(), SimTime::from_ms(100.0), "swap applied at the scheduled instant");
    let w = cluster.write_from(0, 1);
    assert_eq!(w.start, SimTime::from_ms(100.0));
    assert_eq!(w.latency_ms(), Some(10.0), "new regime governs sends after the swap");

    apply_event(&mut cluster, &ScenarioEvent::RestoreBaseline).unwrap();
    let w = cluster.write_from(0, 1);
    assert_eq!(w.latency_ms(), Some(2.0), "baseline restored");
}

#[test]
fn malformed_events_are_rejected_not_applied() {
    let mut cluster = constant_cluster(cfg(3, 1, 1), 6, 300.0);
    // A partition grouping that doesn't cover the cluster would leave
    // the missing nodes in nobody's group.
    let short = ScenarioEvent::Partition { groups: vec![0, 1] };
    assert!(apply_event(&mut cluster, &short).is_err());
    let missing = ScenarioEvent::Crash { node: 9, down_ms: 10.0 };
    assert!(apply_event(&mut cluster, &missing).is_err());
    let bad_profile = pbs_kvs::FaultProfile::new(1).with_drop(1.5).into();
    assert!(apply_event(&mut cluster, &ScenarioEvent::InjectFaults(bad_profile)).is_err());
    // A downtime the kvs layer asserts on (which would only blow up
    // later, when the crash fires).
    for bad in [-1.0, f64::NAN, f64::INFINITY] {
        let crash = ScenarioEvent::Crash { node: 1, down_ms: bad };
        assert!(apply_event(&mut cluster, &crash).is_err(), "downtime {bad}");
    }
    // None of the rejected events took effect: messages still flow.
    let w = cluster.write_from(0, 1);
    assert!(w.commit.is_some(), "rejected events must leave the cluster untouched");
    // Nor is a rejected crash left queued to panic the event loop.
    cluster.advance_to(SimTime::from_ms(1_000.0));
    assert!(!cluster.node(1).is_down());
}

#[test]
fn inject_and_clear_faults_round_trip() {
    let mut cluster = constant_cluster(cfg(3, 1, 3), 7, 300.0);
    let drop_all = pbs_kvs::FaultProfile::new(3).with_drop(1.0);
    apply_event(&mut cluster, &ScenarioEvent::InjectFaults(drop_all.into())).unwrap();
    let w = cluster.write_from(0, 2);
    assert!(w.commit.is_none(), "certain drop starves the write quorum");
    apply_event(&mut cluster, &ScenarioEvent::ClearFaults).unwrap();
    let w = cluster.write_from(0, 2);
    assert!(w.commit.is_some(), "clearing the profile restores delivery");
}

/// Shrink a scenario for fast deterministic runs.
fn quick(mut s: Scenario) -> Scenario {
    s.duration_ms = 6_000.0;
    s.stationary = vec![(3_000.0, 6_000.0)];
    s.control.mc_trials = 400;
    s.control.refit_interval_ms = 1_000.0;
    s.events.retain(|e| e.at_ms < 6_000.0);
    s
}

/// Events, refits and drains that share an instant: an event on a window
/// boundary fires before that window's drain, one on a refit instant
/// before the refit, one at 0 ms fires too, and one at `duration_ms` never
/// fires. Malformed events (a partition that leaves a node out, an invalid
/// fault schedule) are counted and change nothing else, so the series must
/// equal the clean run's.
#[test]
fn events_at_shared_instants_fire_before_the_drain_and_not_at_the_end() {
    let mut sc = Scenario::latency_spike(0);
    sc.duration_ms = 12_000.0;
    sc.stationary = vec![(3_000.0, 6_000.0)];
    sc.control.mc_trials = 400;
    let clean = run_scenario(&sc, 5);
    let bad_faults = pbs_kvs::FaultProfile::new(1).with_drop(1.5).into();
    sc.events.insert(0, TimedEvent::new(0.0, ScenarioEvent::InjectFaults(bad_faults)));
    let bad = || ScenarioEvent::Partition { groups: vec![0, 1] };
    // 2 000: a window boundary; 4 500: a refit instant; 12 000: the end.
    for at_ms in [2_000.0, 4_500.0, sc.duration_ms] {
        sc.events.push(TimedEvent::new(at_ms, bad()));
    }
    sc.events.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
    let run = run_scenario(&sc, 5);
    assert_eq!(clean.event_errors, 0);
    assert_eq!(run.event_errors, 3, "the event at duration_ms must not fire");
    assert_eq!(run.windows, clean.windows);
    assert_eq!(run.reconfigs, clean.reconfigs);
}

#[test]
fn full_run_bitwise_deterministic_for_fixed_seed_and_threads() {
    let sc = quick(Scenario::latency_spike(0));
    let a = run_scenario_sharded(&sc, 6, 11, 3);
    let b = run_scenario_sharded(&sc, 6, 11, 3);
    assert_eq!(a, b, "same (seed, threads) must be bit-identical");
    assert_eq!(a.runs, 6);
    assert!(a.windows.iter().map(|w| w.counts.reads).sum::<u64>() > 0);

    let c = run_scenario_sharded(&sc, 6, 12, 3);
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn buggify_storm_runs_checker_and_stays_deterministic() {
    let sc = quick(Scenario::buggify_storm(0));
    let a = run_scenario_sharded(&sc, 2, 7, 2);
    let b = run_scenario_sharded(&sc, 2, 7, 2);
    assert_eq!(a, b, "chaos mode must stay bit-reproducible");
    assert_eq!(a.event_errors, 0);
    let check = a.check.expect("check_history ran the offline post-pass");
    assert_eq!(check.runs, 2);
    assert!(
        check.sessions.agrees(),
        "streaming and offline session counts diverged: {check:?}"
    );
    assert_eq!(check.labels.mismatches, 0, "online labels must survive the recount");
    assert!(check.labels.labelled_reads > 0, "the storm still completes probes");
}

#[test]
fn adaptive_rolling_partition_keeps_clocks_aligned() {
    // With adaptive on, the controller can raise R mid-run; an isolated
    // coordinator's R≥2 reads then time out, advancing the simulated
    // clock far faster than the arrival clock. The driver must shed the
    // backlog so windows, events, and refits stay aligned with SimTime.
    let mut sc = Scenario::rolling_partition(0);
    sc.control.adaptive = true;
    sc.control.mc_trials = 400;
    let run = run_scenario_sharded(&sc, 2, 5, 2);
    let activity: Vec<u64> = run
        .windows
        .iter()
        .map(|w| w.counts.reads + w.counts.failed_writes + w.counts.incomplete_reads)
        .collect();
    let active = activity.iter().filter(|&&a| a > 0).count();
    assert!(
        active >= run.windows.len() - 1,
        "windows starve when clocks diverge: {activity:?}"
    );
    let mean = activity.iter().sum::<u64>() / activity.len() as u64;
    assert!(
        *activity.last().unwrap() < mean * 3,
        "probes must not pile up in the final window: {activity:?}"
    );
}

#[test]
fn rolling_partition_dips_and_recovers() {
    let sc = Scenario::rolling_partition(0);
    let run = run_scenario_sharded(&sc, 4, 9, 2);
    // At R=W=1 an isolated coordinator still commits against itself, so
    // the waves cost *consistency*, not availability: probes whose write
    // and read land on opposite sides of the partition go stale.
    let mean_over = |ranges: &[(f64, f64)]| -> f64 {
        let wins: Vec<&pbs_scenario::WindowRecord> = run
            .windows
            .iter()
            .filter(|w| ranges.iter().any(|&(a, b)| w.counts.start_ms >= a && w.end_ms <= b))
            .collect();
        let probes: u64 = wins.iter().map(|w| w.counts.reads).sum();
        let ok: u64 = wins.iter().map(|w| w.counts.consistent).sum();
        ok as f64 / probes as f64
    };
    let healthy = mean_over(&[(2_000.0, 4_000.0), (16_000.0, 20_000.0)]);
    let waves = mean_over(&[(4_000.0, 6_000.0), (8_000.0, 10_000.0), (12_000.0, 14_000.0)]);
    assert!(
        waves < healthy - 0.04,
        "partition waves should depress consistency: waves {waves} vs healthy {healthy}"
    );
    // The prediction (blind to partitions — it only sees delivered-leg
    // samples) keeps tracking on the stationary segment.
    let err = run.stationary_tracking_error(&sc).expect("stationary window exists");
    assert!(err <= 0.05, "stationary tracking error {err}");
}
