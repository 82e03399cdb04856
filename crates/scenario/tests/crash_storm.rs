//! The crash-storm audit scenario and the healing-path regressions it
//! pins: hint replay must survive scheduled message drops, expired hints
//! must fall back to anti-entropy, and the full built-in scenario must
//! reconverge after the storm with a clean checker post-pass.

use pbs_core::ReplicaConfig;
use pbs_dist::Constant;
use pbs_kvs::checker::check_run;
use pbs_kvs::{Cluster, ClusterOptions, FaultProfile, FaultSchedule, NetworkModel};
use pbs_scenario::{apply_event, run_scenario, Scenario, ScenarioEvent};
use pbs_sim::SimTime;
use std::sync::Arc;

fn net_const(ms: f64) -> NetworkModel {
    NetworkModel::w_ars(Arc::new(Constant::new(ms)), Arc::new(Constant::new(ms)))
}

fn ms(t: f64) -> SimTime {
    SimTime::from_ms(t)
}

/// The built-in scenario end to end: scheduled storm, two crashes, every
/// healing mechanism on — the run must finish with zero event errors and
/// a clean checker post-pass *including* final-state convergence.
#[test]
fn crash_storm_builtin_reconverges_and_passes_the_audit() {
    let sc = Scenario::crash_storm(0);
    sc.validate();
    let run = run_scenario(&sc, 11);
    assert_eq!(run.event_errors, 0);
    let probes: u64 = run.windows.iter().map(|w| w.counts.reads).sum();
    assert!(probes > 300, "storm run produced too few probes: {probes}");
    let check = run.check.expect("crash-storm records history");
    assert!(check.is_clean(), "crash-storm audit failed: {check:?}");
}

/// Hint replay under a scheduled drop storm: the flush timer redelivers
/// the hint every interval until the ack lands, so even a 90% drop window
/// only delays healing until the schedule's calm tail. Pins `hint_count`
/// (cleared), `hints_delivered` (acked), and `hints_expired` (none — the
/// GC horizon is far away).
#[test]
fn hint_replay_survives_scheduled_drops() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let mut opts = ClusterOptions::validation(cfg, 51);
    opts.hinted_handoff = true;
    opts.hint_timeout_ms = 100.0;
    opts.hint_flush_interval_ms = 200.0;
    let mut cluster = Cluster::new(opts, net_const(1.0));
    cluster.enable_history();
    let key = 3u64;
    let victim = *cluster.replicas_of(key).iter().min().unwrap();
    let coord = (0..3).find(|&n| n != victim).unwrap();

    // Drops ramp up after the write commits and clear at 1.2 s.
    let storm = FaultProfile::new(51).with_drop(0.9);
    apply_event(
        &mut cluster,
        &ScenarioEvent::InjectFaults(FaultSchedule::calm_storm_calm(storm, 200.0, 1_200.0)),
    )
    .unwrap();

    cluster.crash_node_at(victim, ms(0.0), 600.0);
    cluster.advance_to(ms(10.0));
    let w = cluster.write_from(coord, key);
    assert!(w.commit.is_some(), "healthy replicas commit W=1");
    assert_eq!(cluster.node(victim).stored_version(key), None);

    // Recovery at 600 is mid-storm; flushes retry through the drops and
    // the calm tail guarantees delivery by ~1.4 s.
    cluster.advance_to(ms(4_000.0));
    assert_eq!(
        cluster.node(victim).stored_version(key).map(|v| v.seq),
        w.seq,
        "hint replay must heal the victim despite the drop window"
    );
    assert_eq!(cluster.node(coord).hint_count(), 0, "delivered hint is cleared");
    assert!(cluster.node(coord).hints_delivered >= 1);
    assert_eq!(cluster.node(coord).hints_expired, 0, "GC horizon not reached");

    let history = cluster.take_history();
    let check = check_run(&history, &cluster, true);
    assert!(check.is_clean(), "healed run must pass the full audit: {check:?}");
}

/// When the outage outlives the hint GC horizon the hints expire — and
/// anti-entropy is the healing path of last resort. Pins `hints_expired`
/// and `sync_rounds` alongside post-recovery convergence.
#[test]
fn expired_hints_fall_back_to_anti_entropy() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let mut opts = ClusterOptions::validation(cfg, 53);
    opts.hinted_handoff = true;
    opts.hint_timeout_ms = 100.0;
    opts.hint_flush_interval_ms = 200.0;
    // A short op timeout doubles as the hint GC horizon: a 1 s outage
    // expires every hint stashed at its start.
    opts.op_timeout_ms = 300.0;
    opts.sync_interval_ms = Some(500.0);
    let mut cluster = Cluster::new(opts, net_const(1.0));
    cluster.enable_history();
    let key = 6u64;
    let victim = *cluster.replicas_of(key).iter().min().unwrap();
    let coord = (0..3).find(|&n| n != victim).unwrap();

    cluster.crash_node_at(victim, ms(0.0), 1_000.0);
    cluster.advance_to(ms(10.0));
    let w = cluster.write_from(coord, key);
    assert!(w.commit.is_some());

    cluster.advance_to(ms(4_000.0));
    assert!(
        cluster.node(coord).hints_expired >= 1,
        "the 1 s outage must outlive the 300 ms hint horizon"
    );
    assert_eq!(cluster.node(coord).hint_count(), 0);
    assert!(cluster.node(victim).sync_rounds >= 1, "anti-entropy ran");
    assert_eq!(
        cluster.node(victim).stored_version(key).map(|v| v.seq),
        w.seq,
        "anti-entropy must heal the victim after its hints expired"
    );

    let history = cluster.take_history();
    let check = check_run(&history, &cluster, true);
    assert!(check.is_clean(), "healed run must pass the full audit: {check:?}");
}

/// The builtin is reachable by name and opens its timeline with a real
/// (multi-segment) schedule at 0 ms, not a constant profile.
#[test]
fn crash_storm_is_registered_and_schedule_validated() {
    assert!(Scenario::builtin_names().contains(&"crash-storm"));
    let sc = Scenario::by_name("crash-storm", 7).expect("registered");
    let head = sc.events.first().expect("a timeline");
    assert_eq!(head.at_ms, 0.0);
    let ScenarioEvent::InjectFaults(schedule) = &head.event else {
        panic!("the timeline must open with the storm schedule: {head:?}");
    };
    assert!(schedule.as_constant().is_none());
    assert!(schedule.segments().len() > 1);
    schedule.validate().expect("a valid schedule");
    assert!(sc.check_history && sc.check_convergence);
    sc.validate();
}
