//! Acceptance tests for the buggify fault-injection layer and the
//! session-guarantee history checker: seeded chaos runs are bitwise
//! deterministic per `(seed, threads)`, injected faults produce real
//! session violations on which the streaming labels and the offline
//! replay agree, and replicas converge once the storm clears.

use pbs::dist::Exponential;
use pbs::kvs::checker::check_run;
use pbs::kvs::{
    ClientOptions, Cluster, ClusterOptions, FaultProfile, FaultSchedule, NetworkModel,
    OpenLoopOptions, OpenLoopReport, OpenLoopRun, ScheduleSegment,
};
use pbs::math::ReplicaConfig;
use pbs::sim::SimTime;
use pbs::workload::{OpMix, OpSource, OpStream, Poisson, UniformKeys};
use std::sync::Arc;

fn net() -> NetworkModel {
    NetworkModel::w_ars(
        Arc::new(Exponential::from_mean(4.0)),
        Arc::new(Exponential::from_mean(1.5)),
    )
}

fn opts(seed: u64) -> ClusterOptions {
    let mut o = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).unwrap(), seed);
    o.op_timeout_ms = 1_000.0;
    o
}

fn source(per_sec: f64, keys: u64, read_frac: f64) -> Box<dyn OpSource> {
    Box::new(OpStream::new(
        Poisson::per_second(per_sec),
        UniformKeys::new(keys),
        OpMix::new(read_frac),
        1,
    ))
}

/// Six replica runs of the 4-client, 2 s workload, sharded over `threads`.
fn sharded(
    seed: u64,
    threads: usize,
    prepare: impl Fn(&mut Cluster) + Sync,
) -> OpenLoopReport {
    OpenLoopRun::new(
        opts(seed),
        net(),
        OpenLoopOptions::new(2_000.0, 500.0, 1_000.0),
        4,
        ClientOptions { op_timeout_ms: 1_000.0, ..ClientOptions::default() },
    )
    .run_sharded(6, threads, |_, _| source(40.0, 8, 0.5), prepare)
    .unwrap()
}

fn storm_sharded(seed: u64, threads: usize) -> OpenLoopReport {
    sharded(seed, threads, |cluster| {
        // Every fault class at once: drop + duplicate + reorder +
        // slow nodes + disk lag + clock skew. The profile seed fixes
        // the per-node traits; per-run variation comes from the run
        // seed driving every message-level roll.
        cluster.network().set_fault_profile(FaultProfile::storm(seed)).unwrap();
    })
}

fn scheduled_sharded(seed: u64, threads: usize, schedule: FaultSchedule) -> OpenLoopReport {
    sharded(seed, threads, |cluster| {
        cluster.network().set_fault_schedule(schedule.clone()).unwrap();
    })
}

fn plain_sharded(seed: u64, threads: usize) -> OpenLoopReport {
    sharded(seed, threads, |_| {})
}

/// The full storm is bit-reproducible per `(seed, threads)` — the
/// FoundationDB-style contract that makes a chaos failure replayable
/// from its seed alone.
#[test]
fn storm_runs_are_bitwise_deterministic_per_seed_and_threads() {
    let a1 = storm_sharded(31, 1);
    let b1 = storm_sharded(31, 1);
    assert_eq!(a1, b1, "threads=1 storm must be bit-identical");
    let a4 = storm_sharded(31, 4);
    let b4 = storm_sharded(31, 4);
    assert_eq!(a4, b4, "threads=4 storm must be bit-identical");
    let other = storm_sharded(32, 1);
    assert_ne!(a1, other, "different seeds must differ");
    // The storm visibly bites: some staleness, fewer than all reads clean.
    assert!(a1.reads() > 0 && a1.consistent() < a1.reads());
}

/// Zero-draw discipline, end to end: a schedule whose active segments
/// are all calm must consume **no** RNG draws beyond the plain transmit
/// path, so the whole run is bit-identical to one with no schedule
/// installed — even when a storm segment exists beyond the run horizon.
#[test]
fn calm_schedule_segments_draw_exactly_like_no_schedule() {
    let plain = plain_sharded(61, 2);
    let calm = scheduled_sharded(61, 2, FaultSchedule::constant(FaultProfile::new(61)));
    assert_eq!(plain, calm, "an all-calm schedule must not perturb a single draw");
    let distant_storm = FaultSchedule::calm_storm_calm(
        FaultProfile::storm(61),
        1.0e9, // far past the run horizon: never active, never drawn from
        2.0e9,
    );
    let distant = scheduled_sharded(61, 2, distant_storm);
    assert_eq!(plain, distant, "inactive storm segments must not perturb a single draw");
}

/// Segment-boundary determinism at the run level: two schedules that
/// agree on every instant the run can reach are interchangeable — extra
/// segments past the horizon are inert — while moving the storm window
/// inside the run visibly changes the outcome.
#[test]
fn schedule_segments_beyond_the_horizon_are_inert() {
    let storm = FaultProfile::storm(67);
    let in_run = FaultSchedule::calm_storm_calm(storm, 500.0, 1_500.0);
    let mut with_tail = in_run.segments().to_vec();
    with_tail.push(ScheduleSegment::new(1.0e7, FaultProfile::storm(999)));
    let a = scheduled_sharded(67, 2, in_run.clone());
    let b = scheduled_sharded(67, 2, FaultSchedule::piecewise(with_tail));
    assert_eq!(a, b, "segments the run never reaches must not change any draw");
    let calm_run = plain_sharded(67, 2);
    assert_ne!(a, calm_run, "the in-run storm window must actually bite");
    assert!(a.reads() > 0 && a.consistent() < a.reads());
}

/// A scheduled storm keeps the bitwise-reproducibility contract per
/// `(seed, threads)`, exactly like a constant profile.
#[test]
fn scheduled_storm_runs_are_bitwise_deterministic_per_seed_and_threads() {
    let schedule = |seed: u64| FaultSchedule::calm_storm_calm(FaultProfile::storm(seed), 400.0, 1_600.0);
    let a1 = scheduled_sharded(71, 1, schedule(71));
    let b1 = scheduled_sharded(71, 1, schedule(71));
    assert_eq!(a1, b1, "threads=1 scheduled storm must be bit-identical");
    let a4 = scheduled_sharded(71, 4, schedule(71));
    let b4 = scheduled_sharded(71, 4, schedule(71));
    assert_eq!(a4, b4, "threads=4 scheduled storm must be bit-identical");
    let other = scheduled_sharded(72, 1, schedule(72));
    assert_ne!(a1, other, "different seeds must differ");
    assert!(a1.reads() > 0 && a1.consistent() < a1.reads(), "the storm window must bite");
}

/// Injected faults at R=W=1 produce genuine session-guarantee violations,
/// and the two independent derivations — streaming per-client counters
/// and the offline history replay — agree on every one of them, with
/// zero online-label mismatches.
#[test]
fn injected_faults_cause_violations_both_oracles_agree_on() {
    let (report, check, _) = OpenLoopRun::new(
        opts(37),
        net(),
        OpenLoopOptions::new(3_000.0, 500.0, 2_000.0),
        4,
        ClientOptions { op_timeout_ms: 1_000.0, ..ClientOptions::default() },
    )
    .run_checked(
        |_| source(60.0, 4, 0.5),
        |cluster| {
            cluster.network().set_fault_profile(FaultProfile::storm(37)).unwrap();
        },
    )
    .unwrap();
    assert!(
        report.clients.monotonic_violations + report.clients.ryw_violations > 0,
        "the storm at R=W=1 must break session guarantees: {report:?}"
    );
    assert!(check.sessions.agrees(), "streaming vs offline replay diverged: {check:?}");
    assert_eq!(
        check.sessions.monotonic_violations, report.clients.monotonic_violations,
        "engine report and checker must count the same violations"
    );
    assert_eq!(check.sessions.ryw_violations, report.clients.ryw_violations);
    assert_eq!(check.labels.mismatches, 0, "online labels must survive the offline recount");
    assert!(check.labels.stale_reads > 0, "faults must produce stale reads");
    assert!(check.is_clean());
}

/// Read repair + hinted handoff + anti-entropy actually converge the
/// replicas once the storm clears and traffic quiesces — checked per key
/// against the newest committed version.
#[test]
fn replicas_converge_after_the_storm_clears() {
    let mut o = opts(23);
    o.op_timeout_ms = 500.0;
    o.read_repair = true;
    o.hinted_handoff = true;
    o.sync_interval_ms = Some(250.0);
    let mut cluster = Cluster::new(o, net());
    cluster.enable_history();
    cluster.network().set_fault_profile(FaultProfile::storm(23)).unwrap();
    cluster.add_client(
        source(80.0, 8, 0.5),
        ClientOptions { op_timeout_ms: 500.0, ..ClientOptions::default() },
    );
    cluster.start_clients();
    // Storm phase: 2s of traffic under every fault class.
    cluster.drain_window(SimTime::from_ms(1_000.0));
    cluster.drain_window(SimTime::from_ms(2_000.0));
    cluster.network().clear_fault_profile();
    // Clean phase, then quiescence: several anti-entropy rounds run with
    // no faults and no traffic.
    cluster.drain_window(SimTime::from_ms(3_000.0));
    cluster.stop_clients();
    cluster.drain_window(SimTime::from_ms(6_000.0));
    let history = cluster.take_history();
    let check = check_run(&history, &cluster, true);
    assert!(check.sessions.agrees(), "{check:?}");
    assert_eq!(check.labels.mismatches, 0);
    let conv = check.convergence.expect("convergence was requested");
    assert!(conv.keys_checked > 0);
    assert!(
        conv.converged(),
        "live replicas must agree after the storm clears: {conv:?}"
    );
    assert!(check.is_clean());
}
