//! Headline experiment for the WGL checker (see `docs/paper-map.md`):
//!
//! * **Strict quorums are linearizable per key** (§3's R+W>N guarantee):
//!   clean open-loop runs at R=W=2, N=3 verify `Linearizable` on every
//!   key, with bit-identical `CheckReport`s (the `LinCheck` included)
//!   from the serial engine and 1/2/4-worker PDES runs.
//! * **Partial-quorum violation windows track PBS t-visibility**: an
//!   R=W=1 run under load yields nonzero violation windows whose p90
//!   duration lands inside a tolerance band of the p90 predicted by the
//!   WARS t-visibility curve — the measured window *is* the paper's `t`
//!   (time from the missed write's commit to the stale read's start), so
//!   the independently-simulated predictor curve must describe its
//!   distribution.
//! * **Timed-out writes are possibly committed** end-to-end: an
//!   engineered client timeout whose write lands anyway must agree across
//!   the online labels, `relabel_reads`, and the WGL checker — nobody
//!   calls the late-materializing version stale or phantom.

use pbs::dist::{Constant, Exponential, Pareto};
use pbs::kvs::checker::{check_run, CheckReport};
use pbs::kvs::cluster::{Cluster, ClusterOptions, EngineKind};
use pbs::kvs::{ClientOptions, NetworkModel, OpenLoopOptions, OpenLoopReport, OpenLoopRun};
use pbs::math::ReplicaConfig;
use pbs::sim::SimTime;
use pbs::wars::production::exponential_model;
use pbs::wars::TVisibility;
use pbs::workload::{OpMix, OpSource, OpStream, Poisson, UniformKeys};
use std::sync::Arc;

/// Heavy-tailed legs with a positive support minimum, as the parallel
/// engine requires (lookahead = the 0.8 ms A/R/S scale).
fn pareto_net() -> NetworkModel {
    NetworkModel::w_ars(Arc::new(Pareto::new(1.5, 1.2)), Arc::new(Pareto::new(0.8, 2.0)))
}

fn source(rate: f64, keys: u64) -> Box<dyn OpSource> {
    Box::new(OpStream::new(Poisson::per_second(rate), UniformKeys::new(keys), OpMix::new(0.5), 1))
}

/// One checked open-loop run at the given replication on the given
/// engine.
fn checked_run(
    kind: EngineKind,
    cfg: ReplicaConfig,
    net: &NetworkModel,
    seed: u64,
) -> (OpenLoopReport, CheckReport) {
    let mut o = ClusterOptions::validation(cfg, seed);
    o.nodes = 8;
    o.op_timeout_ms = 2_000.0;
    let (report, check, _) = OpenLoopRun::new(
        o,
        net.clone(),
        OpenLoopOptions::new(1_200.0, 300.0, 1_500.0),
        6,
        ClientOptions { op_timeout_ms: 2_000.0, ..ClientOptions::default() },
    )
    .on(kind)
    .run_checked(|_| source(30.0, 8), |_| {})
    .expect("positive-minimum model partitions cleanly");
    (report, check)
}

/// §3's strong guarantee, verified rather than assumed: every key of a
/// clean R+W>N run is linearizable, on the serial engine and at 1/2/4
/// PDES workers — and because the parallel histories are bit-identical,
/// the whole `CheckReport` (violation windows included) matches the
/// serial one exactly.
#[test]
fn strict_quorum_runs_verify_linearizable_per_key_across_engines() {
    let cfg = ReplicaConfig::new(3, 2, 2).unwrap();
    let net = pareto_net();
    for workers in [1usize, 2, 4] {
        let (serial_report, serial_check) =
            checked_run(EngineKind::SerialPartitioned { workers }, cfg, &net, 61);
        let (par_report, par_check) =
            checked_run(EngineKind::Parallel { workers }, cfg, &net, 61);
        assert_eq!(serial_report, par_report, "{workers}-worker counters diverged");
        assert_eq!(serial_check, par_check, "{workers}-worker CheckReport diverged");
        assert!(serial_check.is_clean(), "audit unclean: {serial_check:?}");
        assert!(
            serial_check.lin.all_linearizable(),
            "R+W>N must be linearizable per key: {:?}",
            serial_check.lin
        );
        assert!(serial_check.lin.keys_checked >= 8, "workload too small to be meaningful");
        assert!(serial_check.lin.ops_checked > 100);
        assert_eq!(serial_check.lin.exhausted_keys, 0, "budget must suffice on clean runs");
    }
}

/// The same engine and load at R=W=1 must *not* be linearizable — the
/// checker's partial-quorum violations are the paper's premise, and they
/// deliberately do not flip `is_clean()`.
#[test]
fn partial_quorum_runs_violate_linearizability_without_failing_is_clean() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let (_, check) = checked_run(EngineKind::Serial, cfg, &pareto_net(), 61);
    assert!(check.lin.violated_keys > 0, "R=W=1 under load must show staleness: {:?}", check.lin);
    assert!(check.lin.violation_count() > 0);
    assert!(check.is_clean(), "partial-quorum staleness is measured, not flagged: {check:?}");
    assert!(!check.lin.all_linearizable());
}

/// Nearest-rank percentile of the measured windows, in ms.
fn percentile_ms(windows_ns: &mut [u64], pct: f64) -> f64 {
    windows_ns.sort_unstable();
    let rank = ((pct / 100.0) * windows_ns.len() as f64).ceil() as usize;
    windows_ns[rank.clamp(1, windows_ns.len()) - 1] as f64 / 1e6
}

/// The headline number (paper-map row `lin-windows-vs-tvis`): measured
/// violation-window p90 vs. the p90 predicted by composing the WARS
/// t-visibility curve with the run's own write rate.
///
/// Model: a read arriving in steady state sees the newest commit at age
/// `t ~ Exp(λ)` (per-key Poisson writes, PASTA); it becomes a violation
/// with probability `V(t)` (the t-visibility curve's violation side), and
/// when it does, the recorded window *is* `t`. So window durations have
/// density `∝ λe^{-λt}·V(t)`, and the predicted p90 is that density's
/// 0.9-quantile. Monte-Carlo curve, measured λ, and an engine that isn't
/// the predictor's closed-form — a 2× band on p90 is the claim that the
/// two agree on the *distribution*, not just the mean.
#[test]
fn partial_quorum_violation_windows_track_predicted_t_visibility() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let w_mean_ms = 8.0;
    let ars_mean_ms = 1.0;
    let keys = 4u64;
    let duration_ms = 4_000.0;
    let net = NetworkModel::w_ars(
        Arc::new(Exponential::from_mean(w_mean_ms)),
        Arc::new(Exponential::from_mean(ars_mean_ms)),
    );
    let (report, check, _) = OpenLoopRun::new(
        ClusterOptions::validation(cfg, 4242),
        net,
        OpenLoopOptions::new(duration_ms, 500.0, 1_000.0),
        6,
        ClientOptions::default(),
    )
    .run_checked(|_| source(40.0, keys), |_| {})
    .expect("serial engine accepts any model");
    assert!(check.is_clean(), "audit unclean: {check:?}");

    let mut windows: Vec<u64> =
        check.lin.violations.iter().map(|v| v.window_ns()).collect();
    assert!(
        windows.len() >= 30,
        "R=W=1 under load must yield a measurable violation population, got {}",
        windows.len()
    );
    let measured_p90 = percentile_ms(&mut windows, 90.0);
    assert_eq!(
        check.lin.window_percentile_ms(90.0),
        Some(measured_p90),
        "LinCheck's own quantile must agree with the raw windows"
    );

    // Per-key commit rate measured from the run itself (ms⁻¹).
    let lambda = report.commits() as f64 / keys as f64 / duration_ms;
    assert!(lambda > 0.0);
    let tv = TVisibility::simulate(
        &exponential_model(cfg, 1.0 / w_mean_ms, 1.0 / ars_mean_ms),
        60_000,
        4242,
    );
    // Predicted window density ∝ λe^{-λt}·V(t): integrate to its p90.
    let dt = 0.05;
    let steps = 8_000; // out to 400 ms, far past both decay scales
    let mass: Vec<f64> = (0..steps)
        .map(|i| {
            let t = (i as f64 + 0.5) * dt;
            lambda * (-lambda * t).exp() * tv.violation(t) * dt
        })
        .collect();
    let total: f64 = mass.iter().sum();
    assert!(total > 0.0, "predictor says violations are impossible?");
    let mut acc = 0.0;
    let mut predicted_p90 = steps as f64 * dt;
    for (i, m) in mass.iter().enumerate() {
        acc += m;
        if acc >= 0.9 * total {
            predicted_p90 = (i as f64 + 1.0) * dt;
            break;
        }
    }
    assert!(
        measured_p90 >= predicted_p90 / 2.0 && measured_p90 <= predicted_p90 * 2.0,
        "measured window p90 {measured_p90:.2} ms outside the 2x band of predicted \
         {predicted_p90:.2} ms (lambda {lambda:.4}/ms, {} windows)",
        windows.len()
    );
}

/// Satellite regression (`finish: None` end-to-end): a client-timed-out
/// write whose version lands on the replicas *after* the timeout must be
/// treated as possibly-committed by every layer. The online ground truth
/// never saw a commit, so the later read of that version is labelled
/// consistent; `relabel_reads` rebuilds commits the same way and agrees;
/// the order oracle stands down on the incomplete key; and the WGL
/// checker attributes the orphan version to the open-interval write
/// instead of convicting the read.
#[test]
fn engineered_timeout_write_agrees_across_relabel_and_wgl() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let mut o = ClusterOptions::validation(cfg, 7);
    o.op_timeout_ms = 50.0; // client gives up at 50 ms...
    let net = NetworkModel::w_ars(
        Arc::new(Constant::new(200.0)), // ...but the write leg takes 200 ms
        Arc::new(Constant::new(1.0)),
    );
    let mut cluster = Cluster::new(o, net);
    cluster.enable_history();
    let key = 3u64;
    let w = cluster.write_from(0, key);
    assert!(w.commit.is_none(), "engineered timeout: no commit inside 50 ms");
    // The write leg still delivers at ~200 ms; every replica applies it.
    cluster.advance_to(SimTime::from_ms(400.0));
    let r = cluster.read_at_from(0, key, SimTime::from_ms(500.0));
    let seen = r.op.seq.expect("the timed-out write materialized");
    assert!(
        r.label.expect("completed read is labelled").consistent,
        "ground truth never saw a commit, so the late version cannot be stale"
    );

    let history = cluster.take_history();
    let recorded = &history.ops()[0].op;
    assert!(recorded.finish.is_none() && recorded.seq.is_none() && recorded.commit.is_none());
    let check = check_run(&history, &cluster, false);
    assert_eq!(check.labels.mismatches, 0, "relabel must agree with the online label");
    assert_eq!(check.order.violations(), 0, "incomplete key: phantom rule stands down");
    assert!(
        check.lin.all_linearizable(),
        "WGL must attribute seq {seen} to the possibly-committed write: {:?}",
        check.lin
    );
    assert!(check.is_clean(), "{check:?}");
}
