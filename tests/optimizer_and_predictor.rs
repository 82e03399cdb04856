//! Cross-crate tests of the §6 layer: the predictor and the SLA optimizer,
//! driven by the production latency models and by the store's own
//! measured latencies.

use pbs::dist::Exponential;
use pbs::kvs::cluster::{Cluster, ClusterOptions};
use pbs::kvs::experiments::measure_t_visibility;
use pbs::kvs::NetworkModel;
use pbs::math::ReplicaConfig;
use pbs::predictor::sla::{optimize, SlaSpec};
use pbs::predictor::{AdaptiveController, Predictor};
use pbs::wars::production::{ymmr_model, ProductionProfile};
use std::sync::Arc;

/// Monte-Carlo shards for every search and predictor here.
const THREADS: usize = 2;

/// LNKD-SSD meets an aggressive SLA with a fully partial quorum; YMMR's
/// write tail forces more read coverage for the same SLA.
#[test]
fn optimizer_adapts_to_write_tails() {
    let spec = SlaSpec::consistency(0.999, 10.0);
    let ssd = optimize(
        &|cfg| ProductionProfile::LnkdSsd.model(cfg),
        &[3],
        &spec,
        40_000,
        1,
        THREADS,
    );
    let best = ssd.best_config().expect("SSD meets the SLA");
    assert_eq!((best.cfg.r(), best.cfg.w()), (1, 1), "SSD should allow R=W=1");

    let ymmr = optimize(
        &|cfg| ProductionProfile::Ymmr.model(cfg),
        &[3],
        &spec,
        40_000,
        1,
        THREADS,
    );
    let best = ymmr.best_config().expect("some config qualifies");
    assert!(
        best.cfg.r() + best.cfg.w() > 2,
        "YMMR's seconds-scale write tail cannot satisfy 10ms/99.9% at R=W=1, got {}",
        best.cfg
    );
}

/// The optimizer's winner must actually dominate: no other qualifying
/// config has lower combined latency.
#[test]
fn optimizer_winner_is_minimal() {
    let spec = SlaSpec::consistency(0.99, 50.0);
    let report = optimize(
        &|cfg| ProductionProfile::LnkdDisk.model(cfg),
        &[3],
        &spec,
        30_000,
        2,
        THREADS,
    );
    let best = report.best_config().expect("qualifies");
    for e in &report.evaluations {
        if e.meets_sla {
            assert!(best.combined_latency() <= e.combined_latency() + 1e-9);
        }
    }
}

/// The full §6 measure→predict loop against the store itself: run the live
/// store with WARS instrumentation on, drain the recorded one-way delays
/// into a controller whose window holds all of them, predict from those
/// *measured samples only*, and check the prediction matches the store's
/// own t-visibility.
#[test]
fn predictor_from_store_instrumentation_predicts_the_store() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let mut opts = ClusterOptions::validation(cfg, 55);
    opts.record_leg_samples = true;
    let mut cluster = Cluster::new(
        opts,
        NetworkModel::w_ars(
            Arc::new(Exponential::from_mean(8.0)),
            Arc::new(Exponential::from_mean(1.5)),
        ),
    );

    // Phase 1: production traffic with instrumentation (and measurement).
    let offsets = [0.0, 5.0, 15.0, 40.0];
    let measured = measure_t_visibility(&mut cluster, 9, &offsets, 1_500);
    let samples = cluster.drain_leg_samples();
    assert!(samples.len() > 10_000, "instrumentation recorded {}", samples.len());

    // Phase 2: predict purely from the drained samples.
    let spec = SlaSpec::consistency(0.9, 5.0);
    let mut ctl =
        AdaptiveController::new(spec, vec![3], samples.len(), 120_000, 56).with_threads(THREADS);
    ctl.observe_many(&samples.w, &samples.a, &samples.r, &samples.s);
    let predictor = ctl.predict(cfg).unwrap();

    for (point, &t) in measured.points.iter().zip(&offsets) {
        let measured_p = point.probability();
        let predicted_p = predictor.prob_consistent(t);
        assert!(
            (measured_p - predicted_p).abs() < 0.03,
            "t={t}: store {measured_p} vs predictor-from-instrumentation {predicted_p}"
        );
    }
}

/// Predictor consistency: Monte-Carlo t-visibility is coherent with its own
/// inverse.
#[test]
fn predictor_metrics_are_coherent() {
    let cfg = ReplicaConfig::new(3, 1, 2).unwrap();
    let pred = Predictor::from_model_threads(&ymmr_model(cfg), 60_000, 4, THREADS);
    for &p in &[0.5, 0.9, 0.99] {
        let t = pred.tvisibility().t_at_probability(p);
        assert!(pred.prob_consistent(t) >= p, "inverse must satisfy the target");
    }
}
