//! The §5.2 validation as an automated test: WARS Monte-Carlo predictions
//! must match the live Dynamo-style store within tight error bounds
//! (paper: t-visibility RMSE ≈ 0.28%, latency N-RMSE ≈ 0.48%).

use pbs::dist::stats::{n_rmse, rmse};
use pbs::dist::Exponential;
use pbs::kvs::cluster::{Cluster, ClusterOptions};
use pbs::kvs::experiments::{measure_t_visibility, measure_t_visibility_sharded};
use pbs::kvs::NetworkModel;
use pbs::math::ReplicaConfig;
use pbs::wars::production::exponential_model;
use pbs::wars::TVisibility;
use std::sync::Arc;

fn validate_combo(w_rate: f64, ars_rate: f64, seed: u64) -> (f64, f64) {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let offsets: Vec<f64> = (0..25).map(|i| 1.0 + 8.0 * i as f64).collect();
    let trials_per_offset = 400;

    // Sharded live-store measurement (two independent clusters) against a
    // sharded WARS prediction — both paths run on the pbs-mc runner.
    let measured = measure_t_visibility_sharded(
        ClusterOptions::validation(cfg, rand::child(seed, 1)),
        &NetworkModel::w_ars(
            Arc::new(Exponential::from_rate(w_rate)),
            Arc::new(Exponential::from_rate(ars_rate)),
        ),
        1,
        &offsets,
        trials_per_offset,
        2,
    );
    let predicted = TVisibility::simulate_parallel(
        &exponential_model(cfg, w_rate, ars_rate),
        200_000,
        rand::child(seed, 2),
        2,
    );

    let measured_p: Vec<f64> = measured.points.iter().map(|p| p.probability()).collect();
    let predicted_p: Vec<f64> =
        measured.points.iter().map(|p| predicted.prob_consistent(p.t_ms)).collect();
    let tvis_rmse = rmse(&predicted_p, &measured_p);

    let pcts: Vec<f64> = (1..=19).map(|i| i as f64 * 5.0).chain([99.0, 99.9]).collect();
    let mut meas = Vec::new();
    let mut pred = Vec::new();
    for &p in &pcts {
        meas.push(measured.read_latency.percentile(p));
        pred.push(predicted.read_latency_percentile(p));
        meas.push(measured.write_latency.percentile(p));
        pred.push(predicted.write_latency_percentile(p));
    }
    (tvis_rmse, n_rmse(&pred, &meas))
}

/// The paper's central validation claim, at reduced scale: predictions and
/// the live store agree to within ~1%.
#[test]
fn wars_predicts_the_live_store() {
    // One slow-write and one fast-write combination from the §5.2 grid.
    for (w_rate, ars_rate) in [(0.05, 0.5), (0.2, 0.1)] {
        let (tvis_rmse, lat_nrmse) = validate_combo(w_rate, ars_rate, 42);
        assert!(
            tvis_rmse < 0.02,
            "t-visibility RMSE too high for Wλ={w_rate}: {tvis_rmse}"
        );
        assert!(
            lat_nrmse < 0.02,
            "latency N-RMSE too high for Wλ={w_rate}: {lat_nrmse}"
        );
    }
}

/// The WAN topology path: a 3-node cluster spread over 3 datacenters with a
/// 75 ms inter-DC penalty must match the analytic `WanModel` (one local
/// replica per operation, independent read/write localities).
#[test]
fn kvs_wan_topology_matches_wan_model() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let base_w = 3.0; // ms mean
    let base_ars = 0.5;

    // Live store: one node per datacenter.
    let mut cluster = Cluster::new(
        ClusterOptions::validation(cfg, 77),
        NetworkModel::w_ars(
            Arc::new(Exponential::from_mean(base_w)),
            Arc::new(Exponential::from_mean(base_ars)),
        )
        .with_datacenters(vec![0, 1, 2], 75.0),
    );
    let offsets = [0.0, 40.0, 80.0, 120.0];
    let measured = measure_t_visibility(&mut cluster, 4, &offsets, 2_000);

    // Analytic WAN model with the same base distributions.
    let model = pbs::wars::WanModel::new(
        cfg,
        "wan-test",
        Arc::new(Exponential::from_mean(base_w)),
        Arc::new(Exponential::from_mean(base_ars)),
        Arc::new(Exponential::from_mean(base_ars)),
        Arc::new(Exponential::from_mean(base_ars)),
        75.0,
    );
    let predicted = TVisibility::simulate(&model, 200_000, 78);

    for (point, &t) in measured.points.iter().zip(&offsets) {
        let m = point.probability();
        let p = predicted.prob_consistent(t);
        assert!((m - p).abs() < 0.04, "t={t}: store {m} vs WanModel {p}");
    }
    // And the signature WAN behaviour: ~1/N immediate consistency.
    let immediate = measured.points[0].probability();
    assert!((immediate - 1.0 / 3.0).abs() < 0.06, "immediate {immediate} ≈ 1/3");
}

/// The store must show the paper's qualitative write-tail effect: slower
/// writes (relative to A=R=S) worsen immediate consistency.
#[test]
fn live_store_write_tail_effect() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let run = |w_rate: f64| {
        let mut cluster = Cluster::new(
            ClusterOptions::validation(cfg, 7),
            NetworkModel::w_ars(
                Arc::new(Exponential::from_rate(w_rate)),
                Arc::new(Exponential::from_rate(0.5)),
            ),
        );
        let m = measure_t_visibility(&mut cluster, 3, &[0.0], 2_000);
        m.points[0].probability()
    };
    let fast = run(4.0);
    let slow = run(0.1);
    assert!(
        fast > slow + 0.2,
        "fast writes {fast} should be far more immediately consistent than slow {slow}"
    );
}
