//! §5.2 — experimental validation: WARS Monte-Carlo predictions vs. the
//! live Dynamo-style store (`pbs-kvs`), reproducing the paper's methodology:
//! exponential `W ∈ {20, 10, 5}ms` × `A=R=S ∈ {10, 5, 2}ms` means, N=3,
//! R=W=1, read repair disabled, first-R-responses-only.
//!
//! The paper reported t-visibility RMSE 0.28% (max 0.53%) over
//! t ∈ {1..199}ms and latency N-RMSE 0.48% (max 0.90%) over the
//! 1..99.9th percentiles. We report the same statistics.

use pbs_bench::{cli, report, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_dist::stats::{n_rmse, rmse};
use pbs_dist::Exponential;
use pbs_kvs::cluster::ClusterOptions;
use pbs_kvs::experiments::measure_t_visibility_sharded;
use pbs_kvs::NetworkModel;
use pbs_wars::production::exponential_model;
use std::sync::Arc;

fn main() {
    // Paper: 50,000 writes per combination. Offsets 1..199 step 2 → 100
    // points × 500 trials = 50k probes; --quick probes each offset 25 times.
    let args = cli::Args::parse();
    args.reject_unknown(&["quick", "trials", "seed", "threads"]);
    let opts = HarnessOptions::from_args(&args, 500, 25);
    let offsets: Vec<f64> = (0..100).map(|i| 1.0 + 2.0 * i as f64).collect();

    println!("§5.2 validation: WARS prediction vs simulated Dynamo-style store");
    println!("N=3, R=W=1; {} offsets × {} probes each per combination", offsets.len(), opts.trials);

    let w_rates = [0.05f64, 0.1, 0.2]; // means 20, 10, 5 ms
    let ars_rates = [0.1f64, 0.2, 0.5]; // means 10, 5, 2 ms
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();

    let mut rows = Vec::new();
    let mut all_tvis_rmse = Vec::new();
    let mut all_lat_nrmse = Vec::new();
    for &wl in &w_rates {
        for &al in &ars_rates {
            // --- live store measurement: independent clusters per shard ---
            let network = NetworkModel::w_ars(
                Arc::new(Exponential::from_rate(wl)),
                Arc::new(Exponential::from_rate(al)),
            );
            let measured = measure_t_visibility_sharded(
                ClusterOptions::validation(cfg, rand::child(opts.seed, 1)),
                &network,
                1,
                &offsets,
                opts.trials,
                opts.threads,
            );

            // --- WARS prediction: eight trials per probe (400,000 at the
            // default count) ---
            let predicted = HarnessOptions {
                trials: 8 * offsets.len() * opts.trials,
                seed: rand::child(opts.seed, 2),
                ..opts
            }
            .wars(&exponential_model(cfg, wl, al), &[(1, 1)])
            .remove(0);

            // t-visibility RMSE across the offset grid (in probability).
            let measured_p: Vec<f64> =
                measured.points.iter().map(|p| p.probability()).collect();
            let predicted_p: Vec<f64> =
                measured.points.iter().map(|p| predicted.prob_consistent(p.t_ms)).collect();
            let tvis_rmse = rmse(&predicted_p, &measured_p);

            // Latency N-RMSE across the 1..99.9th percentiles, straight off
            // the streaming summaries (no sample buffers on either side).
            let pcts: Vec<f64> = (1..=99)
                .map(|p| p as f64)
                .chain([99.9])
                .collect();
            let mut meas = Vec::new();
            let mut pred = Vec::new();
            for &p in &pcts {
                meas.push(measured.read_latency.percentile(p));
                pred.push(predicted.read_latency_percentile(p));
                meas.push(measured.write_latency.percentile(p));
                pred.push(predicted.write_latency_percentile(p));
            }
            let lat_nrmse = n_rmse(&pred, &meas);

            all_tvis_rmse.push(tvis_rmse);
            all_lat_nrmse.push(lat_nrmse);
            rows.push(vec![
                format!("{:.0}ms", 1.0 / wl),
                format!("{:.0}ms", 1.0 / al),
                format!("{:.3}%", tvis_rmse * 100.0),
                format!("{:.3}%", lat_nrmse * 100.0),
            ]);
        }
    }
    report::header("Per-combination agreement");
    report::table(&["mean W", "mean A=R=S", "t-vis RMSE", "latency N-RMSE"], &rows);

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    report::header("Summary (paper: t-vis RMSE avg 0.28% max 0.53%; latency N-RMSE avg 0.48% max 0.90%)");
    report::table(
        &["metric", "average", "max"],
        &[
            vec![
                "t-visibility RMSE".into(),
                format!("{:.3}%", mean(&all_tvis_rmse) * 100.0),
                format!("{:.3}%", max(&all_tvis_rmse) * 100.0),
            ],
            vec![
                "latency N-RMSE".into(),
                format!("{:.3}%", mean(&all_lat_nrmse) * 100.0),
                format!("{:.3}%", max(&all_lat_nrmse) * 100.0),
            ],
        ],
    );
}
