//! Open-loop throughput sweep: arrival rate × `(N, R, W)` on the in-sim
//! client-actor engine.
//!
//! For each configuration the harness runs thousands of concurrent
//! open-loop clients (arrivals never wait for completions), reports
//! achieved ops/sec and latency quantiles from the streaming
//! `QuantileSketch` summaries, and compares *measured* consistency against
//! the `pbs-predictor` expectation for Poisson write traffic
//! (`Predictor::expected_consistency_under_poisson`).
//!
//! Headline behaviour: consistency degrades as the arrival rate drives
//! per-key write inter-arrivals toward the write-propagation tail (the
//! store's service capacity for fresh reads, ≈ `keys / E[W-leg]` writes
//! per second here). At low rates measured and predicted agree within a
//! few percent; at saturation reads race propagation and staleness
//! climbs.
//!
//! ```text
//! cargo run -p pbs-bench --release --bin throughput
//! cargo run -p pbs-bench --release --bin throughput -- --quick --trials 2
//! ```
//!
//! `--trials` is the number of whole-workload replica runs (default 4, 2
//! with `--quick`; sharded deterministically over `--threads`,
//! bit-reproducible per `(seed, threads)`), not per-point Monte-Carlo
//! trials. Each run drives 256 clients over 64 keys for 8,000 simulated ms
//! (2,000 with `--quick`); `--quick` also drops the 1,000/s rate and cuts
//! the predictor's WARS trials from 100,000 to 20,000.

use pbs_bench::{cli, report, store_run, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_dist::{DynDistribution, Exponential};
use pbs_kvs::{ClusterOptions, NetworkModel};
use pbs_predictor::Predictor;
use pbs_wars::IidModel;
use pbs_workload::{OpMix, OpSource, OpStream, Poisson, UniformKeys};
use std::sync::Arc;

/// Write-propagation mean (disk-like, LNKD-DISK-ish).
const W_MEAN_MS: f64 = 10.0;
/// Ack/read/response mean.
const ARS_MEAN_MS: f64 = 2.0;
/// LinkedIn-style read fraction (§5.4).
const READ_FRACTION: f64 = 0.6;
/// In-sim open-loop client actors per run.
const CLIENTS: usize = 256;
/// Keys the clients spread their uniform traffic over.
const KEYS: u64 = 64;

fn main() {
    let args = cli::Args::parse();
    args.reject_unknown(&["quick", "trials", "seed", "threads"]);
    let quick = args.flag("quick");
    let HarnessOptions { trials, seed, threads } = HarnessOptions::from_args(&args, 4, 2);
    let duration_ms = if quick { 2_000.0 } else { 8_000.0 };
    let pred_trials = if quick { 20_000 } else { 100_000 };

    let rates: &[f64] = if quick { &[200.0, 5_000.0, 20_000.0] } else { &[200.0, 1_000.0, 5_000.0, 20_000.0] };
    let configs = [(3u32, 1u32, 1u32), (3, 1, 2), (3, 2, 2)];

    println!("Open-loop throughput sweep: {CLIENTS} in-sim client actors, {KEYS} keys,");
    println!(
        "{duration_ms} ms per run × {trials} replica runs, exp writes E[W]={W_MEAN_MS}ms, \
         E[A]=E[R]=E[S]={ARS_MEAN_MS}ms, {}% reads",
        READ_FRACTION * 100.0
    );
    println!(
        "Fresh-read capacity ≈ keys/E[W] = {:.0} writes/s: per-key write inter-arrivals",
        KEYS as f64 * 1000.0 / W_MEAN_MS
    );
    println!("approach the propagation tail there and partial-quorum consistency degrades.");

    let mut peak_heap = 0u64;
    for &(n, r, w) in &configs {
        let cfg = ReplicaConfig::new(n, r, w).unwrap();
        let wd: DynDistribution = Arc::new(Exponential::from_mean(W_MEAN_MS));
        let ars: DynDistribution = Arc::new(Exponential::from_mean(ARS_MEAN_MS));
        let mut opts = ClusterOptions::validation(cfg, seed);
        opts.op_timeout_ms = 2_000.0;
        let network = NetworkModel::w_ars(wd.clone(), ars.clone());
        let model = IidModel::w_ars(cfg, format!("sweep N={n} R={r} W={w}"), wd, ars);
        let predictor = Predictor::from_model_threads(&model, pred_trials, seed, threads);

        report::header(&format!("N={n}, R={r}, W={w}"));
        let mut rows = Vec::new();
        for &rate in rates {
            // Each point's offered load is split evenly over the clients.
            let per_client = rate / CLIENTS as f64;
            let poisson = |_, _| -> Box<dyn OpSource> {
                let arrivals = Poisson::per_second(per_client);
                Box::new(OpStream::new(arrivals, UniformKeys::new(KEYS), OpMix::new(READ_FRACTION), 1))
            };
            let timing = (duration_ms, 500.0);
            let rep = store_run(opts, network.clone(), timing, CLIENTS, None, |run| {
                run.run_sharded(trials, threads, poisson, |_| {})
            });
            peak_heap = peak_heap.max(rep.peak_pending_events);
            let measured = rep.consistency_rate();
            // Predict from the *measured* committed-write rate per key —
            // the paper's "easily collected" operational metric.
            let commit_rate_per_ms =
                rep.commits() as f64 / rep.runs as f64 / duration_ms / KEYS as f64;
            let predicted = (commit_rate_per_ms > 0.0)
                .then(|| predictor.expected_consistency_under_poisson(commit_rate_per_ms));
            rows.push(vec![
                format!("{rate:.0}"),
                format!("{:.0}", rep.achieved_ops_per_sec()),
                report::pct(measured),
                predicted.map(report::pct).unwrap_or_else(|| "-".into()),
                predicted
                    .map(|p| format!("{:.3}", (p - measured).abs()))
                    .unwrap_or_else(|| "-".into()),
                report::ms(rep.read_latency.percentile(50.0)),
                report::ms(rep.read_latency.percentile(99.0)),
                report::ms(rep.write_latency.percentile(50.0)),
                report::ms(rep.write_latency.percentile(99.0)),
                format!("{:.4}", rep.monotonic_violation_rate()),
                rep.clients.shed.to_string(),
            ]);
        }
        report::table(
            &[
                "offered/s", "achieved/s", "P(consistent)", "predicted", "|err|",
                "read p50", "read p99", "write p50", "write p99", "mono viol", "shed",
            ],
            &rows,
        );
    }

    println!();
    println!(
        "Memory note: peak event-heap across every run was {peak_heap} entries — bounded by"
    );
    println!("clients + in-flight ops, not workload length.");
    println!();
    println!("Expected shape: at low offered rates measured ≈ predicted (within ±0.05 on");
    println!("stationary segments); as the rate approaches fresh-read capacity, reads race");
    println!("write propagation and partial-quorum (R+W≤N) consistency falls while strict");
    println!("quorums stay at 100% and pay the straggler tail in latency.");
}
