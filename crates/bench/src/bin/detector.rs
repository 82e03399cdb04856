//! §4.3 — asynchronous staleness detection: the coordinator compares the
//! `N − R` late read responses against the returned value. The paper
//! predicts false positives from in-flight (newer-but-uncommitted) writes;
//! online ground truth (the open-loop engine's commit watermark) lets us
//! measure precision and recall exactly while thousands of probes overlap.

use pbs_bench::{report, store_run, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_dist::Exponential;
use pbs_kvs::{ClusterOptions, NetworkModel};
use pbs_workload::{FixedRate, OpMix, OpSource, OpStream, UniformKeys};
use std::sync::Arc;

fn run(n: u32, r: u32, w: u32, write_mean_ms: f64, pairs: usize, seed: u64) -> Vec<String> {
    let mut opts = ClusterOptions::validation(ReplicaConfig::new(n, r, w).unwrap(), seed);
    opts.op_timeout_ms = 5_000.0;
    let network = NetworkModel::w_ars(
        Arc::new(Exponential::from_mean(write_mean_ms)),
        Arc::new(Exponential::from_mean(2.0)),
    );
    // Dense single-key traffic maximises in-flight overlap — the paper's
    // false-positive regime: one write every 6 ms, each probed by a read
    // 3 ms later.
    let writes = |_| -> Box<dyn OpSource> {
        Box::new(OpStream::new(FixedRate::new(6.0), UniformKeys::new(1), OpMix::writes_only(), 1))
    };
    let timing = (pairs as f64 * 6.0, 1_000.0);
    let (rep, _) = store_run(opts, network, timing, 1, Some(3.0), |run| run.run(writes, |_| {}));
    let d = rep.detector;
    let stale = rep.reads() - rep.consistent();
    let mean_behind = if stale == 0 {
        "-".to_string()
    } else {
        format!("{:.2}", rep.versions_behind_total as f64 / stale as f64)
    };
    vec![
        format!("N={n}, R={r}, W={w}, E[W]={write_mean_ms}ms"),
        report::pct(rep.consistency_rate()),
        d.flagged.to_string(),
        d.false_positives.to_string(),
        d.missed_stale.to_string(),
        format!("{:.3}", d.precision()),
        format!("{:.3}", d.recall()),
        mean_behind,
    ]
}

fn main() {
    let opts = HarnessOptions::parse(20_000);
    // A run issues whole write→probe pairs: an odd --trials rounds up.
    let pairs = opts.trials.div_ceil(2);
    println!("Asynchronous staleness detection (paper §4.3)");
    println!("Detector: any of the N−R late responses newer than the returned value.");
    println!("({} open-loop ops per configuration, single hot key)", 2 * pairs);

    report::header("Detector quality vs. configuration");
    let rows = vec![
        run(3, 1, 1, 10.0, pairs, opts.seed),
        run(3, 1, 1, 2.0, pairs, opts.seed),
        run(3, 1, 2, 10.0, pairs, opts.seed),
        run(3, 2, 1, 10.0, pairs, opts.seed),
        run(5, 1, 1, 10.0, pairs, opts.seed),
    ];
    report::table(
        &[
            "config",
            "P(consistent)",
            "flagged",
            "false pos",
            "missed",
            "precision",
            "recall",
            "mean behind",
        ],
        &rows,
    );
    println!();
    println!("False positives arise exactly as §4.3 predicts: late responses carrying");
    println!("in-flight (newer-but-uncommitted) versions. Misses occur when every fresher");
    println!("replica landed inside the first R responses of *another* read, never");
    println!("responded, or responded later than the detector-matching grace window.");
}
