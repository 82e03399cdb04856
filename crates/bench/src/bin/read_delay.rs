//! Ablation — §5.3's alternative knob: *"operators could chose to lower
//! (relative) W latencies through hardware configuration or by delaying
//! reads"*. This harness quantifies the delay-reads option on LNKD-DISK:
//! consistency gained per millisecond of read latency spent, compared
//! against simply raising R.

use pbs_bench::{report, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_wars::model::WithReadDelay;
use pbs_wars::production::lnkd_disk_model;

fn main() {
    let opts = HarnessOptions::parse(200_000);
    println!("Read-delay ablation (§5.3), LNKD-DISK, N=3");

    report::header("Delaying reads at R=W=1");
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let mut rows = Vec::new();
    for delay in [0.0f64, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0] {
        let model = WithReadDelay::new(lnkd_disk_model(cfg), delay);
        let tv = opts.wars(&model, &[(1, 1)]).remove(0);
        rows.push(vec![
            format!("{delay}"),
            report::pct(tv.prob_consistent(0.0)),
            report::ms(tv.t_at_probability(0.999)),
            report::ms(tv.read_latency_percentile(99.9)),
        ]);
    }
    report::table(
        &["read delay (ms)", "P(consistent t=0)", "t @ 99.9%", "Lr p99.9 (ms)"],
        &rows,
    );

    report::header("Versus raising R (no artificial delay)");
    // One trial stream serves every R.
    let grid = opts.wars(&lnkd_disk_model(cfg), &[(1, 1), (2, 1), (3, 1)]);
    let rows: Vec<Vec<String>> = grid
        .iter()
        .map(|tv| {
            vec![
                format!("R={}", tv.config().r()),
                report::pct(tv.prob_consistent(0.0)),
                report::ms(tv.read_latency_percentile(99.9)),
            ]
        })
        .collect();
    report::table(&["config", "P(consistent t=0)", "Lr p99.9 (ms)"], &rows);
    println!();
    println!("Trade-off: a ~10–20ms read delay buys most of the consistency R=2 offers,");
    println!("but adds that delay to *every* read — §5.3 calls this 'potentially");
    println!("detrimental to performance for read-dominated workloads'. Raising R only");
    println!("pays on the quorum tail.");
}
