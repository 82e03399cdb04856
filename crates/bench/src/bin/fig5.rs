//! Figure 5 — read and write operation latency CDFs for the production
//! fits, N=3, R/W ∈ {1, 2, 3} (§5.5).

use pbs_bench::{report, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_wars::production::ProductionProfile;

fn main() {
    let opts = HarnessOptions::parse(100_000);
    println!("Figure 5: operation latency CDFs for production fits (§5.5), N=3");

    let pcts = [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9];

    // Read latency depends on R alone and write latency on W alone: the
    // diagonal carries all three of each.
    let diagonal = [(1u32, 1u32), (2, 2), (3, 3)];

    for profile in ProductionProfile::ALL {
        let model = profile.model(ReplicaConfig::new(3, 1, 1).unwrap());
        let grid = opts.wars(model.as_ref(), &diagonal);

        report::header(&format!("{} — read latency (ms) by percentile", profile.name()));
        let mut rows = Vec::new();
        for (tv, (r, _)) in grid.iter().zip(diagonal) {
            let mut row = vec![format!("R={r}")];
            for &p in &pcts {
                row.push(report::ms(tv.read_latency_percentile(p)));
            }
            rows.push(row);
        }
        let pct_labels: Vec<String> = pcts.iter().map(|p| format!("p{p}")).collect();
        let cols = report::labeled_cols("quorum", &pct_labels);
        report::table(&cols, &rows);

        report::header(&format!("{} — write latency (ms) by percentile", profile.name()));
        let mut rows = Vec::new();
        for (tv, (_, w)) in grid.iter().zip(diagonal) {
            let mut row = vec![format!("W={w}")];
            for &p in &pcts {
                row.push(report::ms(tv.write_latency_percentile(p)));
            }
            rows.push(row);
        }
        report::table(&cols, &rows);
    }
    println!();
    println!("(paper: for reads, LNKD-SSD ≈ LNKD-DISK — A=R=S share the same fit;");
    println!(" WAN R=1 is fast (one local replica) while R≥2 pays the 150ms round trip)");
}
