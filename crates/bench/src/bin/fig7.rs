//! Figure 7 — t-visibility vs. replication factor `N ∈ {2,3,5,10}` with
//! `R=W=1` (§5.7), for LNKD-DISK, LNKD-SSD, and WAN.

use pbs_bench::{lin_spaced, report, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_wars::production::ProductionProfile;
use pbs_wars::TVisibility;

fn main() {
    let opts = HarnessOptions::parse(150_000);
    println!("Figure 7: t-visibility vs replication factor (§5.7), R=W=1");

    let ns = [2u32, 3, 5, 10];
    for profile in
        [ProductionProfile::LnkdDisk, ProductionProfile::LnkdSsd, ProductionProfile::Wan]
    {
        let ts: Vec<f64> = match profile {
            ProductionProfile::LnkdSsd => lin_spaced(0.0, 2.0, 9),
            ProductionProfile::LnkdDisk => lin_spaced(0.0, 20.0, 11),
            _ => lin_spaced(0.0, 90.0, 10),
        };
        let runs: Vec<TVisibility> = ns
            .iter()
            .map(|&n| {
                let model = profile.model(ReplicaConfig::new(n, 1, 1).expect("valid N"));
                opts.wars(model.as_ref(), &[(1, 1)]).remove(0)
            })
            .collect();

        report::header(&format!("{} — P(consistency) vs t (ms)", profile.name()));
        let labels: Vec<String> = ns.iter().map(|n| format!("N={n}")).collect();
        report::consistency_vs_t(&labels, runs.iter(), &ts, (1, 4));

        let mut rows = Vec::new();
        for (label, tv) in labels.iter().zip(&runs) {
            rows.push(vec![
                label.clone(),
                report::pct(tv.prob_consistent(0.0)),
                report::ms(tv.t_at_probability(0.999)),
            ]);
        }
        report::table(&["config", "P(consistent) at t=0", "t @ 99.9% (ms)"], &rows);
    }
    println!();
    println!("(paper, LNKD-DISK: t=0 consistency 57.5% at N=2 → 21.1% at N=10,");
    println!(" while t @ 99.9% only grows 45.3ms → 53.7ms)");
}
