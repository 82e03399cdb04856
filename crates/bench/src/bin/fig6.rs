//! Figure 6 — t-visibility for production operation latencies (§5.6):
//! LNKD-SSD, LNKD-DISK, WAN, YMMR with N=3 and (R,W) ∈ {(1,1),(1,2),(2,1)}.

use pbs_bench::{log_spaced, report, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_wars::production::ProductionProfile;
use pbs_wars::TVisibility;

fn main() {
    let opts = HarnessOptions::parse(200_000);
    println!("Figure 6: t-visibility for production fits (§5.6), N=3");

    let quorums = [(1u32, 1u32), (1, 2), (2, 1)];
    // P(consistent at t = 0) of each profile's (1, 1) column.
    let mut immediate = Vec::new();

    for profile in ProductionProfile::ALL {
        // Match each panel's x-range to the paper's.
        let ts: Vec<f64> = match profile {
            ProductionProfile::LnkdSsd => log_spaced(0.1, 2.0, 10),
            ProductionProfile::LnkdDisk => log_spaced(1.0, 300.0, 12),
            ProductionProfile::Wan => log_spaced(1.0, 300.0, 12),
            ProductionProfile::Ymmr => log_spaced(1.0, 3000.0, 12),
        };
        let model = profile.model(ReplicaConfig::new(3, 1, 1).unwrap());
        let runs = TVisibility::simulate_grid(
            model.as_ref(),
            &quorums,
            opts.trials,
            opts.seed,
            opts.threads,
        );
        immediate.push(runs[0].prob_consistent(0.0));

        report::header(&format!("{} — P(consistency) vs t (ms)", profile.name()));
        // t = 0 row first, then the log-spaced grid.
        let mut all_ts = vec![0.0];
        all_ts.extend(ts.iter().copied());
        let labels: Vec<String> =
            quorums.iter().map(|(r, w)| format!("R={r} W={w}")).collect();
        report::consistency_vs_t(&labels, runs.iter(), &all_ts, (2, 5));
    }

    report::header("Immediate consistency, P(consistent at t=0), R=W=1 (paper §5.6)");
    let mut rows = Vec::new();
    for (profile, p0) in ProductionProfile::ALL.into_iter().zip(immediate) {
        let paper = match profile {
            ProductionProfile::LnkdSsd => "97.4%",
            ProductionProfile::LnkdDisk => "43.9%",
            ProductionProfile::Ymmr => "89.3%",
            ProductionProfile::Wan => "~33%",
        };
        rows.push(vec![
            profile.name().to_string(),
            report::pct(p0),
            paper.to_string(),
        ]);
    }
    report::table(&["profile", "measured", "paper"], &rows);
}
