//! §6 "Latency/Staleness SLAs" — the automatic replication-parameter
//! optimizer: for each production profile and SLA, exhaustively evaluate
//! the (R, W) grid and report the cheapest qualifying configuration.

use pbs_bench::{report, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_predictor::sla::{judge_grid, SlaSpec};
use pbs_wars::production::ProductionProfile;
use pbs_wars::TVisibility;

/// Every `(R, W)` of `N = n` for one profile, off one trial stream.
fn simulate_all(profile: ProductionProfile, n: u32, opts: &HarnessOptions) -> Vec<TVisibility> {
    let cfgs: Vec<ReplicaConfig> = ReplicaConfig::all_for_n(n).collect();
    let pairs: Vec<(u32, u32)> = cfgs.iter().map(|c| (c.r(), c.w())).collect();
    opts.wars(profile.model(cfgs[0]).as_ref(), &pairs)
}

fn main() {
    let opts = HarnessOptions::parse(100_000);
    println!("SLA-driven configuration search (paper §6), N=3 grid");

    let slas = [
        ("99.9% consistent immediately (t=0)", SlaSpec::consistency(0.999, 0.0)),
        ("99.9% consistent within 10ms", SlaSpec::consistency(0.999, 10.0)),
        ("99.9% consistent within 100ms", SlaSpec::consistency(0.999, 100.0)),
        ("99% consistent within 1ms", SlaSpec::consistency(0.99, 1.0)),
    ];

    for profile in ProductionProfile::ALL {
        report::header(profile.name());
        let grid = simulate_all(profile, 3, &opts);
        let mut rows = Vec::new();
        for (label, spec) in &slas {
            let result = judge_grid(&grid, spec);
            match result.best_config() {
                Some(best) => rows.push(vec![
                    label.to_string(),
                    format!("R={}, W={}", best.cfg.r(), best.cfg.w()),
                    report::ms(best.read_latency),
                    report::ms(best.write_latency),
                    report::pct(best.consistency),
                ]),
                None => rows.push([*label, "none", "-", "-", "-"].map(String::from).to_vec()),
            }
        }
        report::table(
            &["SLA", "chosen config", "Lr p99.9", "Lw p99.9", "P(consistent)"],
            &rows,
        );
    }

    report::header("Durability disentangled from latency (LNKD-DISK, min W=2)");
    let mut spec = SlaSpec::consistency(0.999, 100.0);
    spec.min_write_quorum = 2;
    let mut rows = Vec::new();
    for n in [3u32, 5] {
        let result = judge_grid(simulate_all(ProductionProfile::LnkdDisk, n, &opts), &spec);
        if let Some(best) = result.best_config() {
            rows.push(vec![
                format!("N={n}"),
                format!("R={}, W={}", best.cfg.r(), best.cfg.w()),
                report::ms(best.combined_latency()),
            ]);
        }
    }
    report::table(&["replication", "chosen config", "Lr+Lw p99.9 (ms)"], &rows);
    println!("(§6: 'operators can specify a minimum replication factor for durability…");
    println!(" but also automatically increase N, decreasing tail latency for fixed R, W')");
}
