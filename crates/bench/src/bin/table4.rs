//! Table 4 — the latency/staleness trade-off (§5.8): t-visibility for
//! `p_st = .001` plus 99.9th-percentile read/write latencies across `(R,W)`
//! with `N = 3`, for all four production fits.

use pbs_bench::{report, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_predictor::sla::{judge_grid, SlaSpec};
use pbs_wars::production::ProductionProfile;
use pbs_wars::TVisibility;

/// The `(R, W)` pairs of Table 4, in row order.
const PAIRS: [(u32, u32); 6] = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)];

fn main() {
    // The paper used 50k writes for t-visibility and 1M for latency; one
    // million trials serves both here.
    let HarnessOptions { trials, seed, threads } = HarnessOptions::parse(1_000_000);
    println!("Table 4: t-visibility @99.9% and p99.9 operation latencies (§5.8), N=3");
    println!("({trials} trials per cell, {threads} threads)");

    // Each row is the SLA judge's record of one configuration: p99.9
    // latencies and t-visibility at 99.9%.
    let spec = SlaSpec::consistency(0.999, 0.0);
    for profile in ProductionProfile::ALL {
        report::header(profile.name());
        let model = profile.model(ReplicaConfig::new(3, 1, 1).expect("valid"));
        let grid = TVisibility::simulate_grid(model.as_ref(), &PAIRS, trials, seed, threads);
        let rows: Vec<Vec<String>> = judge_grid(&grid, &spec)
            .evaluations
            .iter()
            .map(|e| {
                vec![
                    format!("R={}, W={}", e.cfg.r(), e.cfg.w()),
                    report::ms(e.read_latency),
                    report::ms(e.write_latency),
                    report::opt_ms(e.t_visibility),
                ]
            })
            .collect();
        report::table(&["config", "Lr p99.9 (ms)", "Lw p99.9 (ms)", "t @ 99.9% (ms)"], &rows);
    }

    println!();
    println!("Paper reference rows (Lr / Lw / t):");
    println!("  LNKD-SSD  R=1,W=1: 0.66 / 0.66 / 1.85     LNKD-DISK R=1,W=1: 0.66 / 10.99 / 45.5");
    println!("  YMMR      R=1,W=1: 5.58 / 10.83 / 1364.0  WAN       R=1,W=1: 3.4  / 55.12 / 113.0");
    println!("  YMMR      R=2,W=1: 32.6 / 10.73 / 202.0   (81.1% latency win vs R=3,W=1 strict)");
}
