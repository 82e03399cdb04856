//! §3.3 — load and capacity under staleness tolerance: the k-staleness
//! load lower bound `(1 − p^{1/(2k)})/√N` versus the strict and
//! ε-intersecting bounds, plus the exact loads of real constructions.

use pbs_bench::{report, HarnessOptions};
use pbs_core::{load, ReplicaConfig};
use pbs_quorum::{analysis, Grid, QuorumSystem, TreeQuorum};

fn main() {
    let opts = HarnessOptions::parse(100_000);
    println!("Quorum-system load under staleness tolerance (paper §3.3)");

    report::header("Load lower bounds vs. staleness tolerance k (N=9)");
    let n = 9u32;
    let ps = [0.1f64, 0.01, 0.001];
    let mut rows = Vec::new();
    rows.push(vec![
        "strict (1/√N)".to_string(),
        String::new(),
        format!("{:.4}", load::strict_load_lower_bound(n)),
        format!("{:.2}", load::capacity_from_load(load::strict_load_lower_bound(n))),
    ]);
    for &p in &ps {
        for k in [1u32, 2, 5, 10] {
            let bound = load::k_staleness_load_lower_bound(n, p, k);
            rows.push(vec![
                format!("k-staleness, p={p}"),
                format!("k={k}"),
                format!("{bound:.4}"),
                format!("{:.2}", load::capacity_from_load(bound)),
            ]);
        }
    }
    report::table(&["system", "k", "load ≥", "capacity ≤ 1/load"], &rows);
    println!("(staleness tolerance exponentially lowers the load floor → higher capacity)");

    report::header("Monotonic-reads load bound (N=9, p=0.01)");
    let mut rows = Vec::new();
    for &(gw, cr) in &[(0.1f64, 1.0f64), (1.0, 1.0), (4.0, 1.0)] {
        let bound = load::monotonic_reads_load_lower_bound(n, 0.01, gw, cr);
        rows.push(vec![
            format!("{gw}"),
            format!("{cr}"),
            format!("{:.2}", 1.0 + gw / cr),
            format!("{bound:.4}"),
        ]);
    }
    report::table(&["γgw", "γcr", "effective k", "load ≥"], &rows);

    report::header("Load of classic constructions (uniform strategy)");
    let systems: Vec<(&str, Box<dyn QuorumSystem>)> = vec![
        ("Majority(N=9)", Box::new(ReplicaConfig::majority(9).unwrap())),
        ("Grid(3×3)", Box::new(Grid::new(3))),
        ("Tree(depth=3, skip=0)", Box::new(TreeQuorum::new(3, 0.0))),
        ("Tree(depth=3, skip=0.3)", Box::new(TreeQuorum::new(3, 0.3))),
        ("R-of-N(N=9, R=3, W=3)", Box::new(ReplicaConfig::new(9, 3, 3).unwrap())),
        ("R-of-N(N=9, R=1, W=1)", Box::new(ReplicaConfig::new(9, 1, 1).unwrap())),
    ];
    let mut rows = Vec::new();
    let p_seed = rand::child(opts.seed, 1);
    for (name, sys) in &systems {
        let l = analysis::load(sys.as_ref());
        let p_int = analysis::intersection_probability(sys.as_ref(), opts.trials, p_seed);
        rows.push(vec![
            name.to_string(),
            format!("{l:.4}"),
            format!("{:.4}", load::capacity_from_load(l)),
            report::pct(p_int),
        ]);
    }
    report::table(&["system", "load", "capacity", "P(intersect)"], &rows);
}
