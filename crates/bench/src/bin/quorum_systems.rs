//! §2.1 context — classic quorum constructions: intersection probability
//! (Monte Carlo), exact mean quorum sizes and load, and the k-quorum
//! staleness of every replica over a cursor period, including the paper's
//! probabilistic-quorum asymptotics example (`N=100, R=W=30 → p_s ≈
//! 1.88e-6` vs. `N=3, R=W=1 → p_s = 2/3`).

use pbs_bench::{report, HarnessOptions};
use pbs_core::{staleness, ReplicaConfig};
use pbs_quorum::kquorum::RoundRobinWriter;
use pbs_quorum::{analysis, Grid, NodeSet, QuorumSystem, TreeQuorum};

fn main() {
    let opts = HarnessOptions::parse(200_000);
    println!("Quorum-system constructions and analysis (paper §2.1)");

    report::header("Probabilistic quorums: non-intersection probability (Eq. 1)");
    let mut rows = Vec::new();
    for (n, r, w) in [(3u32, 1u32, 1u32), (3, 1, 2), (3, 2, 2), (10, 3, 3), (100, 30, 30)] {
        let cfg = ReplicaConfig::new(n, r, w).unwrap();
        let exact = staleness::non_intersection_probability(cfg);
        let mc = if n <= 64 {
            format!(
                "{:.2e}",
                1.0 - analysis::intersection_probability(&cfg, opts.trials, opts.seed)
            )
        } else {
            "n/a (closed form only)".into()
        };
        rows.push(vec![cfg.to_string(), format!("{exact:.3e}"), mc]);
    }
    report::table(&["config", "p_s exact", "p_s Monte Carlo"], &rows);
    println!("(paper: N=100,R=W=30 → 1.88e-6 — 'excellent, but only asymptotically';");
    println!(" N=3,R=W=1 → 0.667)");

    report::header("Strict constructions: size and load");
    let systems: Vec<(&str, Box<dyn QuorumSystem>, &str)> = vec![
        ("Majority(N=25)", Box::new(ReplicaConfig::majority(25).unwrap()), "⌊N/2⌋+1 = 13"),
        ("Grid(5×5)", Box::new(Grid::new(5)), "2√N−1 = 9"),
        ("Tree(depth=4, skip=0)", Box::new(TreeQuorum::new(4, 0.0)), "path = log N = 4"),
        ("Tree(depth=4, skip=0.3)", Box::new(TreeQuorum::new(4, 0.3)), "mixed"),
    ];
    let mut rows = Vec::new();
    let quarter = opts.trials.div_ceil(4);
    for (name, sys, size_note) in &systems {
        let p = analysis::intersection_probability(sys.as_ref(), quarter, opts.seed);
        let mean_size: f64 = (0..sys.universe()).map(|node| sys.inclusion(node).0).sum();
        rows.push(vec![
            name.to_string(),
            size_note.to_string(),
            format!("{mean_size:.2}"),
            report::pct(p),
            format!("{:.4}", analysis::load(sys.as_ref())),
        ]);
    }
    report::table(&["system", "min quorum", "mean size", "P(intersect)", "load"], &rows);

    report::header("Deterministic k-quorums (single writer, round robin)");
    let mut rows = Vec::new();
    for (n, k) in [(9u32, 3u32), (10, 3), (12, 4)] {
        let mut writer = RoundRobinWriter::new(n, k);
        for _ in 0..(4 * k) {
            writer.write();
        }
        // Every replica after each write of one cursor period (`n` writes).
        let mut worst = 0u64;
        for _ in 0..n {
            writer.write();
            for node in 0..n {
                worst = worst.max(writer.staleness(NodeSet::singleton(node)));
            }
        }
        rows.push(vec![
            format!("N={n}, k={k}"),
            writer.group_size().to_string(),
            writer.worst_case_staleness_bound().to_string(),
            worst.to_string(),
        ]);
    }
    report::table(&["config", "⌈N/k⌉ per write", "bound", "worst observed"], &rows);
}
