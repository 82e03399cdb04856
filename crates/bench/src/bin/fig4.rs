//! Figure 4 — t-visibility with exponential latency distributions for `W`
//! and fixed `A=R=S` (§5.3). `N=3, R=W=1`; the W:ARS rate ratio sweeps
//! {1:4, 1:2, 1:1, 1:0.5, 1:0.2, 1:0.1} with ARS λ=1 (mean 1 ms).

use pbs_bench::{lin_spaced, report, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_wars::production::exponential_model;
use pbs_wars::TVisibility;

fn main() {
    let opts = HarnessOptions::parse(200_000);
    println!("Figure 4: t-visibility under exponential W, A=R=S λ=1 (§5.3); N=3, R=W=1");

    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let ratios: [(f64, &str); 6] =
        [(4.0, "1:4"), (2.0, "1:2"), (1.0, "1:1"), (0.5, "1:0.50"), (0.2, "1:0.20"), (0.1, "1:0.10")];
    let ts = lin_spaced(0.0, 10.0, 21);

    let runs: Vec<(&str, TVisibility)> = ratios
        .iter()
        .map(|&(w_rate, label)| {
            let model = exponential_model(cfg, w_rate, 1.0);
            (label, TVisibility::simulate_parallel(&model, opts.trials, opts.seed, opts.threads))
        })
        .collect();

    report::header("P(consistency) vs t (ms), one column per ARSλ:Wλ ratio");
    let labels: Vec<&str> = ratios.iter().map(|(_, l)| *l).collect();
    report::consistency_vs_t(&labels, runs.iter().map(|(_, tv)| tv), &ts, (1, 4));

    report::header("Key points (paper §5.3)");
    let mut rows = Vec::new();
    for (label, tv) in &runs {
        rows.push(vec![
            label.to_string(),
            report::pct(tv.prob_consistent(0.0)),
            report::opt_ms(tv.t_at_probability(0.999)),
        ]);
    }
    report::table(&["ARSλ:Wλ", "P(consistent) at t=0", "t @ 99.9%"], &rows);
    println!("(paper: λ=4 → 94% at t=0, 99.9% at ~1ms; λ=0.1 → 41% at t=0, 99.9% at ~65ms)");
}
