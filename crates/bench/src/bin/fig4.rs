//! Figure 4 — t-visibility with exponential latency distributions for `W`
//! and fixed `A=R=S` (§5.3). `N=3, R=W=1`; the W:ARS rate ratio sweeps
//! {1:4, 1:2, 1:1, 1:0.5, 1:0.2, 1:0.1} with ARS λ=1 (mean 1 ms). The
//! key points set each WARS curve beside Eq. 4's instant-read bound.

use pbs_bench::{lin_spaced, report, HarnessOptions};
use pbs_core::tvisibility::t_visibility_violation;
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

    let runs: Vec<TVisibility> = ratios
        .iter()
        .map(|&(w_rate, _)| opts.wars(&exponential_model(cfg, w_rate, 1.0), &[(1, 1)]).remove(0))
        .collect();

    report::header("P(consistency) vs t (ms), one column per ARSλ:Wλ ratio");
    let labels: Vec<&str> = ratios.iter().map(|(_, l)| *l).collect();
    report::consistency_vs_t(&labels, runs.iter(), &ts, (1, 4));

    report::header("Key points (paper §5.3)");
    let mut rows = Vec::new();
    for ((w_rate, label), tv) in ratios.iter().zip(&runs) {
        rows.push(vec![
            label.to_string(),
            report::pct(tv.prob_consistent(0.0)),
            report::ms(tv.t_at_probability(0.999)),
            report::ms(eq4_t_at_violation(cfg, *w_rate, 0.001)),
        ]);
    }
    report::table(&["ARSλ:Wλ", "P(consistent) at t=0", "t @ 99.9%", "Eq. 4 t @ 99.9%"], &rows);
    println!("(paper: λ=4 → 94% at t=0, 99.9% at ~1ms; λ=0.1 → 41% at t=0, 99.9% at ~65ms)");
}

/// The smallest `t` at which Eq. 4, nonincreasing in `t`, is at most
/// `target`: doubling to a bracket, then bisection to the last bit.
/// Panics if no finite `t` brings it that low.
fn eq4_t_at_violation(cfg: ReplicaConfig, w_rate: f64, target: f64) -> f64 {
    let holds = |t: f64| t_visibility_violation(cfg, w_rate, t) <= target;
    let (mut lo, mut hi) = (0.0, 1.0);
    while !holds(hi) {
        assert!(hi.is_finite(), "Eq. 4 never falls to {target} for {cfg}");
        (lo, hi) = (hi, 2.0 * hi);
    }
    while hi - lo > f64::EPSILON * hi {
        let mid = 0.5 * (lo + hi);
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}
