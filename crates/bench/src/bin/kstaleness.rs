//! §3.1 — PBS k-staleness: closed form (Eq. 2), Monte-Carlo cross-check,
//! and the expanding-quorum comparison (Eq. 2 as an upper bound on a live
//! Dynamo-style system).

use pbs_bench::{report, HarnessOptions};
use pbs_core::{staleness, ReplicaConfig};
use pbs_quorum::analysis;
use pbs_wars::kt::{kt_violation_direct, KtOptions};
use pbs_wars::production::exponential_model;

fn main() {
    let opts = HarnessOptions::parse(200_000);
    println!("PBS k-staleness (paper §3.1, Equation 2)");
    println!("p_sk = (C(N-W,R)/C(N,R))^k — probability a read misses the last k versions");

    // ---- The paper's headline numbers -------------------------------------
    report::header("P(within k versions), closed form — §3.1 configurations");
    let ks = [1u32, 2, 3, 5, 10];
    let configs =
        [(3u32, 1u32, 1u32), (3, 1, 2), (3, 2, 1), (2, 1, 1), (3, 2, 2), (5, 1, 1), (5, 2, 2)];
    let mut rows = Vec::new();
    for (n, r, w) in configs {
        let cfg = ReplicaConfig::new(n, r, w).unwrap();
        let mut row = vec![cfg.to_string()];
        for &k in &ks {
            row.push(report::pct(staleness::prob_within_k_versions(cfg, k)));
        }
        row.push(format!("{:.3}", staleness::expected_staleness_versions(cfg)));
        rows.push(row);
    }
    let k_labels: Vec<String> = ks.iter().map(|k| format!("k={k}")).collect();
    let mut cols = report::labeled_cols("config", &k_labels);
    cols.push("E[stale]");
    report::table(&cols, &rows);
    println!("(paper: N=3,R=W=1 → k=3: 0.703, k=5: >0.868, k=10: >0.98;");
    println!(" N=3,R=1,W=2 → k=1: 2/3, k=2: 8/9, k=5: >0.995)");

    // ---- Monte-Carlo cross-check on random quorum draws --------------------
    report::header("Closed form vs. frozen-quorum Monte Carlo");
    let mc_trials = opts.trials;
    let mut rows = Vec::new();
    for (n, r, w) in [(3u32, 1u32, 1u32), (3, 1, 2), (5, 2, 1)] {
        let cfg = ReplicaConfig::new(n, r, w).unwrap();
        for k in [1u32, 2, 5] {
            let exact = staleness::k_staleness_violation(cfg, k);
            let mc = analysis::k_staleness_mc(&cfg, k, mc_trials, opts.seed);
            rows.push(vec![
                cfg.to_string(),
                k.to_string(),
                format!("{exact:.6}"),
                format!("{mc:.6}"),
                format!("{:+.4}", mc - exact),
            ]);
        }
    }
    report::table(&["config", "k", "closed form", "Monte Carlo", "error"], &rows);

    // ---- Expanding quorums: Eq. 2 is an upper bound -------------------------
    report::header("Eq. 2 (frozen) vs. live expanding quorums (WARS ⟨k,0⟩ direct MC)");
    println!("Writes spaced 10ms apart; anti-entropy = quorum expansion only.");
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let model = exponential_model(cfg, 0.1, 0.5);
    let mut rows = Vec::new();
    for k in [1u32, 2, 3, 5] {
        let frozen = staleness::k_staleness_violation(cfg, k);
        let live = kt_violation_direct(
            &model,
            KtOptions {
                k,
                t_ms: 0.0,
                gap_ms: 10.0,
                trials: opts.trials.div_ceil(4),
                seed: opts.seed,
                threads: opts.threads,
            },
        );
        rows.push(vec![
            k.to_string(),
            format!("{frozen:.4}"),
            format!("{:.4}", live.violation),
            if bound_holds(live.violation, frozen, live.trials) { "yes" } else { "VIOLATED" }
                .into(),
        ]);
    }
    report::table(&["k", "Eq.2 bound", "expanding (live)", "bound holds"], &rows);
}

/// Whether a Monte-Carlo violation estimate `live` over `trials` trials
/// keeps under `bound`, allowing three binomial standard errors of
/// sampling noise at `bound`.
fn bound_holds(live: f64, bound: f64, trials: usize) -> bool {
    live <= bound + 3.0 * (bound * (1.0 - bound) / trials as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::bound_holds;

    #[test]
    fn a_single_trial_cannot_refute_the_bound() {
        assert!(bound_holds(1.0, 2.0 / 3.0, 1));
    }

    #[test]
    fn four_standard_errors_over_the_bound_refute_it() {
        let (bound, trials) = (0.4444, 5_000);
        let se = (bound * (1.0 - bound) / trials as f64).sqrt();
        assert!(bound_holds(bound + 2.0 * se, bound, trials));
        assert!(!bound_holds(bound + 4.0 * se, bound, trials));
    }
}
