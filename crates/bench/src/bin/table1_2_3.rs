//! Tables 1–3 — production latency percentiles and the Pareto+Exponential
//! mixture fits (§5.4–5.5).
//!
//! Table 1/2 are *inputs* (published summary statistics). This harness
//! (a) shows the paper's Table 3 fits and the operation-level percentiles
//! they imply, and (b) re-runs the fitting procedure from the published
//! percentile targets with our Nelder–Mead quantile matcher, reporting
//! parameters and N-RMSE side by side.

use pbs_bench::{report, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_dist::fit::{fit_mixture_to_percentiles, PercentileTarget};
use pbs_dist::production as fits;
use pbs_dist::LatencyDistribution;
use pbs_wars::production::{lnkd_disk_model, lnkd_ssd_model, ymmr_model};

fn show_fit_percentiles(name: &str, dist: &dyn LatencyDistribution, rows: &mut Vec<Vec<String>>) {
    for &pct in &[50.0, 95.0, 99.0, 99.9] {
        rows.push(vec![
            name.to_string(),
            format!("{pct}"),
            report::ms(dist.quantile(pct / 100.0)),
        ]);
    }
}

fn main() {
    let opts = HarnessOptions::parse(200_000);

    println!("Tables 1–3: production latency distributions and mixture fits (§5.4–5.5)");

    // ---- Table 3 as published ------------------------------------------------
    report::header("Table 3 — published one-way fits (this library's presets)");
    let rows = vec![
        vec!["LNKD-SSD W=A=R=S".into(), fits::lnkd_ssd().describe()],
        vec!["LNKD-DISK W".into(), fits::lnkd_disk_write().describe()],
        vec!["LNKD-DISK A=R=S".into(), "same as LNKD-SSD".into()],
        vec!["YMMR W".into(), fits::ymmr_write().describe()],
        vec!["YMMR A=R=S".into(), fits::ymmr_ars().describe()],
    ];
    report::table(&["component", "mixture"], &rows);

    report::header("One-way quantiles of the published fits");
    let mut rows = Vec::new();
    show_fit_percentiles("LNKD-SSD", &fits::lnkd_ssd(), &mut rows);
    show_fit_percentiles("LNKD-DISK W", &fits::lnkd_disk_write(), &mut rows);
    show_fit_percentiles("YMMR W", &fits::ymmr_write(), &mut rows);
    show_fit_percentiles("YMMR A=R=S", &fits::ymmr_ars(), &mut rows);
    report::table(&["fit", "pct", "one-way ms"], &rows);

    // ---- Operation-level comparison vs. Table 1/2 -----------------------------
    report::header("Implied operation latencies vs. published Tables 1–2");
    println!("Single-node op ≈ one round trip; Voldemort (Table 1) is per-node,");
    println!("Yammer (Table 2) ran N=3, R=W=2 — we simulate those exact shapes.");
    let mut rows = Vec::new();

    // Table 1: single-node Voldemort (N=1, R=W=1 → op = W + A one-way pair).
    for (name, model, published) in [
        (
            "LNKD-DISK (Table 1 disk)",
            lnkd_disk_model(ReplicaConfig::new(1, 1, 1).unwrap()),
            fits::table1_disk_targets(),
        ),
        (
            "LNKD-SSD (Table 1 SSD)",
            lnkd_ssd_model(ReplicaConfig::new(1, 1, 1).unwrap()),
            fits::table1_ssd_targets(),
        ),
    ] {
        let tv = opts.wars(&model, &[(1, 1)]).remove(0);
        let (targets, avg) = published;
        for t in &targets {
            rows.push(vec![
                name.to_string(),
                format!("p{}", t.pct),
                report::ms(tv.write_latency_percentile(t.pct)),
                report::ms(t.value_ms),
            ]);
        }
        let mean: f64 = tv.write_latencies().mean();
        rows.push(vec![name.to_string(), "mean".into(), report::ms(mean), report::ms(avg)]);
    }

    // Table 2: Yammer Riak, N=3, R=W=2.
    let ymmr = ymmr_model(ReplicaConfig::new(3, 2, 2).unwrap());
    let tv = opts.wars(&ymmr, &[(2, 2)]).remove(0);
    for t in fits::table2_read_targets() {
        rows.push(vec![
            "YMMR reads (Table 2)".into(),
            format!("p{}", t.pct),
            report::ms(tv.read_latency_percentile(t.pct)),
            report::ms(t.value_ms),
        ]);
    }
    for t in fits::table2_write_targets() {
        rows.push(vec![
            "YMMR writes (Table 2)".into(),
            format!("p{}", t.pct),
            report::ms(tv.write_latency_percentile(t.pct)),
            report::ms(t.value_ms),
        ]);
    }
    report::table(&["workload", "pct", "simulated ms", "published ms"], &rows);

    // ---- Refit from the published targets ------------------------------------
    report::header("Refitting mixtures from published percentiles (our Nelder–Mead)");
    let mut rows = Vec::new();
    // YMMR reads/writes have rich percentile tables → fit directly.
    for (name, targets, published_nrmse) in [
        ("YMMR write ops", fits::table2_write_targets(), fits::published_nrmse::YMMR_W),
        ("YMMR read ops", fits::table2_read_targets(), fits::published_nrmse::YMMR_ARS),
    ] {
        // Drop the min (p0) target: a two-component mixture's support starts
        // at min(xm, 0), making p0 uninformative.
        let t: Vec<PercentileTarget> = targets.into_iter().filter(|t| t.pct > 0.0).collect();
        let fit = fit_mixture_to_percentiles(&t);
        rows.push(vec![
            name.to_string(),
            format!(
                "{:.1}%: Pareto(xm={:.3}, α={:.3}) + {:.1}%: Exp(λ={:.5})",
                fit.pareto_weight * 100.0,
                fit.xm,
                fit.alpha,
                (1.0 - fit.pareto_weight) * 100.0,
                fit.lambda
            ),
            format!("{:.3}%", fit.n_rmse * 100.0),
            format!("{published_nrmse:.2}% (paper, one-way)"),
        ]);
    }
    report::table(&["series", "refit mixture", "our N-RMSE", "paper N-RMSE"], &rows);
    println!("(The paper fit one-way latencies under IID assumptions; we refit the published");
    println!(" operation-level percentiles, so parameters differ while N-RMSE is comparable.)");
}
