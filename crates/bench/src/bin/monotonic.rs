//! §3.2 — PBS monotonic reads: Eq. 3 closed form, with the session-model
//! simulation validating the `k = 1 + γgw/γcr` exponent, and the bound
//! against a live session on the simulated store.

use pbs_bench::{report, store_run, HarnessOptions};
use pbs_core::{staleness, ReplicaConfig};
use pbs_dist::Exponential;
use pbs_kvs::{ClusterOptions, NetworkModel};
use pbs_workload::{FixedRate, OpMix, OpSource, OpStream, SessionModel, UniformKeys};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let opts = HarnessOptions::parse(100_000);
    println!("PBS monotonic reads (paper §3.2, Equation 3)");
    println!("p_sMR = p_s^(1 + γgw/γcr)");

    report::header("Violation probability vs. write/read rate ratio");
    let ratios = [0.1f64, 0.5, 1.0, 2.0, 5.0, 10.0];
    let configs = [(3u32, 1u32, 1u32), (3, 1, 2), (3, 2, 1), (2, 1, 1)];
    let mut rows = Vec::new();
    for (n, r, w) in configs {
        let cfg = ReplicaConfig::new(n, r, w).unwrap();
        let mut row = vec![cfg.to_string()];
        for &ratio in &ratios {
            // γgw = ratio, γcr = 1.
            row.push(format!("{:.4}", staleness::monotonic_reads_violation(cfg, ratio, 1.0)));
        }
        rows.push(row);
    }
    let ratio_labels: Vec<String> = ratios.iter().map(|r| format!("γgw/γcr={r}")).collect();
    report::table(&report::labeled_cols("config", &ratio_labels), &rows);

    report::header("Session simulation: empirical k vs. 1 + γgw/γcr");
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for &(gw, cr) in &[(0.5f64, 1.0f64), (1.0, 1.0), (4.0, 1.0), (0.2, 2.0)] {
        let session = SessionModel::new(gw, cr);
        let emp = session.empirical_k(&mut rng, opts.trials);
        rows.push(vec![
            format!("{gw}"),
            format!("{cr}"),
            format!("{:.4}", session.k()),
            format!("{emp:.4}"),
            format!("{:+.4}", emp - session.k()),
        ]);
    }
    report::table(&["γgw", "γcr", "k (Eq. 3)", "k (simulated)", "error"], &rows);

    report::header("Strict vs. plain monotonic reads (N=3, R=W=1)");
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let mut rows = Vec::new();
    for &ratio in &ratios {
        rows.push(vec![
            format!("{ratio}"),
            format!("{:.4}", staleness::monotonic_reads_violation(cfg, ratio, 1.0)),
            format!("{:.4}", staleness::strict_monotonic_reads_violation(cfg, ratio, 1.0)),
        ]);
    }
    report::table(&["γgw/γcr", "monotonic", "strict monotonic"], &rows);

    // One client reads key 1 every 4 ms while another writes it every 2 ms
    // (γgw/γcr = 2); the client table counts each read older than the
    // reader's last one. 4,000 reads at the default count.
    let reads = opts.trials.div_ceil(25);
    report::header("Eq. 3 bound vs. a live session on the store (N=3, R=W=1, γgw/γcr=2)");
    let (w, ars) = (Exponential::from_mean(10.0), Exponential::from_mean(1.0));
    let network = NetworkModel::w_ars(Arc::new(w), Arc::new(ars));
    let session = |client| -> Box<dyn OpSource> {
        let (gap_ms, mix) =
            if client == 0 { (4.0, OpMix::new(1.0)) } else { (2.0, OpMix::writes_only()) };
        Box::new(OpStream::new(FixedRate::new(gap_ms), UniformKeys::new(1), mix, 1))
    };
    let cluster = ClusterOptions::validation(cfg, opts.seed);
    let (live, _) = store_run(cluster, network, (reads as f64 * 4.0, 1_000.0), 2, None, |run| {
        run.run(session, |_| {})
    });
    report::table(
        &["session reads", "non-monotonic (store)", "Eq. 3 bound"],
        &[vec![
            live.reads().to_string(),
            format!("{:.4}", live.monotonic_violation_rate()),
            format!("{:.4}", staleness::monotonic_reads_violation(cfg, 2.0, 1.0)),
        ]],
    );
    println!("Eq. 3 freezes each read's quorum; on the store, writes keep propagating");
    println!("after they commit, so a session regresses less often than the bound.");
}
