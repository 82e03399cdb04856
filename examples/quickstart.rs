//! Quickstart — the terminal equivalent of the paper's interactive demo
//! (pbs.cs.berkeley.edu): pick `N`, `R`, `W`, get PBS answers.
//!
//! ```text
//! cargo run --release --example quickstart            # Cassandra defaults
//! cargo run --release --example quickstart -- 3 2 1   # custom N R W
//! ```

use pbs::math::{staleness, ReplicaConfig};
use pbs::wars::production::{lnkd_disk_model, lnkd_ssd_model};
use pbs::wars::TVisibility;

fn main() {
    // ---- configuration from argv (defaults: Cassandra's N=3, R=W=1) ------
    let args: Vec<u32> =
        std::env::args().skip(1).map(|a| a.parse().expect("N R W must be integers")).collect();
    let (n, r, w) = match args.as_slice() {
        [] => (3, 1, 1),
        [n, r, w] => (*n, *r, *w),
        _ => {
            eprintln!("usage: quickstart [N R W]");
            std::process::exit(2);
        }
    };
    let cfg = match ReplicaConfig::new(n, r, w) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            std::process::exit(2);
        }
    };

    println!("Probabilistically Bounded Staleness for {cfg}");
    println!(
        "quorum type: {}",
        if cfg.is_strict() { "strict (R+W > N) — always consistent" } else { "partial (R+W ≤ N)" }
    );

    // ---- "how consistent?" — k-staleness (closed form, Eq. 2) ------------
    println!("\nHow consistent? P(read within k versions of the latest write):");
    for k in [1u32, 2, 3, 5, 10] {
        println!("  k = {k:>2}: {:>8.4}%", 100.0 * staleness::prob_within_k_versions(cfg, k));
    }

    // ---- "how eventual?" — t-visibility under production latencies -------
    let trials = 100_000;
    for (name, tv) in [
        ("LNKD-SSD (SSD-backed Voldemort)", TVisibility::simulate(&lnkd_ssd_model(cfg), trials, 42)),
        ("LNKD-DISK (spinning disks)", TVisibility::simulate(&lnkd_disk_model(cfg), trials, 42)),
    ] {
        println!("\nHow eventual? t-visibility under {name}:");
        for t in [0.0, 1.0, 5.0, 10.0, 50.0] {
            println!("  P(consistent, t = {t:>4.0} ms) = {:>9.4}%", 100.0 * tv.prob_consistent(t));
        }
        let t = tv.t_at_probability(0.999);
        println!("  99.9% of reads are consistent within {t:.2} ms of commit");
        println!(
            "  latency p99.9: reads {:.2} ms, writes {:.2} ms",
            tv.read_latency_percentile(99.9),
            tv.write_latency_percentile(99.9)
        );
    }
}
