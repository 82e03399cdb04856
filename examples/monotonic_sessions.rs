//! Monotonic-reads sessions (§3.2): validate the Eq. 3 closed form against
//! a live session on the simulated store — a client re-reading a key while
//! the rest of the world writes to it.
//!
//! ```text
//! cargo run --release --example monotonic_sessions
//! ```

use pbs::dist::Exponential;
use pbs::kvs::cluster::{Cluster, ClusterOptions};
use pbs::math::{staleness, ReplicaConfig};
use pbs::sim::SimDuration;
use pbs::workload::SessionModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    println!("PBS monotonic reads (§3.2) on {cfg}\n");

    // ---- closed form ---------------------------------------------------------
    println!("{:<12} {:>12} {:>16}", "γgw/γcr", "k = 1+ratio", "p_violation (Eq.3)");
    for ratio in [0.25f64, 1.0, 4.0] {
        let p = staleness::monotonic_reads_violation(cfg, ratio, 1.0);
        println!("{ratio:<12} {:>12.2} {:>16.4}", 1.0 + ratio, p);
    }

    // ---- session-model empirical k -------------------------------------------
    let mut rng = StdRng::seed_from_u64(5);
    let session = SessionModel::new(2.0, 1.0);
    println!(
        "\nSession simulation (γgw=2, γcr=1): empirical k = {:.3} vs closed-form {:.3}",
        session.empirical_k(&mut rng, 100_000),
        session.k()
    );

    // ---- live store: count non-monotonic session reads ------------------------
    // One client reads key 1 every 4 ms while writers commit every 2 ms
    // (γgw/γcr = 2). A session violation = this client observing an older
    // version than it previously observed.
    let mut cluster = Cluster::new(
        ClusterOptions::validation(cfg, 21),
        NetWrap::net(),
    );
    let key = 1u64;
    let session_reads = 4_000;
    let mut last_seen = 0u64;
    let mut violations = 0usize;
    for _ in 0..session_reads {
        // Two world writes between the client's reads.
        for _ in 0..2 {
            let _ = cluster.write(key);
        }
        let at = cluster.now() + SimDuration::from_ms(4.0);
        let r = cluster.read_at(key, at);
        if let Some(seq) = r.op.seq {
            if seq < last_seen {
                violations += 1;
            }
            last_seen = last_seen.max(seq);
        } else if last_seen > 0 {
            violations += 1; // saw data before, now nothing — also regressive
        }
    }
    let observed = violations as f64 / session_reads as f64;
    let predicted = staleness::monotonic_reads_violation(cfg, 2.0, 1.0);
    println!("\nLive store session ({session_reads} reads, 2 writes between reads):");
    println!("  non-monotonic reads observed : {observed:.4}");
    println!("  Eq. 3 closed-form bound      : {predicted:.4}");
    println!("\n→ the closed form is a (frozen-quorum) upper bound; expanding quorums");
    println!("  on the live store violate monotonicity strictly less often.");
}

/// Local helper so the example reads top-to-bottom.
struct NetWrap;
impl NetWrap {
    fn net() -> pbs::kvs::NetworkModel {
        pbs::kvs::NetworkModel::w_ars(
            Arc::new(Exponential::from_mean(10.0)),
            Arc::new(Exponential::from_mean(1.0)),
        )
    }
}
