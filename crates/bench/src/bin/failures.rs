//! §6 "Failure modes" — staleness and availability under crashes, with and
//! without hinted handoff and anti-entropy, measured under **open-loop**
//! probe load (write→read pairs from an in-sim client actor). A failed
//! replica set of N nodes behaves like an N−F set; hints and Merkle sync
//! bound the damage.

use pbs_bench::{report, store_run, HarnessOptions};
use pbs_core::ReplicaConfig;
use pbs_dist::Exponential;
use pbs_kvs::{Cluster, ClusterOptions, NetworkModel};
use pbs_sim::SimTime;
use pbs_workload::{FixedRate, OpMix, OpSource, OpStream, UniformKeys};
use std::sync::Arc;

fn net() -> NetworkModel {
    NetworkModel::w_ars(
        Arc::new(Exponential::from_rate(0.1)), // mean 10ms writes (LNKD-DISK-ish)
        Arc::new(Exponential::from_rate(0.5)), // mean 2ms A=R=S
    )
}

/// Run open-loop write→read probes while one replica crash-loops; report
/// consistency, failure counts, and healing-mechanism activity.
fn scenario(
    name: &str,
    hinted: bool,
    sync_ms: Option<f64>,
    wipe: bool,
    pairs: usize,
    seed: u64,
) -> Vec<String> {
    let cfg = ReplicaConfig::new(3, 1, 2).unwrap(); // W=2: crashes hurt commits
    let mut opts = ClusterOptions::validation(cfg, seed);
    opts.hinted_handoff = hinted;
    opts.hint_timeout_ms = 100.0;
    opts.hint_flush_interval_ms = 200.0;
    opts.sync_interval_ms = sync_ms;
    opts.wipe_on_crash = wipe;
    opts.op_timeout_ms = 5_000.0;

    // One probe pair per 10 ms: a write, then a read of the same key 5 ms
    // later (racing the write's propagation tail).
    let duration_ms = pairs as f64 * 10.0;
    let writes = |_| -> Box<dyn OpSource> {
        Box::new(OpStream::new(FixedRate::new(10.0), UniformKeys::new(8), OpMix::writes_only(), 1))
    };
    // Crash-loop node 1: down 500ms out of every 2s.
    let crash_loop = |cluster: &mut Cluster| {
        for cycle in 0..((duration_ms / 2000.0).ceil() as usize + 1) {
            cluster.crash_node_at(1, SimTime::from_ms(250.0 + 2000.0 * cycle as f64), 500.0);
        }
    };
    let timing = (duration_ms, 1_000.0);
    let (rep, cluster) =
        store_run(opts, net(), timing, 1, Some(5.0), |run| run.run(writes, crash_loop));
    let hints: u64 = (0..3).map(|i| cluster.node(i).hints_delivered).sum();
    let syncs: u64 = (0..3).map(|i| cluster.node(i).sync_rounds).sum();

    vec![
        name.to_string(),
        report::pct(rep.consistency_rate()),
        rep.failed_writes().to_string(),
        rep.incomplete_reads().to_string(),
        hints.to_string(),
        syncs.to_string(),
    ]
}

fn main() {
    let opts = HarnessOptions::parse(4_000);
    // A run issues whole write→read pairs: an odd --trials rounds up.
    let pairs = opts.trials.div_ceil(2);
    println!("Failure modes (paper §6): crash-looping replica, N=3, R=1, W=2");
    println!("({} open-loop probe ops per scenario; node 1 down 500ms of every 2s)", 2 * pairs);

    report::header("Scenario comparison");
    let rows = vec![
        scenario("baseline (no healing)", false, None, false, pairs, opts.seed),
        scenario("hinted handoff", true, None, false, pairs, opts.seed),
        scenario("anti-entropy (200ms)", false, Some(200.0), false, pairs, opts.seed),
        scenario("hints + anti-entropy", true, Some(200.0), false, pairs, opts.seed),
        scenario("crash wipes state + hints", true, Some(200.0), true, pairs, opts.seed),
    ];
    report::table(
        &["scenario", "P(consistent)", "failed writes", "lost reads", "hints", "syncs"],
        &rows,
    );
    println!();
    println!("Expected shape: coordinator selection skips the crashed node, so writes fail");
    println!("only when the two healthy replicas cannot form the W=2 quorum (§6's 'an N");
    println!("replica set with F failures behaves like an N−F set'). The crashed replica");
    println!("accumulates staleness during downtime; hinted handoff repairs it after");
    println!("recovery and anti-entropy converges wiped state, lifting P(consistent).");
}
