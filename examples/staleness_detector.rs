//! Asynchronous staleness detection (§4.3) on the live simulated store:
//! coordinators compare late read responses with what they returned, and we
//! grade the detector against the online ground-truth watermark — including
//! the paper's predicted false-positive mode (in-flight writes). Traffic is
//! open-loop: an in-sim client actor writes a single hot key and probes
//! each commit with a read 3 ms later, with many operations in flight.
//!
//! ```text
//! cargo run --release --example staleness_detector
//! ```

use pbs::dist::Exponential;
use pbs::kvs::{ClientOptions, ClusterOptions, NetworkModel, OpenLoopOptions, OpenLoopRun};
use pbs::math::ReplicaConfig;
use pbs::workload::{FixedRate, OpMix, OpSource, OpStream, UniformKeys};
use std::sync::Arc;

fn main() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let mut opts = ClusterOptions::validation(cfg, 11);
    opts.op_timeout_ms = 5_000.0;
    let network = NetworkModel::w_ars(
        Arc::new(Exponential::from_mean(10.0)), // disk-like writes
        Arc::new(Exponential::from_mean(2.0)),  // fast A=R=S
    );

    // A single hot key: one write every 6 ms, each probed by a read 3 ms
    // after its commit — plenty of reordering *and* in-flight writes.
    let pairs = 10_000usize;
    println!("Running ~{} open-loop operations against a simulated {cfg} cluster…", pairs * 2);
    let report = OpenLoopRun::new(
        opts,
        network,
        OpenLoopOptions::new(pairs as f64 * 6.0, 1_000.0, opts.op_timeout_ms),
        1,
        ClientOptions {
            op_timeout_ms: opts.op_timeout_ms,
            probe_read_offset_ms: Some(3.0),
            ..ClientOptions::default()
        },
    )
    .run(
        |_| -> Box<dyn OpSource> {
            Box::new(OpStream::new(
                FixedRate::new(6.0),
                UniformKeys::new(1),
                OpMix::writes_only(),
                1,
            ))
        },
        |_| {},
    )
    .expect("the serial engine accepts every latency model")
    .0;

    let reads = report.reads();
    let stale = reads - report.consistent();
    println!(
        "\nGround truth: {reads} reads, {stale} stale ({:.2}% consistent)",
        100.0 * report.consistency_rate()
    );

    let d = report.detector;
    println!("\nDetector (§4.3): compare the N−R late responses to the returned value");
    println!("  flagged reads:     {}", d.flagged);
    println!("  true positives:    {}", d.true_positives);
    println!(
        "  false positives:   {}  ← in-flight/newer-but-uncommitted versions",
        d.false_positives
    );
    println!("  missed stale:      {}", d.missed_stale);
    println!("  precision {:.3}, recall {:.3}", d.precision(), d.recall());

    println!("\nStaleness depth (k-staleness on the live store):");
    let mean_behind = if stale > 0 {
        report.versions_behind_total as f64 / stale as f64
    } else {
        0.0
    };
    println!("  mean versions behind over stale reads: {mean_behind:.2}");
    println!("\n→ even when a read is stale, it is almost always exactly one version");
    println!("  behind — the paper's argument for why k-staleness tolerance is cheap.");
}
