//! Acceptance tests for the open-loop concurrency engine: client scale,
//! memory-boundedness, `pbs-mc` determinism, and predictor tracking.

use pbs::dist::Exponential;
use pbs::kvs::{
    ClientOptions, Cluster, ClusterOptions, EngineKind, NetworkModel, OpenLoopOptions,
    OpenLoopReport, OpenLoopRun,
};
use pbs::math::ReplicaConfig;
use pbs::predictor::Predictor;
use pbs::sim::SimTime;
use pbs::wars::IidModel;
use pbs::workload::{OpMix, OpSource, OpStream, Poisson, SharedStream, UniformKeys};
use std::sync::Arc;

const W_MEAN_MS: f64 = 10.0;
const ARS_MEAN_MS: f64 = 2.0;

fn net() -> NetworkModel {
    NetworkModel::w_ars(
        Arc::new(Exponential::from_mean(W_MEAN_MS)),
        Arc::new(Exponential::from_mean(ARS_MEAN_MS)),
    )
}

fn opts(seed: u64, op_timeout_ms: f64) -> ClusterOptions {
    let mut o = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).unwrap(), seed);
    o.op_timeout_ms = op_timeout_ms;
    o
}

fn poisson_source(per_client_per_sec: f64, keys: u64, read_frac: f64) -> Box<dyn OpSource> {
    Box::new(OpStream::new(
        Poisson::per_second(per_client_per_sec),
        UniformKeys::new(keys),
        OpMix::new(read_frac),
        1,
    ))
}

/// ≥ 10k concurrent clients: the engine sustains them in one simulation
/// with every client live (in-sim actor + lazy arrivals) and zero sheds.
#[test]
fn sustains_ten_thousand_clients() {
    let report = OpenLoopRun::new(
        opts(41, 1_000.0),
        net(),
        OpenLoopOptions::new(3_000.0, 1_000.0, 1_000.0),
        10_000,
        ClientOptions { op_timeout_ms: 1_000.0, ..ClientOptions::default() },
    )
    .run(|_| poisson_source(1.0, 256, 0.6), |_| {})
    .unwrap()
    .0;
    // 10k clients × 1 op/s × 3 s ≈ 30k ops.
    assert!(report.clients.issued > 25_000, "issued {}", report.clients.issued);
    assert_eq!(report.clients.shed, 0);
    assert_eq!(report.failed_writes(), 0, "reliable network, generous timeout");
    assert!(report.consistency_rate() > 0.5);
    // The event queue holds the messages of the ops in flight plus two
    // timers per client table (next arrival, next op timeout): nothing per
    // client, nothing per op awaiting its timeout — far below the 10k
    // clients and the ~30k-op workload, and independent of duration.
    assert!(
        report.peak_pending_events < 1_000,
        "queue should be O(in-flight messages), got {}",
        report.peak_pending_events
    );
}

/// The queue is bounded by in-flight work, not workload length or the
/// op-timeout window: a long workload (~40k ops at 2k ops/s, 500 ms
/// timeouts) over few clients keeps the scheduler queue at the messages of
/// the few dozen ops in flight.
#[test]
fn event_heap_bounded_by_in_flight_not_workload_length() {
    let report = OpenLoopRun::new(
        opts(43, 500.0),
        net(),
        OpenLoopOptions::new(20_000.0, 1_000.0, 500.0),
        64,
        ClientOptions { op_timeout_ms: 500.0, ..ClientOptions::default() },
    )
    .run(|_| poisson_source(2_000.0 / 64.0, 64, 0.6), |_| {})
    .unwrap()
    .0;
    assert!(report.clients.issued > 35_000, "issued {}", report.clients.issued);
    assert!(
        report.peak_pending_events < 300,
        "queue {} should be far below the {}-op workload",
        report.peak_pending_events,
        report.clients.issued
    );
    // Coordinators do not accumulate per-op state either: completed ops
    // stream out through the clients' bounded buffers window by window.
    assert_eq!(report.clients.shed, 0);
}

fn sharded(seed: u64, threads: usize) -> OpenLoopReport {
    OpenLoopRun::new(
        opts(seed, 1_000.0),
        net(),
        OpenLoopOptions::new(2_000.0, 500.0, 1_000.0),
        8,
        ClientOptions { op_timeout_ms: 1_000.0, ..ClientOptions::default() },
    )
    .run_sharded(8, threads, |_, _| poisson_source(25.0, 16, 0.6), |_| {})
    .unwrap()
}

/// The whole-workload sharded runner honours the `pbs-mc` determinism
/// contract: bit-identical per `(seed, threads)` — checked at threads=1
/// and threads=4 — and statistically equivalent across thread counts.
#[test]
fn sharded_replication_bitwise_deterministic_and_thread_equivalent() {
    let a1 = sharded(17, 1);
    let b1 = sharded(17, 1);
    assert_eq!(a1, b1, "threads=1 must be bit-reproducible");
    let a4 = sharded(17, 4);
    let b4 = sharded(17, 4);
    assert_eq!(a4, b4, "threads=4 must be bit-reproducible");
    assert_ne!(a1, a4, "thread counts shuffle RNG streams");
    assert!(
        (a1.consistency_rate() - a4.consistency_rate()).abs() < 0.05,
        "thread counts agree statistically: {} vs {}",
        a1.consistency_rate(),
        a4.consistency_rate()
    );
    let rate1 = a1.achieved_ops_per_sec();
    let rate4 = a4.achieved_ops_per_sec();
    assert!((rate1 - rate4).abs() / rate1 < 0.2, "{rate1} vs {rate4}");
}

/// One shared stateless source must reproduce per-client boxed copies of
/// the same stationary source **bit for bit**: identical per-client RNG
/// streams, identical drained windows, identical stats — on the plain
/// serial engine and across a partitioned (multi-table) plan. This is the
/// contract that lets million-client runs drop the per-client box.
#[test]
fn shared_source_reproduces_boxed_clients_bit_for_bit() {
    for kind in [EngineKind::Serial, EngineKind::SerialPartitioned { workers: 2 }] {
        let copts = ClientOptions { op_timeout_ms: 1_000.0, ..ClientOptions::default() };
        let arrivals = Poisson::per_second(20.0);
        let keys = UniformKeys::new(64);
        let mix = OpMix::new(0.6);
        let clients = 24u32;

        let mut boxed = Cluster::with_engine(opts(61, 1_000.0), net(), kind).unwrap();
        for _ in 0..clients {
            boxed.add_client(Box::new(OpStream::new(arrivals, keys, mix, 1)), copts);
        }
        let mut shared = Cluster::with_engine(opts(61, 1_000.0), net(), kind).unwrap();
        shared.add_clients_shared(clients, Arc::new(SharedStream::new(arrivals, keys, mix)), copts);

        boxed.start_clients();
        shared.start_clients();
        for w in 1..=6u32 {
            let until = SimTime::from_ms(w as f64 * 250.0);
            let da = boxed.drain_window(until);
            let db = shared.drain_window(until);
            assert_eq!(da.writes, db.writes, "window {w} writes diverged ({kind:?})");
            assert_eq!(da.reads, db.reads, "window {w} reads diverged ({kind:?})");
        }
        assert_eq!(boxed.client_stats(), shared.client_stats(), "stats diverged ({kind:?})");
        assert!(boxed.client_stats().issued > 50, "the run must actually do work");
    }
}

/// On a stationary low-load segment, measured open-loop consistency tracks
/// the `pbs-predictor` expectation for Poisson write traffic within ±0.05.
#[test]
fn low_load_consistency_tracks_predictor() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let keys = 16u64;
    let engine = OpenLoopOptions::new(10_000.0, 1_000.0, 2_000.0);
    let report = OpenLoopRun::new(
        opts(29, 2_000.0),
        net(),
        engine,
        32,
        ClientOptions { op_timeout_ms: 2_000.0, ..ClientOptions::default() },
    )
    .run_sharded(2, 2, |_, _| poisson_source(400.0 / 32.0, keys, 0.5), |_| {})
    .unwrap();
    assert!(report.reads() > 3_000);
    let measured = report.consistency_rate();

    let model = IidModel::w_ars(
        cfg,
        "tracking",
        Arc::new(Exponential::from_mean(W_MEAN_MS)),
        Arc::new(Exponential::from_mean(ARS_MEAN_MS)),
    );
    let predictor = Predictor::from_model_threads(&model, 60_000, 7, 2);
    let commit_rate_per_ms =
        report.commits() as f64 / report.runs as f64 / engine.duration_ms / keys as f64;
    let predicted = predictor.expected_consistency_under_poisson(commit_rate_per_ms);
    assert!(
        (measured - predicted).abs() <= 0.05,
        "open-loop measurement should track the predictor: measured {measured}, predicted {predicted}"
    );
    // Sanity: this segment is genuinely "low load" — staleness exists but
    // is mild.
    assert!(measured > 0.8 && measured < 1.0, "measured {measured}");
}
