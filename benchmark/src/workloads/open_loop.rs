//! `steady64` and `scale100k`: one long open-loop run each, drained window
//! by window. A round is one window; its only slice is
//! `Cluster::drain_window_into` plus the harness fold.

use super::{record_cluster_spans, Totals};
use crate::alloc::Snapshot;
use crate::harness::{fnv, fnv_start, Harness, Outcome, Phase};
use crate::trace::Tracer;
use pbs_core::ReplicaConfig;
use pbs_dist::Exponential;
use pbs_kvs::{ClientOptions, Cluster, ClusterOptions, NetworkModel, WindowDrain};
use pbs_predictor::Predictor;
use pbs_sim::SimTime;
use pbs_wars::IidModel;
use pbs_workload::{OpMix, OpStream, Poisson, SharedStream, UniformKeys, Zipf};
use std::sync::Arc;

const OP_TIMEOUT_MS: f64 = 2_000.0;
/// `W ~ Exp(0.1)`, `A = R = S ~ Exp(0.5)` (rates per ms): the paper's §5.2
/// validation legs.
const W_RATE: f64 = 0.1;
const ARS_RATE: f64 = 0.5;
/// Clients may hold at most this much table memory each (traced run).
const MAX_TABLE_BYTES_PER_CLIENT: f64 = 128.0;
/// Measured consistency must sit this close to the predictor's.
const CONSISTENCY_TOLERANCE: f64 = 0.05;

/// Key popularity of a shape.
#[derive(Debug, Clone, Copy)]
enum Keys {
    Uniform(u64),
    Zipf(u64, f64),
}

/// Everything that distinguishes `steady64` from `scale100k`.
#[derive(Debug, Clone, Copy)]
struct Shape {
    nodes: u32,
    clients: u32,
    ops_per_client_per_s: f64,
    keys: Keys,
    /// Adds the shape's clients: one boxed `OpStream` each (`steady64`) or
    /// one stateless shared source for all (`scale100k`).
    add_clients: fn(&mut Cluster, ClientOptions),
    /// Whether the ≤ 128 B/client table gate applies (shared-source path).
    compact_tables: bool,
    window_ms: f64,
    warm_windows: u32,
}

/// Key universe of `steady64`.
const STEADY64_KEYS: u64 = 64;
/// Key universe and Zipf exponent of `scale100k`.
const SCALE100K_KEYS: (u64, f64) = (1_000_000, 0.99);

const STEADY64: Shape = Shape {
    nodes: 3,
    clients: 64,
    ops_per_client_per_s: 78.125,
    keys: Keys::Uniform(STEADY64_KEYS),
    add_clients: |cluster, copts| {
        for _ in 0..STEADY64.clients {
            cluster.add_client(
                Box::new(OpStream::new(
                    Poisson::per_second(STEADY64.ops_per_client_per_s),
                    UniformKeys::new(STEADY64_KEYS),
                    OpMix::linkedin(),
                    1,
                )),
                copts,
            );
        }
    },
    compact_tables: false,
    window_ms: 500.0,
    warm_windows: 40,
};

const SCALE100K: Shape = Shape {
    nodes: 8,
    clients: 100_000,
    ops_per_client_per_s: 1.0,
    keys: Keys::Zipf(SCALE100K_KEYS.0, SCALE100K_KEYS.1),
    add_clients: |cluster, copts| {
        cluster.add_clients_shared(
            SCALE100K.clients,
            Arc::new(SharedStream::new(
                Poisson::per_second(SCALE100K.ops_per_client_per_s),
                Zipf::new(SCALE100K_KEYS.0, SCALE100K_KEYS.1),
                OpMix::linkedin(),
            )),
            copts,
        )
    },
    compact_tables: true,
    window_ms: 100.0,
    warm_windows: 5,
};

/// Live-byte readings at the quiescent points `profile --mem` uses (zeros
/// in the uninstrumented binary).
#[derive(Debug, Clone, Copy, Default)]
struct MemPoints {
    table_bytes_per_client: f64,
    steady_bytes_per_client: f64,
    bytes_per_key: f64,
}

struct Run {
    cluster: Cluster,
    drain: WindowDrain,
    totals: Totals,
    /// Closing instant of the last drained window (ms).
    now_ms: f64,
    mem: MemPoints,
}

fn network() -> NetworkModel {
    NetworkModel::w_ars(
        Arc::new(Exponential::from_rate(W_RATE)),
        Arc::new(Exponential::from_rate(ARS_RATE)),
    )
}

impl Run {
    /// One window: drain, then fold. Returns completed operations.
    fn window(&mut self, shape: &Shape, tr: &mut Tracer) -> u64 {
        self.now_ms += shape.window_ms;
        let until = SimTime::from_ms(self.now_ms);
        tr.span("kvs.cluster.drain", || {
            self.cluster.drain_window_into(until, &mut self.drain)
        });
        tr.span("harness.fold", || self.totals.fold(&self.drain))
    }

    /// Build the cluster from the seed and run the untimed warm-up pass.
    fn build(shape: &Shape, seed: u64, tr: &mut Tracer) -> (Run, u64) {
        let cfg = ReplicaConfig::new(3, 1, 1).expect("valid config");
        let mut opts = ClusterOptions::validation(cfg, seed);
        opts.nodes = shape.nodes;
        opts.op_timeout_ms = OP_TIMEOUT_MS;
        let copts = ClientOptions {
            op_timeout_ms: OP_TIMEOUT_MS,
            ..ClientOptions::default()
        };

        let mut cluster = tr.span("kvs.cluster.build", || Cluster::new(opts, network()));
        let base = Snapshot::now();
        tr.span("kvs.cluster.add_clients", || {
            (shape.add_clients)(&mut cluster, copts)
        });
        let mut run = Run {
            cluster,
            drain: WindowDrain::default(),
            totals: Totals::default(),
            now_ms: 1e-3,
            mem: MemPoints::default(),
        };
        // Process the StartClient events — every client's first arrival is
        // armed — without issuing any operation yet.
        tr.span("kvs.cluster.start", || {
            run.cluster.start_clients();
            run.cluster
                .drain_window_into(SimTime::from_ms(run.now_ms), &mut run.drain);
        });
        let after_tables = Snapshot::now();

        for _ in 0..shape.warm_windows {
            run.window(shape, tr);
        }
        let steady = Snapshot::now();
        let clients = shape.clients as f64;
        let tracked = run.cluster.ground_truth().tracked_keys().len().max(1) as f64;
        run.mem = MemPoints {
            table_bytes_per_client: (after_tables.live - base.live) as f64 / clients,
            steady_bytes_per_client: (steady.live - base.live) as f64 / clients,
            bytes_per_key: (steady.live - after_tables.live) as f64 / tracked,
        };
        let digest = fnv(fnv_start(), &run.totals.words());
        let digest = fnv(digest, &[run.cluster.events_processed()]);
        (run, digest)
    }
}

/// `Σ_k p_k · E_c(γ · p_k)`: expected consistency of a read of a key drawn
/// from `keys`, when commits arrive at `commit_rate_per_ms` over all keys
/// and each key sees its popularity's share of them.
fn predicted_consistency(predictor: &Predictor, keys: Keys, commit_rate_per_ms: f64) -> f64 {
    match keys {
        Keys::Uniform(n) => {
            predictor.expected_consistency_under_poisson(commit_rate_per_ms / n as f64)
        }
        Keys::Zipf(n, s) => {
            let weight = |rank: u64| (rank as f64).powf(-s);
            let norm: f64 = (1..=n).map(weight).sum();
            let mut total = 0.0;
            // Exact for the head, where popularity varies quickly; then
            // geometric buckets, each evaluated at its mean popularity.
            let mut lo = 1u64;
            while lo <= n {
                let hi = if lo < 1_000 {
                    lo
                } else {
                    ((lo as f64 * 1.05) as u64).min(n)
                };
                let mass: f64 = (lo..=hi).map(weight).sum::<f64>() / norm;
                let mean_p = mass / (hi - lo + 1) as f64;
                total += mass
                    * predictor.expected_consistency_under_poisson(commit_rate_per_ms * mean_p);
                lo = hi + 1;
            }
            total
        }
    }
}

fn run_shape(h: &mut Harness, shape: Shape) -> Result<Outcome, String> {
    let seed = h.seed();
    let mut run = h.set_up(|tr| Run::build(&shape, seed, tr))?;
    let mut prefix_peak_live = Snapshot::now().peak;

    // Exact counts over the prefix rounds.
    let (mut prefix_events, mut prefix_ops) = (0u64, 0u64);
    let (mut prefix_allocs, mut prefix_bytes, mut prefix_alloc_ops) = (0u64, 0u64, 0u64);
    let (mut prefix_peak_pending, mut prefix_cascade_share) = (0u64, 0.0);
    let mut traced_events = 0u64;

    h.begin_measure();
    while h.next_round() {
        let events0 = run.cluster.events_processed();
        let allocs0 = Snapshot::now();
        let ops = h.slice(Phase::Sim, |tr| run.window(&shape, tr));
        let allocs = Snapshot::now().since(&allocs0);
        let events = run.cluster.events_processed() - events0;
        if h.instrumented() {
            traced_events += events;
        }
        if h.in_prefix() {
            prefix_peak_live = Snapshot::now().peak;
            prefix_peak_pending = prefix_peak_pending.max(run.cluster.pending_events() as u64);
            prefix_cascade_share = run.cluster.scheduler_stats().cascaded as f64
                / run.cluster.events_processed().max(1) as f64;
            prefix_events += events;
            prefix_ops += ops;
            if h.instrumented() {
                prefix_allocs += allocs.allocs;
                prefix_bytes += allocs.bytes;
                prefix_alloc_ops += ops;
            }
        }
        let mut words = run.totals.words().to_vec();
        words.push(events);
        h.digest_push(&words);
    }
    h.end_measure();

    // Settle: stop arrivals, let in-flight operations finish or time out.
    let measured_ms = run.now_ms;
    h.tr.span("kvs.cluster.settle", || {
        run.cluster.stop_clients();
        run.now_ms += OP_TIMEOUT_MS + shape.window_ms;
        run.cluster
            .drain_window_into(SimTime::from_ms(run.now_ms), &mut run.drain);
        run.totals.fold(&run.drain);
    });

    // ---- correctness gate ----
    let gate = h.tr.begin("gate");
    let t = &run.totals;
    let stats = run.cluster.client_stats();
    let accounted = t.commits + t.failed_writes + t.reads + t.incomplete_reads;
    if stats.issued != accounted {
        return Err(format!(
            "issued {} ≠ completed + failed {accounted} after settle",
            stats.issued
        ));
    }
    if stats.shed != 0 || stats.dropped_results != 0 {
        return Err(format!(
            "open loop must keep up: shed {} dropped_results {}",
            stats.shed, stats.dropped_results
        ));
    }
    if t.reads == 0 || t.commits == 0 {
        return Err("no reads or no commits completed".into());
    }
    if t.write_latency.count() != t.commits || t.read_latency.count() != t.reads {
        return Err("latency summaries lost samples".into());
    }
    let cfg = run.cluster.replication();
    let model = IidModel::w_ars(
        cfg,
        "open-loop legs",
        Arc::new(Exponential::from_rate(W_RATE)),
        Arc::new(Exponential::from_rate(ARS_RATE)),
    );
    let predictor = Predictor::from_model_threads(&model, 40_000, seed, 1);
    let measured = t.consistent as f64 / t.reads as f64;
    let predicted = predicted_consistency(&predictor, shape.keys, t.commits as f64 / measured_ms);
    if (measured - predicted).abs() > CONSISTENCY_TOLERANCE {
        return Err(format!(
            "measured consistency {measured:.4} is not within ±{CONSISTENCY_TOLERANCE} of the \
             predictor's {predicted:.4}"
        ));
    }
    if h.tr.enabled()
        && run.mem.table_bytes_per_client > MAX_TABLE_BYTES_PER_CLIENT
        && shape.compact_tables
    {
        return Err(format!(
            "client tables cost {:.1} B/client (limit {MAX_TABLE_BYTES_PER_CLIENT})",
            run.mem.table_bytes_per_client
        ));
    }

    h.tr.end(gate);

    // ---- per-layer readings ----
    let sim_cal_s = h.prefix_cal_s(Phase::Sim);
    h.set_layer(
        "sim.events_per_op",
        prefix_events as f64 / prefix_ops.max(1) as f64,
    );
    h.set_layer(
        "sim.events_per_cal_s",
        prefix_events as f64 / sim_cal_s.max(f64::MIN_POSITIVE),
    );
    h.set_layer("sim.queue.peak_pending", prefix_peak_pending as f64);
    h.set_layer("sim.queue.cascaded_per_event", prefix_cascade_share);
    record_cluster_spans(h, traced_events);
    h.set_layer(
        "kvs.allocs_per_op",
        prefix_allocs as f64 / prefix_alloc_ops.max(1) as f64,
    );
    h.set_layer(
        "kvs.alloc_bytes_per_op",
        prefix_bytes as f64 / prefix_alloc_ops.max(1) as f64,
    );
    h.set_layer(
        "kvs.client.table_bytes_per_client",
        run.mem.table_bytes_per_client,
    );
    h.set_layer(
        "kvs.steady_bytes_per_client",
        run.mem.steady_bytes_per_client,
    );
    h.set_layer("kvs.bytes_per_key", run.mem.bytes_per_key);
    h.set_layer(
        "kvs.peak_live_mb",
        prefix_peak_live as f64 / (1u64 << 20) as f64,
    );
    let failed = stats.shed + stats.dropped_results + t.failed_writes + t.incomplete_reads;
    h.set_layer("kvs.fail_frac", failed as f64 / stats.issued as f64);

    // Tearing down 100k clients and a million-key ground truth is real
    // work; give it a span so it does not pass for harness overhead.
    h.tr.span("kvs.cluster.drop", || drop(run));
    Ok(Outcome {
        attempted: stats.issued + stats.shed,
        failed,
        modelled_timeouts: 0,
    })
}

/// Entry point of `steady64`.
pub fn run_steady64(h: &mut Harness) -> Result<Outcome, String> {
    run_shape(h, STEADY64)
}

/// Entry point of `scale100k`.
pub fn run_scale100k(h: &mut Harness) -> Result<Outcome, String> {
    run_shape(h, SCALE100K)
}
