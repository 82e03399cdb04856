//! `storm_audit`: simulate-and-audit cycles. Cycle *i* builds an 8-node
//! cluster seeded `seed + i`, runs 10 simulated seconds of write-heavy load
//! under `FaultProfile::storm` with one mid-cycle crash and the op history
//! on, settles, takes the history, and hands it to `check_run`.
//!
//! A round is one cycle: five `Sim` slices (four 2.5 s windows + the settle
//! and `take_history`) and one `Audit` slice.

use super::{record_cluster_spans, Totals};
use crate::harness::{fnv, fnv_start, Harness, Outcome, Phase};
use crate::trace::Tracer;
use pbs_core::ReplicaConfig;
use pbs_dist::Pareto;
use pbs_kvs::checker::lin::{check_lin, LinOptions};
use pbs_kvs::checker::{
    check_order, check_run, relabel_reads, replay_sessions, CheckReport, OpHistory,
};
use pbs_kvs::{ClientOptions, Cluster, ClusterOptions, FaultProfile, NetworkModel, WindowDrain};
use pbs_sim::SimTime;
use pbs_workload::{OpMix, OpStream, Poisson, UniformKeys};
use std::sync::Arc;

/// Nodes in the cluster.
pub const NODES: u32 = 8;
const CLIENTS: u32 = 64;
const OPS_PER_CLIENT_PER_S: f64 = 31.25;
const KEYS: u64 = 256;
const WRITE_FRACTION: f64 = 0.5;
const WINDOW_MS: f64 = 2_500.0;
const WINDOWS: u32 = 4;
const OP_TIMEOUT_MS: f64 = 2_000.0;

/// The storm's network: heavy-tailed Pareto legs (also what the PDES probe
/// runs on, since their support minimum gives the lookahead).
pub fn network() -> NetworkModel {
    NetworkModel::w_ars(
        Arc::new(Pareto::new(1.5, 1.2)),
        Arc::new(Pareto::new(0.8, 2.0)),
    )
}

/// Cluster options of one cycle.
pub fn cluster_options(seed: u64) -> ClusterOptions {
    let cfg = ReplicaConfig::new(3, 1, 1).expect("valid config");
    let mut opts = ClusterOptions::validation(cfg, seed);
    opts.nodes = NODES;
    opts.op_timeout_ms = OP_TIMEOUT_MS;
    opts.read_repair = true;
    opts.hinted_handoff = true;
    opts
}

/// Add the cycle's 64 write-heavy clients.
pub fn add_clients(cluster: &mut Cluster) {
    let copts = ClientOptions {
        op_timeout_ms: OP_TIMEOUT_MS,
        ..ClientOptions::default()
    };
    for _ in 0..CLIENTS {
        cluster.add_client(
            Box::new(OpStream::new(
                Poisson::per_second(OPS_PER_CLIENT_PER_S),
                UniformKeys::new(KEYS),
                OpMix::new(1.0 - WRITE_FRACTION),
                1,
            )),
            copts,
        );
    }
}

/// Which node crashes, when, and for how long — a pure function of the
/// cycle seed, always inside the loaded part of the cycle.
fn crash_plan(seed: u64) -> (usize, f64, f64) {
    let node = (seed % NODES as u64) as usize;
    let at_ms = 3_000.0 + (seed % 5) as f64 * 1_000.0;
    let down_ms = 1_000.0 + (seed % 3) as f64 * 500.0;
    (node, at_ms, down_ms)
}

/// Exact per-cycle counters.
#[derive(Debug, Clone, Copy, Default)]
struct CycleCounts {
    issued: u64,
    shed: u64,
    dropped_results: u64,
    events: u64,
    history_ops: u64,
    repairs: u64,
    hints: u64,
    lin_keys: u64,
    lin_violations: u64,
    lin_exhausted: u64,
    peak_pending: u64,
    cascaded: u64,
}

impl CycleCounts {
    /// Accumulate another cycle's counters (peaks take the maximum).
    fn add(&mut self, o: &CycleCounts) {
        self.issued += o.issued;
        self.shed += o.shed;
        self.dropped_results += o.dropped_results;
        self.events += o.events;
        self.history_ops += o.history_ops;
        self.repairs += o.repairs;
        self.hints += o.hints;
        self.lin_keys += o.lin_keys;
        self.lin_violations += o.lin_violations;
        self.lin_exhausted += o.lin_exhausted;
        self.peak_pending = self.peak_pending.max(o.peak_pending);
        self.cascaded += o.cascaded;
    }
}

struct Cycle {
    totals: Totals,
    counts: CycleCounts,
    check: CheckReport,
}

impl Cycle {
    fn words(&self) -> Vec<u64> {
        let c = &self.counts;
        let mut w = self.totals.words().to_vec();
        w.extend([
            c.issued,
            c.events,
            c.history_ops,
            c.repairs,
            c.hints,
            c.lin_keys,
            c.lin_violations,
            self.check.sessions.monotonic_violations,
            self.check.labels.stale_reads,
            self.check.order.writes_tracked,
        ]);
        w
    }

    /// The cycle's gate: every cross-check clean and no key left unproven.
    fn gate(&self, seed: u64) -> Result<(), String> {
        if !self.check.is_clean() {
            return Err(format!(
                "cycle seed {seed}: checker unclean: {:?}",
                self.check
            ));
        }
        if self.check.lin.exhausted_keys != 0 {
            return Err(format!(
                "cycle seed {seed}: WGL budget exhausted on {} keys",
                self.check.lin.exhausted_keys
            ));
        }
        let t = &self.totals;
        let accounted = t.commits + t.failed_writes + t.reads + t.incomplete_reads;
        if self.counts.issued != accounted || self.counts.dropped_results != 0 {
            return Err(format!(
                "cycle seed {seed}: issued {} ≠ accounted {accounted} (dropped results {})",
                self.counts.issued, self.counts.dropped_results
            ));
        }
        if accounted != self.counts.history_ops {
            return Err(format!(
                "cycle seed {seed}: history holds {} ops, {accounted} completed",
                self.counts.history_ops
            ));
        }
        Ok(())
    }
}

/// Build one cycle's cluster (untimed): storm installed, crash scheduled,
/// history on, clients added and started.
fn build(seed: u64, tr: &mut Tracer) -> Cluster {
    let mut cluster = tr.span("kvs.cluster.build", || {
        Cluster::new(cluster_options(seed), network())
    });
    cluster.enable_history();
    cluster
        .network()
        .set_fault_profile(FaultProfile::storm(seed))
        .expect("the storm preset is a valid profile");
    let (node, at_ms, down_ms) = crash_plan(seed);
    cluster.crash_node_at(node, SimTime::from_ms(at_ms), down_ms);
    tr.span("kvs.cluster.add_clients", || add_clients(&mut cluster));
    tr.span("kvs.cluster.start", || {
        cluster.start_clients();
        cluster.drain_window(SimTime::from_ms(1e-3));
    });
    cluster
}

/// One cycle in flight: the cluster plus everything drained from it.
struct CycleRun {
    cluster: Cluster,
    drain: WindowDrain,
    totals: Totals,
    history: OpHistory,
    check: CheckReport,
}

impl CycleRun {
    fn new(seed: u64, tr: &mut Tracer) -> Self {
        Self {
            cluster: build(seed, tr),
            drain: WindowDrain::default(),
            totals: Totals::default(),
            history: OpHistory::new(),
            check: CheckReport::default(),
        }
    }

    /// Loaded window `w` (1-based): drain + fold. Returns completed ops.
    fn window(&mut self, w: u32, tr: &mut Tracer) -> u64 {
        let until = SimTime::from_ms(1e-3 + w as f64 * WINDOW_MS);
        tr.span("kvs.cluster.drain", || {
            self.cluster.drain_window_into(until, &mut self.drain)
        });
        tr.span("harness.fold", || self.totals.fold(&self.drain))
    }

    /// Stop arrivals, let in-flight operations finish or time out, drain
    /// them, and take the history. Returns completed ops.
    fn settle(&mut self, tr: &mut Tracer) -> u64 {
        let until = SimTime::from_ms(1e-3 + WINDOWS as f64 * WINDOW_MS + OP_TIMEOUT_MS + 500.0);
        self.cluster.stop_clients();
        tr.span("kvs.cluster.drain", || {
            self.cluster.drain_window_into(until, &mut self.drain)
        });
        let ops = tr.span("harness.fold", || self.totals.fold(&self.drain));
        self.history = tr.span("kvs.history.take", || self.cluster.take_history());
        ops
    }

    /// `check_run` on the taken history. Returns history ops audited.
    fn audit(&mut self, tr: &mut Tracer) -> u64 {
        self.check = tr.span("kvs.checker.check_run", || {
            check_run(&self.history, &self.cluster, false)
        });
        self.history.len() as u64
    }

    /// The four public checkers called one by one on the same history, each
    /// in its own span — the per-checker cost `check_run` hides.
    fn checker_breakdown(&self, tr: &mut Tracer) {
        let stats = self.cluster.client_stats();
        tr.span("kvs.checker.sessions", || {
            replay_sessions(&self.history, &stats)
        });
        tr.span("kvs.checker.labels", || relabel_reads(&self.history));
        tr.span("kvs.checker.order", || check_order(&self.history, NODES));
        tr.span("kvs.checker.lin", || {
            check_lin(&self.history, &LinOptions::default())
        });
    }

    fn finish(self) -> Cycle {
        let stats = self.cluster.client_stats();
        let sched = self.cluster.scheduler_stats();
        let (mut repairs, mut hints) = (0, 0);
        for id in 0..NODES as usize {
            repairs += self.cluster.node(id).repairs_sent;
            hints += self.cluster.node(id).hints_delivered;
        }
        let counts = CycleCounts {
            issued: stats.issued,
            shed: stats.shed,
            dropped_results: stats.dropped_results,
            events: self.cluster.events_processed(),
            history_ops: self.history.len() as u64,
            repairs,
            hints,
            lin_keys: self.check.lin.keys_checked,
            lin_violations: self.check.lin.violation_count(),
            lin_exhausted: self.check.lin.exhausted_keys,
            peak_pending: sched.peak_pending as u64,
            cascaded: sched.cascaded,
        };
        Cycle {
            totals: self.totals,
            counts,
            check: self.check,
        }
    }
}

/// Entry point of `storm_audit`.
pub fn run(h: &mut Harness) -> Result<Outcome, String> {
    let seed = h.seed();
    // Set-up = one full untimed cycle on the run's own seed; measured cycle
    // i then uses seed + 1 + i.
    let mut warm_gate = Ok(());
    h.set_up(|tr| {
        let mut c = CycleRun::new(seed, tr);
        for w in 1..=WINDOWS {
            c.window(w, tr);
        }
        c.settle(tr);
        c.audit(tr);
        let c = c.finish();
        warm_gate = c.gate(seed);
        ((), fnv(fnv_start(), &c.words()))
    })?;
    warm_gate?;

    let mut prefix = CycleCounts::default();
    let (mut prefix_ops, mut prefix_failed, mut prefix_cycles) = (0u64, 0u64, 0u64);
    let (mut attempted, mut timed_out) = (0u64, 0u64);
    let mut traced_events = 0u64;

    h.begin_measure();
    while h.next_round() {
        let cycle_seed = seed.wrapping_add(1 + h.round() as u64);
        let mut c = CycleRun::new(cycle_seed, &mut h.tr);
        for w in 1..=WINDOWS {
            h.slice(Phase::Sim, |tr| c.window(w, tr));
        }
        h.slice(Phase::Sim, |tr| c.settle(tr));
        h.slice(Phase::Audit, |tr| c.audit(tr));
        if h.instrumented() {
            c.checker_breakdown(&mut h.tr);
        }
        let c = c.finish();
        c.gate(cycle_seed)?;

        let t = &c.totals;
        attempted += c.counts.issued + c.counts.shed;
        timed_out += t.failed_writes + t.incomplete_reads + c.counts.shed;
        if h.instrumented() {
            traced_events += c.counts.events;
        }
        if h.in_prefix() {
            prefix_cycles += 1;
            prefix_ops += t.commits + t.reads;
            prefix_failed += t.failed_writes + t.incomplete_reads + c.counts.shed;
            prefix.add(&c.counts);
        }
        h.digest_push(&c.words());
    }
    h.end_measure();

    // ---- per-layer readings ----
    let ops = prefix_ops.max(1) as f64;
    let sim_cal_s = h.prefix_cal_s(Phase::Sim).max(f64::MIN_POSITIVE);
    h.set_layer("sim.events_per_op", prefix.events as f64 / ops);
    h.set_layer("sim.events_per_cal_s", prefix.events as f64 / sim_cal_s);
    h.set_layer("sim.queue.peak_pending", prefix.peak_pending as f64);
    h.set_layer(
        "sim.queue.cascaded_per_event",
        prefix.cascaded as f64 / prefix.events.max(1) as f64,
    );
    h.set_layer("kvs.node.repairs_per_op", prefix.repairs as f64 / ops);
    h.set_layer("kvs.node.hints_per_op", prefix.hints as f64 / ops);
    h.set_layer(
        "kvs.fail_frac",
        prefix_failed as f64 / prefix.issued.max(1) as f64,
    );
    h.set_layer(
        "kvs.checker.lin_keys",
        prefix.lin_keys as f64 / prefix_cycles.max(1) as f64,
    );
    h.set_layer("kvs.checker.lin_violations", prefix.lin_violations as f64);
    h.set_layer("kvs.checker.lin_exhausted", prefix.lin_exhausted as f64);
    record_cluster_spans(h, traced_events);
    h.set_layer(
        "kvs.history.take_ms",
        h.tr.of_measured("kvs.history.take").mean_ns() / 1e6,
    );
    // ns per history op of each checker: its spans' total over the ops the
    // instrumented cycles audited (every instrumented cycle runs all four).
    if h.tr.of_measured("kvs.checker.lin").count > 0 {
        let ops_per_cycle = prefix.history_ops as f64 / prefix_cycles.max(1) as f64;
        for (span, name) in [
            ("kvs.checker.sessions", "kvs.checker.sessions_ns_per_op"),
            ("kvs.checker.labels", "kvs.checker.labels_ns_per_op"),
            ("kvs.checker.order", "kvs.checker.order_ns_per_op"),
            ("kvs.checker.lin", "kvs.checker.lin_ns_per_op"),
        ] {
            h.set_layer(name, h.tr.of_measured(span).mean_ns() / ops_per_cycle);
        }
    }

    // A cycle that fails its audit never gets here, so the toolkit failed
    // nothing; what the storm made time out is reported beside it.
    Ok(Outcome {
        attempted,
        failed: 0,
        modelled_timeouts: timed_out,
    })
}
