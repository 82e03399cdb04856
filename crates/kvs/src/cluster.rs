//! The cluster harness: builds the simulated store, hosts both the
//! blocking client API and the open-loop client actors, and labels every
//! read against ground truth.
//!
//! Two client paths share one simulation (sequentially, never
//! interleaved — blocking ops are allowed only before `start_clients`,
//! where they are handy for seeding data):
//!
//! * **Blocking** ([`Cluster::write`] / [`Cluster::read`]) — the harness
//!   injects one operation, steps the simulation until its result appears,
//!   labels it immediately and returns the record. One op at a time; the
//!   §5.2 probe shape.
//! * **Open loop** ([`Cluster::add_client`] + [`Cluster::drain_window`]) —
//!   clients live *inside* the simulation as one client table per PDES
//!   worker, generate arrivals lazily from streaming `pbs-workload`
//!   sources, and keep thousands of operations in flight. Completed ops
//!   stream out through each table's bounded buffer; the driver drains
//!   them every window, folds commits into the online [`GroundTruth`]
//!   watermark, and labels reads incrementally. Memory is bounded by
//!   client count + in-flight work, never by workload length — and with
//!   [`Cluster::add_clients_shared`] the per-client footprint is roughly
//!   one cache line, so a single process sustains millions of clients.
//!
//! Both yield the same record — a [`CompletedOp`], with its label a
//! [`HistoryOp`] — built by `CompletedOp::{from_result, open}` and nowhere
//! else, and it is the record [`Cluster::enable_history`] keeps: what a
//! caller gets is what the checker sees. Store options live in
//! [`ClusterOptions`] alone; each node holds the cluster's copy.

use crate::buggify::ProtocolMutations;
use crate::checker::{CrashRecord, HistoryOp, OpHistory};
use crate::client::{ClientOptions, ClientStats, ClientTable, CompletedOp};
use crate::messages::{
    ClientControl, ClientIn, ClientToNode, Msg, NodeControl, NodeIn, NodeToClient,
};
use crate::network::NetworkModel;
use crate::node::Node;
use crate::partition::PartitionPlan;
use crate::ring::Ring;
use crate::shell::{DownTracker, LegSamples, NodeShell};
use crate::staleness::GroundTruth;
use pbs_core::ReplicaConfig;
use pbs_mc::Mergeable;
use pbs_sim::{
    Actor, ActorId, Context, Event, PdesError, PdesStats, SimDuration, SimTime, Simulation,
};
use pbs_workload::{OpKind, OpSource, SharedOpSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Virtual nodes per physical node on the consistent-hashing ring.
const VNODES: u32 = 16;

/// The `client` of every blocking op: never an open-loop client index, and
/// skipped by the checker's session replay.
pub(crate) const BLOCKING_CLIENT: u32 = u32::MAX;

/// Cluster-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterOptions {
    /// Physical nodes in the cluster (≥ the replication factor).
    pub nodes: u32,
    /// `(N, R, W)` replication parameters.
    pub replication: ReplicaConfig,
    /// Enable read repair (§4.2). Off for WARS validation, as in the paper.
    pub read_repair: bool,
    /// Enable hinted handoff (Dynamo §4.6).
    pub hinted_handoff: bool,
    /// Write-straggler deadline before hinting. Must be finite and > 0.
    pub hint_timeout_ms: f64,
    /// Hint redelivery period. Must be finite and > 0.
    pub hint_flush_interval_ms: f64,
    /// Merkle anti-entropy period (None = disabled, Cassandra's default
    /// posture per §4.2). A period must be finite and > 0.
    pub sync_interval_ms: Option<f64>,
    /// Whether crashed nodes lose their stores.
    pub wipe_on_crash: bool,
    /// Client-side operation timeout. Also the retention horizon for the
    /// coordinators' pending-op sweep and the detector-matching grace
    /// window. Must be finite and > 0.
    pub op_timeout_ms: f64,
    /// Record per-message one-way W/A/R/S delays for online prediction
    /// (§5.5/§6); drain with [`Cluster::drain_leg_samples`].
    pub record_leg_samples: bool,
    /// Test-only protocol mutations for oracle validation — each flag
    /// deliberately breaks one anti-entropy mechanism so the checker's
    /// order oracle can prove it would catch the regression. All off in
    /// any real run.
    pub mutations: ProtocolMutations,
    /// Master seed (node and client RNGs derive from it).
    pub seed: u64,
}

impl ClusterOptions {
    /// The §5.2 validation setup: a cluster of exactly `N` nodes, read
    /// repair disabled, no anti-entropy, reliable messages.
    pub fn validation(replication: ReplicaConfig, seed: u64) -> Self {
        Self {
            nodes: replication.n(),
            replication,
            read_repair: false,
            hinted_handoff: false,
            hint_timeout_ms: 250.0,
            hint_flush_interval_ms: 500.0,
            sync_interval_ms: None,
            wipe_on_crash: false,
            op_timeout_ms: 60_000.0,
            record_leg_samples: false,
            mutations: ProtocolMutations::default(),
            seed,
        }
    }
}

/// Detector performance against ground truth (§4.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Reads flagged by the detector.
    pub flagged: usize,
    /// Flagged reads that were truly inconsistent.
    pub true_positives: usize,
    /// Flagged reads that were actually consistent (in-flight/newer
    /// versions — the paper's predicted false-positive mode).
    pub false_positives: usize,
    /// Inconsistent reads the detector missed (e.g. the fresher replica
    /// never responded).
    pub missed_stale: usize,
}

impl DetectorStats {
    /// Precision: fraction of flags that were truly stale (1 with no
    /// flags).
    pub fn precision(&self) -> f64 {
        if self.flagged == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.flagged as f64
        }
    }

    /// Recall: fraction of truly stale reads that were flagged (1 with no
    /// stale reads).
    pub fn recall(&self) -> f64 {
        let stale = self.true_positives + self.missed_stale;
        if stale == 0 {
            1.0
        } else {
            self.true_positives as f64 / stale as f64
        }
    }
}

impl Mergeable for DetectorStats {
    fn merge(&mut self, other: Self) {
        self.flagged += other.flagged;
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.missed_stale += other.missed_stale;
    }
}

/// Streaming matcher between labelled reads and asynchronous detector
/// flags. A flag can arrive a window or two after its read was labelled
/// (the `N − R` late responses trickle in), so verdicts are retained for
/// one op-timeout after labelling and matched as flags drain.
///
/// Every read labelled by one drain shares that drain's expiry
/// (`until + grace`), so a drain's reads are kept as one batch: packed
/// `op_id << 2 | consistent << 1 | flagged` words, sorted, 8 B per read. A
/// flag binary-searches the live batches newest first; a drain seals its
/// batch before it matches its own flags, and expiry drops whole batches
/// and recycles their buffers.
#[derive(Debug, Default)]
struct DetectorTracker {
    /// Reads labelled by the current drain, not yet sealed.
    open: Vec<u64>,
    /// Sealed batches with their expiry, in drain (= expiry) order.
    batches: VecDeque<(SimTime, Vec<u64>)>,
    /// Buffers of expired batches, reused by later drains.
    spare: Vec<Vec<u64>>,
    /// A stale read counts as missed until its flag arrives.
    stats: DetectorStats,
}

/// The `consistent` bit of a packed verdict.
const CONSISTENT: u64 = 0b10;
/// The `flagged` bit of a packed verdict.
const FLAGGED: u64 = 0b01;

impl DetectorTracker {
    fn observe_read(&mut self, op_id: u64, consistent: bool) {
        // Open-loop op ids are `(client index + 1) << 32 | local counter`
        // with a 24-bit client index: below 2^56, so two bits spare.
        debug_assert!(op_id < 1 << 56, "op id {op_id:#x} does not pack");
        if !consistent {
            self.stats.missed_stale += 1;
        }
        self.open.push(op_id << 2 | if consistent { CONSISTENT } else { 0 });
    }

    /// Close the current drain's batch: its reads expire at `expires_at`.
    fn seal(&mut self, expires_at: SimTime) {
        if self.open.is_empty() {
            return;
        }
        self.open.sort_unstable();
        let next = self.spare.pop().unwrap_or_default();
        self.batches.push_back((expires_at, std::mem::replace(&mut self.open, next)));
    }

    fn observe_flag(&mut self, op_id: u64) {
        for (_, batch) in self.batches.iter_mut().rev() {
            let Ok(i) = batch.binary_search_by_key(&op_id, |&v| v >> 2) else { continue };
            let verdict = &mut batch[i];
            if *verdict & FLAGGED != 0 {
                return; // several late responses can flag one read
            }
            *verdict |= FLAGGED;
            self.stats.flagged += 1;
            if *verdict & CONSISTENT != 0 {
                self.stats.false_positives += 1;
            } else {
                self.stats.true_positives += 1;
                self.stats.missed_stale -= 1;
            }
            return;
        }
    }

    fn expire(&mut self, now: SimTime) {
        while let Some(&(at, _)) = self.batches.front() {
            if at > now {
                break;
            }
            let (_, mut batch) = self.batches.pop_front().expect("front checked");
            batch.clear();
            self.spare.push(batch);
        }
    }
}

/// Everything that finished during one open-loop window.
#[derive(Debug, Clone, Default)]
pub struct WindowDrain {
    /// Completed writes (committed, failed, and timed out).
    pub writes: Vec<CompletedOp>,
    /// Completed reads (`finish: None` = client-side timeout) with their
    /// labels against the online ground-truth watermark (`None` when the
    /// read timed out).
    pub reads: Vec<HistoryOp>,
}

/// One item yielded by [`WindowDrain::fold`].
#[derive(Debug, Clone, Copy)]
pub enum WindowOp<'a> {
    /// A completed write (committed, failed, or timed out).
    Write(&'a CompletedOp),
    /// A completed read with its online label.
    Read(&'a HistoryOp),
}

impl WindowDrain {
    /// Visit every drained op with its reporting-window index — the one
    /// shared definition of window attribution (by op **start**, clamped
    /// to the grid) used by every open-loop consumer, so the scenario
    /// time-series and the engine reports can never diverge on it.
    pub fn fold<F>(&self, window_ms: f64, last_window: usize, mut visit: F)
    where
        F: FnMut(usize, WindowOp<'_>),
    {
        let widx = |start: SimTime| ((start.as_ms() / window_ms) as usize).min(last_window);
        for w in &self.writes {
            visit(widx(w.start), WindowOp::Write(w));
        }
        for r in &self.reads {
            visit(widx(r.op.start), WindowOp::Read(r));
        }
    }
}

/// Either a storage node or a worker's client table — the two inhabitants
/// of the cluster's simulation.
#[allow(clippy::large_enum_variant)]
pub(crate) enum ClusterActor {
    /// A Dynamo-style storage node (coordinator + replica).
    Node(NodeShell),
    /// All open-loop clients of one PDES worker, as a single actor with
    /// one row per client.
    Clients(ClientTable),
}

impl Actor for ClusterActor {
    type Msg = Msg;

    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, event: Event<Msg>) {
        match (self, event) {
            (ClusterActor::Node(n), Event::Message { from, msg: Msg::Node(msg) }) => {
                n.on_message(ctx, from, msg);
            }
            (ClusterActor::Clients(t), Event::Message { msg: Msg::Clients(msg), .. }) => {
                t.on_message(ctx, msg);
            }
            (_, event) => unreachable!("{event:?} reached the wrong kind of actor"),
        }
    }
}

fn node_control(control: NodeControl) -> Msg {
    Msg::Node(NodeIn::Control(control))
}

/// Panics, naming `by`, unless `cfg` fits a cluster of `nodes` nodes. Its
/// `N` is at most 64 too: a coordinator counts who answered in a
/// [`NodeSet`](pbs_quorum::NodeSet) of preference-list positions.
fn check_replication(by: &str, cfg: ReplicaConfig, nodes: u32) {
    let n = cfg.n();
    assert!(nodes >= n, "{by}: cluster needs at least N={n} nodes, got {nodes}");
    assert!(n <= 64, "{by}: N must be at most 64 (a NodeSet of who answered), got N={n}");
}

/// Which event engine a [`Cluster`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The ordinary single-threaded engine over one partition — the
    /// default.
    Serial,
    /// The serial engine, but with clients restricted to the coordinator
    /// ranges of a `workers`-way partition plan
    /// ([`Cluster::partition_plan`]) — issues exactly the
    /// operations a [`Parallel`](Self::Parallel) run with the same
    /// `workers` would, on one thread. The reference side of the
    /// serial-vs-parallel equivalence checks.
    SerialPartitioned {
        /// Partition count to plan for.
        workers: usize,
    },
    /// The conservative parallel engine — a
    /// [partitioned](pbs_sim::Simulation::partitioned) simulation: `workers`
    /// threads, each owning a contiguous node range plus its affine
    /// clients, synchronized by lookahead windows derived from the network
    /// model's minimum cross-partition delay.
    Parallel {
        /// Worker-thread count.
        workers: usize,
    },
}

impl EngineKind {
    fn workers(self) -> usize {
        match self {
            EngineKind::Serial => 1,
            EngineKind::SerialPartitioned { workers } | EngineKind::Parallel { workers } => workers,
        }
    }
}

/// A simulated Dynamo-style cluster hosting storage nodes and (optionally)
/// open-loop client actors.
pub struct Cluster {
    engine: Simulation<ClusterActor>,
    plan: PartitionPlan,
    ring: Arc<Ring>,
    net: Arc<NetworkModel>,
    opts: ClusterOptions,
    rng: StdRng,
    next_op: u64,
    down: Arc<DownTracker>,
    /// The client table of each worker (created lazily on the first client
    /// routed there).
    tables: Vec<Option<ActorId>>,
    client_count: u32,
    clients_started: bool,
    ground_truth: GroundTruth,
    detector: DetectorTracker,
    /// Recorded op history for the offline [`checker`](crate::checker)
    /// (None = recording off, the default: the open-loop engine's
    /// O(in-flight) memory story is preserved unless a checker asks).
    history: Option<OpHistory>,
    /// Every crash scheduled on this cluster, attached to taken histories
    /// so the order oracle can discount evidence from wiped replicas.
    crash_log: Vec<CrashRecord>,
    /// Whether every read this cluster has served was owed regularity
    /// ([`CheckReport::regular`](crate::CheckReport::regular)): it was
    /// built strict (`R + W > N`) and no reconfiguration since went partial
    /// or changed `N` — a rebuilt ring legitimately serves empty reads.
    pub(crate) regular_expected: bool,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.opts.nodes)
            .field("clients", &self.client_count)
            .field("replication", &self.opts.replication)
            .field("workers", &self.plan.workers())
            .field("now", &self.engine.now())
            .finish()
    }
}

impl Cluster {
    /// Build a serial cluster (the default engine).
    pub fn new(opts: ClusterOptions, network: NetworkModel) -> Self {
        Self::with_engine(opts, network, EngineKind::Serial)
            .expect("the serial engine has no rejectable configuration")
    }

    /// Build a cluster on an explicit engine. With
    /// [`EngineKind::Parallel`], the lookahead is the network model's
    /// minimum cross-partition delay
    /// ([`NetworkModel::min_cross_delay_ms`]); a model whose legs can be
    /// arbitrarily fast (e.g. exponential) has a zero minimum and is
    /// rejected as [`PdesError::DegenerateLookahead`] here, at partition
    /// time — conservative windows could never make progress under it.
    pub fn with_engine(
        opts: ClusterOptions,
        network: NetworkModel,
        kind: EngineKind,
    ) -> Result<Self, PdesError> {
        check_replication("ClusterOptions::replication", opts.replication, opts.nodes);
        // A zero period re-arms its timer at +0 ms forever; a NaN or
        // negative one panics mid-run inside the simulator's time arithmetic.
        let positive = |field: &str, ms: f64| {
            assert!(
                ms.is_finite() && ms > 0.0,
                "ClusterOptions::{field} must be finite and > 0, got {ms}"
            );
        };
        positive("op_timeout_ms", opts.op_timeout_ms);
        positive("hint_timeout_ms", opts.hint_timeout_ms);
        positive("hint_flush_interval_ms", opts.hint_flush_interval_ms);
        if let Some(ms) = opts.sync_interval_ms {
            positive("sync_interval_ms", ms);
        }
        let dcs = network.datacenter_map_len();
        assert!(
            dcs == 0 || dcs == opts.nodes as usize,
            "datacenter map names {dcs} nodes, but the cluster has {}",
            opts.nodes
        );
        let plan = PartitionPlan::contiguous(opts.nodes, kind.workers());
        let ring = Arc::new(Ring::new(opts.nodes, VNODES, opts.replication.n()));
        let net = Arc::new(network);
        let down = Arc::new(DownTracker::new(opts.nodes as usize));
        let mut engine = match kind {
            EngineKind::Serial | EngineKind::SerialPartitioned { .. } => Simulation::new(),
            EngineKind::Parallel { workers } => {
                let lookahead = SimDuration::from_ms(net.min_cross_delay_ms());
                Simulation::partitioned(workers, lookahead)?
            }
        };
        for id in 0..opts.nodes as usize {
            let node =
                NodeShell::new(id, opts, Arc::clone(&net), Arc::clone(&ring), Arc::clone(&down));
            let worker = plan.worker_of_node(id as u32);
            let actor = engine.add_actor_on(ClusterActor::Node(node), worker);
            debug_assert_eq!(actor, id);
        }
        if opts.sync_interval_ms.is_some() {
            for id in 0..opts.nodes as usize {
                engine.inject(id, 0.0, node_control(NodeControl::StartSync));
            }
        }
        // Pending-op GC keeps coordinator state bounded by in-flight work.
        for id in 0..opts.nodes as usize {
            engine.inject(id, 0.0, node_control(NodeControl::StartGc));
        }
        let workers = plan.workers();
        Ok(Self {
            engine,
            plan,
            ring,
            net,
            opts,
            rng: StdRng::seed_from_u64(opts.seed.wrapping_mul(0xd134_2543_de82_ef95)),
            next_op: 1,
            down,
            tables: vec![None; workers],
            client_count: 0,
            clients_started: false,
            ground_truth: GroundTruth::new(),
            detector: DetectorTracker::default(),
            history: None,
            crash_log: Vec::new(),
            regular_expected: opts.replication.is_strict(),
        })
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The partition plan in effect (a single all-owning partition on a
    /// plain serial cluster).
    pub fn partition_plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// Per-worker execution counters of a partitioned engine (`None` on a
    /// serial cluster).
    pub fn pdes_stats(&self) -> Option<PdesStats> {
        self.engine.pdes_stats()
    }

    /// The cluster's replication configuration.
    pub fn replication(&self) -> ReplicaConfig {
        self.opts.replication
    }

    /// The consistent-hashing ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The cluster's network model. Its dynamic-condition methods
    /// (partitions, regime swaps, buggify fault schedules) take `&self`,
    /// so faults can be injected mid-run:
    /// `cluster.network().try_partition(groups, cluster.node_count())`.
    pub fn network(&self) -> &NetworkModel {
        &self.net
    }

    /// Number of storage nodes (client actors excluded).
    pub fn node_count(&self) -> usize {
        self.opts.nodes as usize
    }

    /// The current replica set of `key`, as node indices.
    pub fn replicas_of(&self, key: u64) -> Vec<usize> {
        self.ring.replicas(key).iter().map(|&n| n as usize).collect()
    }

    /// Start recording every completed operation (and its online label)
    /// into an [`OpHistory`] for the offline [`checker`](crate::checker).
    /// Costs O(operations) memory — a deliberate trade for auditability;
    /// leave it off for long measurement runs.
    pub fn enable_history(&mut self) {
        self.history.get_or_insert_with(OpHistory::new);
    }

    /// Take the recorded history (recording continues into a fresh one if
    /// it was enabled), stamped with every crash scheduled so far so the
    /// order oracle can discount evidence from wiped replicas. Returns an
    /// empty history when recording was never enabled.
    ///
    /// Taking the history closes the run from the checker's point of
    /// view: every client operation still in flight is flushed into it as
    /// an open (no-response) invocation first. A write pending at
    /// shutdown may already have applied on replicas — its coordinator
    /// may have crashed holding the op — so later reads can return its
    /// version; without the open record the linearizability checker would
    /// convict those reads as phantoms.
    pub fn take_history(&mut self) -> OpHistory {
        if self.history.is_some() {
            let mut pending = Vec::new();
            for worker in 0..self.tables.len() {
                if let Some(id) = self.tables[worker] {
                    pending.append(&mut self.table_mut(id).take_in_flight());
                }
            }
            pending.sort_unstable_by_key(|op| op.op_id);
            let history = self.history.as_mut().expect("checked above");
            for op in pending {
                history.push(op, None);
            }
        }
        let mut h = match self.history.as_mut() {
            Some(h) => std::mem::take(h),
            None => OpHistory::new(),
        };
        h.set_crashes(self.crash_log.clone());
        h
    }

    /// Apply a new `(N, R, W)` configuration to the **running** cluster
    /// (§6 "Variable configurations" — the reconfiguration an adaptive
    /// controller issues when conditions drift).
    ///
    /// `R`/`W` changes take effect for every subsequent operation and for
    /// the next response of any operation still in flight: its coordinator
    /// decides it by the new configuration's quorum predicate on the
    /// replicas that already answered. Changing `N` rebuilds the placement
    /// ring: data written under the old placement stays where it is and new
    /// replica sets take over for subsequent operations, so freshly added
    /// replicas serve empty reads until read repair or anti-entropy
    /// migrates the data — exactly the transient a real Dynamo-style
    /// reconfiguration exhibits.
    pub fn set_replication(&mut self, cfg: ReplicaConfig) {
        check_replication("Cluster::set_replication", cfg, self.opts.nodes);
        self.regular_expected &= cfg.is_strict() && cfg.n() == self.opts.replication.n();
        if cfg.n() != self.opts.replication.n() {
            let ring = Arc::new(Ring::new(self.opts.nodes, VNODES, cfg.n()));
            self.ring = Arc::clone(&ring);
            for id in 0..self.opts.nodes as usize {
                self.shell_mut(id).core.set_ring(Arc::clone(&ring));
            }
        }
        self.opts.replication = cfg;
        for id in 0..self.opts.nodes as usize {
            self.shell_mut(id).core.set_replication(cfg);
        }
    }

    /// Ground-truth commit history (for custom analyses).
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.ground_truth
    }

    /// Direct access to a node (stats, stored versions, crash state).
    /// Panics if `id` is a client actor.
    pub fn node(&self, id: usize) -> &Node {
        match self.engine.actor(id) {
            ClusterActor::Node(n) => &n.core,
            ClusterActor::Clients(_) => panic!("actor {id} is a client table, not a node"),
        }
    }

    fn shell_mut(&mut self, id: usize) -> &mut NodeShell {
        match self.engine.actor_mut(id) {
            ClusterActor::Node(n) => n,
            ClusterActor::Clients(_) => panic!("actor {id} is a client table, not a node"),
        }
    }

    fn table(&self, id: ActorId) -> &ClientTable {
        match self.engine.actor(id) {
            ClusterActor::Clients(t) => t,
            ClusterActor::Node(_) => panic!("actor {id} is a node, not a client table"),
        }
    }

    fn table_mut(&mut self, id: ActorId) -> &mut ClientTable {
        match self.engine.actor_mut(id) {
            ClusterActor::Clients(t) => t,
            ClusterActor::Node(_) => panic!("actor {id} is a node, not a client table"),
        }
    }

    /// The client-table actor of `worker`, created on first use.
    fn table_id(&mut self, worker: usize, copts: ClientOptions) -> ActorId {
        if let Some(id) = self.tables[worker] {
            return id;
        }
        let table = ClientTable::new(
            worker,
            self.plan.workers(),
            // Client affinity: a client lives on one worker and coordinates
            // only through that worker's node range — client↔coordinator
            // traffic is zero-delay, so it must never cross partitions. On
            // a one-partition plan the range is every node, reproducing the
            // unrestricted pick bit-for-bit.
            self.plan.node_range(worker),
            copts,
            Arc::clone(&self.down),
            self.opts.seed,
        );
        let id = self.engine.add_actor_on(ClusterActor::Clients(table), worker);
        self.tables[worker] = Some(id);
        id
    }

    /// Advance simulated time, processing all events up to `at`.
    ///
    /// On a parallel cluster, the lookahead is re-derived from the
    /// network model first: scenario events between windows can reshape
    /// the latency regime, and the conservative horizon must track it.
    /// Panics if a mid-run regime swap collapses the minimum
    /// cross-partition delay to zero — parallel clusters require latency
    /// models with a positive support minimum throughout the run (build
    /// with [`EngineKind::Serial`] to use such models).
    pub fn advance_to(&mut self, at: SimTime) {
        if self.engine.is_partitioned() {
            let lookahead = SimDuration::from_ms(self.net.min_cross_delay_ms());
            self.engine.set_lookahead(lookahead).unwrap_or_else(|e| {
                panic!("a condition change degenerated the parallel lookahead mid-run: {e}")
            });
        }
        self.engine.run_until(at);
    }

    /// Schedule a crash of `node` at `at` for `down_ms` (state wiped when
    /// the cluster's `wipe_on_crash` is set). `down_ms` must be finite and
    /// ≥ 0.
    pub fn crash_node_at(&mut self, node: usize, at: SimTime, down_ms: f64) {
        let wipe = self.opts.wipe_on_crash;
        assert!(node < self.opts.nodes as usize, "cannot crash client actor {node}");
        assert!(
            down_ms.is_finite() && down_ms >= 0.0,
            "Cluster::crash_node_at: down_ms must be finite and >= 0, got {down_ms}"
        );
        self.crash_log.push(CrashRecord { node: node as u32, at, down_ms, wipe });
        self.engine.inject_at(node, at, node_control(NodeControl::Crash { down_ms, wipe }));
    }

    /// Choose a coordinator for the next operation: uniform over **up**
    /// nodes, falling back to an arbitrary node only when the whole
    /// cluster is down (the op then times out, as it must). Handing an
    /// operation to a crashed node would silently turn it into an op
    /// timeout.
    fn pick_coordinator(&mut self) -> usize {
        self.down.pick_up_node_in(&mut self.rng, 0, self.opts.nodes as usize)
    }

    fn alloc_op(&mut self) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        id
    }

    /// The two client paths cannot *interleave*: a blocking op steps the
    /// simulation and records its commit directly, advancing the ground
    /// truth past open-loop results still buffered in client actors —
    /// which would corrupt the watermark. Blocking ops are fine **before**
    /// clients start (e.g. seeding data); once `start_clients` has run,
    /// only the open-loop drain may drive this cluster. Blocking ops also
    /// single-step the engine, which a partitioned engine cannot do.
    fn assert_blocking_allowed(&self) {
        assert!(
            !self.engine.is_partitioned(),
            "blocking operations single-step the event loop and require a serial \
             cluster; drive a parallel cluster through the open-loop path"
        );
        assert!(
            !self.clients_started,
            "blocking operations cannot interleave with started open-loop clients \
             (seed data before start_clients, or use the open-loop path)"
        );
    }

    fn step_until_result(
        &mut self,
        coord: usize,
        op_id: u64,
        deadline: SimTime,
    ) -> Option<NodeToClient> {
        loop {
            if let Some(res) = self.shell_mut(coord).mailbox.remove(&op_id) {
                return Some(res);
            }
            match self.engine.peek_next_time() {
                Some(t) if t <= deadline => {
                    self.engine.step();
                }
                _ => return None,
            }
        }
    }

    /// Issue one blocking operation through `coord` at `at` and step the
    /// simulation until its result appears or the op timeout passes.
    fn run_blocking(&mut self, coord: usize, kind: OpKind, key: u64, at: SimTime) -> HistoryOp {
        self.assert_blocking_allowed();
        let op_id = self.alloc_op();
        let req = match kind {
            OpKind::Write => ClientToNode::Write { op_id, key },
            OpKind::Read => ClientToNode::Read { op_id, key },
        };
        // An injection reads as sent by its target, so the result comes
        // back to the coordinator's own mailbox.
        self.engine.inject_at(coord, at, Msg::Node(NodeIn::Client(req)));
        let deadline = at + SimDuration::from_ms(self.opts.op_timeout_ms);
        let op = match self.step_until_result(coord, op_id, deadline) {
            Some(result) => CompletedOp::from_result(result, BLOCKING_CLIENT, self.engine.now()),
            None => CompletedOp::open(op_id, BLOCKING_CLIENT, kind, key, at),
        };
        debug_assert_eq!(op.kind, kind, "op {op_id} returned the other kind's result");
        self.absorb(op)
    }

    /// Take a finished blocking op in exactly as a window drain takes an
    /// open-loop one: a commit goes to the ground truth, a completed read
    /// gets its label, and — with history on — the pair is appended, so
    /// what the caller gets is what the checker sees. A recorded history
    /// must contain every write the cluster saw: commits so the offline
    /// relabelling agrees with the online ground truth, and failures and
    /// timeouts so the order oracle knows which versions may legitimately
    /// surface on replicas (a failed write still installed its version
    /// somewhere; a timed-out one marks the key's write set incomplete).
    fn absorb(&mut self, op: CompletedOp) -> HistoryOp {
        let label = match op.kind {
            OpKind::Write => {
                if let (Some(seq), Some(ct)) = (op.seq, op.commit) {
                    self.ground_truth.record_commit(op.key, seq, ct);
                }
                None
            }
            OpKind::Read => {
                op.finish.map(|_| self.ground_truth.label_read(op.key, op.start, op.seq))
            }
        };
        if let Some(history) = self.history.as_mut() {
            history.push(op, label);
        }
        HistoryOp { op, label }
    }

    /// Blocking quorum write from a random up coordinator; returns at
    /// commit time (or after the op timeout).
    pub fn write(&mut self, key: u64) -> CompletedOp {
        let coord = self.pick_coordinator();
        self.write_from(coord, key)
    }

    /// Blocking quorum write from a specific coordinator, which assigns the
    /// version's sequence number — the write's start instant in
    /// nanoseconds + 1, so versions order by write-start time — when the
    /// write starts (`seq: None` = the op timed out before the coordinator
    /// reported back).
    pub fn write_from(&mut self, coord: usize, key: u64) -> CompletedOp {
        let now = self.engine.now();
        self.run_blocking(coord, OpKind::Write, key, now).op
    }

    /// Blocking quorum read issued immediately.
    pub fn read(&mut self, key: u64) -> HistoryOp {
        let at = self.engine.now();
        self.read_at(key, at)
    }

    /// Blocking quorum read issued at absolute simulated time `at`
    /// (≥ now) — used to probe "t ms after commit".
    pub fn read_at(&mut self, key: u64, at: SimTime) -> HistoryOp {
        let coord = self.pick_coordinator();
        self.read_at_from(coord, key, at)
    }

    /// Blocking quorum read from a specific coordinator at time `at`; the
    /// label is `None` when the read timed out.
    pub fn read_at_from(&mut self, coord: usize, key: u64, at: SimTime) -> HistoryOp {
        self.run_blocking(coord, OpKind::Read, key, at)
    }

    // ----- the open-loop client path -----

    /// Add an in-sim client that will pull operations from its own boxed
    /// `source` once [`start_clients`](Self::start_clients) runs. Returns
    /// the client's index. All clients routed to one worker share that
    /// table's [`ClientOptions`] (asserted on every add).
    pub fn add_client(&mut self, source: Box<dyn OpSource>, copts: ClientOptions) -> u32 {
        assert!(!self.clients_started, "add clients before starting them");
        let index = self.client_count;
        let worker = self.plan.worker_of_client(index);
        let id = self.table_id(worker, copts);
        let table = self.table_mut(id);
        assert_eq!(table.options(), &copts, "clients of one worker share one option set");
        table.push_client(index, source);
        self.client_count += 1;
        index
    }

    /// Add `count` clients drawing from one **shared** stateless source —
    /// the million-client path: no per-client box, no per-client map, no
    /// per-client pending timer; marginal cost ≈ one cache line per
    /// client. The per-client RNG streams (and therefore histories) are
    /// identical to `count` boxed [`add_client`](Self::add_client) calls
    /// with per-client copies of the same stationary source.
    ///
    /// Shared-source clients cannot be mixed with boxed clients on the
    /// same cluster.
    pub fn add_clients_shared(
        &mut self,
        count: u32,
        source: Arc<dyn SharedOpSource>,
        copts: ClientOptions,
    ) {
        assert!(!self.clients_started, "add clients before starting them");
        assert_eq!(self.client_count, 0, "shared-source clients must be added first and once");
        let workers = self.plan.workers();
        for worker in 0..workers.min(count as usize) {
            let id = self.table_id(worker, copts);
            let rows = (count as usize - worker).div_ceil(workers);
            let table = self.table_mut(id);
            table.set_shared_source(Arc::clone(&source));
            table.reserve_rows(rows);
        }
        for index in 0..count {
            let worker = self.plan.worker_of_client(index);
            let id = self.tables[worker].expect("table created above");
            self.table_mut(id).push_shared_client(index);
        }
        self.client_count = count;
    }

    /// Worker client-table actor ids, in worker order.
    fn table_ids(&self) -> impl Iterator<Item = ActorId> + '_ {
        self.tables.iter().filter_map(|t| *t)
    }

    /// Start every client's arrival stream at the current simulated time.
    pub fn start_clients(&mut self) {
        self.clients_started = true;
        let ids: Vec<ActorId> = self.table_ids().collect();
        for id in ids {
            self.engine.inject(id, 0.0, Msg::Clients(ClientIn::Control(ClientControl::Start)));
        }
    }

    /// Stop every client's arrival stream (in-flight operations still
    /// complete or time out).
    pub fn stop_clients(&mut self) {
        let ids: Vec<ActorId> = self.table_ids().collect();
        for id in ids {
            self.engine.inject(id, 0.0, Msg::Clients(ClientIn::Control(ClientControl::Stop)));
        }
    }

    /// Events currently pending in the simulation's scheduler — the
    /// open-loop memory story: this stays O(clients + in-flight), never
    /// O(workload length).
    pub fn pending_events(&self) -> usize {
        self.engine.pending_events()
    }

    /// Total events the simulation has dispatched.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }

    /// Scheduler counters (peak queue depth, cascades). On a parallel
    /// cluster these are combined across the worker wheels.
    pub fn scheduler_stats(&self) -> pbs_sim::SchedulerStats {
        self.engine.scheduler_stats()
    }

    /// Summed per-client counters.
    pub fn client_stats(&self) -> ClientStats {
        let mut total = ClientStats::default();
        for id in self.table_ids() {
            total.merge(self.table(id).stats());
        }
        total
    }

    /// Advance to `until`, drain every client's completed operations, fold
    /// the commits into the online ground truth, advance the commit
    /// watermark to `until`, and label the drained reads.
    ///
    /// Correctness of the watermark: `run_until(until)` has processed every
    /// event at or before `until`, and results are delivered to clients
    /// with zero delay, so every commit at or before `until` has been
    /// drained — no commit below the watermark can appear later.
    pub fn drain_window(&mut self, until: SimTime) -> WindowDrain {
        let mut drain = WindowDrain::default();
        self.drain_window_into(until, &mut drain);
        drain
    }

    /// [`drain_window`](Self::drain_window) into caller-owned buffers:
    /// `drain` is cleared and refilled, keeping its capacity, so a driver
    /// looping over many windows allocates nothing in steady state.
    pub fn drain_window_into(&mut self, until: SimTime, drain: &mut WindowDrain) {
        if !self.ground_truth.gc_enabled() {
            // Garbage-collect the ground truth behind the watermark: labels
            // are bit-identical with or without it (see the `staleness`
            // module docs) while per-key history memory becomes independent
            // of run length. The GC horizon lags the watermark by the oldest
            // start any still-unlabelled read can have: a read drained in a
            // later window must have finished after this one, and it started
            // at most one client op-timeout before finishing. The
            // cluster-side timeout is folded in as a floor for good measure
            // (it bounds the coordinator's own retention).
            let lag = self
                .table_ids()
                .map(|id| self.table(id).options().op_timeout_ms)
                .fold(self.opts.op_timeout_ms, f64::max);
            self.ground_truth.enable_gc(lag);
        }
        self.advance_to(until);
        drain.writes.clear();
        drain.reads.clear();
        // Both passes run over each table's own completed buffer, in worker
        // order, each taking it out and handing it back with its capacity.
        // Pass 1: commits feed the ground-truth watermark.
        for worker in 0..self.tables.len() {
            let Some(id) = self.tables[worker] else { continue };
            let ops = std::mem::take(&mut self.table_mut(id).completed);
            for op in &ops {
                if let (OpKind::Write, Some(seq), Some(ct)) = (op.kind, op.seq, op.commit) {
                    self.ground_truth.ingest_commit(op.key, seq, ct);
                }
            }
            self.table_mut(id).completed = ops;
        }
        self.ground_truth.advance_watermark(until);

        // Pass 2, in drain order: label each read against the advanced
        // watermark and append the window to the offline history when a
        // checker asked for one. Drain order preserves each client's
        // completion order, which is the order session guarantees are
        // defined over.
        let grace = pbs_sim::SimDuration::from_ms(self.opts.op_timeout_ms);
        for worker in 0..self.tables.len() {
            let Some(id) = self.tables[worker] else { continue };
            let mut ops = std::mem::take(&mut self.table_mut(id).completed);
            let mut history = self.history.as_mut();
            for op in &ops {
                let label = match op.kind {
                    OpKind::Write => {
                        drain.writes.push(*op);
                        None
                    }
                    OpKind::Read => {
                        let label = op
                            .finish
                            .map(|_| self.ground_truth.label_read(op.key, op.start, op.seq));
                        if let Some(l) = label {
                            self.detector.observe_read(op.op_id, l.consistent);
                        }
                        drain.reads.push(HistoryOp { op: *op, label });
                        label
                    }
                };
                if let Some(history) = history.as_deref_mut() {
                    history.push(*op, label);
                }
            }
            ops.clear();
            self.table_mut(id).completed = ops;
        }
        self.detector.seal(until + grace);
        // Pass 3: match the nodes' detector flags (each counts once, in any
        // order) against the labels retained so far, this window's too.
        for id in 0..self.opts.nodes as usize {
            let mut flags = std::mem::take(&mut self.shell_mut(id).core.detector_log);
            for &op_id in &flags {
                self.detector.observe_flag(op_id);
            }
            flags.clear();
            self.shell_mut(id).core.detector_log = flags;
        }
        self.detector.expire(until);
    }

    /// Cumulative staleness-detector performance over every drained
    /// window (§4.3), matched against ground-truth labels.
    pub fn detector_stats(&self) -> DetectorStats {
        self.detector.stats
    }

    /// Drain the per-leg WARS latency samples recorded by every node
    /// (requires `record_leg_samples`). Feed these into
    /// `pbs_predictor::AdaptiveController::observe_many` to close the
    /// measure→predict loop of §6.
    pub fn drain_leg_samples(&mut self) -> LegSamples {
        let mut all = LegSamples::default();
        for id in 0..self.opts.nodes as usize {
            all.merge(&mut self.shell_mut(id).leg_samples);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_dist::{Constant, Exponential};
    use std::sync::Arc;

    fn exp_net(w_rate: f64, ars_rate: f64) -> NetworkModel {
        NetworkModel::w_ars(
            Arc::new(Exponential::from_rate(w_rate)),
            Arc::new(Exponential::from_rate(ars_rate)),
        )
    }

    fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
        ReplicaConfig::new(n, r, w).unwrap()
    }

    #[test]
    fn write_then_full_read_returns_it() {
        let mut cluster = Cluster::new(
            ClusterOptions::validation(cfg(3, 3, 3), 1),
            exp_net(0.2, 0.5),
        );
        let w = cluster.write(42);
        assert!(w.commit.is_some());
        assert!(w.seq > Some(0), "committed writes carry a nonzero version");
        let r = cluster.read(42);
        assert_eq!(r.op.seq, w.seq);
        assert!(r.consistent());
    }

    #[test]
    fn strict_quorum_reads_always_consistent() {
        let mut cluster = Cluster::new(
            ClusterOptions::validation(cfg(3, 2, 2), 2),
            exp_net(0.05, 0.5),
        );
        for i in 0..200 {
            let key = i % 7;
            let w = cluster.write(key);
            let commit = w.commit.expect("write commits");
            let r = cluster.read_at(key, commit);
            assert!(r.consistent(), "strict quorum read {i} was stale");
            assert_eq!(r.op.seq, w.seq);
        }
    }

    #[test]
    fn partial_quorum_shows_staleness_at_t0() {
        // Slow writes + fast reads ⇒ reads at commit time frequently race
        // ahead of propagation (the §5.3 effect).
        let mut cluster = Cluster::new(
            ClusterOptions::validation(cfg(3, 1, 1), 3),
            exp_net(0.05, 2.0),
        );
        let mut stale = 0;
        let trials = 400;
        for _ in 0..trials {
            let w = cluster.write(7);
            let commit = w.commit.expect("commits");
            let r = cluster.read_at(7, commit);
            if !r.consistent() {
                stale += 1;
            }
        }
        let stale_frac = stale as f64 / trials as f64;
        assert!(
            stale_frac > 0.2 && stale_frac < 0.9,
            "expected substantial staleness at t=0, got {stale_frac}"
        );
    }

    #[test]
    fn versions_order_by_write_start_time() {
        let mut cluster = Cluster::new(
            ClusterOptions::validation(cfg(2, 1, 1), 4),
            exp_net(0.5, 0.5),
        );
        let mut last = 0u64;
        for i in 0..5 {
            let w = cluster.write(1);
            let seq = w.seq.expect("the coordinator reported back");
            assert_eq!(
                seq,
                w.start.as_nanos() + 1,
                "seq is the write-start instant (+1 keeps 0 as the absent sentinel)"
            );
            assert!(seq > last, "write {i} not ordered after its predecessor");
            last = seq;
        }
        let w2 = cluster.write(2);
        assert!(w2.seq > Some(last), "timestamps order writes across keys too");
    }

    #[test]
    fn crash_prevents_commit_without_quorum() {
        // N=W=2 with one replica down and no hinted handoff: the write can
        // never gather 2 acks; the op times out.
        let mut opts = ClusterOptions::validation(cfg(2, 1, 2), 5);
        opts.op_timeout_ms = 2_000.0;
        let mut cluster = Cluster::new(opts, exp_net(1.0, 1.0));
        let replicas = cluster.ring().replicas(9);
        cluster.crash_node_at(replicas[0] as usize, SimTime::from_ms(0.0), 10_000.0);
        cluster.advance_to(SimTime::from_ms(1.0));
        let w = cluster.write(9);
        assert!(w.commit.is_none(), "write should fail without a quorum");
    }

    #[test]
    fn coordinator_selection_skips_down_nodes() {
        // Regression: a crashed node must not coordinate (it would drop
        // the request, silently turning it into an op timeout). With node
        // 0 down, every one of 60 R=W=1 operations must still complete —
        // before the fix, ~1/3 of them would be handed to node 0 and die.
        let mut opts = ClusterOptions::validation(cfg(3, 1, 1), 6);
        opts.op_timeout_ms = 1_000.0;
        let mut cluster = Cluster::new(opts, exp_net(1.0, 1.0));
        cluster.crash_node_at(0, SimTime::from_ms(0.0), 600_000.0);
        cluster.advance_to(SimTime::from_ms(1.0));
        for i in 0..60 {
            let w = cluster.write(i);
            assert!(w.commit.is_some(), "write {i} routed to a crashed coordinator");
            let r = cluster.read(i);
            assert!(r.op.finish.is_some(), "read {i} routed to a crashed coordinator");
        }
        // When every node is down, selection falls back (and ops time out).
        cluster.crash_node_at(1, cluster.now(), 600_000.0);
        cluster.crash_node_at(2, cluster.now(), 600_000.0);
        let at = cluster.now() + pbs_sim::SimDuration::from_ms(1.0);
        cluster.advance_to(at);
        let w = cluster.write(1);
        assert!(w.commit.is_none(), "all-down cluster cannot commit");
    }

    #[test]
    fn hinted_handoff_heals_after_recovery() {
        let mut opts = ClusterOptions::validation(cfg(3, 1, 1), 6);
        opts.hinted_handoff = true;
        opts.hint_timeout_ms = 50.0;
        opts.hint_flush_interval_ms = 100.0;
        let mut cluster = Cluster::new(opts, NetworkModel::w_ars(
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
        ));
        let key = 3u64;
        let victim = cluster.ring().replicas(key)[2] as usize;
        cluster.crash_node_at(victim, SimTime::from_ms(0.0), 500.0);
        cluster.advance_to(SimTime::from_ms(1.0));
        // Coordinate from a healthy node (a crashed coordinator would drop
        // the client request entirely).
        let coord = (victim + 1) % 3;
        let w = cluster.write_from(coord, key);
        assert!(w.commit.is_some(), "W=1 commits via healthy replicas");
        // The down replica missed the write; after recovery the hint heals it.
        cluster.advance_to(SimTime::from_ms(2_000.0));
        assert_eq!(
            cluster.node(victim).stored_version(key).map(|v| v.seq),
            w.seq,
            "hint delivered after recovery"
        );
    }

    #[test]
    fn hints_coalesce_and_expire_past_the_op_timeout() {
        // Regression for the write-state hinting leak: a permanently
        // crashed replica used to accumulate one hint per timed-out write,
        // rebroadcast on every flush, forever. Hints for the same
        // (target, key) must coalesce, and the GC sweep must expire hints
        // whose target stays unreachable past the op-timeout horizon.
        let mut opts = ClusterOptions::validation(cfg(3, 1, 1), 9);
        opts.hinted_handoff = true;
        opts.hint_timeout_ms = 50.0;
        opts.hint_flush_interval_ms = 100.0;
        opts.op_timeout_ms = 1_000.0;
        let mut cluster = Cluster::new(opts, NetworkModel::w_ars(
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
        ));
        let key = 3u64;
        let victim = cluster.ring().replicas(key)[2] as usize;
        cluster.crash_node_at(victim, SimTime::from_ms(0.0), 60_000.0);
        cluster.advance_to(SimTime::from_ms(1.0));
        let coord = (victim + 1) % 3;
        let w1 = cluster.write_from(coord, key);
        let w2 = cluster.write_from(coord, key);
        assert!(w1.commit.is_some() && w2.commit.is_some(), "W=1 commits");
        // Both write timeouts hint the same missed replica and key: one
        // coalesced hint carrying the newer version, not two.
        cluster.advance_to(SimTime::from_ms(500.0));
        assert_eq!(cluster.node(coord).hint_count(), 1, "hints coalesced");
        assert_eq!(cluster.node(coord).hints_expired, 0);
        // The target stays down past the op-timeout sweep: the hint is
        // garbage-collected rather than re-flushed forever.
        cluster.advance_to(SimTime::from_ms(2_500.0));
        assert_eq!(cluster.node(coord).hint_count(), 0, "hint expired by GC");
        assert!(cluster.node(coord).hints_expired >= 1);
        // Recovery long after the horizon: no stale hint arrives; healing
        // is anti-entropy's job now (disabled here, so the key is absent).
        cluster.advance_to(SimTime::from_ms(61_000.0));
        assert_eq!(cluster.node(victim).stored_version(key), None);
    }

    #[test]
    fn anti_entropy_converges_divergent_replicas() {
        // Wipe a replica, disable repair paths except Merkle sync, and check
        // convergence.
        let mut opts = ClusterOptions::validation(cfg(3, 1, 3), 7);
        opts.sync_interval_ms = Some(200.0);
        opts.wipe_on_crash = true;
        let mut cluster = Cluster::new(opts, NetworkModel::w_ars(
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
        ));
        let key = 11u64;
        let w = cluster.write(key);
        assert!(w.commit.is_some());
        let victim = cluster.ring().replicas(key)[1] as usize;
        // Crash + wipe the replica: it forgets the key. Check while it is
        // still down (recovery immediately triggers a sync round).
        cluster.crash_node_at(victim, cluster.now(), 500.0);
        cluster.advance_to(cluster.now() + pbs_sim::SimDuration::from_ms(60.0));
        assert!(cluster.node(victim).is_down());
        assert_eq!(cluster.node(victim).stored_version(key), None, "wiped");
        // Anti-entropy restores it after recovery.
        cluster.advance_to(cluster.now() + pbs_sim::SimDuration::from_ms(3_000.0));
        assert_eq!(
            cluster.node(victim).stored_version(key).map(|v| v.seq),
            w.seq,
            "Merkle sync restored the key"
        );
    }

    #[test]
    fn read_repair_heals_stale_replicas() {
        let mut opts = ClusterOptions::validation(cfg(3, 1, 1), 8);
        opts.read_repair = true;
        let mut cluster = Cluster::new(opts, exp_net(0.05, 1.0));
        let key = 13u64;
        let w = cluster.write(key);
        let commit = w.commit.unwrap();
        let _ = cluster.read_at(key, commit);
        // After the read completes and repairs propagate, all replicas hold
        // the version.
        cluster.advance_to(cluster.now() + pbs_sim::SimDuration::from_ms(60_000.0));
        for &rep in cluster.ring().replicas(key) {
            assert_eq!(
                cluster.node(rep as usize).stored_version(key).map(|v| v.seq),
                w.seq,
                "replica {rep} repaired"
            );
        }
        let repairs: u64 = (0..3).map(|i| cluster.node(i).repairs_sent).sum();
        let _ = repairs; // repairs may be zero if the quorum had propagated
    }

    #[test]
    fn partition_blocks_quorum_until_healed() {
        // N=W=3: a minority partition starves the write quorum entirely.
        let mut opts = ClusterOptions::validation(cfg(3, 1, 3), 21);
        opts.op_timeout_ms = 500.0;
        let mut cluster = Cluster::new(opts, NetworkModel::w_ars(
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
        ));
        cluster.network().try_partition(vec![0, 0, 1], 3).unwrap();
        let w = cluster.write_from(0, 5);
        assert!(w.commit.is_none(), "W=3 cannot commit across a partition");
        cluster.network().heal_partition();
        let w = cluster.write_from(0, 5);
        assert!(w.commit.is_some(), "healing restores delivery");
    }

    #[test]
    fn set_replication_changes_quorums_live() {
        let mut opts = ClusterOptions::validation(cfg(3, 1, 1), 22);
        opts.op_timeout_ms = 500.0;
        let mut cluster = Cluster::new(opts, NetworkModel::w_ars(
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
        ));
        // R=W=1 under a minority partition: a majority-side coordinator
        // still commits (itself is a replica).
        cluster.network().try_partition(vec![0, 0, 1], 3).unwrap();
        let w = cluster.write_from(0, 7);
        assert!(w.commit.is_some());
        // Tighten to W=3 live: the same write now fails under partition.
        cluster.set_replication(cfg(3, 3, 3));
        assert_eq!(cluster.replication(), cfg(3, 3, 3));
        let w = cluster.write_from(0, 7);
        assert!(w.commit.is_none(), "new W=3 quorum respected immediately");
        cluster.network().heal_partition();
        let w = cluster.write_from(0, 7);
        assert!(w.commit.is_some());
        let r = cluster.read(7);
        assert!(r.consistent(), "R=3 strict read after heal");
    }

    #[test]
    fn set_replication_rebuilds_ring_for_new_n() {
        let mut opts = ClusterOptions::validation(cfg(2, 1, 2), 23);
        opts.nodes = 4;
        let mut cluster = Cluster::new(opts, NetworkModel::w_ars(
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
        ));
        assert_eq!(cluster.ring().replicas(9).len(), 2);
        cluster.set_replication(cfg(3, 1, 3));
        assert_eq!(cluster.ring().replicas(9).len(), 3, "ring re-placed for N=3");
        let w = cluster.write(9);
        assert!(w.commit.is_some(), "W=3 write commits on the new replica set");
    }

    #[test]
    fn what_a_blocking_caller_gets_is_what_the_checker_sees() {
        let mut opts = ClusterOptions::validation(cfg(3, 1, 3), 24);
        opts.hinted_handoff = true;
        opts.hint_timeout_ms = 50.0;
        opts.op_timeout_ms = 500.0;
        let mut cluster = Cluster::new(opts, NetworkModel::w_ars(
            Arc::new(Constant::new(1.0)),
            Arc::new(Constant::new(1.0)),
        ));
        cluster.enable_history();
        // W=3 across a partition: the coordinator reports failure at the
        // hint timeout. Healed, the same write commits and a read sees it.
        cluster.network().try_partition(vec![0, 0, 1], 3).unwrap();
        let failed = cluster.write_from(0, 5);
        cluster.network().heal_partition();
        let committed = cluster.write_from(0, 5);
        let read = cluster.read(5);
        // A crashed coordinator drops the request: no result, op timeout.
        cluster.crash_node_at(0, cluster.now(), 10_000.0);
        cluster.advance_to(cluster.now() + SimDuration::from_ms(1.0));
        let lost_read = cluster.read_at_from(0, 5, cluster.now());
        let lost_write = cluster.write_from(0, 5);

        assert!(failed.commit.is_none() && failed.seq.is_some());
        assert_eq!(failed.latency_ms(), Some(50.0), "answered at the hint timeout");
        assert!(committed.commit.is_some() && committed.commit == committed.finish);
        assert_eq!(read.op.seq, committed.seq);
        assert!(read.consistent());
        assert_eq!((lost_read.op.finish, lost_read.label), (None, None));
        assert_eq!((lost_write.finish, lost_write.seq), (None, None));
        let unlabelled = |op| HistoryOp { op, label: None };
        assert_eq!(
            cluster.take_history().ops(),
            [unlabelled(failed), unlabelled(committed), read, lost_read, unlabelled(lost_write)]
        );
    }

    /// An infinite timeout would first panic inside the simulator's time
    /// arithmetic, at a node's first GC timer or the first window drained.
    #[test]
    #[should_panic(expected = "ClusterOptions::op_timeout_ms must be finite and > 0, got inf")]
    fn an_infinite_op_timeout_is_rejected() {
        let mut opts = ClusterOptions::validation(cfg(3, 1, 1), 1);
        opts.op_timeout_ms = f64::INFINITY;
        Cluster::new(opts, exp_net(1.0, 1.0));
    }

    /// A zero sync period re-arms every node's `Sync` timer at +0 ms
    /// forever, so the first `advance_to` would never return.
    #[test]
    #[should_panic(expected = "ClusterOptions::sync_interval_ms must be finite and > 0, got 0")]
    fn a_zero_sync_interval_is_rejected() {
        let mut opts = ClusterOptions::validation(cfg(3, 1, 1), 1);
        opts.sync_interval_ms = Some(0.0);
        Cluster::new(opts, exp_net(1.0, 1.0));
    }

    /// A zero flush period would spin the same way once a hint exists.
    #[test]
    #[should_panic(expected = "ClusterOptions::hint_flush_interval_ms must be finite and > 0, \
                               got 0")]
    fn a_zero_hint_flush_interval_is_rejected() {
        let mut opts = ClusterOptions::validation(cfg(3, 1, 1), 1);
        opts.hint_flush_interval_ms = 0.0;
        Cluster::new(opts, exp_net(1.0, 1.0));
    }

    /// A NaN straggler deadline would panic at the first hinted write,
    /// naming no field.
    #[test]
    #[should_panic(expected = "ClusterOptions::hint_timeout_ms must be finite and > 0, got NaN")]
    fn a_nan_hint_timeout_is_rejected() {
        let mut opts = ClusterOptions::validation(cfg(3, 1, 1), 1);
        opts.hint_timeout_ms = f64::NAN;
        Cluster::new(opts, exp_net(1.0, 1.0));
    }

    /// A NaN downtime would be recorded in the history and only panic
    /// inside the simulator's time arithmetic once the crash fires.
    #[test]
    #[should_panic(expected = "Cluster::crash_node_at: down_ms must be finite and >= 0, got NaN")]
    fn a_nan_crash_downtime_is_rejected() {
        let opts = ClusterOptions::validation(cfg(3, 1, 1), 1);
        let mut cluster = Cluster::new(opts, exp_net(1.0, 1.0));
        cluster.crash_node_at(0, SimTime::from_ms(5.0), f64::NAN);
    }

    /// A coordinator counts who answered in a `NodeSet` of 64 replicas,
    /// which a 65-replica cluster would overflow mid-run.
    #[test]
    #[should_panic(expected = "ClusterOptions::replication: N must be at most 64")]
    fn a_65_replica_cluster_is_rejected() {
        Cluster::new(ClusterOptions::validation(cfg(65, 1, 1), 1), exp_net(1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "Cluster::set_replication: N must be at most 64")]
    fn a_live_65_replica_reconfiguration_is_rejected() {
        let mut opts = ClusterOptions::validation(cfg(3, 1, 1), 1);
        opts.nodes = 65;
        let mut cluster = Cluster::new(opts, exp_net(1.0, 1.0));
        cluster.set_replication(cfg(65, 1, 1));
    }

    /// A datacenter map that does not name one DC per node would put every
    /// node it leaves out in DC 0, or name nodes the cluster does not have.
    #[test]
    #[should_panic(expected = "datacenter map names 2 nodes, but the cluster has 3")]
    fn a_short_datacenter_map_is_rejected() {
        let net = exp_net(1.0, 1.0).with_datacenters(vec![0, 1], 75.0);
        Cluster::new(ClusterOptions::validation(cfg(3, 1, 1), 1), net);
    }

    #[test]
    #[should_panic(expected = "datacenter map names 4 nodes, but the cluster has 3")]
    fn a_long_datacenter_map_is_rejected() {
        let net = exp_net(1.0, 1.0).with_datacenters(vec![0, 1, 2, 0], 75.0);
        Cluster::new(ClusterOptions::validation(cfg(3, 1, 1), 1), net);
    }

    /// Blocking ops single-step the engine, which a partitioned engine
    /// cannot do — even with one worker.
    #[test]
    #[should_panic(expected = "blocking operations single-step the event loop and require a serial \
                               cluster")]
    fn a_blocking_write_on_a_parallel_cluster_panics() {
        let net =
            NetworkModel::w_ars(Arc::new(Constant::new(1.0)), Arc::new(Constant::new(1.0)));
        let opts = ClusterOptions::validation(cfg(3, 1, 1), 1);
        let mut cluster =
            Cluster::with_engine(opts, net, EngineKind::Parallel { workers: 1 }).unwrap();
        cluster.write(7);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut cluster = Cluster::new(
                ClusterOptions::validation(cfg(3, 1, 1), seed),
                exp_net(0.1, 0.5),
            );
            let mut sum = 0.0;
            for _ in 0..50 {
                let w = cluster.write(1);
                sum += w.latency_ms().unwrap();
            }
            sum
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    /// The map-and-deque matcher the packed batches replaced: one map entry
    /// and one deque entry per labelled read.
    #[derive(Default)]
    struct ReferenceTracker {
        /// op id → (consistent, already flagged).
        by_op: crate::fxhash::FxHashMap<u64, (bool, bool)>,
        /// `(expires_at, op_id)` in insertion (= time) order.
        deadlines: VecDeque<(SimTime, u64)>,
        stats: DetectorStats,
    }

    impl ReferenceTracker {
        fn observe_read(&mut self, op_id: u64, consistent: bool, expires_at: SimTime) {
            if !consistent {
                self.stats.missed_stale += 1;
            }
            self.by_op.insert(op_id, (consistent, false));
            self.deadlines.push_back((expires_at, op_id));
        }

        fn observe_flag(&mut self, op_id: u64) {
            if let Some((consistent, flagged)) = self.by_op.get_mut(&op_id) {
                if *flagged {
                    return;
                }
                *flagged = true;
                self.stats.flagged += 1;
                if *consistent {
                    self.stats.false_positives += 1;
                } else {
                    self.stats.true_positives += 1;
                    self.stats.missed_stale -= 1;
                }
            }
        }

        fn expire(&mut self, now: SimTime) {
            while let Some(&(at, op_id)) = self.deadlines.front() {
                if at > now {
                    break;
                }
                self.deadlines.pop_front();
                self.by_op.remove(&op_id);
            }
        }
    }

    #[test]
    fn packed_detector_batches_count_what_the_map_and_deque_counted() {
        use rand::Rng;
        // 100 ms windows and a 300 ms grace: a read's batch expires at the
        // end of the third window after its own.
        let (window_ms, grace) = (100.0, SimDuration::from_ms(300.0));
        let mut rng = StdRng::seed_from_u64(0xDE7E);
        let (mut packed, mut reference) = (DetectorTracker::default(), ReferenceTracker::default());
        let mut local = [0u32; 64];
        // Every labelled read as `(window, op id)`, and the ids flagged.
        let mut labelled: Vec<(u32, u64)> = Vec::new();
        let mut flagged = std::collections::HashSet::new();
        let (mut empty, mut duplicate, mut expired, mut unknown) = (0, 0, 0, 0);
        for w in 1..=400u32 {
            let until = SimTime::from_ms(w as f64 * window_ms);
            let reads = if rng.gen_range(0..8u32) == 0 { 0 } else { rng.gen_range(1..200u32) };
            empty += usize::from(reads == 0);
            let first = labelled.len();
            for _ in 0..reads {
                let client = rng.gen_range(0..64usize);
                local[client] += 1;
                let op_id = ((client as u64 + 1) << 32) | local[client] as u64;
                let consistent = rng.gen_bool(0.7);
                packed.observe_read(op_id, consistent);
                reference.observe_read(op_id, consistent, until + grace);
                labelled.push((w, op_id));
            }
            packed.seal(until + grace);
            for _ in 0..rng.gen_range(0..300u32) {
                let n = labelled.len();
                let (from, op_id) = match rng.gen_range(0..5u32) {
                    // A read of this window.
                    0 if n > first => labelled[rng.gen_range(first..n)],
                    // A recent read: live or just expired, often flagged.
                    1 | 2 if n > 0 => labelled[n - 1 - rng.gen_range(0..n.min(800))],
                    // Any read so far: mostly expired.
                    3 if n > 0 => labelled[rng.gen_range(0..n)],
                    // An id no read has: past every client's local counter.
                    _ => {
                        unknown += 1;
                        let local = rng.gen_range(1u64 << 20..1 << 21);
                        (w, (rng.gen_range(1..=64u64) << 32) | local)
                    }
                };
                if w >= from + 4 {
                    expired += 1;
                } else if !flagged.insert(op_id) {
                    duplicate += 1;
                }
                packed.observe_flag(op_id);
                reference.observe_flag(op_id);
            }
            packed.expire(until);
            reference.expire(until);
            assert_eq!(packed.stats, reference.stats, "window {w}");
        }
        let stats = packed.stats;
        assert!(stats.true_positives > 1_000 && stats.false_positives > 1_000, "{stats:?}");
        assert!(stats.missed_stale > 1_000, "{stats:?}");
        assert!(empty > 20 && duplicate > 1_000 && expired > 1_000 && unknown > 1_000);
    }
}
