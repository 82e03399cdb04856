//! The Dynamo-style node: every node can coordinate client operations and
//! store replicas (§2.2, Figure 1).

use crate::buggify::Delivery;
use crate::cluster::ClusterOptions;
use crate::fxhash::FxHashMap;
use crate::merkle;
use crate::messages::Msg;
use crate::network::{Leg, NetworkModel};
use crate::ring::Ring;
use crate::version::Version;
use pbs_core::ReplicaConfig;
use pbs_sim::{Actor, ActorId, Context, Event, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Timer tags: the top byte selects the timer kind, the rest carries an op id.
// ---------------------------------------------------------------------------
const TAG_KIND_SHIFT: u64 = 56;
const KIND_RECOVER: u64 = 1;
const KIND_SYNC: u64 = 2;
const KIND_HINT_FLUSH: u64 = 3;
const KIND_WRITE_TIMEOUT: u64 = 4;
const KIND_GC: u64 = 5;

/// Shared liveness map: nodes mark themselves down/up on crash/recovery,
/// and operation issuers (the blocking harness and in-sim client actors
/// alike) consult it to avoid handing an operation to a crashed
/// coordinator — which would silently become an op timeout.
#[derive(Debug)]
pub(crate) struct DownTracker {
    down: Vec<AtomicBool>,
}

impl DownTracker {
    /// All-up tracker over `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        Self { down: (0..nodes).map(|_| AtomicBool::new(false)).collect() }
    }

    /// Mark `node` down or up.
    pub(crate) fn set_down(&self, node: usize, down: bool) {
        self.down[node].store(down, Ordering::Relaxed);
    }

    /// Whether `node` is currently marked down.
    pub(crate) fn is_down(&self, node: usize) -> bool {
        self.down[node].load(Ordering::Relaxed)
    }

    /// Pick a coordinator uniformly at random among the **up** nodes of the
    /// `count` starting at `base`, falling back to the raw draw when every
    /// one is down (the op will then time out, as it must). Under the
    /// parallel engine a client may only address nodes of its own
    /// partition; everyone else passes `base = 0, count = nodes`. Consumes
    /// exactly one RNG draw regardless of crash state (one draw, then a
    /// linear probe), so healthy-cluster RNG streams are unchanged by this
    /// check.
    pub(crate) fn pick_up_node_in(&self, rng: &mut dyn RngCore, base: usize, count: usize) -> usize {
        let start = rng.gen_range(0..count);
        for probe in 0..count {
            let candidate = base + (start + probe) % count;
            if !self.is_down(candidate) {
                return candidate;
            }
        }
        base + start
    }
}

fn tag(kind: u64, op: u64) -> u64 {
    debug_assert!(op < (1 << TAG_KIND_SHIFT));
    (kind << TAG_KIND_SHIFT) | op
}

fn tag_kind(t: u64) -> u64 {
    t >> TAG_KIND_SHIFT
}

fn tag_op(t: u64) -> u64 {
    t & ((1 << TAG_KIND_SHIFT) - 1)
}

/// Recorded one-way delays per WARS leg.
#[derive(Debug, Clone, Default)]
pub struct LegSamples {
    /// Write-propagation delays (`W`).
    pub w: Vec<f64>,
    /// Write-ack delays (`A`).
    pub a: Vec<f64>,
    /// Read-request delays (`R`).
    pub r: Vec<f64>,
    /// Read-response delays (`S`).
    pub s: Vec<f64>,
}

impl LegSamples {
    /// Merge another node's samples into this one.
    pub fn merge(&mut self, other: &mut LegSamples) {
        self.w.append(&mut other.w);
        self.a.append(&mut other.a);
        self.r.append(&mut other.r);
        self.s.append(&mut other.s);
    }

    /// Total samples across the four legs.
    pub fn len(&self) -> usize {
        self.w.len() + self.a.len() + self.r.len() + self.s.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Bitmask over replica node ids (`1 << id` for ids below 64). Nodes at
/// or above 64 are silently omitted — the order oracle treats a missing
/// bit as "no evidence", which only weakens (never falsifies) a check.
fn replica_mask(ids: &[ActorId]) -> u64 {
    ids.iter().filter(|&&id| id < 64).fold(0u64, |m, &id| m | (1u64 << id))
}

/// A completed client operation, drained by the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientResult {
    /// A write: `commit` is `None` when the write failed to reach `W` acks
    /// before the hint timeout.
    Write {
        /// Operation id.
        op_id: u64,
        /// Key written.
        key: u64,
        /// Version installed.
        version: Version,
        /// Issue time.
        start: SimTime,
        /// Commit time (W-th ack), or None on failure.
        commit: Option<SimTime>,
        /// Replicas that had acked when the result was produced (at commit
        /// for committed writes, at the hint timeout for failed ones), as
        /// a bitmask over node ids below 64. Acks arrive *after* the
        /// replica applied the version, so a set bit certifies durability
        /// on that replica at the commit instant.
        acked: u64,
    },
    /// A read: `version` is the newest version among the first `R`
    /// responses (None when no responder had the key).
    Read {
        /// Operation id.
        op_id: u64,
        /// Key read.
        key: u64,
        /// Issue time.
        start: SimTime,
        /// Completion time (R-th response).
        finish: SimTime,
        /// Returned version.
        version: Option<Version>,
        /// The replica whose response supplied the returned version
        /// (`None` for an empty read).
        source: Option<u32>,
        /// The first `R` responders, as a bitmask over node ids below 64.
        responders: u64,
    },
}

impl ClientResult {
    /// The operation id.
    pub(crate) fn op_id(&self) -> u64 {
        match self {
            ClientResult::Write { op_id, .. } | ClientResult::Read { op_id, .. } => *op_id,
        }
    }
}

/// One asynchronous staleness-detector observation (§4.3): a read response
/// arriving after the client reply carried a newer version than was
/// returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DetectorEvent {
    /// The flagged read.
    pub op_id: u64,
    /// Key involved.
    pub key: u64,
    /// What the read returned.
    pub returned: Option<Version>,
    /// The newer version observed afterwards.
    pub newer: Version,
    /// When the detector fired.
    pub at: SimTime,
}

#[derive(Debug)]
struct WriteState {
    key: u64,
    version: Version,
    replicas: Vec<ActorId>,
    acked: Vec<ActorId>,
    committed: Option<SimTime>,
    start: SimTime,
    /// The in-sim client actor awaiting the result (`None` = issued by the
    /// blocking harness, which polls `client_results` instead).
    reply_to: Option<ActorId>,
}

impl Default for WriteState {
    fn default() -> Self {
        Self {
            key: 0,
            version: Version::new(0, 0),
            replicas: Vec::new(),
            acked: Vec::new(),
            committed: None,
            start: SimTime::ZERO,
            reply_to: None,
        }
    }
}

#[derive(Debug, Default)]
struct ReadState {
    key: u64,
    replicas: Vec<ActorId>,
    responses: Vec<(ActorId, Option<Version>)>,
    /// Set once `R` responses arrived (the value returned to the client).
    returned: Option<Option<Version>>,
    /// Per replica, the freshest version a read-repair write has already
    /// been sent for during this read (a later response may reveal an even
    /// fresher version, warranting a second repair).
    repaired: Vec<(ActorId, Version)>,
    start: SimTime,
    reply_to: Option<ActorId>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Hint {
    target: ActorId,
    key: u64,
    version: Version,
    /// When this hint was created or last refreshed; the GC sweep expires
    /// hints whose target has stayed unreachable past the op-timeout
    /// horizon (anti-entropy takes over from there).
    since: SimTime,
}

/// The node actor.
pub struct Node {
    id: ActorId,
    /// The cluster's options, by value; `replication` follows live
    /// reconfiguration ([`set_replication`](Self::set_replication)).
    opts: ClusterOptions,
    net: Arc<NetworkModel>,
    ring: Arc<Ring>,
    down_map: Arc<DownTracker>,
    rng: StdRng,
    down: bool,
    gc_interval_ms: Option<f64>,
    store: FxHashMap<u64, Version>,
    pending_writes: FxHashMap<u64, WriteState>,
    pending_reads: FxHashMap<u64, ReadState>,
    /// Retired pending-op states, recycled slab-style so the per-op
    /// replica/ack/response vectors are allocated once and reused for the
    /// life of the node.
    write_pool: Vec<WriteState>,
    read_pool: Vec<ReadState>,
    hints: Vec<Hint>,
    hint_flush_scheduled: bool,
    sync_interval_ms: Option<f64>,
    /// Completed client operations awaiting harness pickup.
    pub(crate) client_results: FxHashMap<u64, ClientResult>,
    /// Accumulated staleness-detector observations.
    pub(crate) detector_log: Vec<DetectorEvent>,
    /// Per-leg one-way latency samples (WARS instrumentation, §5.5's
    /// "easily collected" measurements). Populated when
    /// [`ClusterOptions::record_leg_samples`] is set.
    pub(crate) leg_samples: LegSamples,
    /// Stats: read-repair messages sent.
    pub repairs_sent: u64,
    /// Stats: hints successfully delivered.
    pub hints_delivered: u64,
    /// Stats: hints expired by the GC sweep (target unreachable past the
    /// op-timeout horizon; anti-entropy is then the only healing path).
    pub hints_expired: u64,
    /// Stats: anti-entropy rounds initiated.
    pub sync_rounds: u64,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("down", &self.down)
            .field("keys", &self.store.len())
            .field("pending_writes", &self.pending_writes.len())
            .field("pending_reads", &self.pending_reads.len())
            .field("hints", &self.hints.len())
            .finish()
    }
}

impl Node {
    /// Build node `id` with its own deterministic RNG stream, derived from
    /// `opts.seed`. The down-tracker is shared cluster-wide.
    pub(crate) fn new(
        id: ActorId,
        opts: ClusterOptions,
        net: Arc<NetworkModel>,
        ring: Arc<Ring>,
        down_map: Arc<DownTracker>,
    ) -> Self {
        let rng_seed = opts.seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Self {
            id,
            opts,
            net,
            ring,
            down_map,
            rng: StdRng::seed_from_u64(rng_seed),
            down: false,
            gc_interval_ms: None,
            store: FxHashMap::default(),
            pending_writes: FxHashMap::default(),
            pending_reads: FxHashMap::default(),
            write_pool: Vec::new(),
            read_pool: Vec::new(),
            hints: Vec::new(),
            hint_flush_scheduled: false,
            sync_interval_ms: None,
            client_results: FxHashMap::default(),
            detector_log: Vec::new(),
            leg_samples: LegSamples::default(),
            repairs_sent: 0,
            hints_delivered: 0,
            hints_expired: 0,
            sync_rounds: 0,
        }
    }

    /// Whether the node is currently crashed.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// The node's stored version of `key`, if any.
    pub fn stored_version(&self, key: u64) -> Option<Version> {
        self.store.get(&key).copied()
    }

    /// Change the quorum sizes this node uses when coordinating (live
    /// reconfiguration, §6 "Variable configurations"). Operations already
    /// in flight complete under whichever threshold is in force when their
    /// responses arrive — the coordinator checks `≥`, so shrinking a
    /// quorum lets pending operations commit on their next response.
    pub(crate) fn set_replication(&mut self, cfg: ReplicaConfig) {
        self.opts.replication = cfg;
    }

    /// Swap the placement ring (live replication-factor change). Existing
    /// stored data stays put; anti-entropy and read repair migrate it to
    /// the new replica sets over time.
    pub(crate) fn set_ring(&mut self, ring: Arc<Ring>) {
        self.ring = ring;
    }

    fn apply_version(&mut self, key: u64, version: Version) {
        if self.opts.mutations.drop_version_merge {
            // Mutation: blind last-writer-in overwrite — a stale repair or
            // hint can roll an already-applied version back.
            self.store.insert(key, version);
            return;
        }
        let entry = self.store.entry(key).or_insert(version);
        if version > *entry {
            *entry = version;
        }
    }

    /// Send on `leg`: whether the message arrives, when, and how often is
    /// the network model's decision alone (partition, latency regime, and
    /// the fault-schedule segment active at the sender's current time).
    fn send(&mut self, ctx: &mut Context<'_, Msg>, leg: Leg, to: ActorId, msg: Msg) {
        let now_ms = ctx.now().as_ms();
        match self.net.transmit_buggified(leg, self.id, to, now_ms, &mut self.rng) {
            Delivery::Dropped => {} // partitioned away or buggify drop
            Delivery::Once(delay) => {
                self.record_leg(leg, delay);
                ctx.send(to, delay, msg);
            }
            Delivery::Twice(first, second) => {
                // An at-least-once network delivered the message twice;
                // both copies are real deliveries with real delays.
                self.record_leg(leg, first);
                self.record_leg(leg, second);
                ctx.send(to, first, msg.clone());
                ctx.send(to, second, msg);
            }
        }
    }

    fn record_leg(&mut self, leg: Leg, delay: f64) {
        if self.opts.record_leg_samples {
            match leg {
                Leg::W => self.leg_samples.w.push(delay),
                Leg::A => self.leg_samples.a.push(delay),
                Leg::R => self.leg_samples.r.push(delay),
                Leg::S => self.leg_samples.s.push(delay),
            }
        }
    }

    /// Convert a node-local protocol interval to the global delay the
    /// simulator should wait, under the node's buggify clock skew
    /// (identity without a fault profile). Applied to *protocol* timers —
    /// hint timeout, hint flush, anti-entropy cadence — but not to the
    /// recovery and GC timers, which are harness bookkeeping rather than
    /// clock-driven node behaviour.
    fn timer_ms(&self, now_ms: f64, local_ms: f64) -> f64 {
        self.net.clock_of(self.id, now_ms).global_delay_ms(local_ms)
    }

    fn schedule_hint_flush(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.hint_flush_scheduled && !self.hints.is_empty() {
            self.hint_flush_scheduled = true;
            let delay = self.timer_ms(ctx.now().as_ms(), self.opts.hint_flush_interval_ms);
            ctx.set_timer(delay, tag(KIND_HINT_FLUSH, 0));
        }
    }

    /// Stash (or refresh) the hint for `(target, key)`: one hint per
    /// missed replica per key, carrying the newest missed version, so a
    /// permanently crashed replica cannot accumulate unbounded hints.
    fn push_hint(&mut self, target: ActorId, key: u64, version: Version, now: SimTime) {
        match self.hints.iter_mut().find(|h| h.target == target && h.key == key) {
            Some(h) => {
                if version > h.version {
                    h.version = version;
                }
                h.since = now;
            }
            None => self.hints.push(Hint { target, key, version, since: now }),
        }
    }

    /// Number of pending (undelivered, unexpired) hints.
    pub fn hint_count(&self) -> usize {
        self.hints.len()
    }

    /// Route a completed operation to its issuer: in-sim client actors get
    /// an [`Msg::OpResult`] message (zero delay — clients are co-located
    /// with their coordinator); blocking-harness operations land in
    /// [`client_results`](Self::client_results).
    fn deliver(&mut self, ctx: &mut Context<'_, Msg>, reply_to: Option<ActorId>, result: ClientResult) {
        match reply_to {
            Some(client) => ctx.send(client, 0.0, Msg::OpResult { result }),
            None => {
                self.client_results.insert(result.op_id(), result);
            }
        }
    }

    // ----- coordinator: writes -----

    fn on_client_write(&mut self, ctx: &mut Context<'_, Msg>, op_id: u64, key: u64, from: ActorId) {
        // The sequence number is the write's start instant (+1 so 0 stays
        // the "absent" sentinel): version order matches write-start order
        // with no cluster-wide shared allocator, so coordinators on
        // different parallel-engine partitions assign identical versions
        // to identical schedules. Simultaneous starts at different
        // coordinators tie on `seq` and resolve by writer id.
        let seq = ctx.now().as_nanos() + 1;
        let version = Version::new(seq, self.id as u32);
        let reply_to = (from != self.id).then_some(from);
        let mut state = self.write_pool.pop().unwrap_or_default();
        state.key = key;
        state.version = version;
        state.replicas.clear();
        state.replicas.extend(self.ring.replicas(key).iter().map(|&n| n as usize));
        state.acked.clear();
        state.committed = None;
        state.start = ctx.now();
        state.reply_to = reply_to;
        debug_assert!(state.replicas.len() >= self.opts.replication.w() as usize);
        for &replica in &state.replicas {
            self.send(
                ctx,
                Leg::W,
                replica,
                Msg::ReplicaWrite { op_id, key, version, coordinator: self.id },
            );
        }
        self.pending_writes.insert(op_id, state);
        if self.opts.hinted_handoff {
            let delay = self.timer_ms(ctx.now().as_ms(), self.opts.hint_timeout_ms);
            ctx.set_timer(delay, tag(KIND_WRITE_TIMEOUT, op_id));
        }
    }

    fn on_write_ack(&mut self, ctx: &mut Context<'_, Msg>, op_id: u64, replica: ActorId) {
        let Some(state) = self.pending_writes.get_mut(&op_id) else {
            return; // late ack after hint timeout cleanup
        };
        if state.acked.contains(&replica) {
            return; // duplicate (e.g. hint + original both landed)
        }
        state.acked.push(replica);
        let mut completed: Option<(Option<ActorId>, ClientResult)> = None;
        if state.committed.is_none() && state.acked.len() >= self.opts.replication.w() as usize {
            state.committed = Some(ctx.now());
            completed = Some((
                state.reply_to,
                ClientResult::Write {
                    op_id,
                    key: state.key,
                    version: state.version,
                    start: state.start,
                    commit: Some(ctx.now()),
                    acked: replica_mask(&state.acked),
                },
            ));
        }
        if state.acked.len() == state.replicas.len() {
            if let Some(state) = self.pending_writes.remove(&op_id) {
                self.write_pool.push(state); // fully replicated; recycle
            }
        }
        if let Some((reply_to, result)) = completed {
            self.deliver(ctx, reply_to, result);
        }
    }

    fn on_write_timeout(&mut self, ctx: &mut Context<'_, Msg>, op_id: u64) {
        let Some(state) = self.pending_writes.remove(&op_id) else {
            return; // completed before the timeout
        };
        if state.committed.is_none() {
            // The write failed to reach its quorum in time.
            self.deliver(
                ctx,
                state.reply_to,
                ClientResult::Write {
                    op_id,
                    key: state.key,
                    version: state.version,
                    start: state.start,
                    commit: None,
                    acked: replica_mask(&state.acked),
                },
            );
        }
        // Hint every replica that never acked (coalesced per target/key).
        let now = ctx.now();
        for &replica in &state.replicas {
            if !state.acked.contains(&replica) {
                self.push_hint(replica, state.key, state.version, now);
            }
        }
        self.write_pool.push(state);
        self.schedule_hint_flush(ctx);
    }

    fn on_hint_flush(&mut self, ctx: &mut Context<'_, Msg>) {
        self.hint_flush_scheduled = false;
        if self.opts.mutations.swallow_hints {
            // Mutation: hints are stashed but never redelivered.
            self.schedule_hint_flush(ctx);
            return;
        }
        let hints = self.hints.clone();
        for h in hints {
            self.send(
                ctx,
                Leg::W,
                h.target,
                Msg::HintedWrite { key: h.key, version: h.version, coordinator: self.id },
            );
        }
        self.schedule_hint_flush(ctx);
    }

    // ----- coordinator: reads -----

    fn on_client_read(&mut self, ctx: &mut Context<'_, Msg>, op_id: u64, key: u64, from: ActorId) {
        let reply_to = (from != self.id).then_some(from);
        let mut state = self.read_pool.pop().unwrap_or_default();
        state.key = key;
        state.replicas.clear();
        state.replicas.extend(self.ring.replicas(key).iter().map(|&n| n as usize));
        state.responses.clear();
        state.returned = None;
        state.repaired.clear();
        state.start = ctx.now();
        state.reply_to = reply_to;
        debug_assert!(state.replicas.len() >= self.opts.replication.r() as usize);
        for &replica in &state.replicas {
            self.send(ctx, Leg::R, replica, Msg::ReplicaRead { op_id, key, coordinator: self.id });
        }
        self.pending_reads.insert(op_id, state);
    }

    fn on_read_resp(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        op_id: u64,
        replica: ActorId,
        version: Option<Version>,
    ) {
        let now = ctx.now();
        let Some(state) = self.pending_reads.get_mut(&op_id) else {
            return;
        };
        state.responses.push((replica, version));
        let mut completed: Option<(Option<ActorId>, ClientResult)> = None;
        if state.returned.is_none() && state.responses.len() >= self.opts.replication.r() as usize {
            // Return the newest of the first R responses (None < Some).
            let best = state.responses.iter().map(|(_, v)| *v).max().flatten();
            state.returned = Some(best);
            // Provenance for the order oracle: which replica supplied the
            // returned version (first responder holding it, in arrival
            // order), and the full first-R responder set.
            let source = best.and_then(|b| {
                state
                    .responses
                    .iter()
                    .find(|(_, v)| *v == Some(b))
                    .map(|(replica, _)| *replica as u32)
            });
            let responders = state
                .responses
                .iter()
                .filter(|(r, _)| *r < 64)
                .fold(0u64, |m, (r, _)| m | (1u64 << *r));
            completed = Some((
                state.reply_to,
                ClientResult::Read {
                    op_id,
                    key: state.key,
                    start: state.start,
                    finish: now,
                    version: best,
                    source,
                    responders,
                },
            ));
        } else if let Some(returned) = state.returned {
            // A late (N − R) response: the asynchronous staleness detector
            // (§4.3) compares it against what the client saw.
            if version > returned {
                self.detector_log.push(DetectorEvent {
                    op_id,
                    key: state.key,
                    returned,
                    newer: version.expect("version > returned implies Some"),
                    at: now,
                });
            }
        }
        // Repair eagerly: as soon as the quorum has answered, any responder
        // observed behind the freshest version seen so far gets an
        // asynchronous repair write. Waiting for all N responses (as a
        // digest-comparison implementation might) starves repair entirely
        // under message loss — a dropped `S` leg would gate every repair on
        // this key forever.
        let mut repairs: Option<(u64, Version, Vec<ActorId>)> = None;
        if self.opts.read_repair
            && !self.opts.mutations.skip_read_repair
            && state.responses.len() >= self.opts.replication.r() as usize
        {
            if let Some(freshest) = state.responses.iter().map(|(_, v)| *v).max().flatten() {
                let repaired = &state.repaired;
                let stale: Vec<ActorId> = state
                    .responses
                    .iter()
                    .filter(|(replica, v)| {
                        v.is_none_or(|v| v < freshest)
                            && !repaired.iter().any(|(r, to)| r == replica && *to >= freshest)
                    })
                    .map(|(replica, _)| *replica)
                    .collect();
                for &replica in &stale {
                    // Record (or upgrade) the version this replica was
                    // repaired to, so only a yet-fresher discovery repeats.
                    match state.repaired.iter_mut().find(|(r, _)| *r == replica) {
                        Some(entry) => entry.1 = freshest,
                        None => state.repaired.push((replica, freshest)),
                    }
                }
                repairs = Some((state.key, freshest, stale));
            }
        }
        if state.responses.len() == state.replicas.len() {
            if let Some(state) = self.pending_reads.remove(&op_id) {
                self.read_pool.push(state); // fully answered; recycle
            }
        }
        if let Some((reply_to, result)) = completed {
            self.deliver(ctx, reply_to, result);
        }
        if let Some((key, freshest, stale)) = repairs {
            // Mutation: repair with a fabricated version no client ever
            // wrote — ~70k seconds ahead of any real write-start seq.
            let version = if self.opts.mutations.corrupt_read_repair {
                Version::new(freshest.seq + (1 << 46), freshest.writer)
            } else {
                freshest
            };
            for replica in stale {
                self.repairs_sent += 1;
                self.send(ctx, Leg::W, replica, Msg::RepairWrite { key, version });
            }
        }
    }

    // ----- pending-op garbage collection -----

    /// Periodic sweep: drop pending-op state older than the retention
    /// horizon. Issuers detect their own timeouts (the blocking harness by
    /// deadline, client tables by their op-deadline FIFO), so a swept entry
    /// has already been reported; sweeping merely bounds coordinator
    /// memory by *in-flight* operations under message loss or partitions,
    /// where the N-th ack/response may never arrive.
    fn on_gc(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(interval) = self.gc_interval_ms else {
            return;
        };
        ctx.set_timer(interval, tag(KIND_GC, 0));
        let horizon = SimDuration::from_ms(interval);
        let now = ctx.now();
        let cutoff = if now.as_nanos() > horizon.as_nanos() {
            SimTime::from_ms(now.as_ms() - interval)
        } else {
            return; // nothing can be old enough yet
        };
        self.pending_writes.retain(|_, s| s.start > cutoff);
        self.pending_reads.retain(|_, s| s.start > cutoff);
        // Hints share the retention horizon: if the target has stayed
        // unreachable past the op timeout, stop rebroadcasting and let
        // anti-entropy heal the replica instead; otherwise a permanently
        // crashed replica pins its hints (and their flush traffic) forever.
        let before = self.hints.len();
        self.hints.retain(|h| h.since > cutoff);
        self.hints_expired += (before - self.hints.len()) as u64;
    }

    // ----- anti-entropy -----

    fn my_digest_for(&self, peer: ActorId) -> Vec<u64> {
        merkle::digest(
            self.store
                .iter()
                .filter(|(k, _)| self.ring.is_replica(**k, peer as u32))
                .map(|(k, v)| (*k, *v)),
        )
    }

    fn entries_in_buckets(&self, peer: ActorId, buckets: &[u32]) -> Vec<(u64, Version)> {
        self.store
            .iter()
            .filter(|(k, _)| {
                self.ring.is_replica(**k, peer as u32)
                    && buckets.contains(&merkle::bucket_of(**k))
            })
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    fn on_sync_timer(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(interval) = self.sync_interval_ms {
            ctx.set_timer(self.timer_ms(ctx.now().as_ms(), interval), tag(KIND_SYNC, 0));
            let n = self.ring.nodes() as usize;
            if n > 1 {
                let mut peer = self.rng.gen_range(0..n - 1);
                if peer >= self.id {
                    peer += 1;
                }
                self.sync_rounds += 1;
                let buckets = self.my_digest_for(peer);
                self.send(ctx, Leg::A, peer, Msg::SyncDigest { from: self.id, buckets });
            }
        }
    }

    fn on_sync_digest(&mut self, ctx: &mut Context<'_, Msg>, from: ActorId, theirs: Vec<u64>) {
        let mine = self.my_digest_for(from);
        let differing = merkle::differing_buckets(&mine, &theirs);
        if !differing.is_empty() {
            let entries = self.entries_in_buckets(from, &differing);
            self.send(ctx, Leg::A, from, Msg::SyncDiff { from: self.id, entries, differing });
        }
    }

    fn on_sync_diff(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ActorId,
        entries: Vec<(u64, Version)>,
        differing: Vec<u32>,
    ) {
        for (key, version) in entries {
            if self.ring.is_replica(key, self.id as u32) {
                self.apply_version(key, version);
            }
        }
        let reply = self.entries_in_buckets(from, &differing);
        if !reply.is_empty() {
            self.send(ctx, Leg::A, from, Msg::SyncDiffReply { entries: reply });
        }
    }

    // ----- failure handling -----

    fn on_crash(&mut self, ctx: &mut Context<'_, Msg>, down_ms: f64, wipe: bool) {
        self.down = true;
        self.down_map.set_down(self.id, true);
        if wipe {
            self.store.clear();
        }
        // In-flight coordinated operations die with the coordinator.
        self.pending_writes.clear();
        self.pending_reads.clear();
        ctx.set_timer(down_ms, tag(KIND_RECOVER, 0));
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, Msg>) {
        self.down = false;
        self.down_map.set_down(self.id, false);
        if self.sync_interval_ms.is_some() {
            ctx.set_timer(0.0, tag(KIND_SYNC, 0));
        }
        self.hint_flush_scheduled = false;
        self.schedule_hint_flush(ctx);
    }
}

impl Actor for Node {
    type Msg = Msg;

    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, event: Event<Msg>) {
        // A crashed node processes nothing except its own recovery timer
        // and the GC sweep (pure bookkeeping, kept alive through crashes).
        if self.down {
            if let Event::Timer { tag: t } = event {
                match tag_kind(t) {
                    KIND_RECOVER => self.on_recover(ctx),
                    KIND_GC => self.on_gc(ctx),
                    _ => {}
                }
            }
            return;
        }
        match event {
            Event::Message { from, msg } => match msg {
                Msg::ClientWrite { op_id, key } => {
                    self.on_client_write(ctx, op_id, key, from);
                }
                Msg::ClientRead { op_id, key } => {
                    self.on_client_read(ctx, op_id, key, from);
                }
                Msg::ReplicaWrite { op_id, key, version, coordinator } => {
                    let lag = self.net.disk_lag_ms(self.id, ctx.now().as_ms(), &mut self.rng);
                    if lag > 0.0 {
                        // Buggify disk lag: defer the apply *and* the ack.
                        // If this node crashes before the lag elapses, the
                        // write is lost — like an fsync that never landed.
                        ctx.send(self.id, lag, Msg::DiskApply { op_id, key, version, coordinator });
                    } else {
                        self.apply_version(key, version);
                        self.send(
                            ctx,
                            Leg::A,
                            coordinator,
                            Msg::WriteAck { op_id, replica: self.id },
                        );
                    }
                }
                Msg::DiskApply { op_id, key, version, coordinator } => {
                    self.apply_version(key, version);
                    self.send(ctx, Leg::A, coordinator, Msg::WriteAck { op_id, replica: self.id });
                }
                Msg::ReplicaRead { op_id, key, coordinator } => {
                    let version = self.store.get(&key).copied();
                    self.send(
                        ctx,
                        Leg::S,
                        coordinator,
                        Msg::ReadResp { op_id, replica: self.id, version },
                    );
                }
                Msg::WriteAck { op_id, replica } => self.on_write_ack(ctx, op_id, replica),
                Msg::ReadResp { op_id, replica, version } => {
                    self.on_read_resp(ctx, op_id, replica, version);
                }
                Msg::RepairWrite { key, version } => self.apply_version(key, version),
                Msg::HintedWrite { key, version, coordinator } => {
                    self.apply_version(key, version);
                    self.send(
                        ctx,
                        Leg::A,
                        coordinator,
                        Msg::HintAck { key, version, replica: self.id },
                    );
                }
                Msg::HintAck { key, version, replica } => {
                    // An ack for version v clears any hint at v *or older*
                    // for that target/key: replicas keep the max, so an
                    // acked delivery subsumes every older missed version.
                    let before = self.hints.len();
                    self.hints.retain(|h| {
                        !(h.target == replica && h.key == key && h.version <= version)
                    });
                    self.hints_delivered += (before - self.hints.len()) as u64;
                }
                Msg::SyncDigest { from, buckets } => self.on_sync_digest(ctx, from, buckets),
                Msg::SyncDiff { from, entries, differing } => {
                    self.on_sync_diff(ctx, from, entries, differing);
                }
                Msg::SyncDiffReply { entries } => {
                    for (key, version) in entries {
                        if self.ring.is_replica(key, self.id as u32) {
                            self.apply_version(key, version);
                        }
                    }
                }
                Msg::Crash { down_ms, wipe } => self.on_crash(ctx, down_ms, wipe),
                Msg::StartSync { interval_ms } => {
                    self.sync_interval_ms = Some(interval_ms);
                    // Stagger the first round by the node id to avoid
                    // thundering herds.
                    let stagger = interval_ms * (self.id as f64 + 1.0)
                        / (self.ring.nodes() as f64 + 1.0);
                    ctx.set_timer(self.timer_ms(ctx.now().as_ms(), stagger), tag(KIND_SYNC, 0));
                }
                Msg::StartGc { interval_ms } => {
                    self.gc_interval_ms = Some(interval_ms);
                    ctx.set_timer(interval_ms, tag(KIND_GC, 0));
                }
                Msg::OpResult { result } => {
                    unreachable!("nodes never receive op results: {result:?}")
                }
                Msg::StartClient | Msg::StopClient => {
                    unreachable!("client lifecycle messages target client actors")
                }
            },
            Event::Timer { tag: t } => match tag_kind(t) {
                KIND_RECOVER => self.on_recover(ctx),
                KIND_SYNC => self.on_sync_timer(ctx),
                KIND_HINT_FLUSH => self.on_hint_flush(ctx),
                KIND_WRITE_TIMEOUT => self.on_write_timeout(ctx, tag_op(t)),
                KIND_GC => self.on_gc(ctx),
                other => unreachable!("unknown timer kind {other}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_tags_round_trip() {
        let t = tag(KIND_WRITE_TIMEOUT, 123_456);
        assert_eq!(tag_kind(t), KIND_WRITE_TIMEOUT);
        assert_eq!(tag_op(t), 123_456);
        assert_eq!(tag_kind(tag(KIND_SYNC, 0)), KIND_SYNC);
    }

    #[test]
    fn apply_version_keeps_max() {
        let net = Arc::new(NetworkModel::w_ars(
            Arc::new(pbs_dist::Constant::new(1.0)),
            Arc::new(pbs_dist::Constant::new(1.0)),
        ));
        let ring = Arc::new(Ring::new(3, 8, 3));
        let opts = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).unwrap(), 7);
        let mut node = Node::new(0, opts, net, ring, Arc::new(DownTracker::new(3)));
        node.apply_version(5, Version::new(2, 0));
        node.apply_version(5, Version::new(1, 0));
        assert_eq!(node.stored_version(5), Some(Version::new(2, 0)));
        node.apply_version(5, Version::new(3, 1));
        assert_eq!(node.stored_version(5), Some(Version::new(3, 1)));
        assert_eq!(node.store.len(), 1);
    }
}
