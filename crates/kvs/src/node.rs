//! The Dynamo-style node's protocol core: every node can coordinate client
//! operations and store replicas (§2.2, Figure 1).
//!
//! The core is sans-io. [`Node::handle`] takes one [`Input`] at an instant
//! and appends the [`Output`]s it causes; it owns the store, the pending
//! operations, the hints and the counters, and knows nothing of how a
//! message travels, which faults are injected, whose clock is skewed or how
//! a timer is encoded — the shell that hosts it in the simulator does. So
//! a protocol property ("`R` responses means `R` distinct replicas") can be
//! stated and tested on bare cores, with no cluster around them.

use crate::cluster::ClusterOptions;
use crate::fxhash::FxHashMap;
use crate::merkle;
use crate::messages::{ClientToNode, NodeControl, NodeToClient, NodeToNode};
use crate::network::Leg;
use crate::ring::Ring;
use crate::version::Version;
use pbs_core::ReplicaConfig;
use pbs_quorum::{NodeSet, QuorumSystem};
use pbs_sim::{ActorId, SimDuration, SimTime};
use rand::{Rng, RngCore};
use std::sync::Arc;

/// A timer a node sets on itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeTimer {
    /// The end of a crash.
    Recover,
    /// The next anti-entropy round.
    Sync,
    /// The next redelivery of pending hints.
    HintFlush,
    /// The write-straggler deadline of one coordinated write.
    WriteTimeout {
        /// The write's operation id.
        op_id: u64,
    },
    /// The next pending-op sweep.
    Gc,
}

/// One thing that happens to a node.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A client's request arrived.
    Client {
        /// Who asked — where the result is delivered.
        from: ActorId,
        /// The request.
        req: ClientToNode,
    },
    /// A node's message arrived.
    Peer {
        /// The message.
        msg: NodeToNode,
        /// How long this node's disk defers the apply of a
        /// [`NodeToNode::ReplicaWrite`] (fault injection; 0 = apply now).
        /// No other message reads it.
        disk_lag_ms: f64,
    },
    /// A timer the node set has fired.
    Timer(NodeTimer),
    /// The harness crashed the node or started one of its periodic duties.
    Control(NodeControl),
}

/// One effect a node asks of whatever hosts it. Effects are to be applied
/// in the order they were emitted.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Send `msg` to node `to` over the network, on WARS leg `leg`.
    Send {
        /// The leg whose latency the message experiences.
        leg: Leg,
        /// Destination node.
        to: ActorId,
        /// The message.
        msg: NodeToNode,
    },
    /// Hand `msg` back to this node after `after_ms`, bypassing the
    /// network (a disk apply that lags).
    SendSelf {
        /// Delay in milliseconds.
        after_ms: f64,
        /// The message.
        msg: NodeToNode,
    },
    /// Fire `timer` on this node after `after_ms`.
    Timer {
        /// Delay in milliseconds.
        after_ms: f64,
        /// Whether the delay is measured on the node's own (possibly
        /// skewed) clock — hint timeout, hint flush, anti-entropy cadence —
        /// or is harness bookkeeping on the global one (recovery, GC).
        protocol_clock: bool,
        /// The timer.
        timer: NodeTimer,
    },
    /// Hand a finished operation to its issuer, with no delay: clients are
    /// co-located with their coordinator.
    Deliver {
        /// The issuer ([`Input::Client::from`]).
        to: ActorId,
        /// The finished operation.
        result: NodeToClient,
    },
    /// The node went down or came back up.
    Liveness {
        /// Whether it is now down.
        down: bool,
    },
}

/// The node ids of `replicas` at the positions in `answered`, as a bitmask
/// (`1 << id`) for the order oracle. Ids at or above 64 are silently
/// omitted — the oracle treats a missing bit as "no evidence", which only
/// weakens (never falsifies) a check.
fn replica_mask(replicas: &[ActorId], answered: NodeSet) -> u64 {
    let ids = replicas.iter().enumerate().filter(|&(pos, _)| answered.contains(pos as u32));
    ids.filter(|&(_, &id)| id < 64).fold(0u64, |m, (_, &id)| m | (1u64 << id))
}

/// The preference-list position of `replica` in `replicas`, unless it is
/// already in `answered` (a replica counts once toward a quorum).
fn unanswered_position(replicas: &[ActorId], answered: NodeSet, replica: ActorId) -> Option<u32> {
    let pos = replicas.iter().position(|&r| r == replica)? as u32;
    (!answered.contains(pos)).then_some(pos)
}

#[derive(Debug, Default)]
struct WriteState {
    key: u64,
    version: Version,
    replicas: Vec<ActorId>,
    /// The positions in `replicas` that acked.
    acked: NodeSet,
    committed: Option<SimTime>,
    start: SimTime,
    /// Who awaits the result.
    reply_to: ActorId,
}

#[derive(Debug, Default)]
struct ReadState {
    key: u64,
    replicas: Vec<ActorId>,
    /// The positions in `replicas` that answered.
    answered: NodeSet,
    /// The responses in arrival order.
    responses: Vec<(ActorId, Option<Version>)>,
    /// Set once a read quorum has answered (the value returned to the client).
    returned: Option<Option<Version>>,
    /// Per replica, the freshest version a read-repair write has already
    /// been sent for during this read (a later response may reveal an even
    /// fresher version, warranting a second repair).
    repaired: Vec<(ActorId, Version)>,
    start: SimTime,
    reply_to: ActorId,
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

/// The node's protocol state machine.
pub struct Node {
    id: ActorId,
    /// The cluster's options, by value; `replication` follows live
    /// reconfiguration ([`set_replication`](Self::set_replication)).
    pub(crate) opts: ClusterOptions,
    ring: Arc<Ring>,
    down: bool,
    store: FxHashMap<u64, Version>,
    pending_writes: FxHashMap<u64, WriteState>,
    pending_reads: FxHashMap<u64, ReadState>,
    /// Retired pending-op states, recycled slab-style so the per-op
    /// replica/ack/response vectors are allocated once and reused for the
    /// life of the node.
    write_pool: Vec<WriteState>,
    read_pool: Vec<ReadState>,
    hints: Vec<Hint>,
    /// Whether a `HintFlush` / `Sync` timer is armed: set where one is
    /// emitted, cleared when it fires — also on a crashed node, which
    /// swallows the tick, so recovery knows which duty lost its chain.
    hint_flush_scheduled: bool,
    sync_armed: bool,
    /// Op ids of the reads the asynchronous staleness detector (§4.3)
    /// flagged since the last drain: a response arriving after the client
    /// reply carried a newer version than was returned.
    pub(crate) detector_log: Vec<u64>,
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
    /// Node `id` of a cluster configured by `opts`, placing keys by `ring`.
    pub fn new(id: ActorId, opts: ClusterOptions, ring: Arc<Ring>) -> Self {
        Self {
            id,
            opts,
            ring,
            down: false,
            store: FxHashMap::default(),
            pending_writes: FxHashMap::default(),
            pending_reads: FxHashMap::default(),
            write_pool: Vec::new(),
            read_pool: Vec::new(),
            hints: Vec::new(),
            hint_flush_scheduled: false,
            sync_armed: false,
            detector_log: Vec::new(),
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

    /// Number of pending (undelivered, unexpired) hints.
    pub fn hint_count(&self) -> usize {
        self.hints.len()
    }

    /// Change the quorum system this node coordinates with (live
    /// reconfiguration, §6 "Variable configurations"). An operation
    /// already in flight is decided by the new configuration's predicate
    /// on the positions that already answered, so shrinking a quorum lets
    /// a pending operation complete on its next response.
    pub(crate) fn set_replication(&mut self, cfg: ReplicaConfig) {
        self.opts.replication = cfg;
    }

    /// Swap the placement ring (live replication-factor change). Existing
    /// stored data stays put; anti-entropy and read repair migrate it to
    /// the new replica sets over time.
    pub(crate) fn set_ring(&mut self, ring: Arc<Ring>) {
        self.ring = ring;
    }

    /// Take `input` in at `now`, appending every effect it causes to `out`
    /// in the order a host must apply them. `rng` is the node's one random
    /// stream, lent for the call: the core draws from it only to pick an
    /// anti-entropy peer, and before it emits that round's send.
    pub fn handle(
        &mut self,
        now: SimTime,
        input: Input,
        rng: &mut dyn RngCore,
        out: &mut Vec<Output>,
    ) {
        // A duty's timer has fired, whether or not the node is up to act
        // on it.
        match input {
            Input::Timer(NodeTimer::Sync) => self.sync_armed = false,
            Input::Timer(NodeTimer::HintFlush) => self.hint_flush_scheduled = false,
            _ => {}
        }
        // A crashed node processes nothing except its own recovery timer
        // and the GC sweep (pure bookkeeping, kept alive through crashes).
        if self.down && !matches!(input, Input::Timer(NodeTimer::Recover | NodeTimer::Gc)) {
            return;
        }
        match input {
            Input::Client { from, req: ClientToNode::Write { op_id, key } } => {
                self.on_client_write(now, op_id, key, from, out);
            }
            Input::Client { from, req: ClientToNode::Read { op_id, key } } => {
                self.on_client_read(now, op_id, key, from, out);
            }
            Input::Peer { msg, disk_lag_ms } => self.on_peer(now, msg, disk_lag_ms, out),
            Input::Timer(NodeTimer::Recover) => self.on_recover(out),
            Input::Timer(NodeTimer::Sync) => self.on_sync_timer(rng, out),
            Input::Timer(NodeTimer::HintFlush) => self.on_hint_flush(out),
            Input::Timer(NodeTimer::WriteTimeout { op_id }) => {
                self.on_write_timeout(now, op_id, out);
            }
            Input::Timer(NodeTimer::Gc) => self.on_gc(now, out),
            Input::Control(NodeControl::Crash { down_ms, wipe }) => {
                self.on_crash(down_ms, wipe, out);
            }
            Input::Control(NodeControl::StartSync) => {
                if let Some(interval) = self.opts.sync_interval_ms {
                    // Stagger the first round by the node id to avoid
                    // thundering herds.
                    let stagger =
                        interval * (self.id as f64 + 1.0) / (self.ring.nodes() as f64 + 1.0);
                    self.sync_armed = true;
                    out.push(protocol_timer(stagger, NodeTimer::Sync));
                }
            }
            Input::Control(NodeControl::StartGc) => {
                out.push(harness_timer(self.opts.op_timeout_ms, NodeTimer::Gc));
            }
        }
    }

    fn on_peer(&mut self, now: SimTime, msg: NodeToNode, disk_lag_ms: f64, out: &mut Vec<Output>) {
        match msg {
            NodeToNode::ReplicaWrite { op_id, key, version, coordinator } => {
                if disk_lag_ms > 0.0 {
                    // Buggify disk lag: defer the apply *and* the ack. If
                    // this node crashes before the lag elapses, the write
                    // is lost — like an fsync that never landed.
                    out.push(Output::SendSelf {
                        after_ms: disk_lag_ms,
                        msg: NodeToNode::DiskApply { op_id, key, version, coordinator },
                    });
                } else {
                    self.apply_and_ack(op_id, key, version, coordinator, out);
                }
            }
            NodeToNode::DiskApply { op_id, key, version, coordinator } => {
                self.apply_and_ack(op_id, key, version, coordinator, out);
            }
            NodeToNode::ReplicaRead { op_id, key, coordinator } => {
                let version = self.store.get(&key).copied();
                let resp = NodeToNode::ReadResp { op_id, replica: self.id, version };
                send(out, Leg::S, coordinator, resp);
            }
            NodeToNode::WriteAck { op_id, replica } => self.on_write_ack(now, op_id, replica, out),
            NodeToNode::ReadResp { op_id, replica, version } => {
                self.on_read_resp(now, op_id, replica, version, out);
            }
            NodeToNode::RepairWrite { key, version } => self.apply_version(key, version),
            NodeToNode::HintedWrite { key, version, coordinator } => {
                self.apply_version(key, version);
                let ack = NodeToNode::HintAck { key, version, replica: self.id };
                send(out, Leg::A, coordinator, ack);
            }
            NodeToNode::HintAck { key, version, replica } => {
                // An ack for version v clears any hint at v *or older* for
                // that target/key: replicas keep the max, so an acked
                // delivery subsumes every older missed version.
                let before = self.hints.len();
                self.hints
                    .retain(|h| !(h.target == replica && h.key == key && h.version <= version));
                self.hints_delivered += (before - self.hints.len()) as u64;
            }
            NodeToNode::SyncDigest { from, buckets } => self.on_sync_digest(from, buckets, out),
            NodeToNode::SyncDiff { from, entries, differing } => {
                self.merge_entries(entries);
                let reply = self.entries_in_buckets(from, &differing);
                if !reply.is_empty() {
                    send(out, Leg::A, from, NodeToNode::SyncDiffReply { entries: reply });
                }
            }
            NodeToNode::SyncDiffReply { entries } => self.merge_entries(entries),
        }
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

    fn apply_and_ack(
        &mut self,
        op_id: u64,
        key: u64,
        version: Version,
        coordinator: ActorId,
        out: &mut Vec<Output>,
    ) {
        self.apply_version(key, version);
        send(out, Leg::A, coordinator, NodeToNode::WriteAck { op_id, replica: self.id });
    }

    fn schedule_hint_flush(&mut self, out: &mut Vec<Output>) {
        if !self.hint_flush_scheduled && !self.hints.is_empty() {
            self.hint_flush_scheduled = true;
            out.push(protocol_timer(self.opts.hint_flush_interval_ms, NodeTimer::HintFlush));
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

    // ----- coordinator: writes -----

    fn on_client_write(
        &mut self,
        now: SimTime,
        op_id: u64,
        key: u64,
        from: ActorId,
        out: &mut Vec<Output>,
    ) {
        // The sequence number is the write's start instant (+1 so 0 stays
        // the "absent" sentinel): version order matches write-start order
        // with no cluster-wide shared allocator, so coordinators on
        // different parallel-engine partitions assign identical versions
        // to identical schedules. Simultaneous starts at different
        // coordinators tie on `seq` and resolve by writer id.
        let seq = now.as_nanos() + 1;
        let version = Version::new(seq, self.id as u32);
        let mut state = self.write_pool.pop().unwrap_or_default();
        state.key = key;
        state.version = version;
        state.replicas.clear();
        state.replicas.extend(self.ring.replicas(key).iter().map(|&n| n as usize));
        state.acked = NodeSet::EMPTY;
        state.committed = None;
        state.start = now;
        state.reply_to = from;
        for &replica in &state.replicas {
            let write = NodeToNode::ReplicaWrite { op_id, key, version, coordinator: self.id };
            send(out, Leg::W, replica, write);
        }
        self.pending_writes.insert(op_id, state);
        if self.opts.hinted_handoff {
            out.push(protocol_timer(
                self.opts.hint_timeout_ms,
                NodeTimer::WriteTimeout { op_id },
            ));
        }
    }

    fn on_write_ack(&mut self, now: SimTime, op_id: u64, replica: ActorId, out: &mut Vec<Output>) {
        let Some(state) = self.pending_writes.get_mut(&op_id) else {
            return; // late ack after hint timeout cleanup
        };
        let Some(pos) = unanswered_position(&state.replicas, state.acked, replica) else {
            return; // duplicate (e.g. hint + original both landed)
        };
        state.acked.insert(pos);
        let mut completed = None;
        if state.committed.is_none() && self.opts.replication.is_write_quorum(state.acked) {
            state.committed = Some(now);
            completed = Some(Output::Deliver {
                to: state.reply_to,
                result: NodeToClient::Write {
                    op_id,
                    key: state.key,
                    version: state.version,
                    start: state.start,
                    commit: Some(now),
                    acked: replica_mask(&state.replicas, state.acked),
                },
            });
        }
        if state.acked.len() as usize == state.replicas.len() {
            if let Some(state) = self.pending_writes.remove(&op_id) {
                self.write_pool.push(state); // fully replicated; recycle
            }
        }
        out.extend(completed);
    }

    fn on_write_timeout(&mut self, now: SimTime, op_id: u64, out: &mut Vec<Output>) {
        let Some(state) = self.pending_writes.remove(&op_id) else {
            return; // completed before the timeout
        };
        if state.committed.is_none() {
            // The write failed to reach its quorum in time.
            out.push(Output::Deliver {
                to: state.reply_to,
                result: NodeToClient::Write {
                    op_id,
                    key: state.key,
                    version: state.version,
                    start: state.start,
                    commit: None,
                    acked: replica_mask(&state.replicas, state.acked),
                },
            });
        }
        // Hint every replica that never acked (coalesced per target/key).
        for (pos, &replica) in state.replicas.iter().enumerate() {
            if !state.acked.contains(pos as u32) {
                self.push_hint(replica, state.key, state.version, now);
            }
        }
        self.write_pool.push(state);
        self.schedule_hint_flush(out);
    }

    fn on_hint_flush(&mut self, out: &mut Vec<Output>) {
        // Mutation `swallow_hints`: hints are stashed but never redelivered.
        if !self.opts.mutations.swallow_hints {
            for h in &self.hints {
                let (key, version, coordinator) = (h.key, h.version, self.id);
                send(out, Leg::W, h.target, NodeToNode::HintedWrite { key, version, coordinator });
            }
        }
        self.schedule_hint_flush(out);
    }

    // ----- coordinator: reads -----

    fn on_client_read(
        &mut self,
        now: SimTime,
        op_id: u64,
        key: u64,
        from: ActorId,
        out: &mut Vec<Output>,
    ) {
        let mut state = self.read_pool.pop().unwrap_or_default();
        state.key = key;
        state.replicas.clear();
        state.replicas.extend(self.ring.replicas(key).iter().map(|&n| n as usize));
        state.answered = NodeSet::EMPTY;
        state.responses.clear();
        state.returned = None;
        state.repaired.clear();
        state.start = now;
        state.reply_to = from;
        for &replica in &state.replicas {
            let read = NodeToNode::ReplicaRead { op_id, key, coordinator: self.id };
            send(out, Leg::R, replica, read);
        }
        self.pending_reads.insert(op_id, state);
    }

    fn on_read_resp(
        &mut self,
        now: SimTime,
        op_id: u64,
        replica: ActorId,
        version: Option<Version>,
        out: &mut Vec<Output>,
    ) {
        let Some(state) = self.pending_reads.get_mut(&op_id) else {
            return;
        };
        let Some(pos) = unanswered_position(&state.replicas, state.answered, replica) else {
            return; // duplicate: a replica counts once toward R
        };
        state.answered.insert(pos);
        state.responses.push((replica, version));
        let mut completed = None;
        if state.returned.is_none() && self.opts.replication.is_read_quorum(state.answered) {
            // Return the newest response of the read quorum (None < Some).
            let best = state.responses.iter().map(|(_, v)| *v).max().flatten();
            state.returned = Some(best);
            // Provenance for the order oracle: which replica supplied the
            // returned version (first responder holding it, in arrival
            // order), and the responder set that formed the quorum.
            let source = best.and_then(|b| {
                state
                    .responses
                    .iter()
                    .find(|(_, v)| *v == Some(b))
                    .map(|(replica, _)| *replica as u32)
            });
            completed = Some(Output::Deliver {
                to: state.reply_to,
                result: NodeToClient::Read {
                    op_id,
                    key: state.key,
                    start: state.start,
                    finish: now,
                    version: best,
                    source,
                    responders: replica_mask(&state.replicas, state.answered),
                },
            });
        } else if let Some(returned) = state.returned {
            // A late (N − R) response: the asynchronous staleness detector
            // (§4.3) compares it against what the client saw.
            if version > returned {
                self.detector_log.push(op_id);
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
            && self.opts.replication.is_read_quorum(state.answered)
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
        if state.answered.len() as usize == state.replicas.len() {
            if let Some(state) = self.pending_reads.remove(&op_id) {
                self.read_pool.push(state); // fully answered; recycle
            }
        }
        out.extend(completed);
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
                send(out, Leg::W, replica, NodeToNode::RepairWrite { key, version });
            }
        }
    }

    // ----- pending-op garbage collection -----

    /// Periodic sweep: drop pending-op state older than the retention
    /// horizon, the op timeout. Issuers detect their own timeouts (the
    /// blocking harness by deadline, client tables by their op-deadline
    /// FIFO), so a swept entry has already been reported; sweeping merely
    /// bounds coordinator memory by *in-flight* operations under message
    /// loss or partitions, where the N-th ack/response may never arrive.
    fn on_gc(&mut self, now: SimTime, out: &mut Vec<Output>) {
        let interval = self.opts.op_timeout_ms;
        out.push(harness_timer(interval, NodeTimer::Gc));
        let horizon = SimDuration::from_ms(interval);
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

    /// Merge a peer's entries for the keys this node replicates.
    fn merge_entries(&mut self, entries: Vec<(u64, Version)>) {
        for (key, version) in entries {
            if self.ring.is_replica(key, self.id as u32) {
                self.apply_version(key, version);
            }
        }
    }

    fn on_sync_timer(&mut self, rng: &mut dyn RngCore, out: &mut Vec<Output>) {
        let Some(interval) = self.opts.sync_interval_ms else {
            return;
        };
        self.sync_armed = true;
        out.push(protocol_timer(interval, NodeTimer::Sync));
        let n = self.ring.nodes() as usize;
        if n > 1 {
            let mut peer = rng.gen_range(0..n - 1);
            if peer >= self.id {
                peer += 1;
            }
            self.sync_rounds += 1;
            let buckets = self.my_digest_for(peer);
            send(out, Leg::A, peer, NodeToNode::SyncDigest { from: self.id, buckets });
        }
    }

    fn on_sync_digest(&mut self, from: ActorId, theirs: Vec<u64>, out: &mut Vec<Output>) {
        let mine = self.my_digest_for(from);
        let differing = merkle::differing_buckets(&mine, &theirs);
        if !differing.is_empty() {
            let entries = self.entries_in_buckets(from, &differing);
            send(out, Leg::A, from, NodeToNode::SyncDiff { from: self.id, entries, differing });
        }
    }

    // ----- failure handling -----

    fn on_crash(&mut self, down_ms: f64, wipe: bool, out: &mut Vec<Output>) {
        self.down = true;
        out.push(Output::Liveness { down: true });
        if wipe {
            self.store.clear();
        }
        // In-flight coordinated operations die with the coordinator.
        self.pending_writes.clear();
        self.pending_reads.clear();
        out.push(harness_timer(down_ms, NodeTimer::Recover));
    }

    fn on_recover(&mut self, out: &mut Vec<Output>) {
        self.down = false;
        out.push(Output::Liveness { down: false });
        // Re-arm only a duty whose timer died with the crash: one armed
        // before a short crash is still queued and carries its chain on.
        if self.opts.sync_interval_ms.is_some() && !self.sync_armed {
            self.sync_armed = true;
            out.push(harness_timer(0.0, NodeTimer::Sync));
        }
        self.schedule_hint_flush(out);
    }
}

fn send(out: &mut Vec<Output>, leg: Leg, to: ActorId, msg: NodeToNode) {
    out.push(Output::Send { leg, to, msg });
}

/// A timer on the node's own clock.
fn protocol_timer(after_ms: f64, timer: NodeTimer) -> Output {
    Output::Timer { after_ms, protocol_clock: true, timer }
}

/// A timer on the global clock (harness bookkeeping: recovery, GC).
fn harness_timer(after_ms: f64, timer: NodeTimer) -> Output {
    Output::Timer { after_ms, protocol_clock: false, timer }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: ActorId, r: u32, w: u32) -> Node {
        let opts = ClusterOptions::validation(ReplicaConfig::new(3, r, w).unwrap(), 7);
        Node::new(id, opts, Arc::new(Ring::new(3, 8, 3)))
    }

    #[test]
    fn apply_version_keeps_max() {
        let mut node = node(0, 1, 1);
        node.apply_version(5, Version::new(2, 0));
        node.apply_version(5, Version::new(1, 0));
        assert_eq!(node.stored_version(5), Some(Version::new(2, 0)));
        node.apply_version(5, Version::new(3, 1));
        assert_eq!(node.stored_version(5), Some(Version::new(3, 1)));
        assert_eq!(node.store.len(), 1);
    }

    /// A repeated read response or write ack counts once toward `R` or
    /// `W`, and the delivered masks name node ids, not the preference-list
    /// positions the coordinator counts.
    #[test]
    fn a_replica_counts_once_toward_r() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut coordinator = node(0, 2, 2);
        // A preference list that starts at node 2 is not in id order: its
        // first two positions (mask 0b011) are not its first two ids.
        let key = (0..).find(|&k| coordinator.ring.replicas(k)[0] == 2).unwrap();
        let pref = coordinator.ring.replicas(key).to_vec();
        let first_two = (1 << pref[0]) | (1 << pref[1]);
        assert_ne!(first_two, 0b011);
        let mut feed = |input| {
            let mut out = Vec::new();
            coordinator.handle(SimTime::ZERO, input, &mut rng, &mut out);
            out
        };
        let peer = |msg| Input::Peer { msg, disk_lag_ms: 0.0 };
        let response = |i: usize| {
            peer(NodeToNode::ReadResp { op_id: 1, replica: pref[i] as ActorId, version: None })
        };
        feed(Input::Client { from: 9, req: ClientToNode::Read { op_id: 1, key } });
        assert_eq!(feed(response(0)), []);
        assert_eq!(feed(response(0)), [], "the same replica again is not a second response");
        let out = feed(response(1));
        let [Output::Deliver { to: 9, result: NodeToClient::Read { responders, .. } }] = out[..]
        else {
            panic!("a second replica completes the R=2 read: {out:?}");
        };
        assert_eq!(responders, first_two);
        let ack = |i: usize| peer(NodeToNode::WriteAck { op_id: 2, replica: pref[i] as ActorId });
        feed(Input::Client { from: 9, req: ClientToNode::Write { op_id: 2, key } });
        assert_eq!(feed(ack(0)), []);
        assert_eq!(feed(ack(0)), [], "the same replica again is not a second ack");
        let out = feed(ack(1));
        let [Output::Deliver { to: 9, result: NodeToClient::Write { acked, .. } }] = out[..] else {
            panic!("a second replica commits the W=2 write: {out:?}");
        };
        assert_eq!(acked, first_two);
    }

    /// Anti-entropy and the hint flush each run on one timer chain, crash
    /// or no crash: a tick the crash swallowed is re-armed on recovery, a
    /// timer that outlives a short crash is not doubled.
    #[test]
    fn a_periodic_duty_keeps_one_chain_across_a_crash() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut opts = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).unwrap(), 7);
        opts.sync_interval_ms = Some(1_000.0);
        opts.hinted_handoff = true;
        for duty in [NodeTimer::Sync, NodeTimer::HintFlush] {
            for crash_swallows_the_tick in [false, true] {
                let mut node = Node::new(0, opts, Arc::new(Ring::new(3, 8, 3)));
                let mut armed = 0;
                // Feeds `input`; returns how many `duty` timers are armed.
                let mut feed = |input: Input| {
                    armed -= usize::from(input == Input::Timer(duty));
                    let mut out = Vec::new();
                    node.handle(SimTime::ZERO, input, &mut rng, &mut out);
                    armed += out
                        .iter()
                        .filter(|o| matches!(o, Output::Timer { timer, .. } if *timer == duty))
                        .count();
                    armed
                };
                // Anti-entropy starts; a write nobody acks leaves hints at
                // its timeout, which arms the flush.
                feed(Input::Control(NodeControl::StartSync));
                feed(Input::Client { from: 9, req: ClientToNode::Write { op_id: 1, key: 5 } });
                assert_eq!(feed(Input::Timer(NodeTimer::WriteTimeout { op_id: 1 })), 1);
                feed(Input::Control(NodeControl::Crash { down_ms: 100.0, wipe: false }));
                if crash_swallows_the_tick {
                    assert_eq!(feed(Input::Timer(duty)), 0, "a crashed node arms nothing");
                }
                assert_eq!(feed(Input::Timer(NodeTimer::Recover)), 1, "{duty:?} after recovery");
                assert_eq!(feed(Input::Timer(duty)), 1, "{duty:?} after its next tick");
            }
        }
    }
}
