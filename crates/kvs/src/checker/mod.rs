//! Jepsen-style offline history checking: an independent oracle for the
//! streaming consistency machinery.
//!
//! The open-loop engine labels staleness *online* (watermark-fed
//! [`GroundTruth`]) and counts session-guarantee violations *streaming*
//! (per-client state updated in completion order). Both are clever enough
//! to be wrong. This module re-derives every verdict from first
//! principles over a recorded [`OpHistory`]:
//!
//! * [`replay_sessions`] — rebuild each client's per-key session state
//!   from the history alone and recount monotonic-reads / read-your-writes
//!   violations (§3.2); the counts must equal the streaming counters
//!   exactly.
//! * [`relabel_reads`] — rebuild the commit history from the recorded
//!   writes (batch path, no watermark), relabel every read, and compare
//!   against the online labels; any mismatch is a bug in the watermark
//!   plumbing.
//! * [`check_order`] — the per-key order oracle: sweep each key's reads
//!   in time order against what every replica provably acked or served
//!   before them; an acknowledged write that vanishes, a replica whose
//!   served version goes backwards, or a version no write produced is a
//!   protocol bug, never a fault artefact.
//! * the settled store, read once per key by [`check_run`] when asked for
//!   convergence — after quiescence, every live replica of every written
//!   key must hold the same version, at least as new as the newest
//!   committed one (read repair + hinted handoff + anti-entropy actually
//!   converged), and a never-wiped one that holds less than the history's
//!   newest committed write lost it (the order oracle's final-state rule).
//!
//! [`check_run`] runs all four and [`lin::check_lin`]. It partitions the
//! history by key once per audit, and every per-key rule reads that
//! partition: one sweep per key audits the order oracle, the session
//! replay and the relabelling together (sessions are per `(client, key)`,
//! and a label depends only on the read's key), the settled store reads
//! it, and so does the linearizability search. The sweep walks each op
//! once for all three rules: the ops of a key lie scattered through a
//! history larger than the caches, so a second walk would pay the misses
//! again. The standalone [`replay_sessions`] and [`relabel_reads`] keep
//! their whole-history derivations (a `(client, key)` map; a batch
//! [`GroundTruth`]), and [`check_order`] builds the partition itself: they
//! are the reference `check_run`'s unit tests hold the sweep to. Every
//! pass only reads the history, so the linearizability search runs on one
//! scoped thread while the caller's thread runs the sweep, then — when
//! asked — the settled store. That pass reads the [`Cluster`], which holds
//! boxed op sources and is not `Sync`, so it stays on the caller. What a
//! strict quorum owes under faults — regularity — is no further pass:
//! [`CheckReport::regular`] reads it off the label and phantom counts.
//!
//! The checker is a test/diagnostic harness: recording a history is
//! O(operations) memory, deliberately trading the engine's O(in-flight)
//! discipline for auditability. Enable it with
//! [`Cluster::enable_history`](crate::Cluster::enable_history) (done for
//! you by [`OpenLoopRun::run_checked`](crate::OpenLoopRun::run_checked) and the
//! `scenarios --chaos` bench mode).
//!
//! The [`lin`] submodule adds the top of the checker hierarchy: a
//! per-key Wing–Gong linearizability checker with violation-window
//! metrics ([`lin::check_lin`], aggregated here as [`CheckReport::lin`]).

pub mod lin;

pub use lin::{KeyLinResult, KeyLinVerdict, LinCheck, LinOptions, LinViolation};

use crate::client::{ClientStats, CompletedOp};
use crate::cluster::{Cluster, BLOCKING_CLIENT};
use crate::fxhash::FxHashMap;
use crate::staleness::{GroundTruth, ReadLabel, MAX_TRACKED_STALENESS};
use pbs_mc::Mergeable;
use pbs_sim::SimTime;
use pbs_workload::OpKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One operation as recorded for offline checking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryOp {
    /// The completed operation (timed-out ops appear with `finish: None`).
    pub op: CompletedOp,
    /// The online staleness label (labelled reads only).
    pub label: Option<ReadLabel>,
}

impl HistoryOp {
    /// Whether this read satisfied t-visibility (`false` for writes and
    /// for reads that timed out).
    pub fn consistent(&self) -> bool {
        self.label.is_some_and(|l| l.consistent)
    }
}

/// One crash scheduled on the cluster during the recorded run. The order
/// oracle uses these to discount evidence from wiped replicas: a wiped
/// store legitimately forgets acknowledged writes, so nothing read from
/// (or acked by) such a node can anchor a violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashRecord {
    /// The crashed node.
    pub node: u32,
    /// When the crash fired.
    pub at: SimTime,
    /// How long the node stayed down.
    pub down_ms: f64,
    /// Whether the crash wiped the node's store.
    pub wipe: bool,
}

/// The full recorded op history of a run, in drain order (which preserves
/// each client's completion order — the order session guarantees are
/// defined over).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpHistory {
    ops: Vec<HistoryOp>,
    crashes: Vec<CrashRecord>,
}

impl OpHistory {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one recorded operation.
    pub fn push(&mut self, op: CompletedOp, label: Option<ReadLabel>) {
        self.ops.push(HistoryOp { op, label });
    }

    /// The recorded operations, in drain order.
    pub fn ops(&self) -> &[HistoryOp] {
        &self.ops
    }

    /// Attach the run's crash timeline (done by
    /// [`Cluster::take_history`](crate::Cluster::take_history)).
    pub fn set_crashes(&mut self, crashes: Vec<CrashRecord>) {
        self.crashes = crashes;
    }

    /// Every crash scheduled during the recorded run.
    pub fn crashes(&self) -> &[CrashRecord] {
        &self.crashes
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The nodes (ids below 64) some recorded crash wiped, as mask bits:
    /// the evidence the order oracle discounts.
    fn wiped_mask(&self) -> u64 {
        self.crashes
            .iter()
            .filter(|c| c.wipe && c.node < 64)
            .fold(0, |m, c| m | (1u64 << c.node))
    }
}

/// The history partitioned by key, built once per audit and read by every
/// per-key pass: keys in first-appearance order, each key's ops in history
/// order. One hash lookup per op into a `key → slot` map, then a counting
/// sort — no map of growing `Vec`s.
struct KeyIndex {
    keys: Vec<u64>,
    /// `grouped[bounds[s]..bounds[s + 1]]` are the ops of `keys[s]`, as
    /// indices into [`OpHistory::ops`].
    bounds: Vec<u32>,
    grouped: Vec<u32>,
}

impl KeyIndex {
    fn new(history: &OpHistory) -> Self {
        let ops = history.ops();
        assert!(u32::try_from(ops.len()).is_ok(), "the partition indexes ops with 32 bits");
        let mut slots: FxHashMap<u64, u32> = FxHashMap::default();
        let mut keys: Vec<u64> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let slot_of: Vec<u32> = ops
            .iter()
            .map(|h| {
                let slot = *slots.entry(h.op.key).or_insert_with(|| {
                    keys.push(h.op.key);
                    counts.push(0);
                    keys.len() as u32 - 1
                });
                counts[slot as usize] += 1;
                slot
            })
            .collect();
        let mut bounds = Vec::with_capacity(keys.len() + 1);
        bounds.push(0);
        for count in counts {
            bounds.push(bounds[bounds.len() - 1] + count);
        }
        let mut next = bounds.clone();
        let mut grouped = vec![0; ops.len()];
        for (i, &slot) in slot_of.iter().enumerate() {
            grouped[next[slot as usize] as usize] = i as u32;
            next[slot as usize] += 1;
        }
        Self { keys, bounds, grouped }
    }

    /// Every key with the indices of its ops, in the orders the type
    /// promises.
    fn iter(&self) -> impl Iterator<Item = (u64, &[u32])> {
        let per_key = self.keys.iter().zip(self.bounds.windows(2));
        per_key.map(|(&key, b)| (key, &self.grouped[b[0] as usize..b[1] as usize]))
    }
}

/// Offline session-guarantee recount vs. the streaming counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCheck {
    /// Reads the offline replay checked (completed reads only).
    pub reads_checked: u64,
    /// Monotonic-reads violations found by the offline replay.
    pub monotonic_violations: u64,
    /// Read-your-writes violations found by the offline replay.
    pub ryw_violations: u64,
    /// Streaming counterpart of `reads_checked`.
    pub streaming_reads_checked: u64,
    /// Streaming counterpart of `monotonic_violations`.
    pub streaming_monotonic: u64,
    /// Streaming counterpart of `ryw_violations`.
    pub streaming_ryw: u64,
}

impl SessionCheck {
    /// Whether the offline replay and the streaming counters agree on all
    /// three counts.
    pub fn agrees(&self) -> bool {
        self.reads_checked == self.streaming_reads_checked
            && self.monotonic_violations == self.streaming_monotonic
            && self.ryw_violations == self.streaming_ryw
    }
}

/// Offline relabelling vs. the online staleness labels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelCheck {
    /// Reads that carried an online label and were relabelled.
    pub labelled_reads: u64,
    /// Reads whose offline label disagreed with the online one.
    pub mismatches: u64,
    /// Reads the offline relabelling found inconsistent (stale).
    pub stale_reads: u64,
}

/// Post-quiescence replica agreement per written key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvergenceCheck {
    /// Keys with at least one committed write.
    pub keys_checked: u64,
    /// Keys whose live replicas disagree with each other.
    pub divergent_keys: u64,
    /// Live replicas holding something older than the newest committed
    /// version of their key.
    pub stale_replicas: u64,
}

impl ConvergenceCheck {
    /// Whether every live replica of every written key agreed and was
    /// at least as new as the newest committed version.
    pub fn converged(&self) -> bool {
        self.divergent_keys == 0 && self.stale_replicas == 0
    }
}

/// One per-key ordering violation found by the order oracle, identifying
/// the offending operation and the evidence that convicts it. Sequence
/// numbers use 0 for "empty" (no version).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderViolation {
    /// An acknowledged (or committed-and-settled) write disappeared: a
    /// later read overlapping the write's ack set — or, after quiescence,
    /// a live replica — returned something older.
    LostUpdate {
        /// Key involved.
        key: u64,
        /// The offending read (or, for the final-state rule, the newest
        /// committed write the replica should hold).
        op_id: u64,
        /// The replica whose evidence convicts the violation.
        replica: u32,
        /// Sequence observed (0 = empty).
        seen_seq: u64,
        /// The acknowledged sequence that should have been visible.
        expected_seq: u64,
    },
    /// A replica's exposed version went backwards: two non-overlapping
    /// reads served by the same replica returned a newer then an older
    /// version, impossible for a store that only merges forward.
    NonMonotoneExposure {
        /// Key involved.
        key: u64,
        /// The offending (second) read.
        op_id: u64,
        /// The replica that served both reads.
        replica: u32,
        /// Sequence the second read observed (0 = empty).
        seen_seq: u64,
        /// Sequence the first read had already exposed from that replica.
        expected_seq: u64,
    },
    /// A read returned a version no recorded write ever produced — an
    /// invalid writer id, a sequence from the future, or (when the key's
    /// write set is fully known) a `(seq, writer)` pair matching no write.
    PhantomVersion {
        /// Key involved.
        key: u64,
        /// The offending read.
        op_id: u64,
        /// The sequence the read returned.
        seen_seq: u64,
        /// The writer id the read returned.
        writer: u32,
    },
}

/// Per-key order-oracle verdict: counts per violation class plus the
/// first example of each (deterministic given a deterministic history, so
/// serial and parallel runs of the same schedule produce identical
/// reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrderCheck {
    /// Completed reads the oracle examined.
    pub reads_checked: u64,
    /// Committed writes anchoring visibility floors.
    pub writes_tracked: u64,
    /// Acknowledged writes that later vanished from view.
    pub lost_updates: u64,
    /// Replica exposures that went backwards.
    pub non_monotone: u64,
    /// Versions no recorded write produced.
    pub phantoms: u64,
    /// First [`OrderViolation::LostUpdate`] found, if any.
    pub first_lost_update: Option<OrderViolation>,
    /// First [`OrderViolation::NonMonotoneExposure`] found, if any.
    pub first_non_monotone: Option<OrderViolation>,
    /// First [`OrderViolation::PhantomVersion`] found, if any.
    pub first_phantom: Option<OrderViolation>,
}

impl OrderCheck {
    /// Total violations across the three classes.
    pub fn violations(&self) -> u64 {
        self.lost_updates + self.non_monotone + self.phantoms
    }
}

/// The combined verdict of one checked run (mergeable across shards).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Session-guarantee recount.
    pub sessions: SessionCheck,
    /// Staleness-label recount.
    pub labels: LabelCheck,
    /// Per-key order-oracle verdict.
    pub order: OrderCheck,
    /// Per-key linearizability verdict with violation windows.
    pub lin: LinCheck,
    /// Replica convergence (when requested — only meaningful after the
    /// run has quiesced with faults cleared).
    pub convergence: Option<ConvergenceCheck>,
    /// Whether every merged run is held to regularity
    /// ([`regular`](Self::regular)): strict quorums (`R + W > N`) over one
    /// placement from the start, and no crash that wiped a store.
    pub regular_expected: bool,
    /// Runs merged into this report.
    pub runs: u32,
}

impl CheckReport {
    /// Whether every cross-check passed: streaming and offline session
    /// counts agree, no label mismatches, zero order violations, and
    /// (when checked) replicas converged. Session violations themselves
    /// do **not** make a report unclean — under injected faults staleness
    /// is expected; the checker's job is that both derivations agree on
    /// it. Order violations are different: an acknowledged write must
    /// survive drops, duplicates, reorders, and non-wiping crashes, so
    /// any [`OrderCheck`] violation is a real safety bug (or an injected
    /// protocol mutation doing its job).
    ///
    /// [`LinCheck`] violations are deliberately **excluded** for the same
    /// reason session violations are: partial quorums (R+W ≤ N) violate
    /// linearizability by design — measuring those windows is the point,
    /// not a failure — and strict ones do under faults, the moment a write
    /// goes partial. What a strict quorum owes under every fault is
    /// [`regular`](Self::regular), and a report that fails it is unclean.
    /// Fault-free strict-quorum runs should additionally gate on
    /// [`LinCheck::all_linearizable`] via [`CheckReport::lin`].
    pub fn is_clean(&self) -> bool {
        self.sessions.agrees()
            && self.labels.mismatches == 0
            && self.order.violations() == 0
            && self.regular() != Some(false)
            && self.convergence.is_none_or(|c| c.converged())
    }

    /// Whether the reads were regular, for runs held to it (`None`
    /// otherwise). Lamport's regular register, carried to multiple writers
    /// by the store's sequence order: a read returns a version no older
    /// than the newest write that *completed before the read began* — no
    /// stale label in [`LabelCheck`], which compares sequences, so writes
    /// that started at the same instant tie — and one written by a write
    /// *invoked before the read finished* — no phantom in [`OrderCheck`].
    /// A write that failed or is still in flight is allowed to show and
    /// never required to. Strict quorums (`R + W > N`) owe this under
    /// drops, duplicates, reorders, lag, skew and non-wiping crashes; the
    /// predicate stands down for timelines that legitimately lose an
    /// acknowledged write or serve an empty replica — a crash that wipes a
    /// store, a reconfiguration that changes `N` — and for partial quorums.
    /// It does not imply linearizability: two reads concurrent with one
    /// write may see it new, then old.
    pub fn regular(&self) -> Option<bool> {
        let regular = self.labels.stale_reads == 0 && self.order.phantoms == 0;
        self.regular_expected.then_some(regular)
    }
}

impl Mergeable for CheckReport {
    fn merge(&mut self, other: Self) {
        let s = &mut self.sessions;
        s.reads_checked += other.sessions.reads_checked;
        s.monotonic_violations += other.sessions.monotonic_violations;
        s.ryw_violations += other.sessions.ryw_violations;
        s.streaming_reads_checked += other.sessions.streaming_reads_checked;
        s.streaming_monotonic += other.sessions.streaming_monotonic;
        s.streaming_ryw += other.sessions.streaming_ryw;
        self.labels.labelled_reads += other.labels.labelled_reads;
        self.labels.mismatches += other.labels.mismatches;
        self.labels.stale_reads += other.labels.stale_reads;
        let o = &mut self.order;
        o.reads_checked += other.order.reads_checked;
        o.writes_tracked += other.order.writes_tracked;
        o.lost_updates += other.order.lost_updates;
        o.non_monotone += other.order.non_monotone;
        o.phantoms += other.order.phantoms;
        o.first_lost_update = o.first_lost_update.or(other.order.first_lost_update);
        o.first_non_monotone = o.first_non_monotone.or(other.order.first_non_monotone);
        o.first_phantom = o.first_phantom.or(other.order.first_phantom);
        self.lin.merge(other.lin);
        self.convergence = match (self.convergence, other.convergence) {
            (Some(mut a), Some(b)) => {
                a.keys_checked += b.keys_checked;
                a.divergent_keys += b.divergent_keys;
                a.stale_replicas += b.stale_replicas;
                Some(a)
            }
            (a, b) => a.or(b),
        };
        // An empty report takes the other side's word; two runs are held
        // to regularity only if both are.
        self.regular_expected = match (self.runs, other.runs) {
            (0, _) => other.regular_expected,
            (_, 0) => self.regular_expected,
            _ => self.regular_expected && other.regular_expected,
        };
        self.runs += other.runs;
    }
}

/// Recount session-guarantee violations from the history alone and
/// compare against the streaming totals (`streaming` should be the
/// cluster-wide [`ClientStats`] sum).
///
/// The replay mirrors the streaming rules exactly: per `(client, key)`,
/// in completion order; timed-out operations don't touch session state;
/// a write advances the read-your-writes floor only once committed; an
/// empty read counts as sequence 0.
///
/// [`check_run`] does not call this pass: its per-key sweep replays the
/// same rules on each key's ops. This whole-history replay is the
/// reference its unit tests compare it with.
pub fn replay_sessions(history: &OpHistory, streaming: &ClientStats) -> SessionCheck {
    // (client, key) → (newest sequence read, newest committed sequence written).
    let mut sessions: FxHashMap<(u32, u64), (u64, u64)> = FxHashMap::default();
    let mut check = SessionCheck {
        streaming_reads_checked: streaming.reads_checked,
        streaming_monotonic: streaming.monotonic_violations,
        streaming_ryw: streaming.ryw_violations,
        ..SessionCheck::default()
    };
    for h in history.ops() {
        let op = &h.op;
        if op.finish.is_none() {
            continue; // timed out: the client never saw a result
        }
        if op.client == BLOCKING_CLIENT {
            // Blocking-harness ops: recorded for the order oracle and the
            // relabelling pass, but not part of any client session (the
            // streaming counters never saw them).
            continue;
        }
        match op.kind {
            OpKind::Write => {
                if op.commit.is_some() {
                    let seq = op.seq.expect("completed writes carry their sequence");
                    let (_, written) = sessions.entry((op.client, op.key)).or_insert((0, 0));
                    *written = (*written).max(seq);
                }
            }
            OpKind::Read => {
                let seen = op.seq.unwrap_or(0);
                let (read, written) = sessions.entry((op.client, op.key)).or_insert((0, 0));
                check.reads_checked += 1;
                check.monotonic_violations += u64::from(seen < *read);
                check.ryw_violations += u64::from(seen < *written);
                *read = (*read).max(seen);
            }
        }
    }
    check
}

/// Rebuild the commit history from the recorded writes and relabel every
/// online-labelled read through the batch [`GroundTruth`] path — no
/// watermark, no windowing. Any disagreement with the online label is a
/// mismatch (a bug in the online machinery, never an artefact of faults:
/// both derivations see the same committed writes).
///
/// [`check_run`] does not call this pass: its per-key sweep derives the
/// same [`LabelCheck`] from each key's commits without the [`GroundTruth`]
/// whose labelling it audits. This whole-history derivation is the
/// reference its unit tests compare it with.
pub fn relabel_reads(history: &OpHistory) -> LabelCheck {
    let mut commits: Vec<(SimTime, u64, u64)> = history
        .ops()
        .iter()
        .filter_map(|h| {
            let op = &h.op;
            match (op.kind, op.commit) {
                (OpKind::Write, Some(ct)) => {
                    Some((ct, op.key, op.seq.expect("committed writes carry their sequence")))
                }
                _ => None,
            }
        })
        .collect();
    // Stable sort: equal commit times keep recorded (event) order, the
    // same tie-break the online ingestion path uses.
    commits.sort_by_key(|&(t, _, _)| t);
    let mut gt = GroundTruth::new();
    for (commit, key, seq) in commits {
        gt.record_commit(key, seq, commit);
    }
    let mut check = LabelCheck::default();
    for h in history.ops() {
        let (op, Some(online)) = (&h.op, h.label) else {
            continue;
        };
        debug_assert_eq!(op.kind, OpKind::Read, "only reads carry labels");
        check.labelled_reads += 1;
        let offline = gt.label_read(op.key, op.start, op.seq);
        if !offline.consistent {
            check.stale_reads += 1;
        }
        if offline != online {
            check.mismatches += 1;
        }
    }
    check
}

/// One committed write, as the order oracle tracks it.
#[derive(Debug, Clone, Copy)]
struct TrackedWrite {
    version: (u64, u32),
    commit_nanos: u64,
    acked: u64,
    /// Index in the history: among equal versions the earliest recorded
    /// write is the one a violation names.
    rank: u32,
}

/// One completed read, as the order oracle examines it.
#[derive(Debug, Clone, Copy)]
struct TrackedRead {
    op_id: u64,
    start_nanos: u64,
    finish_nanos: u64,
    /// Returned version as `(seq, writer)`; `(0, 0)` = empty read, which
    /// orders below every real version (seqs start at 1).
    seen: (u64, u32),
    source: Option<u32>,
    responders: u64,
}

/// A version a read sourced from a replica, parked until the read has
/// finished: ordered by that finish, then by the order reads exposed.
type Exposure = Reverse<(u64, u32, u32, (u64, u32))>; // (finish, rank, replica, version)

/// What each replica provably held by the instant the sweep has reached:
/// per mask bit, the strongest version admitted so far and the rank of the
/// evidence that set it (a write's history index, an exposure's push
/// index). Stronger is a greater version, then a lower rank — the first
/// such evidence in recorded order, which is the one a violation names.
struct Floors {
    /// The bits whose entry is set.
    live: u64,
    entries: [((u64, u32), Reverse<u32>); 64],
}

impl Floors {
    fn new() -> Self {
        Self { live: 0, entries: [((0, 0), Reverse(0)); 64] }
    }

    /// Forget everything, at the same cost whatever was admitted.
    fn clear(&mut self) {
        self.live = 0;
    }

    /// Admit evidence that every replica in `replicas` held `version`.
    fn admit(&mut self, replicas: u64, version: (u64, u32), rank: u32) {
        let evidence = (version, Reverse(rank));
        for bit in bits(replicas) {
            let entry = &mut self.entries[bit as usize];
            if self.live & (1u64 << bit) == 0 || evidence > *entry {
                *entry = evidence;
            }
        }
        self.live |= replicas;
    }

    /// The strongest entry among the replicas in `responders`, as
    /// `(version, replica)`; of equally strong entries, the lowest bit.
    fn strongest(&self, responders: u64) -> Option<((u64, u32), u32)> {
        bits(responders & self.live)
            .map(|bit| (self.entries[bit as usize], bit))
            .reduce(|best, next| if next.0 > best.0 { next } else { best })
            .map(|((version, _), bit)| (version, bit))
    }
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros();
            mask &= mask - 1;
            bit
        })
    })
}

/// The per-key order oracle (tentpole of the adversarial audit): rebuild
/// each key's committed version order from the recorded history and
/// verify every read is consistent with a register that never loses or
/// reorders acknowledged writes.
///
/// Three rules, each sound under arbitrary drops, duplicates, reorders,
/// slow nodes, disk lag, clock drift, and non-wiping crashes — a
/// violation is a protocol bug, never a fault artefact:
///
/// * **Acked visibility** (`LostUpdate`): a committed write's ack mask
///   certifies which replicas applied its version before the commit
///   instant (acks are sent only after the apply). A read issued after
///   the commit whose first-`R` responder set intersects that mask must
///   return at least that version — replica stores only merge forward.
/// * **Monotone exposure** (`NonMonotoneExposure`): once a read sources a
///   version from replica `X`, any later (non-overlapping) read whose
///   responder set includes `X` must return at least that version.
/// * **Version provenance** (`PhantomVersion`): a returned version must
///   carry a valid writer id, a sequence no later than the read's finish
///   (sequences are write-start instants), and — when every write on the
///   key completed client-side — match some recorded write exactly.
///
/// Evidence from wiped replicas is discounted wholesale: a wiped store
/// legitimately forgets acknowledged writes. Reads from nodes at id ≥ 64
/// carry no mask bits and simply contribute no evidence.
///
/// Each key is one sweep in time order. Its reads are examined by start;
/// a committed write is admitted to its ackers' floors once its commit
/// lies strictly before the read at hand, an exposure to its replica's
/// floor once the exposing read finished at or before it. A read then
/// answers to the strongest floor among its responders — work in the
/// number of mask bits, not in the key's history.
pub fn check_order(history: &OpHistory, nodes: u32) -> OrderCheck {
    sweep(history, &KeyIndex::new(history), nodes, false).order
}

/// What one walk of the partition gives: the order verdict and, when the
/// walk audits them, the session and label recounts (streaming counters
/// left at zero).
struct Sweep {
    order: OrderCheck,
    sessions: SessionCheck,
    labels: LabelCheck,
}

/// The session state of the key a sweep is at, per client: the newest
/// sequence it read and the newest committed sequence it wrote. A client
/// gets a dense slot the first time the sweep meets it; moving to the next
/// key zeroes the slots the last one touched.
#[derive(Default)]
struct ClientSessions {
    slots: FxHashMap<u32, u32>,
    state: Vec<(u64, u64)>,
    touched: Vec<u32>,
}

impl ClientSessions {
    fn next_key(&mut self) {
        for slot in self.touched.drain(..) {
            self.state[slot as usize] = (0, 0);
        }
    }

    fn of(&mut self, client: u32) -> &mut (u64, u64) {
        let next = self.state.len() as u32;
        let slot = *self.slots.entry(client).or_insert(next);
        if slot == next {
            self.state.push((0, 0));
        }
        self.touched.push(slot);
        &mut self.state[slot as usize]
    }
}

/// The per-key sweep behind [`check_order`] and [`check_run`]: the order
/// oracle and, with `audit`, the session replay and the relabelling, all
/// in one walk over each key's ops. The ops of a key lie scattered through
/// a history larger than the caches, so the rules share the misses rather
/// than paying them once each.
///
/// * **Sessions** — session state is per `(client, key)`, so a key's ops
///   in history order, each on its client's state, replay the rules of
///   [`replay_sessions`].
/// * **Labels** — a second pointer over the key's commits, which the order
///   rule sorts by commit time, admits those that committed at or before a
///   read's start (the order rule admits strictly before). A read counts
///   the admitted commits newer than what it returned, capped at
///   [`MAX_TRACKED_STALENESS`], walking back from the newest admitted
///   commit until the running max of sequences falls to what it returned:
///   the batch [`GroundTruth`] label of [`relabel_reads`], derived without
///   a `GroundTruth`, in time proportional to the read's staleness on store
///   histories.
fn sweep(history: &OpHistory, index: &KeyIndex, nodes: u32, audit: bool) -> Sweep {
    let wiped = history.wiped_mask();
    let ops = history.ops();
    let mut check = OrderCheck::default();
    let (mut sessions, mut labels) = (SessionCheck::default(), LabelCheck::default());
    // Scratch every key reuses. `known`: the `(seq, writer)` of every
    // write whose version the history knows. `labelled`: each
    // online-labelled read's start, returned sequence and label.
    let mut known: Vec<(u64, u32)> = Vec::new();
    let mut committed: Vec<TrackedWrite> = Vec::new();
    let mut reads: Vec<TrackedRead> = Vec::new();
    let mut clients = ClientSessions::default();
    let mut labelled: Vec<(u64, u64, ReadLabel)> = Vec::new();
    let mut running_max: Vec<u64> = Vec::new();
    let (mut acked, mut exposed) = (Floors::new(), Floors::new());
    let mut parked: BinaryHeap<Exposure> = BinaryHeap::new();
    for (key, indices) in index.iter() {
        known.clear();
        committed.clear();
        reads.clear();
        clients.next_key();
        labelled.clear();
        // A write on this key timed out client-side, so its version is
        // unknown — the phantom set-membership rule must stand down.
        let mut incomplete = false;
        for &i in indices {
            let HistoryOp { op, label } = &ops[i as usize];
            debug_assert!(op.kind == OpKind::Read || label.is_none(), "only reads carry labels");
            let in_session = audit && op.finish.is_some() && op.client != BLOCKING_CLIENT;
            match op.kind {
                OpKind::Write => match op.seq {
                    None => incomplete = true,
                    Some(seq) => {
                        let writer = op.writer.expect("writes with a sequence carry their writer");
                        known.push((seq, writer));
                        if let Some(ct) = op.commit {
                            committed.push(TrackedWrite {
                                version: (seq, writer),
                                commit_nanos: ct.as_nanos(),
                                acked: op.quorum_mask & !wiped,
                                rank: i,
                            });
                            if in_session {
                                let (_, written) = clients.of(op.client);
                                *written = (*written).max(seq);
                            }
                        }
                    }
                },
                OpKind::Read => {
                    if audit {
                        if let Some(online) = *label {
                            labelled.push((op.start.as_nanos(), op.seq.unwrap_or(0), online));
                        }
                    }
                    if in_session {
                        let seen = op.seq.unwrap_or(0);
                        let (read, written) = clients.of(op.client);
                        sessions.reads_checked += 1;
                        sessions.monotonic_violations += u64::from(seen < *read);
                        sessions.ryw_violations += u64::from(seen < *written);
                        *read = (*read).max(seen);
                    }
                    let Some(finish) = op.finish else {
                        continue; // timed out: nothing was exposed
                    };
                    reads.push(TrackedRead {
                        op_id: op.op_id,
                        start_nanos: op.start.as_nanos(),
                        finish_nanos: finish.as_nanos(),
                        seen: match op.seq {
                            Some(seq) => (seq, op.writer.expect("non-empty reads carry a writer")),
                            None => (0, 0),
                        },
                        source: op.source,
                        responders: op.quorum_mask & !wiped,
                    });
                }
            }
        }
        check.writes_tracked += committed.len() as u64;
        check.reads_checked += reads.len() as u64;

        // Examine reads in issue order (deterministic tie-break by op id):
        // evidence accumulates forward in time, so each read is checked
        // against everything that provably precedes it.
        reads.sort_by_key(|r| (r.start_nanos, r.op_id));
        committed.sort_unstable_by_key(|w| w.commit_nanos);
        known.sort_unstable();
        // Labels: a second pointer admits the commits at or before each
        // labelled read's start, where the order rule's admits those before.
        // A read's walk back from the newest admitted commit stops at the
        // first whose running max is at or below what it returned: nothing
        // before that one is newer.
        labelled.sort_unstable_by_key(|&(start, ..)| start);
        running_max.clear();
        running_max.extend(committed.iter().scan(0, |max, w| {
            *max = w.version.0.max(*max);
            Some(*max)
        }));
        let mut admitted = 0;
        for &(start, returned, online) in &labelled {
            while committed.get(admitted).is_some_and(|w| w.commit_nanos <= start) {
                admitted += 1;
            }
            let mut behind = 0;
            for (w, &max) in committed[..admitted].iter().zip(&running_max[..admitted]).rev() {
                if max <= returned || behind == MAX_TRACKED_STALENESS {
                    break;
                }
                behind += u64::from(w.version.0 > returned);
            }
            let offline = ReadLabel { consistent: behind == 0, versions_behind: behind };
            labels.labelled_reads += 1;
            labels.stale_reads += u64::from(behind > 0);
            labels.mismatches += u64::from(offline != online);
        }
        acked.clear();
        exposed.clear();
        parked.clear();
        let mut unadmitted = committed.iter().peekable();
        let mut exposures = 0;
        for r in &reads {
            let (seen_seq, seen_writer) = r.seen;
            if seen_seq > 0 {
                // Phantom rules first: a corrupt version must not poison
                // the visibility floors below.
                let impossible_writer = seen_writer >= nodes;
                let from_the_future = seen_seq > r.finish_nanos + 1;
                let unknown_version = !incomplete && known.binary_search(&r.seen).is_err();
                if impossible_writer || from_the_future || unknown_version {
                    check.phantoms += 1;
                    check.first_phantom = check.first_phantom.or(Some(
                        OrderViolation::PhantomVersion {
                            key,
                            op_id: r.op_id,
                            seen_seq,
                            writer: seen_writer,
                        },
                    ));
                    continue;
                }
            }
            // Acked visibility: the strongest committed write whose ack
            // set intersects this read's responders and whose commit
            // precedes the read's start.
            while let Some(w) = unadmitted.next_if(|w| w.commit_nanos < r.start_nanos) {
                acked.admit(w.acked, w.version, w.rank);
            }
            if let Some((floor, replica)) = acked.strongest(r.responders) {
                if r.seen < floor {
                    check.lost_updates += 1;
                    check.first_lost_update =
                        check.first_lost_update.or(Some(OrderViolation::LostUpdate {
                            key,
                            op_id: r.op_id,
                            replica,
                            seen_seq,
                            expected_seq: floor.0,
                        }));
                    continue; // one violation per read, strongest class
                }
            }
            // Monotone exposure: the strongest version any of this read's
            // responders is known (via an earlier read) to have held.
            while let Some(&Reverse((finish, rank, replica, version))) = parked.peek() {
                if finish > r.start_nanos {
                    break;
                }
                parked.pop();
                exposed.admit(1u64 << replica, version, rank);
            }
            if let Some((floor, replica)) = exposed.strongest(r.responders) {
                if r.seen < floor {
                    check.non_monotone += 1;
                    check.first_non_monotone =
                        check.first_non_monotone.or(Some(OrderViolation::NonMonotoneExposure {
                            key,
                            op_id: r.op_id,
                            replica,
                            seen_seq,
                            expected_seq: floor.0,
                        }));
                    continue;
                }
            }
            // This read becomes evidence: its source replica held `seen`
            // at some instant before the read finished.
            if let Some(source) = r.source {
                if seen_seq > 0 && source < 64 && wiped & (1u64 << source) == 0 {
                    parked.push(Reverse((r.finish_nanos, exposures, source, r.seen)));
                    exposures += 1;
                }
            }
        }
    }
    Sweep { order: check, sessions, labels }
}

/// The settled store, read once per key: each live current replica's
/// version is held to two rules. Only meaningful once traffic has drained
/// and faults have been cleared long enough for the healing paths (read
/// repair, hint replay, anti-entropy) to run; under active drops,
/// divergence is expected, not a bug.
///
/// * **Convergence**, over every key the ground truth saw commit: the live
///   replicas agree, on something at least as new as the newest commit.
/// * **The order oracle's final-state rule**, over every key with a
///   committed write in the history: a never-wiped replica older than the
///   newest one lost it (`LostUpdate`, in the order keys were first
///   written). A wiped store legitimately forgets: it is stale for
///   convergence, never convicted.
fn check_settled(
    history: &OpHistory,
    index: &KeyIndex,
    cluster: &Cluster,
    order: &mut OrderCheck,
) -> ConvergenceCheck {
    let wiped = history.wiped_mask();
    // Per written key: its first committed write's index, and the newest
    // committed version with the op that (first) wrote it.
    let mut owed: FxHashMap<u64, (u32, (u64, u32), u64)> = FxHashMap::default();
    for (key, indices) in index.iter() {
        let mut committed = indices.iter().filter_map(|&i| {
            let op = &history.ops()[i as usize].op;
            (matches!(op.kind, OpKind::Write) && op.commit.is_some()).then(|| {
                let seq = op.seq.expect("committed writes carry their sequence");
                let writer = op.writer.expect("committed writes carry their writer");
                (i, (seq, writer), op.op_id)
            })
        });
        if let Some(first) = committed.next() {
            let (_, version, op_id) = committed.fold(first, |a, b| if b.1 > a.1 { b } else { a });
            owed.insert(key, (first.0, version, op_id));
        }
    }
    // Per key: the newest committed sequence if the ground truth tracks
    // it, and what the history owes it; written keys first, in the order
    // violations are reported.
    let gt = cluster.ground_truth();
    let mut keys: Vec<_> = gt
        .tracked_keys()
        .into_iter()
        .map(|key| {
            let latest = gt.latest_committed_at(key, SimTime::MAX).unwrap_or(0);
            (key, Some(latest), owed.remove(&key))
        })
        .collect();
    keys.extend(owed.into_iter().map(|(key, owes)| (key, None, Some(owes))));
    keys.sort_by_key(|&(_, _, owes)| owes.map_or(u32::MAX, |(first_write, ..)| first_write));
    let mut check = ConvergenceCheck::default();
    for (key, latest, owes) in keys {
        let (mut first_seq, mut divergent, mut stale) = (None, false, 0);
        for replica in cluster.replicas_of(key) {
            let node = cluster.node(replica);
            if node.is_down() {
                continue;
            }
            let stored = node.stored_version(key).map_or((0, 0), |v| (v.seq, v.writer));
            divergent |= *first_seq.get_or_insert(stored.0) != stored.0;
            stale += u64::from(latest.is_some_and(|l| stored.0 < l));
            let never_wiped = replica >= 64 || wiped & (1u64 << replica) == 0;
            if let Some((_, version, op_id)) = owes.filter(|o| never_wiped && stored < o.1) {
                order.lost_updates += 1;
                let (replica, seen_seq, expected_seq) = (replica as u32, stored.0, version.0);
                order.first_lost_update = order.first_lost_update.or(Some(
                    OrderViolation::LostUpdate { key, op_id, replica, seen_seq, expected_seq },
                ));
            }
        }
        // Every replica down: nothing to compare.
        if latest.is_some() && first_seq.is_some() {
            check.keys_checked += 1;
            check.divergent_keys += u64::from(divergent);
            check.stale_replicas += stale;
        }
    }
    check
}

/// Run every offline check against a finished cluster: session replay vs.
/// the streaming counters, label recount, the per-key order oracle, the
/// per-key linearizability checker (default budgets — call
/// [`lin::check_lin`] to tune them), and (optionally) one pass over the
/// settled store: convergence plus the oracle's final-state rule. The
/// per-key passes share one partition of the history, and the first
/// three rules share one sweep of it: each key's ops are read once for
/// the order oracle, the session replay and the relabelling.
///
/// The passes only read the history, so they run side by side: the
/// linearizability search on one scoped thread, the sweep on the
/// caller's. The passes that read the cluster (the settled store, the
/// streaming counters) stay on the caller, since a `Cluster` holds boxed
/// op sources and cannot be shared across threads. One thread is spawned
/// per call whatever the host, and the report is the one the standalone
/// passes ([`replay_sessions`], [`relabel_reads`], [`check_order`],
/// [`lin::check_lin`]) give run one by one.
pub fn check_run(history: &OpHistory, cluster: &Cluster, convergence: bool) -> CheckReport {
    let index = KeyIndex::new(history);
    let lin = || lin::check_lin_on(history, &index, &LinOptions::default());
    let (lin, (sweep, convergence)) = fork(lin, || {
        let mut sweep = sweep(history, &index, cluster.node_count() as u32, true);
        let convergence =
            convergence.then(|| check_settled(history, &index, cluster, &mut sweep.order));
        (sweep, convergence)
    });
    let Sweep { order, mut sessions, labels } = sweep;
    let streaming = cluster.client_stats();
    sessions.streaming_reads_checked = streaming.reads_checked;
    sessions.streaming_monotonic = streaming.monotonic_violations;
    sessions.streaming_ryw = streaming.ryw_violations;
    CheckReport {
        sessions,
        labels,
        order,
        lin,
        convergence,
        regular_expected: cluster.regular_expected && !history.crashes().iter().any(|c| c.wipe),
        runs: 1,
    }
}

/// Run `spawned` on a scoped thread while the calling thread runs `here`.
/// A panic on the spawned thread is re-raised with its own payload.
fn fork<A: Send, B>(spawned: impl FnOnce() -> A + Send, here: impl FnOnce() -> B) -> (A, B) {
    std::thread::scope(|scope| {
        let spawned = scope.spawn(spawned);
        let b = here();
        (spawned.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)), b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientOptions, ClusterOptions, FaultProfile, NetworkModel, ProtocolMutations};
    use pbs_core::ReplicaConfig;
    use pbs_dist::{Constant, Pareto};
    use pbs_workload::{OpMix, OpStream, Poisson, UniformKeys};
    use std::sync::Arc;

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    /// `tests/common::storm_history` with its ops spread over `keys` keys,
    /// and the cluster it ran on: 8 nodes at N=3 R=W=1 on Pareto legs under
    /// `FaultProfile::storm` with one crash, 64 clients × 31.25 ops/s, half
    /// writes, 10 s, settled.
    pub(super) fn storm_run(
        seed: u64,
        keys: u64,
        mutations: ProtocolMutations,
    ) -> (OpHistory, Cluster) {
        let mut opts = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).unwrap(), seed);
        opts.mutations = mutations;
        opts.nodes = 8;
        opts.op_timeout_ms = 2_000.0;
        opts.read_repair = true;
        opts.hinted_handoff = true;
        let (w, ars) = (Arc::new(Pareto::new(1.5, 1.2)), Arc::new(Pareto::new(0.8, 2.0)));
        let net = NetworkModel::w_ars(w, ars);
        let mut cluster = Cluster::new(opts, net);
        cluster.enable_history();
        cluster.network().set_fault_profile(FaultProfile::storm(seed)).unwrap();
        cluster.crash_node_at((seed % 8) as usize, SimTime::from_ms(4_000.0), 1_500.0);
        for _ in 0..64 {
            let source = OpStream::new(
                Poisson::per_second(31.25),
                UniformKeys::new(keys),
                OpMix::new(0.5),
                1,
            );
            let copts = ClientOptions { op_timeout_ms: 2_000.0, ..ClientOptions::default() };
            cluster.add_client(Box::new(source), copts);
        }
        cluster.start_clients();
        cluster.drain_window(SimTime::from_ms(10_000.0));
        cluster.stop_clients();
        cluster.drain_window(SimTime::from_ms(12_500.0));
        (cluster.take_history(), cluster)
    }

    /// `check_run` forks its passes over two threads and walks the order
    /// oracle, the session replay and the relabelling in one sweep; its
    /// report must `==` the one the standalone passes give run one at a
    /// time on this thread, with convergence off and on, on storm runs from
    /// 4 to 256 keys. Every other run compiles in one of the four protocol
    /// mutations, so the order oracle and the settled store's final-state
    /// rule convict something.
    #[test]
    fn a_forked_audit_equals_its_passes_run_one_at_a_time() {
        let mutated = [
            ProtocolMutations { skip_read_repair: true, ..Default::default() },
            ProtocolMutations { corrupt_read_repair: true, ..Default::default() },
            ProtocolMutations { drop_version_merge: true, ..Default::default() },
            ProtocolMutations { swallow_hints: true, ..Default::default() },
        ];
        let runs = [(1, 256), (2, 256), (3, 64), (4, 64), (5, 16), (6, 16), (7, 4), (8, 4)];
        let (mut convicted, mut final_state_convictions) = (0, 0);
        for (seed, keys) in runs {
            let m = if seed % 2 == 0 { mutated[seed as usize / 2 - 1] } else { Default::default() };
            let (history, cluster) = storm_run(seed, keys, m);
            assert!(history.len() > 10_000, "{} ops", history.len());
            for convergence in [false, true] {
                let index = KeyIndex::new(&history);
                let mut order = check_order(&history, cluster.node_count() as u32);
                let swept = order.violations();
                let settled =
                    convergence.then(|| check_settled(&history, &index, &cluster, &mut order));
                convicted += u64::from(swept > 0);
                final_state_convictions += order.violations() - swept;
                let one_at_a_time = CheckReport {
                    sessions: replay_sessions(&history, &cluster.client_stats()),
                    labels: relabel_reads(&history),
                    order,
                    lin: lin::check_lin_on(&history, &index, &LinOptions::default()),
                    convergence: settled,
                    regular_expected: cluster.regular_expected
                        && !history.crashes().iter().any(|c| c.wipe),
                    runs: 1,
                };
                let forked = check_run(&history, &cluster, convergence);
                assert_eq!(forked, one_at_a_time, "seed {seed}, {keys} keys, {convergence}");
            }
        }
        assert!(convicted > 0, "no mutation tripped the order oracle");
        assert!(final_state_convictions > 0, "no run reached the final-state rule");
    }

    /// The fused sweep against the standalone passes on 4,000 random
    /// micro-histories whose instants and sequences sit on a grid of a few
    /// values, so they tie: commits at exactly a read's start, reads that
    /// start together, a client that reads and writes one key, sequences
    /// that repeat. Storm histories almost never tie; the rules for ties
    /// (`≤` for labels, history order for sessions) are pinned here.
    #[test]
    fn the_fused_sweep_equals_the_standalone_passes_on_tied_micro_histories() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let labels = [
            ReadLabel { consistent: true, versions_behind: 0 },
            ReadLabel { consistent: false, versions_behind: 1 },
            ReadLabel { consistent: false, versions_behind: 2 },
        ];
        let mut rng = StdRng::seed_from_u64(50);
        let (mut commit_at_start, mut shared_start, mut read_own_write) = (0, 0, 0);
        for _ in 0..4_000 {
            let mut h = OpHistory::new();
            let n = rng.gen_range(1..=14u32);
            for id in 0..n {
                let client = [0, 1, 2, BLOCKING_CLIENT][rng.gen_range(0..4usize)];
                let key = rng.gen_range(1..=2u64);
                let start = f64::from(rng.gen_range(0..6u32));
                let seq = rng.gen_range(1..=5u64);
                let mut op = if rng.gen_bool(0.5) {
                    let done = rng.gen_range(0..4u32);
                    let mut w = write(client, key, seq, start, Some(start + f64::from(done)));
                    if done == 0 {
                        // Timed out; half of them without a version.
                        (w.finish, w.commit) = (None, None);
                        w.seq = Some(seq).filter(|_| rng.gen_bool(0.5));
                        w.writer = w.seq.map(|_| 0);
                    }
                    w
                } else {
                    let seen = Some(seq).filter(|_| rng.gen_bool(0.8));
                    read(client, key, seen, start, start + f64::from(rng.gen_range(0..3u32)))
                };
                op.op_id = u64::from(id);
                let label = if op.kind == OpKind::Read && rng.gen_bool(0.9) {
                    Some(labels[rng.gen_range(0..3usize)])
                } else {
                    None
                };
                if op.kind == OpKind::Read && rng.gen_bool(0.1) {
                    op.finish = None; // timed out, labelled or not
                }
                h.push(op, label);
            }
            let ops = || h.ops().iter().map(|h| &h.op);
            let reads = || ops().filter(|o| o.kind == OpKind::Read);
            let writes = || ops().filter(|o| o.kind == OpKind::Write);
            for r in reads() {
                let key = |o: &&CompletedOp| o.key == r.key && o.op_id != r.op_id;
                let at_start = |w: &CompletedOp| w.commit == Some(r.start);
                commit_at_start += usize::from(writes().filter(key).any(at_start));
                shared_start += usize::from(reads().filter(key).any(|o| o.start == r.start));
                let own = |w: &CompletedOp| w.client == r.client && w.commit.is_some();
                read_own_write += usize::from(writes().filter(key).any(own));
            }

            let fused = sweep(&h, &KeyIndex::new(&h), 3, true);
            let streaming = ClientStats::default();
            assert_eq!(fused.sessions, replay_sessions(&h, &streaming), "{:#?}", h.ops());
            assert_eq!(fused.labels, relabel_reads(&h), "{:#?}", h.ops());
            assert_eq!(fused.order, check_order(&h, 3), "{:#?}", h.ops());
        }
        assert!(commit_at_start > 1_000, "{commit_at_start} reads start at a commit");
        assert!(shared_start > 1_000, "{shared_start} reads share a start");
        assert!(read_own_write > 1_000, "{read_own_write} reads follow their own write");
    }

    /// The sweep's label walk stops at the running max and counts what a
    /// scan of every admitted commit counts: one key, 4,000 commits one ms
    /// apart whose sequences commit out of order (each swapped with a
    /// neighbour up to 5 ahead), and reads 0, 1 and 70 versions behind, each
    /// carrying the full scan's label as its online one.
    #[test]
    fn the_sweep_label_walk_counts_what_a_full_scan_counts() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 4_000usize;
        let mut rng = StdRng::seed_from_u64(0x5CA7);
        let mut seqs: Vec<u64> = (1..=n as u64).collect();
        for i in 0..n {
            let j = (i + rng.gen_range(0..6usize)).min(n - 1);
            seqs.swap(i, j);
        }
        let mut h = OpHistory::new();
        for (i, &seq) in seqs.iter().enumerate() {
            h.push(write(0, 1, seq, i as f64, Some((i + 1) as f64)), None);
        }
        // A read starting at `start` admits the commits at 1..=start ms.
        let full_scan = |start: f64, returned: u64| {
            let admitted = &seqs[..start as usize];
            let behind = admitted.iter().filter(|&&s| s > returned).count() as u64;
            ReadLabel {
                consistent: behind == 0,
                versions_behind: behind.min(MAX_TRACKED_STALENESS),
            }
        };
        let (mut stale, mut op_id) = (0, 1_000_000);
        for _ in 0..1_000 {
            let start = rng.gen_range(1..=n) as f64 + 0.5;
            let mut admitted = seqs[..start as usize].to_vec();
            admitted.sort_unstable_by(|a, b| b.cmp(a));
            for behind in [0usize, 1, 70] {
                let Some(&returned) = admitted.get(behind) else { continue };
                let label = full_scan(start, returned);
                stale += u64::from(!label.consistent);
                let mut r = read(2, 1, Some(returned), start, start + 1.0);
                (r.op_id, op_id) = (op_id, op_id + 1);
                h.push(r, Some(label));
            }
        }
        let labels = sweep(&h, &KeyIndex::new(&h), 3, true).labels;
        assert_eq!((labels.mismatches, labels.stale_reads), (0, stale));
        assert_eq!(labels, relabel_reads(&h));
        assert!(stale > 1_500, "most reads must be stale ({stale})");
    }

    /// A whole storm audit with one thing tampered: an online label flipped
    /// is one label mismatch, and a read lowered below what its client read
    /// before on the key puts the session replay at odds with the streaming
    /// counters. Either makes the report unclean.
    #[test]
    fn check_run_catches_a_flipped_label_and_a_session_gone_backwards() {
        let (history, cluster) = storm_run(1, 256, ProtocolMutations::default());
        let clean = check_run(&history, &cluster, false);
        assert!(clean.is_clean() && clean.labels.labelled_reads > 0, "{clean:?}");
        let tampered = |at: usize, tamper: &dyn Fn(&mut HistoryOp)| {
            let mut h = OpHistory::new();
            for (i, op) in history.ops().iter().enumerate() {
                let mut op = *op;
                if i == at {
                    tamper(&mut op);
                }
                h.push(op.op, op.label);
            }
            h.set_crashes(history.crashes().to_vec());
            check_run(&h, &cluster, false)
        };

        let labelled = history.ops().iter().position(|h| h.label.is_some()).expect("a label");
        let flipped = tampered(labelled, &|h| {
            let l = h.label.expect("labelled");
            let behind = u64::from(l.consistent);
            h.label = Some(ReadLabel { consistent: !l.consistent, versions_behind: behind });
        });
        assert_eq!(flipped.labels.mismatches, 1);
        assert!(!flipped.is_clean());

        // A completed read by a client that read the key before and got a
        // version, and that did not already go backwards: lowered below the
        // newest it had read, it is one more monotonic-reads violation.
        let ops = history.ops();
        let (later, newest_read) = (0..ops.len())
            .find_map(|j| {
                let r = &ops[j].op;
                let newest = ops[..j]
                    .iter()
                    .map(|h| &h.op)
                    .filter(|e| (e.kind, e.client, e.key) == (OpKind::Read, r.client, r.key))
                    .filter(|e| e.finish.is_some())
                    .filter_map(|e| e.seq)
                    .max()?;
                let clean = r.seq.unwrap_or(0) >= newest;
                (r.kind == OpKind::Read && r.finish.is_some() && clean).then_some((j, newest))
            })
            .expect("a client read one key twice");
        let backwards = tampered(later, &|h| h.op.seq = Some(newest_read - 1));
        assert!(!backwards.sessions.agrees(), "{:?}", backwards.sessions);
        assert!(!backwards.is_clean());
    }

    /// A pass's panic surfaces through `check_run` with its own message.
    /// The order oracle on the caller and the search on the spawned thread
    /// both reject this write; the next test pins the spawned side alone.
    #[test]
    #[should_panic(expected = "writes with a sequence carry their writer")]
    fn a_pass_that_panics_keeps_its_message_through_check_run() {
        let opts = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).unwrap(), 1);
        let leg = Arc::new(Pareto::new(1.5, 1.2));
        let cluster = Cluster::new(opts, NetworkModel::w_ars(leg.clone(), leg));
        let mut h = OpHistory::new();
        let mut w = write(0, 1, 1, 0.0, Some(1.0));
        w.writer = None;
        h.push(w, None);
        check_run(&h, &cluster, false);
    }

    /// A panic on the spawned thread is re-raised with its payload, not
    /// replaced by a message about the join.
    #[test]
    #[should_panic(expected = "the spawned side's own message")]
    fn fork_re_raises_the_spawned_sides_panic() {
        fork(|| panic!("the spawned side's own message"), || ());
    }

    /// A 3-node N=3 R=W=1 cluster on 1 ms legs with no healing path (no
    /// read repair, hints or anti-entropy), history on, whose node 0 is
    /// down from 0 to 50 ms: every write it takes in that span is one node
    /// 0 misses for good.
    fn victim_run(wipe_on_crash: bool) -> Cluster {
        let mut opts = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).unwrap(), 11);
        opts.wipe_on_crash = wipe_on_crash;
        let leg = Arc::new(Constant::new(1.0));
        let mut cluster = Cluster::new(opts, NetworkModel::w_ars(leg.clone(), leg));
        cluster.crash_node_at(0, t(0.0), 50.0);
        cluster.advance_to(t(1.0));
        cluster
    }

    /// The one asymmetry of the settled store: node 0 misses a write while
    /// down and stays stale once settled. Convergence counts it either way;
    /// the final-state rule convicts it only when its crash kept the store,
    /// since a wiped replica legitimately forgets.
    #[test]
    fn a_wiped_replica_is_stale_but_never_convicted() {
        for wipe in [false, true] {
            let mut cluster = victim_run(wipe);
            cluster.enable_history();
            let w = cluster.write_from(1, 7);
            cluster.advance_to(t(200.0));
            assert!(!cluster.node(0).is_down());
            assert_eq!(cluster.node(0).stored_version(7), None, "nothing healed node 0");
            let report = check_run(&cluster.take_history(), &cluster, true);
            let stale = ConvergenceCheck { keys_checked: 1, divergent_keys: 1, stale_replicas: 1 };
            assert_eq!(report.convergence, Some(stale), "wipe {wipe}");
            let lost = OrderViolation::LostUpdate {
                key: 7,
                op_id: w.op_id,
                replica: 0,
                seen_seq: 0,
                expected_seq: w.seq.expect("committed"),
            };
            let (count, first) = if wipe { (0, None) } else { (1, Some(lost)) };
            assert_eq!((report.order.lost_updates, report.order.first_lost_update), (count, first));
        }
    }

    /// Convergence reads the ground truth, which saw every commit; the
    /// final-state rule reads the history, which holds only what was
    /// recorded since the last take. Node 0 misses four writes: one before
    /// history was enabled, one in a history taken and set aside, two in
    /// the audited history. All four keys count for convergence; only the
    /// last two are lost updates, and the first named is the first
    /// written, not the lowest key.
    #[test]
    fn the_settled_store_counts_commits_the_history_never_saw() {
        let mut cluster = victim_run(false);
        cluster.write_from(1, 1);
        cluster.enable_history();
        cluster.write_from(1, 2);
        let set_aside = cluster.take_history();
        assert_eq!(set_aside.len(), 1);
        let w = cluster.write_from(1, 9);
        cluster.write_from(1, 3);
        cluster.advance_to(t(200.0));
        let history = cluster.take_history();
        assert_eq!(history.len(), 2);
        let report = check_run(&history, &cluster, true);
        let settled = ConvergenceCheck { keys_checked: 4, divergent_keys: 4, stale_replicas: 4 };
        assert_eq!(report.convergence, Some(settled));
        assert_eq!(report.order.lost_updates, 2);
        assert_eq!(
            report.order.first_lost_update,
            Some(OrderViolation::LostUpdate {
                key: 9,
                op_id: w.op_id,
                replica: 0,
                seen_seq: 0,
                expected_seq: w.seq.expect("committed"),
            })
        );
    }

    fn write(client: u32, key: u64, seq: u64, start: f64, commit: Option<f64>) -> CompletedOp {
        CompletedOp {
            op_id: seq,
            client,
            kind: OpKind::Write,
            key,
            start: t(start),
            finish: commit.map(t),
            seq: Some(seq),
            commit: commit.map(t),
            writer: Some(0),
            source: None,
            quorum_mask: 0,
        }
    }

    fn read(client: u32, key: u64, seq: Option<u64>, start: f64, finish: f64) -> CompletedOp {
        CompletedOp {
            op_id: 1_000 + start as u64,
            client,
            kind: OpKind::Read,
            key,
            start: t(start),
            finish: Some(t(finish)),
            seq,
            commit: None,
            writer: seq.map(|_| 0),
            source: None,
            quorum_mask: 0,
        }
    }

    /// A committed write with explicit provenance: `writer` assigned the
    /// version, the replicas in `acked` applied it before the commit.
    fn write_acked(
        key: u64,
        seq: u64,
        writer: u32,
        start: f64,
        commit: f64,
        acked: u64,
    ) -> CompletedOp {
        let mut op = write(0, key, seq, start, Some(commit));
        op.writer = Some(writer);
        op.quorum_mask = acked;
        op
    }

    /// A completed read with explicit provenance: served the version
    /// `(seq, writer)` sourced at `source`, with `responders` answering.
    fn read_from(
        key: u64,
        seq: Option<u64>,
        writer: u32,
        start: f64,
        finish: f64,
        source: Option<u32>,
        responders: u64,
    ) -> CompletedOp {
        let mut op = read(0, key, seq, start, finish);
        op.writer = seq.map(|_| writer);
        op.source = source;
        op.quorum_mask = responders;
        op
    }

    #[test]
    fn session_replay_counts_violations_per_client() {
        let mut h = OpHistory::new();
        h.push(write(0, 1, 1, 0.0, Some(1.0)), None);
        h.push(read(0, 1, Some(1), 2.0, 3.0), None); // fine
        h.push(read(0, 1, None, 4.0, 5.0), None); // MR + RYW violation
        h.push(read(1, 1, None, 4.0, 5.0), None); // other client: no state, fine
        let streaming = ClientStats {
            reads_checked: 3,
            monotonic_violations: 1,
            ryw_violations: 1,
            ..ClientStats::default()
        };
        let check = replay_sessions(&h, &streaming);
        assert_eq!(check.reads_checked, 3);
        assert_eq!(check.monotonic_violations, 1);
        assert_eq!(check.ryw_violations, 1);
        assert!(check.agrees());
        let off = replay_sessions(&h, &ClientStats::default());
        assert!(!off.agrees(), "disagreement with zeroed streaming counters is detected");
    }

    #[test]
    fn session_replay_skips_timeouts_and_uncommitted_writes() {
        let mut h = OpHistory::new();
        h.push(write(0, 1, 5, 0.0, None), None); // failed write: no RYW floor
        let mut timed_out = read(0, 1, None, 1.0, 0.0);
        timed_out.finish = None;
        timed_out.seq = None;
        h.push(timed_out, None); // timed out: not checked
        h.push(read(0, 1, None, 2.0, 3.0), None); // empty read, no floor: fine
        let check = replay_sessions(&h, &ClientStats::default());
        assert_eq!(check.reads_checked, 1);
        assert_eq!(check.monotonic_violations, 0);
        assert_eq!(check.ryw_violations, 0);
    }

    #[test]
    fn relabel_matches_correct_online_labels_and_flags_wrong_ones() {
        let consistent = ReadLabel { consistent: true, versions_behind: 0 };
        let stale1 = ReadLabel { consistent: false, versions_behind: 1 };
        let mut h = OpHistory::new();
        h.push(write(0, 7, 1, 0.0, Some(10.0)), None);
        h.push(write(0, 7, 2, 11.0, Some(20.0)), None);
        h.push(read(1, 7, Some(2), 25.0, 26.0), Some(consistent));
        h.push(read(1, 7, Some(1), 25.0, 26.0), Some(stale1));
        let check = relabel_reads(&h);
        assert_eq!(check.labelled_reads, 2);
        assert_eq!(check.stale_reads, 1);
        assert_eq!(check.mismatches, 0);

        // Corrupt an online label: the offline pass must catch it.
        let mut bad = OpHistory::new();
        bad.push(write(0, 7, 1, 0.0, Some(10.0)), None);
        bad.push(read(1, 7, None, 15.0, 16.0), Some(consistent));
        let check = relabel_reads(&bad);
        assert_eq!(check.mismatches, 1);
    }

    #[test]
    fn merged_reports_sum() {
        let mut a = CheckReport {
            sessions: SessionCheck { reads_checked: 2, streaming_reads_checked: 2, ..Default::default() },
            labels: LabelCheck { labelled_reads: 2, ..Default::default() },
            order: OrderCheck { reads_checked: 2, writes_tracked: 1, ..Default::default() },
            lin: LinCheck { keys_checked: 1, linearizable_keys: 1, ..Default::default() },
            convergence: Some(ConvergenceCheck { keys_checked: 3, ..Default::default() }),
            regular_expected: true,
            runs: 1,
        };
        let b = a.clone();
        a.merge(b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.sessions.reads_checked, 4);
        assert_eq!(a.labels.labelled_reads, 4);
        assert_eq!(a.order.reads_checked, 4);
        assert_eq!(a.order.writes_tracked, 2);
        assert_eq!(a.lin.keys_checked, 2);
        assert_eq!(a.lin.linearizable_keys, 2);
        assert_eq!(a.convergence.unwrap().keys_checked, 6);
        assert!(a.is_clean());
        // Held to regularity only while every merged run is; an empty
        // report adopts the other side's.
        assert_eq!(a.regular(), Some(true));
        let mut empty = CheckReport::default();
        assert_eq!(empty.regular(), None);
        empty.merge(a.clone());
        assert_eq!(empty.regular(), Some(true));
        a.merge(CheckReport::default());
        assert_eq!(a.regular(), Some(true));
        a.merge(CheckReport { runs: 1, ..Default::default() });
        assert_eq!(a.regular(), None);
        // And a held report with a stale read or a phantom is unclean.
        empty.labels.stale_reads = 1;
        assert_eq!((empty.regular(), empty.is_clean()), (Some(false), false));
        empty.regular_expected = false;
        assert!(empty.is_clean(), "a partial quorum's staleness is not a failure");
    }

    #[test]
    fn session_replay_skips_blocking_harness_ops() {
        let mut h = OpHistory::new();
        h.push(write(u32::MAX, 1, 1, 0.0, Some(1.0)), None);
        h.push(read(u32::MAX, 1, None, 2.0, 3.0), None); // would be MR+RYW if counted
        let check = replay_sessions(&h, &ClientStats::default());
        assert_eq!(check.reads_checked, 0);
        assert!(check.agrees(), "sentinel-client ops never touch session state");
    }

    // ----- the order oracle -----

    #[test]
    fn order_oracle_accepts_a_clean_register_history() {
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b011), None);
        h.push(read_from(1, Some(10), 0, 2.0, 3.0, Some(1), 0b010), None);
        h.push(write_acked(1, 20, 2, 4.0, 5.0, 0b110), None);
        h.push(read_from(1, Some(20), 2, 6.0, 7.0, Some(2), 0b100), None);
        // A read overlapping nothing acked may be empty (different key).
        h.push(read_from(2, None, 0, 6.0, 7.0, None, 0b001), None);
        let check = check_order(&h, 3);
        assert_eq!(check.violations(), 0);
        assert_eq!(check.reads_checked, 3);
        assert_eq!(check.writes_tracked, 2);
    }

    #[test]
    fn order_oracle_flags_a_lost_update() {
        let mut h = OpHistory::new();
        // Write acked by replicas {0, 1}, committed at 5 ms.
        h.push(write_acked(1, 10, 0, 0.0, 5.0, 0b011), None);
        // A later read answered by replica 1 returns empty: the
        // acknowledged write vanished.
        h.push(read_from(1, None, 0, 6.0, 7.0, None, 0b010), None);
        let check = check_order(&h, 3);
        assert_eq!(check.lost_updates, 1);
        assert_eq!(check.non_monotone, 0);
        assert_eq!(check.phantoms, 0);
        match check.first_lost_update {
            Some(OrderViolation::LostUpdate { key: 1, replica: 1, seen_seq: 0, expected_seq: 10, .. }) => {}
            other => panic!("wrong violation: {other:?}"),
        }
        // The same read answered by the non-acking replica 2 is fine.
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 5.0, 0b011), None);
        h.push(read_from(1, None, 0, 6.0, 7.0, None, 0b100), None);
        assert_eq!(check_order(&h, 3).violations(), 0);
        // And a read that *started* before the commit is unconstrained.
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 5.0, 0b011), None);
        h.push(read_from(1, None, 0, 4.0, 7.0, None, 0b010), None);
        assert_eq!(check_order(&h, 3).violations(), 0);
    }

    #[test]
    fn order_oracle_flags_non_monotone_exposure() {
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b001), None);
        // Replica 2 exposed seq 10 (uncommitted elsewhere — say repair
        // landed it there), then a later read from replica 2 sees empty.
        h.push(read_from(1, Some(10), 0, 2.0, 3.0, Some(2), 0b100), None);
        h.push(read_from(1, None, 0, 4.0, 5.0, None, 0b100), None);
        let check = check_order(&h, 3);
        assert_eq!(check.non_monotone, 1);
        assert_eq!(check.lost_updates, 0);
        match check.first_non_monotone {
            Some(OrderViolation::NonMonotoneExposure { replica: 2, seen_seq: 0, expected_seq: 10, .. }) => {}
            other => panic!("wrong violation: {other:?}"),
        }
        // Overlapping reads constrain nothing.
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b001), None);
        h.push(read_from(1, Some(10), 0, 2.0, 6.0, Some(2), 0b100), None);
        h.push(read_from(1, None, 0, 4.0, 5.0, None, 0b100), None);
        assert_eq!(check_order(&h, 3).violations(), 0);
    }

    #[test]
    fn order_oracle_admits_a_commit_strictly_before_and_an_exposure_at_the_start() {
        // A read that starts at the commit instant is not yet bound by the
        // write (`<`); one nanosecond later it is.
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 5.0, 0b001), None);
        h.push(read_from(1, None, 0, 5.0, 6.0, None, 0b001), None);
        assert_eq!(check_order(&h, 3).violations(), 0);
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 5.0, 0b001), None);
        h.push(read_from(1, None, 0, 5.000_001, 6.0, None, 0b001), None);
        assert_eq!(check_order(&h, 3).lost_updates, 1);
        // A read that starts the instant the exposing read finished is
        // bound by the exposure (`<=`); one nanosecond earlier it is not.
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b001), None);
        h.push(read_from(1, Some(10), 0, 2.0, 3.0, Some(2), 0b100), None);
        h.push(read_from(1, None, 0, 3.0, 4.0, None, 0b100), None);
        assert_eq!(check_order(&h, 3).non_monotone, 1);
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b001), None);
        h.push(read_from(1, Some(10), 0, 2.0, 3.0, Some(2), 0b100), None);
        h.push(read_from(1, None, 0, 2.999_999, 4.0, None, 0b100), None);
        assert_eq!(check_order(&h, 3).violations(), 0);
    }

    #[test]
    fn order_oracle_holds_a_read_to_the_strongest_of_its_responders_floors() {
        // Replica 0 acked seq 10, replica 1 acked seq 20. A read both
        // answered (R = 2) owes the stronger floor, and names its replica.
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b001), None);
        h.push(write_acked(1, 20, 0, 2.0, 3.0, 0b010), None);
        h.push(read_from(1, Some(10), 0, 4.0, 5.0, Some(0), 0b011), None);
        let check = check_order(&h, 3);
        assert_eq!(check.lost_updates, 1);
        match check.first_lost_update {
            Some(OrderViolation::LostUpdate { replica: 1, expected_seq: 20, .. }) => {}
            other => panic!("wrong violation: {other:?}"),
        }
        // Answered by replicas 0 and 2 the same read owes seq 10 only.
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b001), None);
        h.push(write_acked(1, 20, 0, 2.0, 3.0, 0b010), None);
        h.push(read_from(1, Some(10), 0, 4.0, 5.0, Some(0), 0b101), None);
        assert_eq!(check_order(&h, 3).violations(), 0);
        // The same for exposures: replicas 1 and 2 served seq 10 and seq
        // 20 (acked elsewhere); a later empty read from both owes seq 20.
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b001), None);
        h.push(write_acked(1, 20, 0, 0.0, 1.0, 0b001), None);
        h.push(read_from(1, Some(10), 0, 2.0, 3.0, Some(1), 0b010), None);
        h.push(read_from(1, Some(20), 0, 2.5, 3.5, Some(2), 0b100), None);
        h.push(read_from(1, None, 0, 4.0, 5.0, None, 0b110), None);
        let check = check_order(&h, 3);
        assert_eq!((check.lost_updates, check.non_monotone), (0, 1));
        match check.first_non_monotone {
            Some(OrderViolation::NonMonotoneExposure { replica: 2, expected_seq: 20, .. }) => {}
            other => panic!("wrong violation: {other:?}"),
        }
    }

    #[test]
    fn order_oracle_flags_phantom_versions() {
        // Invalid writer id.
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b001), None);
        h.push(read_from(1, Some(10), 7, 2.0, 3.0, Some(0), 0b001), None);
        let check = check_order(&h, 3);
        assert_eq!(check.phantoms, 1, "writer 7 in a 3-node cluster");
        // Sequence from the future (far beyond the read's finish).
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b001), None);
        h.push(read_from(1, Some(1 << 46), 0, 2.0, 3.0, Some(0), 0b001), None);
        assert_eq!(check_order(&h, 3).phantoms, 1);
        // A version matching no known write, on a complete key.
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b001), None);
        h.push(read_from(1, Some(12), 0, 2.0, 3.0, Some(0), 0b001), None);
        let check = check_order(&h, 3);
        assert_eq!(check.phantoms, 1);
        match check.first_phantom {
            Some(OrderViolation::PhantomVersion { key: 1, seen_seq: 12, writer: 0, .. }) => {}
            other => panic!("wrong violation: {other:?}"),
        }
        // The same unknown version is tolerated once a write on the key
        // timed out (its version may be exactly this one).
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 1.0, 0b001), None);
        let mut timed_out = write(0, 1, 0, 1.5, None);
        timed_out.seq = None;
        timed_out.writer = None;
        timed_out.finish = None;
        h.push(timed_out, None);
        h.push(read_from(1, Some(12), 0, 2.0, 3.0, Some(0), 0b001), None);
        assert_eq!(check_order(&h, 3).phantoms, 0);
    }

    #[test]
    fn order_oracle_discounts_wiped_replicas() {
        let mut h = OpHistory::new();
        h.push(write_acked(1, 10, 0, 0.0, 5.0, 0b011), None);
        h.push(read_from(1, None, 0, 20.0, 21.0, None, 0b010), None);
        // Without the crash this is a lost update (previous test); a wipe
        // of replica 1 between commit and read legitimises it.
        h.set_crashes(vec![CrashRecord { node: 1, at: t(10.0), down_ms: 1.0, wipe: true }]);
        assert_eq!(check_order(&h, 3).violations(), 0);
        // A non-wiping crash keeps the store, so the claim stands.
        h.set_crashes(vec![CrashRecord { node: 1, at: t(10.0), down_ms: 1.0, wipe: false }]);
        assert_eq!(check_order(&h, 3).lost_updates, 1);
    }
}
