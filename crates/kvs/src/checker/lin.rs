//! Per-key linearizability checking (Wing–Gong / WGL, Porcupine-style).
//!
//! The order oracle ([`check_order`](super::check_order)) audits
//! *per-replica exposure order* — sound under faults, but blind to global
//! real-time anomalies that never involve the same replica twice. This
//! module is the true real-time checker above it: partition the
//! [`OpHistory`] by key, model each key as a register of `(seq, writer)`
//! versions, and search for a linearization — a total order of the
//! completed operations that respects real time (an op whose response
//! precedes another's invocation must order before it) and register
//! semantics (every read returns the version of the latest write ordered
//! before it; `(0, 0)` is the empty register).
//!
//! # Interval model
//!
//! Intervals come from the recorded [`CompletedOp`](crate::client::CompletedOp) fields:
//!
//! * **Committed write** (`commit: Some`) — required, interval
//!   `[start, commit]`. The commit instant is when the `W`-th ack landed;
//!   the write's linearization point lies somewhere in between. Using
//!   `commit` (not the client-side `finish`) keeps WGL verdicts on the
//!   same clock as the staleness labels and the paper's t-visibility.
//! * **Failed or timed-out write** (`commit: None`) — *possibly
//!   committed*: replicas may have applied (or may yet apply) its version
//!   even though the client saw a failure or nothing at all. Such writes
//!   are optional (a linearization may drop them) with an **open
//!   interval** `[start, ∞)`. This mirrors `relabel_reads`, which never
//!   feeds uncommitted writes into the ground truth: neither checker
//!   treats a timed-out write as having definitely happened — and neither
//!   treats it as having definitely *not* happened.
//! * **Completed read** (`finish: Some`) — required, `[start, finish]`,
//!   observed value from `(seq, writer)` (empty read = `(0, 0)`).
//! * **Timed-out read** (`finish: None`) — dropped: the client observed
//!   nothing, so an aborted read constrains nothing.
//!
//! A timed-out write on the open-loop path also loses its *version*
//! (`seq: None`). Any read that later returns a version no recorded write
//! produced is matched against such unknown writes: if the key has any,
//! each orphan version becomes a synthetic optional open-interval write
//! starting at the earliest unknown write's start (the same stand-down
//! the order oracle's `incomplete` flag performs). With no unknown write
//! to attribute it to, the orphan is a genuine phantom and the search
//! will convict the read.
//!
//! # Search
//!
//! Memoized DFS over the linearized-set frontier, on one `KeySearch` per
//! audit whose buffers every key reuses. Ops stay in invocation order and
//! are never compacted; a bitset says which are linearized. An op may be
//! linearized next iff every un-linearized op whose response precedes its
//! invocation is already linearized, so one forward scan from the first
//! zero bit with a running minimum of responses finds the whole frontier.
//! Reads whose value matches the current register are linearized eagerly
//! (they never change state, so taking them early never loses solutions);
//! branching happens only on writes, and optional writes are tried only
//! while some un-linearized read still needs their version (a `version →
//! readers` span table, built only for a key that has an optional write).
//! Undo entries and write candidates live on two stacks shared by all
//! frames. Visited `(linearized-set, register)` configurations proven dead
//! are cached in one flat arena of state words under an open-addressing
//! index, both reused by every key, so a DFS node allocates nothing. A
//! probe compares full keys, never hashes alone, so a collision can't prune
//! a real solution. The search is budget-bounded: crossing
//! [`LinOptions::max_nodes_per_key`] before the key's first conviction
//! yields the distinct, non-failing [`KeyLinVerdict::Exhausted`] instead
//! of a verdict; after it, the key is a [`KeyLinVerdict::Violation`] with
//! the convictions found so far.
//!
//! # Violation windows
//!
//! When a key is not linearizable the checker localises each anomaly to a
//! **minimal infeasible prefix**. Order the response events in time (ties
//! broken by op id); the prefix at event `k` keeps events `0..=k` as
//! completed ops, every other write already invoked as an optional open
//! write, and no other read. Prefix feasibility is monotone in `k` —
//! dropping later responses only removes constraints — so the first
//! infeasible `k` names the op whose response made the history
//! un-linearizable.
//!
//! That `k` falls out of the search that found the key infeasible
//! (*single-search localisation*). Every frame carries a cursor
//! to the first response event not yet linearized in its state, and the
//! search records the furthest cursor over all states it visits: the
//! *frontier*. Proof sketch. A visited state whose cursor is past `k`
//! yields a linearization of prefix `k`: cut its path where the last of
//! events `0..=k` was taken — an op invoked after response `k` cannot sit
//! before the cut — and drop the reads that are not among those events.
//! Conversely a linearization of prefix `k` is a path of the full search:
//! its ops were all invoked by response `k`, so anything the full history
//! orders before one of them responded before `k` and is in the prefix
//! already; an optional write no read needs can be left out of it; taking
//! matching reads eagerly only linearizes more; and a memo hit stands for
//! a subtree whose cursors were recorded when it was explored. So when
//! the search returns infeasible, every prefix before the frontier is
//! feasible and the one at it is not: the culprit is the event at the
//! frontier, with no probing of prefixes.
//!
//! The culprit is always a read — a write whose response closes a prefix
//! can be linearized last in it. For a stale read the reported window
//! spans from the newest committed write it missed to the read's own
//! start: exactly the paper's `t` in t-visibility, which is what the
//! headline experiment compares against the predictor. The read is then
//! removed (it observed nothing) and the search **resumes at its
//! frontier**, so one key contributes many windows in one pass over its
//! states instead of one search from the root per window. Proof sketch.
//! Let the search with frontier `k` remove the culprit `r = events[k]`. In
//! a state whose cursor `c` is below `k`, every op invoked after `r`'s
//! response is already blocked by `events[c]`, which responded no later;
//! so such a state poses the same problem with or without `r`, and the
//! search has already shown that nothing reachable from it passes `k`.
//! Every state of the new history that passes the old prefix therefore
//! descends from a state the search visited at cursor `k`, and the only
//! new states are their successors. So the search keeps exactly those
//! states, as full memo keys in a flat arena emptied whenever the furthest
//! cursor rises, and the next search is the same DFS seeded from them —
//! with `r`'s bit set and matching reads re-taken — whose frontier is the
//! furthest cursor over their subtrees. (A seed reached through an
//! optional write only `r` needed, which the new search would not try, is
//! still a valid partial linearization of the new history: it can neither
//! invent a linearization nor carry the frontier past the first infeasible
//! prefix.) The memo of dead states carries over without a `clear()`: an
//! entry with `r`'s bit clear can never match again, and one with it set
//! has a cursor below `k`, so it cannot equal a resumed state. A memo hit
//! therefore always stands for a subtree of the running search, as the
//! single-search argument above needs. The unit tests check resumption
//! against restarting from the root after every culprit, and
//! `tests/lin_reference.rs` checks the culprits against a brute force.

use super::{KeyIndex, OpHistory};
use crate::fxhash::{FxHashSet, FxHasher};
use pbs_mc::Mergeable;
use pbs_workload::OpKind;
use std::hash::Hasher;

/// Budgets for the per-key WGL search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinOptions {
    /// Keys with more participating ops than this are reported
    /// [`Exhausted`](KeyLinVerdict::Exhausted) without searching.
    pub max_ops_per_key: usize,
    /// Total DFS nodes (write-linearization attempts) allowed per key,
    /// shared by all its searches (one per violation, plus the last), each
    /// resuming where the one before it stopped. A key that runs out after
    /// its first conviction is still a [`Violation`](KeyLinVerdict::Violation).
    pub max_nodes_per_key: u64,
}

impl Default for LinOptions {
    fn default() -> Self {
        Self { max_ops_per_key: 4096, max_nodes_per_key: 100_000 }
    }
}

/// One localized linearizability violation: the read whose response closed
/// the first infeasible prefix, plus the staleness window it implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinViolation {
    /// Key involved.
    pub key: u64,
    /// The offending read.
    pub op_id: u64,
    /// Window start in sim-nanoseconds: the commit of the newest write
    /// the read missed (falling back to the read's own start when the
    /// violation is not a missed-write staleness).
    pub window_start_ns: u64,
    /// Window end in sim-nanoseconds: the offending read's start
    /// (fallback: its response).
    pub window_end_ns: u64,
}

impl LinViolation {
    /// Window duration in sim-nanoseconds (the paper's `t` for a stale
    /// read: how long after the missed write's commit the read began).
    pub fn window_ns(&self) -> u64 {
        self.window_end_ns.saturating_sub(self.window_start_ns)
    }
}

/// Per-key search verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyLinVerdict {
    /// A linearization exists for the whole per-key history.
    Linearizable,
    /// No linearization exists; see the violations list. Every listed
    /// violation is proven, even if the budget ran out before the rest of
    /// the key was searched.
    Violation,
    /// The node budget (or the op ceiling) ran out before any verdict, and
    /// no violation was proven — explicitly *not* a failure: the gate
    /// treats it as "unknown", never "violated".
    Exhausted,
}

/// One key's full result, for tests and minimized artifact dumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyLinResult {
    /// The key.
    pub key: u64,
    /// Participating ops (closed + possibly-committed; synthetic orphan
    /// writes excluded).
    pub ops: u64,
    /// The verdict.
    pub verdict: KeyLinVerdict,
    /// Every localized violation, in response order.
    pub violations: Vec<LinViolation>,
    /// DFS nodes (write-linearization attempts) spent on this key over all
    /// its searches: one per violation, each resumed at the previous one's
    /// frontier, plus the feasible search that ends the scan (or the one
    /// that ran out of budget).
    pub nodes: u64,
}

/// Aggregated linearizability verdict over a run (mergeable across
/// shards). Lives in [`CheckReport`](super::CheckReport) next to
/// [`OrderCheck`](super::OrderCheck).
///
/// Deliberately **not** part of
/// [`CheckReport::is_clean`](super::CheckReport::is_clean): partial
/// quorums (R+W ≤ N) violate linearizability by design — quantifying
/// that is the paper's whole point — so violations here are a
/// measurement, not automatically a bug. Gate strict-quorum runs with
/// [`all_linearizable`](LinCheck::all_linearizable) instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinCheck {
    /// Keys examined.
    pub keys_checked: u64,
    /// Participating ops across all keys.
    pub ops_checked: u64,
    /// Keys with a full linearization.
    pub linearizable_keys: u64,
    /// Keys with at least one violation.
    pub violated_keys: u64,
    /// Keys whose search ran out of budget before any conviction
    /// (unknown, not failed).
    pub exhausted_keys: u64,
    /// DFS nodes spent across all keys.
    pub nodes_explored: u64,
    /// Every localized violation, keys in first-appearance order.
    pub violations: Vec<LinViolation>,
}

impl LinCheck {
    /// Strict-quorum gate: every key searched to completion and found
    /// linearizable (`Exhausted` keys fail this — use it only where the
    /// budget is known to suffice).
    pub fn all_linearizable(&self) -> bool {
        self.violated_keys == 0 && self.exhausted_keys == 0
    }

    /// Total violations found.
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64
    }

    /// First violation found (deterministic: keys in first-appearance
    /// order, violations in response order).
    pub fn first_violation(&self) -> Option<&LinViolation> {
        self.violations.first()
    }

    /// The `pct`-th percentile (0–100, nearest-rank) of the violation
    /// window durations, in milliseconds. `None` when there are none.
    pub fn window_percentile_ms(&self, pct: f64) -> Option<f64> {
        if self.violations.is_empty() {
            return None;
        }
        let mut windows: Vec<u64> = self.violations.iter().map(|v| v.window_ns()).collect();
        windows.sort_unstable();
        let rank = ((pct / 100.0) * windows.len() as f64).ceil() as usize;
        let idx = rank.clamp(1, windows.len()) - 1;
        Some(windows[idx] as f64 / 1e6)
    }
}

impl Mergeable for LinCheck {
    fn merge(&mut self, other: Self) {
        self.keys_checked += other.keys_checked;
        self.ops_checked += other.ops_checked;
        self.linearizable_keys += other.linearizable_keys;
        self.violated_keys += other.violated_keys;
        self.exhausted_keys += other.exhausted_keys;
        self.nodes_explored += other.nodes_explored;
        self.violations.extend(other.violations);
    }
}

/// One op as the per-key search sees it.
#[derive(Debug, Clone, Copy)]
struct LinOp {
    op_id: u64,
    is_write: bool,
    /// Write: version written. Read: version observed (`(0, 0)` empty).
    version: (u64, u32),
    start_ns: u64,
    /// Response instant; `u64::MAX` = open (possibly committed).
    resp_ns: u64,
    /// Closed committed write or completed read: required, and one of the
    /// response events. Open writes are never required.
    closed: bool,
    /// Synthetic orphan-version write (excluded from op counts).
    synthetic: bool,
}

/// Outcome of one search of a key.
enum Feasibility {
    Feasible,
    /// No linearization exists. The payload is the search's frontier: the
    /// index into [`KeySearch::events`] of the earliest response that no
    /// reachable state gets past (see *Violation windows* in the module
    /// docs).
    Infeasible(usize),
    Exhausted,
}

/// Check every key of the history. Equivalent to [`check_lin`] but keeps
/// the per-key results (tests, artifact minimization).
pub fn check_lin_keys(history: &OpHistory, opts: &LinOptions) -> Vec<KeyLinResult> {
    check_keys(history, &KeyIndex::new(history), opts)
}

/// Check every key and aggregate into a [`LinCheck`].
pub fn check_lin(history: &OpHistory, opts: &LinOptions) -> LinCheck {
    check_lin_on(history, &KeyIndex::new(history), opts)
}

/// [`check_lin`] on a partition the caller already has.
pub(super) fn check_lin_on(history: &OpHistory, index: &KeyIndex, opts: &LinOptions) -> LinCheck {
    let mut check = LinCheck::default();
    for kr in check_keys(history, index, opts) {
        check.keys_checked += 1;
        check.ops_checked += kr.ops;
        check.nodes_explored += kr.nodes;
        match kr.verdict {
            KeyLinVerdict::Linearizable => check.linearizable_keys += 1,
            KeyLinVerdict::Violation => check.violated_keys += 1,
            KeyLinVerdict::Exhausted => check.exhausted_keys += 1,
        }
        check.violations.extend(kr.violations);
    }
    check
}

/// Search every key off the partition, keys in first-appearance order, on
/// one [`KeySearch`] whose buffers every key reuses.
fn check_keys(history: &OpHistory, index: &KeyIndex, opts: &LinOptions) -> Vec<KeyLinResult> {
    let mut search = KeySearch::new(opts.max_nodes_per_key);
    let check = |(key, indices)| check_key(&mut search, key, history, indices, opts);
    index.iter().map(check).collect()
}

/// Search one key: each infeasible search names a culprit, which is
/// removed before the search resumes at its frontier, until a search finds
/// a linearization or the budget runs out.
fn check_key(
    search: &mut KeySearch,
    key: u64,
    history: &OpHistory,
    indices: &[u32],
    opts: &LinOptions,
) -> KeyLinResult {
    search.gather(history, indices);
    let ops = search.ops.iter().filter(|o| !o.synthetic).count() as u64;
    let mut result = KeyLinResult {
        key,
        ops,
        verdict: KeyLinVerdict::Exhausted,
        violations: Vec::new(),
        nodes: 0,
    };
    if ops > opts.max_ops_per_key as u64 {
        return result;
    }
    search.reset();
    result.verdict = loop {
        match search.run() {
            Feasibility::Infeasible(frontier) => {
                let culprit = search.remove_event(frontier);
                result.violations.push(violation_for(key, &culprit, &search.ops));
            }
            // A conviction stands whatever the rest of the key turns out to be.
            _ if !result.violations.is_empty() => break KeyLinVerdict::Violation,
            Feasibility::Feasible => break KeyLinVerdict::Linearizable,
            Feasibility::Exhausted => break KeyLinVerdict::Exhausted,
        }
    };
    result.nodes = search.nodes;
    result
}

/// Add a synthetic optional open write for every version some read
/// observed but no recorded write produced, anchored at the earliest
/// unknown-version write's start.
fn synthesize_orphans(ops: &mut Vec<LinOp>, unknown_start_ns: u64) {
    let known: FxHashSet<(u64, u32)> =
        ops.iter().filter(|o| o.is_write).map(|o| o.version).collect();
    let mut orphans: Vec<(u64, u32)> = ops
        .iter()
        .filter(|o| !o.is_write && o.version != (0, 0) && !known.contains(&o.version))
        .map(|o| o.version)
        .collect();
    orphans.sort_unstable();
    orphans.dedup();
    for (i, version) in orphans.into_iter().enumerate() {
        ops.push(LinOp {
            op_id: u64::MAX - i as u64,
            is_write: true,
            version,
            start_ns: unknown_start_ns,
            resp_ns: u64::MAX,
            closed: false,
            synthetic: true,
        });
    }
}

/// Localize one violation to its staleness window. The culprit is a read
/// (see *Violation windows*): its window runs from the newest committed
/// write it missed (version above the one it saw, committed before it
/// began) to its start — the paper's `t`. A read that missed no write
/// spans its own interval.
fn violation_for(key: u64, read: &LinOp, ops: &[LinOp]) -> LinViolation {
    let missed = ops
        .iter()
        .filter(|w| w.is_write && w.closed && w.version > read.version)
        .map(|w| w.resp_ns)
        .filter(|&commit| commit <= read.start_ns)
        .max();
    let (window_start_ns, window_end_ns) =
        missed.map_or((read.start_ns, read.resp_ns), |commit| (commit, read.start_ns));
    LinViolation { key, op_id: read.op_id, window_start_ns, window_end_ns }
}

/// The memo of dead states: every state proven to have no completion, as
/// full keys (never hashes), in one flat arena of `stride`-word states,
/// found through an open-addressing table of arena indices. [`reset`]
/// empties both for the next key and frees neither.
///
/// [`reset`]: DeadStates::reset
#[derive(Default)]
struct DeadStates {
    /// The dead states' words, `stride` apiece, in insertion order.
    words: Vec<u64>,
    /// `1 +` the arena index of a state, or 0 for an empty cell; linear
    /// probing, a power of two long and at most half full.
    table: Vec<u32>,
    stride: usize,
}

/// The table length a key starts at.
const DEAD_TABLE_MIN: usize = 64;

impl DeadStates {
    /// Forget every state, for a key whose states are `stride` words.
    fn reset(&mut self, stride: usize) {
        self.words.clear();
        self.table.clear();
        self.table.resize(DEAD_TABLE_MIN, 0);
        self.stride = stride;
    }

    fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// The table cell holding `state`, or the empty cell it would go in.
    fn probe(&self, state: &[u64]) -> (usize, bool) {
        debug_assert_eq!(state.len(), self.stride);
        let mut hasher = FxHasher::default();
        state.iter().for_each(|&w| hasher.write_u64(w));
        let mask = self.table.len() - 1;
        let mut cell = hasher.finish() as usize & mask;
        loop {
            let Some(at) = self.table[cell].checked_sub(1) else {
                return (cell, false);
            };
            let at = at as usize * self.stride;
            if self.words[at..at + self.stride] == *state {
                return (cell, true);
            }
            cell = (cell + 1) & mask;
        }
    }

    fn contains(&self, state: &[u64]) -> bool {
        self.probe(state).1
    }

    fn insert(&mut self, state: &[u64]) {
        if 2 * (self.len() + 1) > self.table.len() {
            self.grow();
        }
        let (cell, found) = self.probe(state);
        if found {
            return;
        }
        // The search may run without a node budget; a memo that outgrows
        // its `u32` index must stop rather than alias states.
        let index = u32::try_from(self.len() + 1).expect("more than u32::MAX dead states on a key");
        self.table[cell] = index;
        self.words.extend_from_slice(state);
    }

    /// Double the table and re-index every state.
    fn grow(&mut self) {
        let len = 2 * self.table.len();
        self.table.clear();
        self.table.resize(len, 0);
        for i in 0..self.len() {
            let (cell, _) = self.probe(&self.words[i * self.stride..(i + 1) * self.stride]);
            self.table[cell] = i as u32 + 1;
        }
    }
}

/// One DFS choice point. Its untried write candidates are
/// `cands[cands_from..]`, next one last (only the top frame is ever
/// iterated, so they end at the stack top), and the ops linearized to
/// enter it are `undo[undo_from..]`.
struct Frame {
    cands_from: u32,
    undo_from: u32,
    /// Register value to restore on backtrack.
    prev_version: (u64, u32),
    /// Index into `events` of the first response not yet linearized here.
    cursor: u32,
}

/// The search of one audit, handed one key after another. Nothing here is
/// reallocated per key once it has grown, nothing is allocated per DFS node,
/// and nothing is rebuilt between the searches of a key: removing a culprit
/// edits `events` and the frontier states in place, and the memo carries
/// over.
#[derive(Default)]
struct KeySearch {
    /// Every op of the key in invocation order, never compacted. A closed
    /// op is required; an open one (`resp_ns == u64::MAX`) is optional.
    ops: Vec<LinOp>,
    /// The required ops in response order `(resp_ns, op_id)`.
    events: Vec<u32>,
    /// `readers[spans[w].0..spans[w].1]`: the reads that observed optional
    /// write `w`'s version (what keeps it worth trying). Built only for a
    /// key with an optional write, and read only for those.
    spans: Vec<(u32, u32)>,
    readers: Vec<u32>,
    /// The linearized bitset followed by the register `(seq, writer)` as
    /// two words — as a whole, the memo key.
    state: Vec<u64>,
    /// States proven to have no completion, as full keys (never hashes).
    dead: DeadStates,
    /// Flat arena of `state`-sized memo keys: every state the running
    /// search entered at cursor `reached`, where the next one resumes.
    /// Removed reads are set in it.
    frontier: Vec<u64>,
    /// The previous search's `frontier`: the running search's start set.
    seeds: Vec<u64>,
    /// The furthest cursor of the running search (of the last one, between
    /// searches). Every seed has linearized the events before it.
    reached: u32,
    frames: Vec<Frame>,
    undo: Vec<u32>,
    cands: Vec<u32>,
    nodes: u64,
    max_nodes: u64,
}

impl KeySearch {
    fn new(max_nodes: u64) -> Self {
        Self { max_nodes, ..Self::default() }
    }

    /// Refill `ops` with one key's ops off the partition, in history order.
    fn gather(&mut self, history: &OpHistory, indices: &[u32]) {
        self.ops.clear();
        // The earliest start of a write whose version is unknown (open-loop
        // client timeout): such a write is possibly committed with an
        // unattributable version, so orphan versions on this key get a
        // synthetic carrier instead of a conviction.
        let mut unknown_start: Option<u64> = None;
        for &i in indices {
            let op = &history.ops()[i as usize].op;
            let start_ns = op.start.as_nanos();
            match op.kind {
                OpKind::Write => match (op.seq, op.commit) {
                    (Some(seq), commit) => {
                        let writer = op.writer.expect("writes with a sequence carry their writer");
                        self.ops.push(LinOp {
                            op_id: op.op_id,
                            is_write: true,
                            version: (seq, writer),
                            start_ns,
                            resp_ns: commit.map_or(u64::MAX, |c| c.as_nanos()),
                            closed: commit.is_some(),
                            synthetic: false,
                        });
                    }
                    (None, _) => {
                        unknown_start = Some(unknown_start.map_or(start_ns, |s| s.min(start_ns)));
                    }
                },
                OpKind::Read => {
                    let Some(finish) = op.finish else {
                        continue; // timed out: the client observed nothing
                    };
                    self.ops.push(LinOp {
                        op_id: op.op_id,
                        is_write: false,
                        version: (op.seq.unwrap_or(0), op.writer.unwrap_or(0)),
                        start_ns,
                        resp_ns: finish.as_nanos(),
                        closed: true,
                        synthetic: false,
                    });
                }
            }
        }
        if let Some(unknown_start) = unknown_start {
            synthesize_orphans(&mut self.ops, unknown_start);
        }
    }

    /// Order and index the gathered ops, and clear what the last key left:
    /// the first search starts from the root alone.
    fn reset(&mut self) {
        // Invocation order is the search's canonical op order (ties broken
        // by op id, so serial and parallel runs of one schedule agree).
        self.ops.sort_by_key(|o| (o.start_ns, o.op_id));
        let ops = &self.ops;
        let op = |i: u32| &ops[i as usize];
        self.events.clear();
        self.events.extend((0..ops.len() as u32).filter(|&i| op(i).closed));
        self.events.sort_by_key(|&i| (op(i).resp_ns, op(i).op_id));
        self.spans.clear();
        self.readers.clear();
        if ops.iter().any(|o| !o.closed) {
            let readers = &mut self.readers;
            let observed = |i: u32| !op(i).is_write && op(i).version != (0, 0);
            readers.extend((0..ops.len() as u32).filter(|&i| observed(i)));
            readers.sort_unstable_by_key(|&i| op(i).version);
            self.spans.extend(ops.iter().map(|w| {
                if w.closed {
                    return (0, 0); // required: always a candidate, never looked up
                }
                let from = readers.partition_point(|&r| op(r).version < w.version);
                let len = readers[from..].partition_point(|&r| op(r).version == w.version);
                (from as u32, (from + len) as u32)
            }));
        }
        self.state.clear();
        self.state.resize(ops.len().div_ceil(64) + 2, 0);
        self.dead.reset(self.state.len());
        self.frontier.clear();
        self.frontier.extend_from_slice(&self.state);
        self.reached = 0;
        self.frames.clear();
        self.undo.clear();
        self.cands.clear();
        self.nodes = 0;
    }

    fn is_lin(&self, i: usize) -> bool {
        self.state[i / 64] & (1u64 << (i % 64)) != 0
    }

    fn register(&self) -> (u64, u32) {
        let at = self.state.len() - 2;
        (self.state[at], self.state[at + 1] as u32)
    }

    fn set_register(&mut self, version: (u64, u32)) {
        let at = self.state.len() - 2;
        self.state[at] = version.0;
        self.state[at + 1] = u64::from(version.1);
    }

    /// Linearize op `i` on the undo stack.
    fn take(&mut self, i: usize) {
        self.state[i / 64] |= 1u64 << (i % 64);
        self.undo.push(i as u32);
    }

    /// Un-linearize everything taken since `undo_from`.
    fn rollback(&mut self, undo_from: u32, register: (u64, u32)) {
        let undo_from = undo_from as usize;
        for &i in &self.undo[undo_from..] {
            self.state[i as usize / 64] &= !(1u64 << (i % 64));
        }
        self.undo.truncate(undo_from);
        self.set_register(register);
    }

    /// The first un-linearized op: where every frontier scan starts.
    fn first_open(&self) -> usize {
        let bits = &self.state[..self.state.len() - 2];
        let open = bits.iter().position(|&w| w != u64::MAX);
        open.map_or(self.ops.len(), |w| w * 64 + bits[w].trailing_ones() as usize)
    }

    /// Eagerly linearize every available read matching the register.
    /// Availability only depends on earlier (by invocation) un-linearized
    /// ops' responses, so one forward scan with a running minimum finds
    /// the whole frontier; a read taken on the way changes neither.
    fn take_matching_reads(&mut self) {
        let cur = self.register();
        let mut min_resp = u64::MAX;
        for i in self.first_open()..self.ops.len() {
            if self.is_lin(i) {
                continue;
            }
            let op = self.ops[i];
            if op.start_ns > min_resp {
                break; // invocation order: nothing later is available
            }
            if !op.is_write && op.version == cur {
                self.take(i);
            } else {
                min_resp = min_resp.min(op.resp_ns);
            }
        }
    }

    /// Whether some un-linearized read observed optional write `w`'s version.
    fn needed(&self, w: usize) -> bool {
        let (from, to) = self.spans[w];
        self.readers[from as usize..to as usize].iter().any(|&r| !self.is_lin(r as usize))
    }

    /// Push the available un-linearized writes worth trying — required
    /// ones, and optional ones some un-linearized read still needs —
    /// so that they pop in invocation order.
    fn push_candidates(&mut self) {
        let cands_from = self.cands.len();
        let mut min_resp = u64::MAX;
        for i in self.first_open()..self.ops.len() {
            if self.is_lin(i) {
                continue;
            }
            let op = self.ops[i];
            if op.start_ns > min_resp {
                break;
            }
            if op.is_write && (op.closed || self.needed(i)) {
                self.cands.push(i as u32);
            }
            min_resp = min_resp.min(op.resp_ns);
        }
        self.cands[cands_from..].reverse();
    }

    /// Advance an `events` cursor past every linearized response.
    fn advance(&self, mut cursor: u32) -> u32 {
        while self.events.get(cursor as usize).is_some_and(|&e| self.is_lin(e as usize)) {
            cursor += 1;
        }
        cursor
    }

    /// Note that the search entered the current state at `cursor`: the
    /// states at the furthest cursor are where the next search resumes.
    fn visit(&mut self, cursor: u32) {
        if cursor < self.reached {
            return;
        }
        if cursor > self.reached {
            self.reached = cursor;
            self.frontier.clear();
        }
        self.frontier.extend_from_slice(&self.state);
    }

    /// Take the read `events[at]` out of the history and return it: its
    /// bit is set in every frontier state, so it stays set in every state
    /// the next search derives from them, and every scan skips it.
    fn remove_event(&mut self, at: usize) -> LinOp {
        let i = self.events.remove(at) as usize;
        for state in self.frontier.chunks_exact_mut(self.state.len()) {
            state[i / 64] |= 1u64 << (i % 64);
        }
        self.ops[i]
    }

    /// One memoized WGL search of the key as it now stands, seeded from the
    /// states the previous search left at its frontier (the root, first);
    /// see *Violation windows* in the module docs for why that is enough.
    /// An `Infeasible` return has visited every state reachable from the
    /// seeds and leaves the stacks empty for the next run.
    fn run(&mut self) -> Feasibility {
        std::mem::swap(&mut self.seeds, &mut self.frontier);
        self.frontier.clear();
        let base = self.reached;
        let stride = self.state.len();
        for seed in 0..self.seeds.len() / stride {
            self.state.copy_from_slice(&self.seeds[seed * stride..(seed + 1) * stride]);
            if self.enter(base, 0, self.register()) {
                return Feasibility::Feasible;
            }
            if let Some(done) = self.descend() {
                return done;
            }
        }
        Feasibility::Infeasible(self.reached as usize)
    }

    /// Depth-first over every state reachable from the frames on the
    /// stack. `None` once all of them are dead and memoized.
    fn descend(&mut self) -> Option<Feasibility> {
        while let Some(frame) = self.frames.last() {
            if self.cands.len() == frame.cands_from as usize {
                // Every choice failed from here: memoize and backtrack.
                self.dead.insert(&self.state);
                let frame = self.frames.pop().expect("frame was just inspected");
                self.rollback(frame.undo_from, frame.prev_version);
                continue;
            }
            let cursor = frame.cursor;
            let w = self.cands.pop().expect("the frame has candidates left") as usize;
            if self.nodes == self.max_nodes {
                return Some(Feasibility::Exhausted);
            }
            self.nodes += 1;
            let prev_version = self.register();
            let undo_from = self.undo.len() as u32;
            self.take(w);
            self.set_register(self.ops[w].version);
            if self.enter(cursor, undo_from, prev_version) {
                return Some(Feasibility::Feasible);
            }
        }
        None
    }

    /// Take the matching reads, then push a frame for the state reached
    /// unless it is already known dead (then undo back to `undo_from`).
    /// `cursor` is the entering frame's. True when every required op is
    /// linearized.
    fn enter(&mut self, cursor: u32, undo_from: u32, prev_version: (u64, u32)) -> bool {
        self.take_matching_reads();
        let cursor = self.advance(cursor);
        if cursor as usize == self.events.len() {
            return true;
        }
        if self.dead.contains(&self.state) {
            // Only this search's own states can match (module docs), and
            // their subtrees' cursors were noted when it explored them.
            debug_assert!(cursor <= self.reached, "memo hit past the frontier");
            self.rollback(undo_from, prev_version);
            return false;
        }
        self.visit(cursor);
        let cands_from = self.cands.len() as u32;
        self.push_candidates();
        self.frames.push(Frame { cands_from, undo_from, prev_version, cursor });
        false
    }

    /// What PR 16 did after each removal, for the equivalence test: the
    /// next search starts from the root again, with an empty memo.
    #[cfg(test)]
    fn restart(&mut self) {
        self.dead.reset(self.state.len());
        self.reached = 0;
        self.frontier.clear();
        self.frontier.resize(self.state.len(), 0);
        // The root with every removed read set: closed ops no longer events.
        for (i, op) in self.ops.iter().enumerate() {
            self.frontier[i / 64] |= u64::from(op.closed) << (i % 64);
        }
        for &e in &self.events {
            self.frontier[e as usize / 64] &= !(1u64 << (e % 64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompletedOp;
    use pbs_sim::SimTime;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The checker's storm run over `keys` keys, history only.
    fn storm_history(seed: u64, keys: u64) -> OpHistory {
        super::super::tests::storm_run(seed, keys, crate::ProtocolMutations::default()).0
    }

    fn op(op_id: u64, kind: OpKind, start_ms: u64) -> CompletedOp {
        CompletedOp {
            op_id,
            client: 0,
            kind,
            key: 7,
            start: SimTime::from_ms(start_ms as f64),
            finish: None,
            seq: None,
            commit: None,
            writer: None,
            source: None,
            quorum_mask: 0,
        }
    }

    /// `tests/lin_reference.rs`' micro-history generator: 2–8 ops on one
    /// key on a coarse millisecond grid — overlapping writes, open writes,
    /// version-less writes with orphan reads, equal instants.
    fn micro_history(rng: &mut StdRng) -> OpHistory {
        let mut history = OpHistory::new();
        let mut written: Vec<(u64, u64)> = Vec::new(); // (seq, start)
        for id in 1..=rng.gen_range(2..=8u64) {
            let start = rng.gen_range(0..16u64);
            let resp = SimTime::from_ms((start + rng.gen_range(1..7u64)) as f64);
            let roll = rng.gen_range(0..100u32);
            let mut o = op(id, if roll < 55 { OpKind::Write } else { OpKind::Read }, start);
            if roll < 10 {
                // client timeout: no version, no commit
            } else if roll < 55 {
                (o.seq, o.writer) = (Some(id), Some(0));
                written.push((id, start));
                if roll >= 20 {
                    (o.commit, o.finish) = (Some(resp), Some(resp));
                }
            } else {
                o.finish = Some(resp);
                let pick = rng.gen_range(0..100u32);
                o.seq = if pick < 15 || (written.is_empty() && pick < 90) {
                    None
                } else if pick < 65 {
                    written.iter().max_by_key(|&&(seq, at)| (at, seq)).map(|&(seq, _)| seq)
                } else if pick < 90 {
                    Some(written[rng.gen_range(0..written.len())].0)
                } else {
                    Some(100 + rng.gen_range(0..2u64))
                };
                o.writer = o.seq.map(|_| 0);
            }
            history.push(o, None);
        }
        history
    }

    /// Every key's culprits and verdict with the search restarted from the
    /// root after each removal, on an unlimited budget.
    fn restarted(history: &OpHistory) -> Vec<(Vec<u64>, KeyLinVerdict)> {
        let index = KeyIndex::new(history);
        let mut search = KeySearch::new(u64::MAX);
        let check = |(_, indices)| {
            search.gather(history, indices);
            search.reset();
            let mut culprits = Vec::new();
            loop {
                match search.run() {
                    Feasibility::Infeasible(frontier) => {
                        culprits.push(search.remove_event(frontier).op_id);
                        search.restart();
                    }
                    Feasibility::Feasible if culprits.is_empty() => {
                        return (culprits, KeyLinVerdict::Linearizable);
                    }
                    Feasibility::Feasible => return (culprits, KeyLinVerdict::Violation),
                    Feasibility::Exhausted => unreachable!("the budget is unlimited"),
                }
            }
        };
        index.iter().map(check).collect()
    }

    fn resumed(history: &OpHistory) -> Vec<(Vec<u64>, KeyLinVerdict)> {
        let opts = LinOptions { max_nodes_per_key: u64::MAX, ..LinOptions::default() };
        let keys = check_lin_keys(history, &opts);
        let culprits = |k: &KeyLinResult| k.violations.iter().map(|v| v.op_id).collect();
        keys.iter().map(|k| (culprits(k), k.verdict)).collect()
    }

    /// Resuming at the frontier names the same culprits, in the same
    /// order, and reaches the same verdict as searching again from the root.
    #[test]
    fn resuming_at_the_frontier_convicts_what_a_restart_convicts() {
        let mut rng = StdRng::seed_from_u64(0x11ea);
        let mut convicted = 0;
        for case in 0..3_000 {
            let history = micro_history(&mut rng);
            let want = restarted(&history);
            assert_eq!(resumed(&history), want, "case {case}: {:#?}", history.ops());
            convicted += want[0].0.len();
        }
        assert!(convicted >= 1_000, "only {convicted} culprits in the micro-histories");
        for keys in [256, 64] {
            let history = storm_history(11, keys);
            let want = restarted(&history);
            assert_eq!(resumed(&history), want, "{keys} keys");
            let culprits: usize = want.iter().map(|(c, _)| c.len()).sum();
            assert!(culprits > 200, "{keys} keys: only {culprits} culprits");
        }
    }

    /// Hot keys (8 keys of ~2,500 ops each) get a verdict under the
    /// default budget: the restart ran every one of them out of it.
    #[test]
    fn hot_keys_are_settled_under_the_default_budget() {
        let lin = check_lin(&storm_history(11, 8), &LinOptions::default());
        assert_eq!(lin.keys_checked, 8);
        assert_eq!(lin.exhausted_keys, 0);
        assert!(lin.violation_count() > 100, "only {} violations", lin.violation_count());
    }

    /// The memo must visit the states a set of `Vec` keys visited: the node
    /// count and every violation of the storm history at 256, 64 and 8 keys
    /// (the violations folded into an FNV-1a-style print) are pinned to the
    /// values the memo read when it was a hash set of one `Vec` per state.
    #[test]
    fn the_memo_visits_what_a_set_of_vec_keys_visited() {
        for (keys, nodes, violations, print) in [
            (256, 10_246, 271, 0x3626_5870_ecfd_01c4_u64),
            (64, 12_308, 415, 0x97db_39d4_26d8_453e),
            (8, 62_172, 773, 0x45ee_2028_ebb7_35a0),
        ] {
            let lin = check_lin(&storm_history(11, keys), &LinOptions::default());
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            for v in &lin.violations {
                for x in [v.key, v.op_id, v.window_start_ns, v.window_end_ns] {
                    h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
                }
            }
            let got = (lin.nodes_explored, lin.violations.len(), h, lin.exhausted_keys);
            assert_eq!(got, (nodes, violations, print, 0), "{keys} keys");
        }
    }

    /// Every inserted state is found again through five table growths and
    /// states that differ in one word only, and no other state is.
    #[test]
    fn dead_states_find_every_inserted_state_and_no_other() {
        let mut dead = DeadStates::default();
        for stride in [3, 1] {
            dead.reset(stride);
            let state = |i: u64| -> Vec<u64> { (0..stride as u64).map(|w| i * (w + 1)).collect() };
            for i in 0..1_000 {
                dead.insert(&state(2 * i));
                dead.insert(&state(2 * i)); // a repeat is one state
            }
            assert_eq!(dead.len(), 1_000);
            assert_eq!(dead.table.len(), DEAD_TABLE_MIN << 5, "at most half full");
            assert!((0..2_000).all(|i| dead.contains(&state(i)) == (i % 2 == 0)));
        }
    }

    /// A key that convicts a read and then runs out of budget is a
    /// `Violation` carrying the conviction; `Exhausted` is a key with no
    /// verdict and no violations.
    #[test]
    fn a_proven_conviction_is_not_unknown() {
        let write = |id: u64, start: u64, commit: u64| {
            let mut w = op(id, OpKind::Write, start);
            (w.seq, w.writer) = (Some(id), Some(0));
            let at = Some(SimTime::from_ms(commit as f64));
            (w.commit, w.finish) = (at, at);
            w
        };
        let read_nothing = |id: u64, start: u64| {
            let mut r = op(id, OpKind::Read, start);
            r.finish = Some(SimTime::from_ms(start as f64 + 1.0));
            r
        };
        // Eight mutually-overlapping writes and a read that saw none of
        // them: proving that takes more than a 10-node budget.
        let hard: Vec<CompletedOp> =
            (2..10).map(|id| write(id, 20, 100)).chain([read_nothing(100, 200)]).collect();
        // The same, after a write and a read that missed it: one node.
        let stale = [write(1, 0, 5), read_nothing(50, 10)];
        let convicting = [&stale[..], &hard[..]].concat();
        let tiny = LinOptions { max_nodes_per_key: 10, ..LinOptions::default() };
        for (ops, convicted) in [(&hard, vec![]), (&convicting, vec![50])] {
            let mut history = OpHistory::new();
            for &o in ops {
                history.push(o, None);
            }
            let keys = check_lin_keys(&history, &tiny);
            let got: Vec<u64> = keys[0].violations.iter().map(|v| v.op_id).collect();
            assert_eq!(got, convicted);
            let verdict = match convicted.len() {
                0 => KeyLinVerdict::Exhausted,
                _ => KeyLinVerdict::Violation,
            };
            assert_eq!(keys[0].verdict, verdict);
            assert_eq!(keys[0].nodes, 10, "both ran out of budget");
        }
    }

    /// `max_ops_per_key` counts the ops `KeyLinResult::ops` reports, not the
    /// synthetic carriers of orphan versions.
    #[test]
    fn the_op_ceiling_does_not_count_orphan_carriers() {
        let mut history = OpHistory::new();
        history.push(op(1, OpKind::Write, 0), None); // timed out, version lost
        for (id, seq) in [(2, 5), (3, 6)] {
            let mut r = op(id, OpKind::Read, 10);
            (r.seq, r.writer, r.finish) = (Some(seq), Some(0), Some(SimTime::from_ms(11.0)));
            history.push(r, None);
        }
        let capped = LinOptions { max_ops_per_key: 2, ..LinOptions::default() };
        let keys = check_lin_keys(&history, &capped);
        assert_eq!((keys[0].ops, keys[0].verdict), (2, KeyLinVerdict::Linearizable));
    }
}
