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
//! key that every search of the key reuses. Ops stay in invocation order
//! and are never compacted; a bitset says which are linearized. An op may
//! be linearized next iff every un-linearized op whose response precedes
//! its invocation is already linearized, so one forward scan from the
//! first zero bit with a running minimum of responses finds the whole
//! frontier. Reads whose value matches the current register are
//! linearized eagerly (they never change state, so taking them early
//! never loses solutions); branching happens only on writes, and optional
//! writes are tried only while some un-linearized read still needs their
//! version (a `version → readers` span table built once per key). Undo
//! entries and write candidates live on two stacks shared by all frames,
//! so a DFS node allocates nothing. Visited `(linearized-set, register)`
//! configurations proven dead are cached — full keys, never hashes, so a
//! collision can't prune a real solution. The search is budget-bounded:
//! crossing [`LinOptions::max_nodes_per_key`] yields the distinct,
//! non-failing [`KeyLinVerdict::Exhausted`] instead of a verdict.
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
//! That `k` falls out of the one exhaustive search that found the key
//! infeasible (*single-search localisation*). Every frame carries a cursor
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
//! removed (it observed nothing) and the key searched again, so one key
//! can contribute many windows, at one exhaustive search each.

use super::{KeyIndex, OpHistory};
use crate::fxhash::FxHashSet;
use pbs_mc::Mergeable;
use pbs_workload::OpKind;

/// Budgets for the per-key WGL search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinOptions {
    /// Keys with more participating ops than this are reported
    /// [`Exhausted`](KeyLinVerdict::Exhausted) without searching.
    pub max_ops_per_key: usize,
    /// Total DFS nodes (write-linearization attempts) allowed per key,
    /// shared by all its searches (one per violation, plus the last).
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
    /// No linearization exists; see the violations list.
    Violation,
    /// The node budget ran out before a verdict — explicitly *not* a
    /// failure: the gate treats it as "unknown", never "violated".
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
    /// DFS nodes (write-linearization attempts) spent on this key: one
    /// exhaustive search per violation plus the feasible search that ends
    /// the scan (or the one that ran out of budget).
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
    /// Keys whose search ran out of budget (unknown, not failed).
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

/// Outcome of one full search of a key.
enum Feasibility {
    Feasible,
    /// No linearization exists. The payload is the search's frontier: the
    /// index into [`KeySearch::events`] of the earliest response that no
    /// visited state got past (see *Violation windows* in the module docs).
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

/// Gather each key's ops off the partition and search it, keys in
/// first-appearance order.
fn check_keys(history: &OpHistory, index: &KeyIndex, opts: &LinOptions) -> Vec<KeyLinResult> {
    let search = |(key, indices): (u64, &[u32])| {
        let mut ops = Vec::with_capacity(indices.len());
        // The earliest start of a write whose version is unknown
        // (open-loop client timeout): such a write is possibly committed
        // with an unattributable version, so orphan versions on this key
        // get a synthetic carrier instead of a conviction.
        let mut unknown_start: Option<u64> = None;
        for &i in indices {
            let op = &history.ops()[i as usize].op;
            let start_ns = op.start.as_nanos();
            match op.kind {
                OpKind::Write => match (op.seq, op.commit) {
                    (Some(seq), commit) => {
                        let writer = op.writer.expect("writes with a sequence carry their writer");
                        ops.push(LinOp {
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
                    ops.push(LinOp {
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
            synthesize_orphans(&mut ops, unknown_start);
        }
        check_key(key, ops, opts)
    };
    index.iter().map(search).collect()
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

/// Search one key: one exhaustive search per violation (each names its
/// culprit, which is then removed), then the feasible one that ends it.
fn check_key(key: u64, mut ops: Vec<LinOp>, opts: &LinOptions) -> KeyLinResult {
    let op_count = ops.iter().filter(|o| !o.synthetic).count() as u64;
    let mut result = KeyLinResult {
        key,
        ops: op_count,
        verdict: KeyLinVerdict::Linearizable,
        violations: Vec::new(),
        nodes: 0,
    };
    if ops.len() > opts.max_ops_per_key {
        result.verdict = KeyLinVerdict::Exhausted;
        return result;
    }
    // Invocation order is the search's canonical op order (ties broken by
    // op id, so serial and parallel runs of one schedule agree).
    ops.sort_by_key(|o| (o.start_ns, o.op_id));
    let mut search = KeySearch::new(ops, opts.max_nodes_per_key);
    result.verdict = loop {
        match search.run() {
            Feasibility::Feasible if result.violations.is_empty() => {
                break KeyLinVerdict::Linearizable;
            }
            Feasibility::Feasible => break KeyLinVerdict::Violation,
            Feasibility::Exhausted => break KeyLinVerdict::Exhausted,
            Feasibility::Infeasible(frontier) => {
                let culprit = search.remove_event(frontier);
                result.violations.push(violation_for(key, &culprit, &search.ops));
            }
        }
    };
    result.nodes = search.nodes;
    result
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

/// Everything the searches of one key share. Nothing here is rebuilt
/// between searches and nothing is allocated per DFS node: removing a
/// culprit edits `ops`/`events`/`state` in place, and the two stacks and
/// the memo keep their capacity.
struct KeySearch {
    /// Every op of the key in invocation order, never compacted. A closed
    /// op is required; an open one (`resp_ns == u64::MAX`) is optional.
    ops: Vec<LinOp>,
    /// The required ops in response order `(resp_ns, op_id)`.
    events: Vec<u32>,
    /// `readers[spans[w].0..spans[w].1]`: the reads that observed optional
    /// write `w`'s version (what keeps it worth trying).
    spans: Vec<(u32, u32)>,
    readers: Vec<u32>,
    /// The linearized bitset followed by the register `(seq, writer)` as
    /// two words — as a whole, the memo key. Removed reads stay set.
    state: Vec<u64>,
    /// States proven to have no completion, as full keys (never hashes).
    dead: FxHashSet<Vec<u64>>,
    frames: Vec<Frame>,
    undo: Vec<u32>,
    cands: Vec<u32>,
    required_left: usize,
    nodes: u64,
    max_nodes: u64,
}

impl KeySearch {
    fn new(ops: Vec<LinOp>, max_nodes: u64) -> Self {
        let op = |i: u32| &ops[i as usize];
        let mut events: Vec<u32> = (0..ops.len() as u32).filter(|&i| op(i).closed).collect();
        events.sort_by_key(|&i| (op(i).resp_ns, op(i).op_id));
        let mut readers: Vec<u32> =
            (0..ops.len() as u32).filter(|&i| !op(i).is_write && op(i).version != (0, 0)).collect();
        readers.sort_by_key(|&i| op(i).version);
        let span = |w: &LinOp| {
            if w.closed {
                return (0, 0); // required: always a candidate, never looked up
            }
            let from = readers.partition_point(|&r| op(r).version < w.version);
            let len = readers[from..].partition_point(|&r| op(r).version == w.version);
            (from as u32, (from + len) as u32)
        };
        let spans = ops.iter().map(span).collect();
        Self {
            state: vec![0; ops.len().div_ceil(64) + 2],
            ops,
            events,
            spans,
            readers,
            dead: FxHashSet::default(),
            frames: Vec::new(),
            undo: Vec::new(),
            cands: Vec::new(),
            required_left: 0,
            nodes: 0,
            max_nodes,
        }
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
        self.required_left -= usize::from(self.ops[i].closed);
        self.undo.push(i as u32);
    }

    /// Un-linearize everything taken since `undo_from`.
    fn rollback(&mut self, undo_from: u32, register: (u64, u32)) {
        let undo_from = undo_from as usize;
        for &i in &self.undo[undo_from..] {
            self.state[i as usize / 64] &= !(1u64 << (i % 64));
            self.required_left += usize::from(self.ops[i as usize].closed);
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
            let (from, to) = self.spans[i];
            let readers = &self.readers[from as usize..to as usize];
            if op.is_write && (op.closed || readers.iter().any(|&r| !self.is_lin(r as usize))) {
                self.cands.push(i as u32);
            }
            min_resp = min_resp.min(op.resp_ns);
        }
        self.cands[cands_from..].reverse();
    }

    /// Advance an `events` cursor past every linearized response.
    fn frontier(&self, mut cursor: u32) -> u32 {
        while self.events.get(cursor as usize).is_some_and(|&e| self.is_lin(e as usize)) {
            cursor += 1;
        }
        cursor
    }

    /// Take the read `events[at]` out of the history and return it: its
    /// bit stays set from now on, so every scan skips it.
    fn remove_event(&mut self, at: usize) -> LinOp {
        let i = self.events.remove(at) as usize;
        self.state[i / 64] |= 1u64 << (i % 64);
        self.ops[i]
    }

    /// One memoized WGL search of the whole key as it now stands. An
    /// `Infeasible` return has visited every reachable state and leaves
    /// the search state clean for the next run.
    fn run(&mut self) -> Feasibility {
        self.dead.clear();
        self.required_left = self.events.len();
        self.take_matching_reads();
        if self.required_left == 0 {
            return Feasibility::Feasible;
        }
        let cursor = self.frontier(0);
        let mut reached = cursor;
        self.push_candidates();
        self.frames.push(Frame { cands_from: 0, undo_from: 0, prev_version: (0, 0), cursor });
        loop {
            let Some(frame) = self.frames.last() else {
                return Feasibility::Infeasible(reached as usize);
            };
            if self.cands.len() == frame.cands_from as usize {
                // Every choice failed from here: memoize and backtrack.
                self.dead.insert(self.state.clone());
                let frame = self.frames.pop().expect("frame was just inspected");
                self.rollback(frame.undo_from, frame.prev_version);
                continue;
            }
            let cursor = frame.cursor;
            let w = self.cands.pop().expect("the frame has candidates left") as usize;
            if self.nodes == self.max_nodes {
                return Feasibility::Exhausted;
            }
            self.nodes += 1;
            let prev_version = self.register();
            let undo_from = self.undo.len() as u32;
            self.take(w);
            self.set_register(self.ops[w].version);
            self.take_matching_reads();
            if self.required_left == 0 {
                return Feasibility::Feasible;
            }
            let cursor = self.frontier(cursor);
            reached = reached.max(cursor);
            if self.dead.contains(&self.state[..]) {
                self.rollback(undo_from, prev_version);
                continue;
            }
            let cands_from = self.cands.len() as u32;
            self.push_candidates();
            self.frames.push(Frame { cands_from, undo_from, prev_version, cursor });
        }
    }
}
