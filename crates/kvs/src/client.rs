//! In-sim open-loop clients: one row per client, one actor per worker.
//!
//! An actor per client would cost hundreds of bytes of map headers and one
//! pending timer event *each* before any work happens — too much at a
//! million clients. A [`ClientTable`] is instead **one actor per PDES
//! worker** that owns all of that worker's clients as rows of one vector.
//! A row is one 64-byte cache line, so an arrival touches one line of its
//! client plus the arrival heap:
//!
//! | field                                        | bytes/client |
//! |----------------------------------------------|--------------|
//! | RNG state (xoshiro256++)                     | 32           |
//! | stream clock + restart offset                | 16           |
//! | pre-pulled arrival key                       | 8            |
//! | local op counter                             | 4            |
//! | in-flight count (`u16`) + next kind (+ pad)  | 4            |
//! | arrival-heap entry (4-ary heap)              | 16           |
//!
//! 80 bytes/client of table state (traced `scale100k` reads 80.09 in
//! `kvs.client.table_bytes_per_client`). Everything else is shared per table:
//! **one in-flight map** holding every issued op until its result or
//! timeout, one session arena for `last_read_seq`/`last_write_seq`, one
//! bounded completed-op buffer the driver drains each window, one arrival
//! heap and one FIFO of op ids in deadline order — so the whole table keeps
//! **two armed timers** in the event queue (next arrival, next op timeout)
//! instead of one per client plus one per operation. A timer is a
//! `ClientTimer` the table sends itself.
//!
//! The session arena holds only state that can change a count: a
//! `(client, key)` pair gets a slot at a committed write or at a read that
//! returned a version, never at a read that returned nothing (an absent
//! slot judges as a zeroed one). It is 64 open-addressing segments, each
//! doubling on its own, so a growth never holds the whole arena twice. The
//! deadline FIFO stores op ids alone: an op's deadline is its in-flight
//! record's start plus `op_timeout_ms`.
//!
//! Determinism rules (the PDES equivalence tests pin these):
//!
//! * Per-client RNG streams are seeded from `(cluster_seed, client index)`
//!   alone, whatever table the client lands in.
//! * Per client, draws happen in the fixed order *coordinator pick* (on
//!   issue), then *gap, kind, key* (on the next stream pull) — identical
//!   for boxed and shared sources.
//! * The arrival heap pops by `(time, row, epoch)`, so simultaneous
//!   arrivals within a table fire in client-index order; cross-table order
//!   at equal instants follows actor-lane order like any other actor pair.
//! * Clients are pinned to their partition's node range, so client↔node
//!   traffic never crosses a PDES worker boundary.

use crate::fxhash::FxHashMap;
use crate::messages::{
    ClientControl, ClientIn, ClientTimer, ClientToNode, Msg, NodeIn, NodeToClient,
};
use crate::shell::DownTracker;
use pbs_mc::Mergeable;
use pbs_sim::{Context, SimDuration, SimTime};
use pbs_workload::{OpKind, OpSource, SharedOpSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Bits reserved for a client's local operation counter; the client index
/// occupies the bits above, keeping op ids globally unique across clients
/// *and* disjoint from the blocking harness's low id space.
const CLIENT_OP_SHIFT: u64 = 32;

/// Bits of an op id given to the client index, above the local counter.
const CLIENT_INDEX_BITS: u64 = 24;

/// Maximum number of clients per cluster: what the op-id layout can name,
/// ~16.7M.
const MAX_CLIENTS: u32 = (1 << CLIENT_INDEX_BITS) - 1;

/// Pack a `(client index, local counter)` pair into a global op id.
fn pack_op(index: u32, local: u32) -> u64 {
    ((index as u64 + 1) << CLIENT_OP_SHIFT) | local as u64
}

/// The client index encoded in an op id.
fn client_of(op_id: u64) -> u32 {
    (op_id >> CLIENT_OP_SHIFT) as u32 - 1
}

/// Capacity of the completed-op buffer the driver drains each window (per
/// worker table); overflow is counted in [`ClientStats::dropped_results`].
const RESULT_CAPACITY: usize = 1 << 16;

/// Per-client knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientOptions {
    /// Client-side operation timeout: an op with no result by then is
    /// recorded as timed out (late results are ignored). Must be finite
    /// and > 0.
    pub op_timeout_ms: f64,
    /// Per-client in-flight cap: an arrival while its client already holds
    /// this many ops is shed (counted in [`ClientStats::shed`]). Bounds
    /// client memory under overload. Must be in `1..=65_535`: a client
    /// counts its ops in flight in a `u16`.
    pub max_in_flight: usize,
    /// Probe mode: every *committed* write schedules a read of the same
    /// key this many ms after its commit (the §5.2 write→read probe pair),
    /// in addition to any reads the op source emits. Must be finite and
    /// ≥ 0.
    pub probe_read_offset_ms: Option<f64>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        Self {
            op_timeout_ms: 10_000.0,
            max_in_flight: 1_024,
            probe_read_offset_ms: None,
        }
    }
}

/// Cumulative client counters (summed over a table's clients).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Operations issued to a coordinator.
    pub issued: u64,
    /// Arrivals shed because the in-flight table was full.
    pub shed: u64,
    /// Completed ops dropped because the result buffer was full (the
    /// driver drained too rarely).
    pub dropped_results: u64,
    /// Reads that returned an older version than a previous read of the
    /// same key by this client (monotonic-reads violation, §3.2).
    pub monotonic_violations: u64,
    /// Reads that returned an older version than this client's own last
    /// committed write of the key (read-your-writes violation).
    pub ryw_violations: u64,
    /// Completed reads checked against the session state.
    pub reads_checked: u64,
}

impl Mergeable for ClientStats {
    fn merge(&mut self, other: Self) {
        self.issued += other.issued;
        self.shed += other.shed;
        self.dropped_results += other.dropped_results;
        self.monotonic_violations += other.monotonic_violations;
        self.ryw_violations += other.ryw_violations;
        self.reads_checked += other.reads_checked;
    }
}

/// One finished operation, drained by the engine each window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedOp {
    /// Operation id.
    pub op_id: u64,
    /// Issuing client index.
    pub client: u32,
    /// Read or write.
    pub kind: OpKind,
    /// Target key.
    pub key: u64,
    /// Issue time.
    pub start: SimTime,
    /// Completion time (`None` = client-side timeout).
    pub finish: Option<SimTime>,
    /// Write: the coordinator-assigned sequence; read: the returned
    /// sequence (`None` = empty read or timeout).
    pub seq: Option<u64>,
    /// Commit time (writes only; `None` = failed or timed out).
    pub commit: Option<SimTime>,
    /// The writer id of the version involved: the coordinator that
    /// assigned a write's version, or the writer component of a read's
    /// returned version (`None` = empty read or timeout). Together with
    /// `seq` this identifies the exact [`crate::version::Version`], which
    /// the order oracle matches reads against known writes.
    pub writer: Option<u32>,
    /// Reads: the replica whose response supplied the returned version
    /// (`None` for empty reads, timeouts, and all writes).
    pub source: Option<u32>,
    /// Quorum provenance as a bitmask over node ids below 64. Writes: the
    /// replicas that had acked (and therefore applied) the version when
    /// the result was produced. Reads: the first `R` responders. Zero for
    /// timeouts; bits for nodes ≥ 64 are omitted (the oracle treats a
    /// missing bit as absence of evidence, never as a violation).
    pub quorum_mask: u64,
}

impl CompletedOp {
    /// The record of an operation whose coordinator answered: `result`, as
    /// `client` received it at `now`. A write finishes when its result
    /// arrives (for a committed write that is the commit instant — results
    /// travel with zero delay); a read at its `R`-th response.
    pub fn from_result(result: NodeToClient, client: u32, now: SimTime) -> Self {
        let (op_id, kind, key, start, finish, version, commit, source, quorum_mask) = match result {
            NodeToClient::Write { op_id, key, version, start, commit, acked } => {
                (op_id, OpKind::Write, key, start, now, Some(version), commit, None, acked)
            }
            NodeToClient::Read { op_id, key, start, finish, version, source, responders } => {
                (op_id, OpKind::Read, key, start, finish, version, None, source, responders)
            }
        };
        CompletedOp {
            op_id,
            client,
            kind,
            key,
            start,
            finish: Some(finish),
            seq: version.map(|v| v.seq),
            commit,
            writer: version.map(|v| v.writer),
            source,
            quorum_mask,
        }
    }

    /// The record of an operation that never got a result — a client-side
    /// timeout, or an op still in flight when the run closed: an open
    /// invocation with `finish`, `seq` and `commit` all `None`.
    pub fn open(op_id: u64, client: u32, kind: OpKind, key: u64, start: SimTime) -> Self {
        CompletedOp {
            op_id,
            client,
            kind,
            key,
            start,
            finish: None,
            seq: None,
            commit: None,
            writer: None,
            source: None,
            quorum_mask: 0,
        }
    }

    /// Operation latency in ms, if the operation got a result.
    pub fn latency_ms(&self) -> Option<f64> {
        self.finish.map(|f| (f - self.start).as_ms())
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    key: u64,
    kind: OpKind,
    start: SimTime,
}

/// Arena slot sentinel: `u32::MAX` never collides with a table client
/// (indices are bounded by [`MAX_CLIENTS`] < 2²⁴).
const ARENA_EMPTY: u32 = u32::MAX;

/// One `(client, key)` session record.
#[derive(Clone, Copy)]
struct SessionSlot {
    key: u64,
    client: u32,
    /// Highest sequence seen by this client's reads of the key.
    last_read_seq: u64,
    /// Highest sequence committed by this client's writes of the key.
    last_write_seq: u64,
}

const EMPTY_SESSION: SessionSlot =
    SessionSlot { key: 0, client: ARENA_EMPTY, last_read_seq: 0, last_write_seq: 0 };

/// Top bits of [`SessionArena::hash`] that pick a segment.
const SEGMENT_BITS: u32 = 6;

/// Segments per arena. Each grows on its own, so a growth holds two copies
/// of one segment, never two of the whole arena.
const SEGMENTS: usize = 1 << SEGMENT_BITS;

/// One open-addressing table of the arena: linear probing, doubled before
/// an insert at 75% load.
#[derive(Default)]
struct Segment {
    slots: Vec<SessionSlot>,
    len: usize,
}

impl Segment {
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![EMPTY_SESSION; new_cap];
        for slot in old {
            if slot.client != ARENA_EMPTY {
                let h = SessionArena::hash(slot.client, slot.key);
                let i = self.probe(slot.client, slot.key, h);
                self.slots[i] = slot;
            }
        }
    }

    /// The index of `(client, key)`'s slot, or of the empty slot where its
    /// probe from `hash` stops. The segment must have slots.
    fn probe(&self, client: u32, key: u64, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = &self.slots[i];
            if s.client == ARENA_EMPTY || (s.client == client && s.key == key) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }
}

/// Open-addressing arena for per-`(client, key)` session state, shared by
/// every client of a worker table: 32 bytes per pair at ≤ 75% load. A pair
/// gets a slot at its client's first committed write of the key or first
/// read that returned a version; a read that returned nothing leaves no
/// slot, since an absent slot judges reads as a zeroed one does. The pairs
/// are spread over [`SEGMENTS`] segments by the top bits of their hash.
struct SessionArena {
    /// Empty until the first insert, then [`SEGMENTS`] segments.
    segments: Vec<Segment>,
}

impl SessionArena {
    fn new() -> Self {
        Self { segments: Vec::new() }
    }

    /// The SplitMix64 finalizer over the packed pair.
    fn hash(client: u32, key: u64) -> u64 {
        rand::mix64(key ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn segment_of(hash: u64) -> usize {
        (hash >> (u64::BITS - SEGMENT_BITS)) as usize
    }

    /// The slot for `(client, key)`, if it has one; inserts nothing.
    fn get_mut(&mut self, client: u32, key: u64) -> Option<&mut SessionSlot> {
        let h = Self::hash(client, key);
        let seg = self.segments.get_mut(Self::segment_of(h))?;
        if seg.slots.is_empty() {
            return None;
        }
        let i = seg.probe(client, key, h);
        Some(&mut seg.slots[i]).filter(|s| s.client != ARENA_EMPTY)
    }

    /// Find or insert the slot for `(client, key)`; new slots start zeroed.
    fn entry(&mut self, client: u32, key: u64) -> &mut SessionSlot {
        debug_assert!(client != ARENA_EMPTY);
        if self.segments.is_empty() {
            self.segments.resize_with(SEGMENTS, Segment::default);
        }
        let h = Self::hash(client, key);
        let seg = &mut self.segments[Self::segment_of(h)];
        if seg.len * 4 >= seg.slots.len() * 3 {
            seg.grow();
        }
        let i = seg.probe(client, key, h);
        if seg.slots[i].client == ARENA_EMPTY {
            seg.slots[i] = SessionSlot { key, client, ..EMPTY_SESSION };
            seg.len += 1;
        }
        &mut seg.slots[i]
    }
}

/// Pack an arrival-heap payload: row index (< 2²⁴) above, the full 32-bit
/// epoch below, so equal-time arrivals pop in client-index order.
fn pack_arrival(row: usize, epoch: u32) -> u64 {
    ((row as u64) << 32) | epoch as u64
}

/// The most ops one client may hold in flight: a row counts them in a
/// `u16`.
const MAX_IN_FLIGHT: usize = u16::MAX as usize;

/// Everything one client owns, in one cache line: an arrival reads and
/// writes this row and nothing else of its client.
#[repr(C, align(64))]
struct Row {
    rng: StdRng,
    /// Stream-clock value of the last op pulled from the source.
    consumed_ms: f64,
    /// Stream-clock offset at the epoch: `at_ms` values already consumed
    /// before the (re)start, so a stop→start cycle resumes immediately.
    offset_ms: f64,
    /// Key of the pre-pulled next arrival.
    next_key: u64,
    /// Local op-id counter (scheduling a probe read skips one).
    next_local: u32,
    /// Ops in flight, held under `max_in_flight` (≤ [`MAX_IN_FLIGHT`]).
    in_flight: u16,
    /// Kind of the pre-pulled next arrival.
    next_is_read: bool,
}

/// Pending arrivals as unique `(time, row << 32 | epoch)` keys in a 4-ary
/// min-heap: node `i`'s children are `4i + 1 ..= 4i + 4`, 64 contiguous
/// bytes, so a pop over 100k entries descends half as many levels as a
/// binary heap's. The keys are unique, so the pop order is their order
/// whatever the heap's shape.
#[derive(Default)]
struct ArrivalHeap {
    keys: Vec<(SimTime, u64)>,
}

impl ArrivalHeap {
    fn reserve(&mut self, n: usize) {
        self.keys.reserve(n);
    }

    fn peek(&self) -> Option<&(SimTime, u64)> {
        self.keys.first()
    }

    fn push(&mut self, key: (SimTime, u64)) {
        self.keys.push(key);
        self.sift_up(self.keys.len() - 1, key);
    }

    /// Remove the minimum: move the hole at the root down along the
    /// smallest children to a leaf, then sift the last key up into it (the
    /// last key belongs near the bottom, so this compares least).
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let last = self.keys.pop()?;
        let Some(&top) = self.keys.first() else {
            return Some(last);
        };
        let keys = &mut self.keys[..];
        let mut hole = 0;
        loop {
            let first = 4 * hole + 1;
            let min = match keys.get(first..first + 4) {
                // A full group: a tournament that selects by data, not by
                // branches. Which child wins is a coin toss, and branching
                // on each compare cost more than the halved depth saved.
                Some(c) => {
                    let a = (c[1] < c[0]) as usize;
                    let b = 2 + (c[3] < c[2]) as usize;
                    first + if c[b] < c[a] { b } else { a }
                }
                // The one partial group, or none below a leaf.
                None => match (first..keys.len()).min_by_key(|&c| keys[c]) {
                    Some(min) => min,
                    None => break,
                },
            };
            keys[hole] = keys[min];
            hole = min;
        }
        self.sift_up(hole, last);
        Some(top)
    }

    /// Place `key` at the hole `i` or above it, moving larger parents down.
    fn sift_up(&mut self, mut i: usize, key: (SimTime, u64)) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[i] = self.keys[parent];
            i = parent;
        }
        self.keys[i] = key;
    }
}

/// The open-loop client table: every client of one PDES worker, one
/// [`Row`] each, inside a single actor. See the module docs for the layout
/// and the determinism rules.
pub(crate) struct ClientTable {
    /// This table's worker index (clients with `index % stride == worker`).
    worker: usize,
    /// Client-affinity stride: the partition plan's worker count.
    stride: usize,
    /// First node this table's clients may coordinate through.
    coord_base: usize,
    /// Number of eligible coordinators starting at `coord_base`. Under the
    /// parallel engine clients are pinned to their partition's node range
    /// (client↔coordinator traffic is zero-delay and must stay on one
    /// worker); a serial cluster passes the whole node range.
    coord_count: usize,
    opts: ClientOptions,
    down: Arc<DownTracker>,
    cluster_seed: u64,
    /// Stream epoch: the simulated instant of the (most recent)
    /// `StartClient`.
    base: SimTime,

    /// One row per client, by row index.
    rows: Vec<Row>,

    // --- shared per table ---
    /// Boxed mode: one streaming source per row.
    sources: Vec<Box<dyn OpSource>>,
    /// Shared mode: one immutable source for every row (million-client
    /// scale); per-row state is just `consumed_ms`.
    shared: Option<Arc<dyn SharedOpSource>>,
    /// Arrival epoch: bumped by every start and stop (both are
    /// table-wide), so heap entries queued before the transition are
    /// skipped instead of double-firing. 32 bits: a narrow counter wraps,
    /// and an entry queued that many transitions ago would fire again.
    epoch: u32,
    /// Pending arrivals as `(time, row·epoch)`; the table arms **one**
    /// timer for the earliest entry instead of one event per client.
    arrivals: ArrivalHeap,
    /// Earliest outstanding armed arrival timer (`SimTime::MAX` = none).
    next_armed: SimTime,
    /// The op id of every issued op, in issue order. An op's deadline is
    /// its `start + op_timeout_ms`, monotone in issue order (one timeout per
    /// table, the clock never goes back), so the table arms **one** timer
    /// for the front live entry instead of one per op; entries of completed
    /// ops are dropped when they reach the front. The timer is outstanding
    /// exactly while this is non-empty: only its handler pops, and it
    /// re-arms unless it pops everything.
    timeouts: VecDeque<u64>,
    /// Every issued op awaiting its result or timeout, by op id.
    in_flight: FxHashMap<u64, Pending>,
    /// Session watermarks per `(client, key)` pair that has one.
    sessions: SessionArena,
    /// Completed ops awaiting the driver's window drain (bounded by
    /// [`RESULT_CAPACITY`]). The drain reads them in place and clears the
    /// buffer, which keeps its capacity, so the window-by-window plumbing
    /// allocates nothing in steady state.
    pub(crate) completed: Vec<CompletedOp>,
    /// Aggregate counters.
    stats: ClientStats,
}

impl std::fmt::Debug for ClientTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientTable")
            .field("worker", &self.worker)
            .field("rows", &self.rows())
            .field("in_flight", &self.in_flight.len())
            .field("completed", &self.completed.len())
            .finish_non_exhaustive()
    }
}

impl ClientTable {
    /// Build the (empty) client table for `worker` of a `stride`-worker
    /// plan, coordinating through the nodes in `coords` (a contiguous
    /// node-id range).
    pub(crate) fn new(
        worker: usize,
        stride: usize,
        coords: std::ops::Range<usize>,
        opts: ClientOptions,
        down: Arc<DownTracker>,
        cluster_seed: u64,
    ) -> Self {
        assert!(stride >= 1 && worker < stride);
        assert!(!coords.is_empty(), "clients need at least one coordinator");
        assert!(
            (1..=MAX_IN_FLIGHT).contains(&opts.max_in_flight),
            "max_in_flight must be in 1..={MAX_IN_FLIGHT}, got {}",
            opts.max_in_flight
        );
        assert!(
            opts.op_timeout_ms.is_finite() && opts.op_timeout_ms > 0.0,
            "ClientOptions::op_timeout_ms must be finite and > 0, got {}",
            opts.op_timeout_ms
        );
        if let Some(offset) = opts.probe_read_offset_ms {
            assert!(
                offset.is_finite() && offset >= 0.0,
                "ClientOptions::probe_read_offset_ms must be finite and >= 0, got {offset}"
            );
        }
        Self {
            worker,
            stride,
            coord_base: coords.start,
            coord_count: coords.len(),
            opts,
            down,
            cluster_seed,
            base: SimTime::ZERO,
            rows: Vec::new(),
            sources: Vec::new(),
            shared: None,
            epoch: 0,
            arrivals: ArrivalHeap::default(),
            next_armed: SimTime::MAX,
            timeouts: VecDeque::new(),
            in_flight: FxHashMap::default(),
            sessions: SessionArena::new(),
            completed: Vec::new(),
            stats: ClientStats::default(),
        }
    }

    /// The per-client knobs every row of this table shares.
    pub(crate) fn options(&self) -> &ClientOptions {
        &self.opts
    }

    /// Number of clients in this table.
    pub(crate) fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Reserve exact capacity for `n` *additional* clients (keeps the
    /// bytes-per-client accounting free of doubling slack).
    pub(crate) fn reserve_rows(&mut self, n: usize) {
        self.rows.reserve_exact(n);
        self.arrivals.reserve(n);
        if self.shared.is_none() {
            self.sources.reserve_exact(n);
        }
    }

    /// Install the table's shared operation source (million-client mode).
    /// Must precede any row; mutually exclusive with boxed rows.
    pub(crate) fn set_shared_source(&mut self, source: Arc<dyn SharedOpSource>) {
        assert!(self.rows() == 0, "install the shared source before adding clients");
        assert!(self.shared.is_none(), "shared source already installed");
        self.shared = Some(source);
    }

    fn push_row(&mut self, index: u32) {
        assert!(index < MAX_CLIENTS, "at most {MAX_CLIENTS} clients per cluster");
        assert_eq!(
            index as usize % self.stride,
            self.worker,
            "client {index} routed to the wrong worker table"
        );
        assert_eq!(
            index as usize / self.stride,
            self.rows(),
            "clients must be added in index order"
        );
        let seed = self.cluster_seed
            ^ (index as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)
            ^ 0x2545_f491_4f6c_dd1d;
        self.rows.push(Row {
            rng: StdRng::seed_from_u64(seed),
            consumed_ms: 0.0,
            offset_ms: 0.0,
            next_key: 0,
            next_local: 0,
            in_flight: 0,
            next_is_read: false,
        });
    }

    /// Add client `index` with its own boxed streaming source.
    pub(crate) fn push_client(&mut self, index: u32, source: Box<dyn OpSource>) {
        assert!(self.shared.is_none(), "cannot mix boxed and shared clients in one table");
        self.push_row(index);
        self.sources.push(source);
    }

    /// Add client `index` drawing from the table's shared source.
    pub(crate) fn push_shared_client(&mut self, index: u32) {
        assert!(self.shared.is_some(), "install a shared source first");
        self.push_row(index);
    }

    /// The global client index of a row.
    fn index_of(&self, row: usize) -> u32 {
        (row * self.stride + self.worker) as u32
    }

    /// The row of a global client index (must belong to this table).
    fn row_of(&self, index: u32) -> usize {
        debug_assert_eq!(index as usize % self.stride, self.worker);
        index as usize / self.stride
    }

    /// Aggregate counters over every client of this table.
    pub(crate) fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Remove every still-in-flight operation and return it as an open
    /// (no-response) record — `finish`, `seq`, and `commit` all `None`,
    /// the same shape as a client timeout. The harness calls this when a
    /// run's recorded history is closed: an op pending at shutdown never
    /// produced a result, but a pending *write* may still have applied on
    /// replicas (e.g. its coordinator crashed holding the op), so the
    /// linearizability checker needs its invocation on record to attribute
    /// the version as possibly committed instead of convicting the reads
    /// that see it. Sorted by op id for engine-independent determinism.
    pub(crate) fn take_in_flight(&mut self) -> Vec<CompletedOp> {
        let open = |(op_id, p): (u64, Pending)| {
            CompletedOp::open(op_id, client_of(op_id), p.kind, p.key, p.start)
        };
        let mut out: Vec<CompletedOp> = self.in_flight.drain().map(open).collect();
        self.rows.iter_mut().for_each(|r| r.in_flight = 0);
        out.sort_unstable_by_key(|op| op.op_id);
        out
    }

    fn push_completed(&mut self, op: CompletedOp) {
        if self.completed.len() >= RESULT_CAPACITY {
            self.stats.dropped_results += 1;
        } else {
            self.completed.push(op);
        }
    }

    /// Pull the next op for `row` from its source (boxed or shared); the
    /// RNG draw order is identical in both modes.
    fn pull_next(&mut self, row: usize) -> pbs_workload::Op {
        let r = &mut self.rows[row];
        match &self.shared {
            Some(src) => src.next_op_after(r.consumed_ms, &mut r.rng),
            None => self.sources[row].next_op(&mut r.rng),
        }
    }

    /// Pre-pull `row`'s next arrival and queue it on the table heap. The
    /// caller is responsible for re-arming the table timer afterwards
    /// (`ensure_armed`), so batch starts arm once, not per client.
    fn schedule_next_arrival(&mut self, row: usize) {
        let op = self.pull_next(row);
        let r = &mut self.rows[row];
        r.consumed_ms = op.at_ms;
        let at = self.base + SimDuration::from_ms((op.at_ms - r.offset_ms).max(0.0));
        r.next_key = op.key;
        r.next_is_read = op.kind == OpKind::Read;
        self.arrivals.push((at, pack_arrival(row, self.epoch)));
    }

    /// Arm the table's arrival timer for the heap minimum if no earlier
    /// timer is already outstanding.
    fn ensure_armed(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(&(at, _)) = self.arrivals.peek() {
            if at < self.next_armed {
                self.next_armed = at;
                arm(ctx, at.duration_since(ctx.now()).as_ms(), ClientTimer::Arrival);
            }
        }
    }

    fn issue(&mut self, ctx: &mut Context<'_, Msg>, row: usize, kind: OpKind, key: u64) {
        let index = self.index_of(row);
        let r = &mut self.rows[row];
        if r.in_flight as usize >= self.opts.max_in_flight {
            self.stats.shed += 1;
            return;
        }
        let op_id = pack_op(index, r.next_local);
        r.next_local += 1;
        r.in_flight += 1;
        let coord = self.down.pick_up_node_in(&mut r.rng, self.coord_base, self.coord_count);
        self.in_flight.insert(op_id, Pending { key, kind, start: ctx.now() });
        self.stats.issued += 1;
        let req = match kind {
            OpKind::Write => ClientToNode::Write { op_id, key },
            OpKind::Read => ClientToNode::Read { op_id, key },
        };
        ctx.send(coord, 0.0, Msg::Node(NodeIn::Client(req)));
        if self.timeouts.is_empty() {
            arm(ctx, self.opts.op_timeout_ms, ClientTimer::OpTimeout);
        }
        self.timeouts.push_back(op_id);
    }

    /// Remove `op_id` from the in-flight map. `None` = already completed or
    /// timed out.
    fn remove_in_flight(&mut self, op_id: u64) -> Option<Pending> {
        let p = self.in_flight.remove(&op_id)?;
        let row = self.row_of(client_of(op_id));
        self.rows[row].in_flight -= 1;
        Some(p)
    }

    /// Fire every due arrival (heap entries at or before `now`), in
    /// `(time, row)` order, then re-arm for the new minimum.
    fn on_arrival_timer(&mut self, ctx: &mut Context<'_, Msg>) {
        self.next_armed = SimTime::MAX;
        while let Some(&(at, packed)) = self.arrivals.peek() {
            if at > ctx.now() {
                break;
            }
            self.arrivals.pop();
            if packed as u32 != self.epoch {
                continue; // stale: the table stopped/restarted since this was queued
            }
            let row = (packed >> 32) as usize;
            let r = &self.rows[row];
            let kind = if r.next_is_read { OpKind::Read } else { OpKind::Write };
            self.issue(ctx, row, kind, r.next_key);
            self.schedule_next_arrival(row);
        }
        self.ensure_armed(ctx);
    }

    fn start_all(&mut self, ctx: &mut Context<'_, Msg>) {
        self.base = ctx.now();
        self.epoch = self.epoch.wrapping_add(1);
        for row in 0..self.rows() {
            // Re-base onto the stream time already consumed, so a restarted
            // client resumes generating immediately.
            let r = &mut self.rows[row];
            r.offset_ms = r.consumed_ms;
            self.schedule_next_arrival(row);
        }
        self.ensure_armed(ctx);
    }

    /// Stopping only retires the queued arrivals: nothing re-queues a row
    /// until the next start.
    fn stop_all(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    fn on_result(&mut self, ctx: &mut Context<'_, Msg>, result: NodeToClient) {
        let op_id = result.op_id();
        if self.remove_in_flight(op_id).is_none() {
            return; // already timed out client-side
        }
        let index = client_of(op_id);
        match result {
            NodeToClient::Write { key, version, commit, .. } => {
                if let Some(ct) = commit {
                    let slot = self.sessions.entry(index, key);
                    slot.last_write_seq = slot.last_write_seq.max(version.seq);
                    if let Some(offset) = self.opts.probe_read_offset_ms {
                        // The commit result arrives at the commit instant
                        // (zero-delay delivery), so the probe read fires at
                        // commit + offset.
                        debug_assert_eq!(ctx.now(), ct);
                        // Scheduling a probe skips one local id (the read
                        // takes the next when it is issued): op ids are part
                        // of every recorded history, so the numbering stays.
                        let row = self.row_of(index);
                        self.rows[row].next_local += 1;
                        arm(ctx, offset, ClientTimer::ProbeRead { client: index, key });
                    }
                }
            }
            NodeToClient::Read { key, version, .. } => {
                let seen = version.map_or(0, |v| v.seq);
                self.stats.reads_checked += 1;
                match self.sessions.get_mut(index, key) {
                    Some(slot) => {
                        if seen < slot.last_read_seq {
                            self.stats.monotonic_violations += 1;
                        }
                        if seen < slot.last_write_seq {
                            self.stats.ryw_violations += 1;
                        }
                        slot.last_read_seq = slot.last_read_seq.max(seen);
                    }
                    // No slot judges as a zeroed one: no violation, and only
                    // a read that returned a version has a watermark to keep.
                    None if seen > 0 => self.sessions.entry(index, key).last_read_seq = seen,
                    None => {}
                }
            }
        }
        self.push_completed(CompletedOp::from_result(result, index, ctx.now()));
    }

    /// Time out every op whose deadline has passed, drop the front entries
    /// of ops that completed, and re-arm for the first one still in flight
    /// — so each op times out at exactly `start + op_timeout_ms`.
    fn on_timeout_timer(&mut self, ctx: &mut Context<'_, Msg>) {
        while let Some(&op_id) = self.timeouts.front() {
            if let Some(&p) = self.in_flight.get(&op_id) {
                let deadline = p.start + SimDuration::from_ms(self.opts.op_timeout_ms);
                if deadline > ctx.now() {
                    arm(ctx, deadline.duration_since(ctx.now()).as_ms(), ClientTimer::OpTimeout);
                    return;
                }
                self.remove_in_flight(op_id);
                let op = CompletedOp::open(op_id, client_of(op_id), p.kind, p.key, p.start);
                self.push_completed(op);
            }
            self.timeouts.pop_front();
        }
    }

    /// A message addressed to this table has arrived — a timer it set on
    /// itself included.
    pub(crate) fn on_message(&mut self, ctx: &mut Context<'_, Msg>, msg: ClientIn) {
        match msg {
            ClientIn::Control(ClientControl::Start) => self.start_all(ctx),
            ClientIn::Control(ClientControl::Stop) => self.stop_all(),
            ClientIn::Reply(result) => self.on_result(ctx, result),
            ClientIn::Timer(ClientTimer::Arrival) => self.on_arrival_timer(ctx),
            ClientIn::Timer(ClientTimer::OpTimeout) => self.on_timeout_timer(ctx),
            ClientIn::Timer(ClientTimer::ProbeRead { client, key }) => {
                self.issue(ctx, self.row_of(client), OpKind::Read, key);
            }
        }
    }
}

/// Have the handling table receive `timer` after `delay_ms`.
fn arm(ctx: &mut Context<'_, Msg>, delay_ms: f64, timer: ClientTimer) {
    ctx.send(ctx.self_id(), delay_ms, Msg::Clients(ClientIn::Timer(timer)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_sim::{Actor, Event};
    use pbs_workload::FixedRate;

    fn table(worker: usize, stride: usize) -> ClientTable {
        ClientTable::new(
            worker,
            stride,
            0..3,
            ClientOptions::default(),
            Arc::new(DownTracker::new(3)),
            9,
        )
    }

    #[test]
    fn op_ids_are_disjoint_across_clients_and_harness() {
        let ida = pack_op(0, 0);
        let idb = pack_op(1, 0);
        assert_ne!(ida, idb);
        assert!(ida >= (1 << CLIENT_OP_SHIFT), "client ids sit above harness ids");
        // The largest admissible id fits the layout's 24 + 32 bits.
        let top = pack_op(MAX_CLIENTS - 1, u32::MAX);
        assert!(top < (1 << (CLIENT_INDEX_BITS + CLIENT_OP_SHIFT)));
        assert_eq!(client_of(top), MAX_CLIENTS - 1);
        assert_eq!(top as u32, u32::MAX, "the local counter is the low word");
    }

    #[test]
    fn an_open_record_has_an_invocation_and_nothing_else() {
        let start = SimTime::from_ms(2.0);
        let op = CompletedOp::open(12, 4, OpKind::Write, 3, start);
        assert_eq!((op.op_id, op.client, op.kind), (12, 4, OpKind::Write));
        assert_eq!((op.key, op.start), (3, start));
        assert_eq!((op.finish, op.seq, op.commit, op.writer), (None, None, None, None));
        assert_eq!((op.source, op.quorum_mask, op.latency_ms()), (None, 0, None));
    }

    #[test]
    fn a_result_fills_in_the_open_record_of_its_op() {
        let [start, finish, now] = [2.0, 5.0, 9.0].map(SimTime::from_ms);
        let version = crate::version::Version::new(7, 2);
        let write =
            |commit| NodeToClient::Write { op_id: 11, key: 3, version, start, commit, acked: 5 };
        let read = |version, source| {
            let responders = 3;
            NodeToClient::Read { op_id: 12, key: 3, start, finish, version, source, responders }
        };
        // A write finishes when its result arrives, committed or not, and
        // names the version it installed either way.
        let failed = CompletedOp {
            finish: Some(now),
            seq: Some(7),
            writer: Some(2),
            quorum_mask: 5,
            ..CompletedOp::open(11, 4, OpKind::Write, 3, start)
        };
        assert_eq!(CompletedOp::from_result(write(None), 4, now), failed);
        let committed = CompletedOp { commit: Some(now), ..failed };
        assert_eq!(CompletedOp::from_result(write(Some(now)), 4, now), committed);
        // A read finished at its R-th response, whenever the result is seen.
        let empty = CompletedOp {
            finish: Some(finish),
            quorum_mask: 3,
            ..CompletedOp::open(12, 4, OpKind::Read, 3, start)
        };
        assert_eq!(CompletedOp::from_result(read(None, None), 4, now), empty);
        let full = CompletedOp { seq: Some(7), writer: Some(2), source: Some(1), ..empty };
        assert_eq!(CompletedOp::from_result(read(Some(version), Some(1)), 4, now), full);
        assert_eq!((committed.latency_ms(), full.latency_ms()), (Some(7.0), Some(3.0)));
    }

    #[test]
    fn rows_map_to_strided_client_indices() {
        let mut t = table(1, 4);
        let src = || {
            Box::new(pbs_workload::OpStream::new(
                pbs_workload::FixedRate::new(1.0),
                pbs_workload::UniformKeys::new(4),
                pbs_workload::OpMix::linkedin(),
                1,
            ))
        };
        t.push_client(1, src());
        t.push_client(5, src());
        t.push_client(9, src());
        assert_eq!(t.rows(), 3);
        assert_eq!(t.index_of(2), 9);
        assert_eq!(t.row_of(5), 1);
    }

    #[test]
    fn a_row_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Row>(), 64);
        assert_eq!(std::mem::align_of::<Row>(), 64);
    }

    fn table_with(opts: ClientOptions) -> ClientTable {
        ClientTable::new(0, 1, 0..3, opts, Arc::new(DownTracker::new(3)), 9)
    }

    fn table_with_cap(max_in_flight: usize) -> ClientTable {
        table_with(ClientOptions { max_in_flight, ..ClientOptions::default() })
    }

    #[test]
    fn in_flight_caps_in_use_fit_a_row() {
        for cap in [1, 1_024, 4_096, MAX_IN_FLIGHT] {
            assert_eq!(table_with_cap(cap).options().max_in_flight, cap);
        }
    }

    #[test]
    #[should_panic(expected = "max_in_flight must be in 1..=65535, got 65536")]
    fn an_in_flight_cap_a_row_cannot_count_is_rejected() {
        table_with_cap(MAX_IN_FLIGHT + 1);
    }

    #[test]
    #[should_panic(expected = "max_in_flight must be in 1..=65535, got 0")]
    fn a_zero_in_flight_cap_is_rejected() {
        table_with_cap(0);
    }

    /// An infinite timeout would first panic inside the simulator's time
    /// arithmetic, at the first op the table issues.
    #[test]
    #[should_panic(expected = "ClientOptions::op_timeout_ms must be finite and > 0, got inf")]
    fn an_infinite_op_timeout_is_rejected() {
        table_with(ClientOptions { op_timeout_ms: f64::INFINITY, ..ClientOptions::default() });
    }

    /// A probe offset the simulator cannot schedule would first panic at the
    /// first committed write.
    #[test]
    #[should_panic(expected = "probe_read_offset_ms must be finite and >= 0, got NaN")]
    fn an_unschedulable_probe_offset_is_rejected() {
        let opts = ClientOptions { probe_read_offset_ms: Some(f64::NAN), ..Default::default() };
        table_with(opts);
    }

    /// The 4-ary heap pops exactly what `std`'s binary heap pops, over
    /// seeded push/pop interleavings held near each size, with times drawn
    /// from a few instants so most keys tie on time and differ in lane.
    #[test]
    fn arrival_heap_pops_what_a_binary_heap_pops() {
        use rand::Rng;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = StdRng::seed_from_u64(28);
        for size in [0usize, 1, 4, 5, 100_000] {
            let (mut heap, mut reference) = (ArrivalHeap::default(), BinaryHeap::new());
            let mut lane = 0u64;
            let mut key = |rng: &mut StdRng| {
                lane += 1;
                (SimTime::from_ms(rng.gen_range(0..16u32) as f64), lane)
            };
            for _ in 0..size {
                let k = key(&mut rng);
                heap.push(k);
                reference.push(Reverse(k));
            }
            for _ in 0..100_000 {
                // Push or pop with even odds, leaning back toward `size`.
                let push = match heap.keys.len().cmp(&size) {
                    std::cmp::Ordering::Less => rng.gen_range(0..4u32) != 0,
                    std::cmp::Ordering::Equal => rng.gen_range(0..2u32) == 0,
                    std::cmp::Ordering::Greater => rng.gen_range(0..4u32) == 0,
                };
                if push {
                    let k = key(&mut rng);
                    heap.push(k);
                    reference.push(Reverse(k));
                } else {
                    assert_eq!(heap.pop(), reference.pop().map(|Reverse(k)| k), "size {size}");
                }
                assert_eq!(heap.peek(), reference.peek().map(|Reverse(k)| k), "size {size}");
            }
            while let Some(Reverse(k)) = reference.pop() {
                assert_eq!(heap.pop(), Some(k), "draining size {size}");
            }
            assert_eq!(heap.pop(), None);
        }
    }

    #[test]
    #[should_panic(expected = "wrong worker table")]
    fn misrouted_client_is_rejected() {
        let mut t = table(1, 4);
        t.push_client(
            2,
            Box::new(pbs_workload::OpStream::new(
                pbs_workload::FixedRate::new(1.0),
                pbs_workload::UniformKeys::new(4),
                pbs_workload::OpMix::linkedin(),
                1,
            )),
        );
    }

    // ----- the op-timeout FIFO, on a two-actor rig -----

    const START: Msg = Msg::Clients(ClientIn::Control(ClientControl::Start));
    const STOP: Msg = Msg::Clients(ClientIn::Control(ClientControl::Stop));
    const REPLY_MS: f64 = 25.0;
    const TIMEOUT_MS: f64 = 60.0;

    /// A client table (actor 1) facing a stand-in coordinator (actor 0)
    /// that answers every read after [`REPLY_MS`] — except the ops
    /// `swallow` picks, which never get a result.
    enum Rig {
        Coordinator { swallow: fn(u64) -> bool },
        Table { table: Box<ClientTable>, timeout_timer_events: u64 },
    }

    impl Actor for Rig {
        type Msg = Msg;

        fn on_event(&mut self, ctx: &mut Context<'_, Msg>, event: Event<Msg>) {
            match (self, event) {
                (
                    Rig::Coordinator { swallow },
                    Event::Message {
                        from,
                        msg: Msg::Node(NodeIn::Client(ClientToNode::Read { op_id, key })),
                    },
                ) => {
                    if !swallow(op_id) {
                        let (start, finish) =
                            (ctx.now(), ctx.now() + SimDuration::from_ms(REPLY_MS));
                        let result = NodeToClient::Read {
                            op_id,
                            key,
                            start,
                            finish,
                            version: None,
                            source: None,
                            responders: 0,
                        };
                        ctx.send(from, REPLY_MS, Msg::Clients(ClientIn::Reply(result)));
                    }
                }
                (Rig::Coordinator { .. }, other) => unreachable!("coordinator got {other:?}"),
                (
                    Rig::Table { table, timeout_timer_events },
                    Event::Message { msg: Msg::Clients(msg), .. },
                ) => {
                    if msg == ClientIn::Timer(ClientTimer::OpTimeout) {
                        *timeout_timer_events += 1;
                    }
                    table.on_message(ctx, msg);
                }
                (Rig::Table { .. }, other) => unreachable!("table got {other:?}"),
            }
        }
    }

    /// `clients` read-only clients, each issuing on `arrivals`, against a
    /// coordinator that swallows what `swallow` picks.
    fn rig(
        clients: u32,
        arrivals: impl pbs_workload::StationaryArrivals + 'static,
        max_in_flight: usize,
        swallow: fn(u64) -> bool,
    ) -> pbs_sim::Simulation<Rig> {
        let opts = ClientOptions { op_timeout_ms: TIMEOUT_MS, max_in_flight, ..Default::default() };
        let mut table = ClientTable::new(0, 1, 0..1, opts, Arc::new(DownTracker::new(1)), 9);
        for index in 0..clients {
            table.push_client(
                index,
                Box::new(pbs_workload::OpStream::new(
                    arrivals,
                    pbs_workload::UniformKeys::new(4),
                    pbs_workload::OpMix::new(1.0),
                    1,
                )),
            );
        }
        let mut sim = pbs_sim::Simulation::new();
        sim.add_actor(Rig::Coordinator { swallow });
        sim.add_actor(Rig::Table { table: Box::new(table), timeout_timer_events: 0 });
        sim
    }

    fn table_of(sim: &mut pbs_sim::Simulation<Rig>) -> (&mut ClientTable, u64) {
        match sim.actor_mut(1) {
            Rig::Table { table, timeout_timer_events } => (table.as_mut(), *timeout_timer_events),
            Rig::Coordinator { .. } => unreachable!("actor 1 is the table"),
        }
    }

    /// Step to `until`, returning every completed op with the instant the
    /// table recorded it.
    fn run_recording(
        sim: &mut pbs_sim::Simulation<Rig>,
        until_ms: f64,
    ) -> Vec<(SimTime, CompletedOp)> {
        let mut seen = Vec::new();
        while sim.peek_next_time().is_some_and(|at| at <= SimTime::from_ms(until_ms)) {
            sim.step();
            let now = sim.now();
            seen.extend(table_of(sim).0.completed.drain(..).map(|op| (now, op)));
        }
        seen
    }

    /// Every swallowed op timed out exactly `TIMEOUT_MS` after its start,
    /// every other one finished `REPLY_MS` after it, and no op is recorded
    /// twice.
    fn assert_deadlines_exact(seen: &[(SimTime, CompletedOp)], swallow: fn(u64) -> bool) {
        for (at, op) in seen {
            if swallow(op.op_id) {
                assert_eq!(op.finish, None, "op {:#x} never got a result", op.op_id);
                assert_eq!(*at, op.start + SimDuration::from_ms(TIMEOUT_MS), "op {:#x}", op.op_id);
            } else {
                assert_eq!(op.finish, Some(op.start + SimDuration::from_ms(REPLY_MS)));
                assert_eq!(Some(*at), op.finish, "op {:#x} recorded on arrival", op.op_id);
            }
        }
        let mut ids: Vec<u64> = seen.iter().map(|(_, op)| op.op_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), seen.len(), "an op completed twice");
    }

    #[test]
    fn unanswered_op_times_out_at_exactly_start_plus_timeout() {
        let swallow_odd = |op_id: u64| op_id as u32 % 2 == 1;
        // Gaps that are no divisor of the timeout: deadlines fall between
        // arrivals, and the one timer has to be re-armed for each.
        let mut sim = rig(3, FixedRate::new(7.3), 1_024, swallow_odd);
        sim.inject(1, 0.0, START);
        let seen = run_recording(&mut sim, 1_000.0);
        assert_deadlines_exact(&seen, swallow_odd);
        let timeouts = seen.iter().filter(|(_, op)| op.finish.is_none()).count();
        assert!(timeouts > 150 && seen.len() > 2 * timeouts - 20, "{timeouts} of {}", seen.len());
        // Poisson arrivals put deadlines a fraction of a millisecond apart:
        // no op may time out at an earlier op's deadline.
        let mut sim = rig(8, pbs_workload::Poisson::per_second(200.0), 1_024, swallow_odd);
        sim.inject(1, 0.0, START);
        let seen = run_recording(&mut sim, 1_000.0);
        assert_deadlines_exact(&seen, swallow_odd);
        let timeouts = seen.iter().filter(|(_, op)| op.finish.is_none()).count();
        assert!(timeouts > 500, "{timeouts} of {}", seen.len());
    }

    #[test]
    fn completed_ops_leave_the_fifo_without_an_event_each() {
        let mut sim = rig(8, FixedRate::new(1.0), 1_024, |_| false);
        sim.inject(1, 0.0, START);
        let seen = run_recording(&mut sim, 2_000.0);
        assert!(seen.len() > 15_000, "8 clients x 1 op/ms x 2 s, got {}", seen.len());
        assert!(seen.iter().all(|(_, op)| op.finish.is_some()), "no op may time out");
        // One timer event per timeout span, not one per op; the queue holds
        // replies in flight plus the two table timers, and the FIFO at most
        // the ops issued within one span.
        let peak_pending = sim.scheduler_stats().peak_pending;
        assert!(peak_pending <= 8 * (REPLY_MS as usize + 1) + 2, "peak queue {peak_pending}");
        let (table, timer_events) = table_of(&mut sim);
        assert!(
            timer_events <= 2_000 / (TIMEOUT_MS - REPLY_MS) as u64 + 1,
            "{timer_events} events"
        );
        assert!(table.timeouts.len() <= 8 * (TIMEOUT_MS as usize + 1), "{}", table.timeouts.len());
        // Stopped and drained, the table disarms: nothing is left queued.
        sim.inject(1, 0.0, STOP);
        sim.run_until_idle();
        assert_eq!(sim.pending_events(), 0);
        let (table, _) = table_of(&mut sim);
        assert_eq!((table.in_flight.len(), table.timeouts.len()), (0, 0));
    }

    #[test]
    fn overflow_ops_and_restarts_keep_exact_deadlines() {
        // A 10 ms gap against 25 ms replies and 60 ms timeouts: each client
        // holds several ops at once and sheds at the cap of 3.
        let swallow_some = |op_id: u64| op_id as u32 % 3 == 1;
        let mut sim = rig(2, FixedRate::new(10.0), 3, swallow_some);
        sim.inject(1, 0.0, START);
        let mut seen = run_recording(&mut sim, 95.0);
        // Stop with ops in flight and the timer armed; restart before any
        // of them is due, …
        sim.inject(1, 0.0, STOP);
        seen.extend(run_recording(&mut sim, 120.0));
        sim.inject(1, 0.0, START);
        seen.extend(run_recording(&mut sim, 300.0));
        // … then stop until the FIFO has drained and the timer is disarmed,
        // and start again.
        sim.inject(1, 0.0, STOP);
        seen.extend(run_recording(&mut sim, 600.0));
        assert_eq!(sim.pending_events(), 0, "no timer left armed");
        let (table, _) = table_of(&mut sim);
        assert_eq!((table.in_flight.len(), table.timeouts.len()), (0, 0));
        sim.inject(1, 0.0, START);
        seen.extend(run_recording(&mut sim, 800.0));
        sim.inject(1, 0.0, STOP);
        sim.run_until_idle();
        table_of(&mut sim).0.completed.clear();

        assert_deadlines_exact(&seen, swallow_some);
        let (table, _) = table_of(&mut sim);
        let stats = table.stats();
        assert!(stats.shed > 0, "arrivals beyond the cap are shed");
        assert!(seen.len() as u64 + 16 >= stats.issued && stats.issued > 60, "{stats:?}");
        assert!(table.in_flight.is_empty());
    }

    #[test]
    fn take_in_flight_flushes_clients_holding_several_ops() {
        // Nothing is answered: by 45 ms each client has issued 3 reads up
        // to its cap and shed its fourth arrival, and none is due yet.
        let mut sim = rig(2, FixedRate::new(10.0), 3, |_| true);
        sim.inject(1, 0.0, START);
        assert!(run_recording(&mut sim, 45.0).is_empty());
        sim.inject(1, 0.0, STOP);
        let (table, _) = table_of(&mut sim);
        let open = table.take_in_flight();
        assert_eq!(open.len(), 6);
        assert!(open.iter().all(|op| op.kind == OpKind::Read && op.finish.is_none()));
        assert!(open.windows(2).all(|w| w[0].op_id < w[1].op_id), "sorted by op id");
        assert_eq!(table.stats().shed, 2);
        assert!(table.rows.iter().all(|r| r.in_flight == 0));
        assert!(table.take_in_flight().is_empty());
        // The deadlines of flushed ops pass without a timeout record.
        assert!(run_recording(&mut sim, 500.0).is_empty());
    }

    #[test]
    fn serial_and_parallel_engines_record_the_same_ops() {
        use crate::cluster::{Cluster, ClusterOptions, EngineKind};
        use pbs_dist::Pareto;
        // Heavy-tailed legs under a 4 ms client timeout: a good share of
        // the ops time out, the rest complete.
        let run = |kind: EngineKind| {
            let replication = pbs_core::ReplicaConfig::new(3, 2, 2).unwrap();
            let mut opts = ClusterOptions::validation(replication, 31);
            opts.nodes = 8;
            let net = crate::network::NetworkModel::w_ars(
                Arc::new(Pareto::new(1.5, 1.2)),
                Arc::new(Pareto::new(0.8, 2.0)),
            );
            let mut cluster = Cluster::with_engine(opts, net, kind).unwrap();
            for _ in 0..6 {
                let source = pbs_workload::OpStream::new(
                    pbs_workload::Poisson::per_second(200.0),
                    pbs_workload::UniformKeys::new(8),
                    pbs_workload::OpMix::new(0.5),
                    1,
                );
                let copts = ClientOptions { op_timeout_ms: 4.0, ..ClientOptions::default() };
                cluster.add_client(Box::new(source), copts);
            }
            cluster.start_clients();
            let mut ops = Vec::new();
            for window in 1..=8u32 {
                let drain = cluster.drain_window(SimTime::from_ms(f64::from(window) * 100.0));
                ops.extend(drain.writes.iter().copied());
                ops.extend(drain.reads.iter().map(|r| r.op));
            }
            ops
        };
        let serial = run(EngineKind::SerialPartitioned { workers: 2 });
        let parallel = run(EngineKind::Parallel { workers: 2 });
        assert_eq!(serial, parallel);
        let timeouts = serial.iter().filter(|op| op.finish.is_none()).count();
        assert!(timeouts > 50 && serial.len() > 2 * timeouts, "{timeouts} of {}", serial.len());
    }

    fn arena_len(arena: &SessionArena) -> usize {
        arena.segments.iter().map(|s| s.len).sum()
    }

    #[test]
    fn session_arena_isolates_clients_and_keys() {
        let mut a = SessionArena::new();
        a.entry(3, 7).last_read_seq = 10;
        a.entry(3, 8).last_write_seq = 20;
        a.entry(4, 7).last_read_seq = 30;
        assert_eq!(a.entry(3, 7).last_read_seq, 10);
        assert_eq!(a.entry(3, 7).last_write_seq, 0);
        assert_eq!(a.entry(3, 8).last_write_seq, 20);
        assert_eq!(a.entry(4, 7).last_read_seq, 30);
        assert_eq!(arena_len(&a), 3);
        // Survives growth: insert enough pairs to force several rehashes.
        for k in 0..1000u64 {
            a.entry(9, k).last_read_seq = k;
        }
        for k in 0..1000u64 {
            assert_eq!(a.entry(9, k).last_read_seq, k);
        }
        assert_eq!(a.entry(3, 7).last_read_seq, 10, "old entries survive rehash");
    }

    /// Seeded `entry`/`get_mut` interleavings against a hash map, over
    /// enough pairs that every segment doubles several times: every value
    /// and the pair count match, and a `get_mut` of an absent pair inserts
    /// nothing.
    #[test]
    fn session_arena_matches_a_map_and_lookups_insert_nothing() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(44);
        let mut arena = SessionArena::new();
        let mut reference: FxHashMap<(u32, u64), (u64, u64)> = FxHashMap::default();
        assert!(arena.get_mut(0, 0).is_none() && arena.segments.is_empty());
        for step in 0..600_000u64 {
            // 3,000 clients × 200 keys, keys spread over the whole u64 range.
            let client = rng.gen_range(0..3_000u32) * 5_000;
            let key = rng.gen_range(0..200u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let seq = rng.gen_range(1..1_000u64);
            if rng.gen_range(0..2u32) == 0 {
                let slot = arena.entry(client, key);
                let expected = reference.entry((client, key)).or_insert((0, 0));
                assert_eq!((slot.last_read_seq, slot.last_write_seq), *expected, "step {step}");
                slot.last_write_seq = slot.last_write_seq.max(seq);
                expected.1 = expected.1.max(seq);
            } else {
                match (arena.get_mut(client, key), reference.get_mut(&(client, key))) {
                    (Some(slot), Some(expected)) => {
                        assert_eq!((slot.client, slot.key), (client, key));
                        assert_eq!((slot.last_read_seq, slot.last_write_seq), *expected);
                        slot.last_read_seq = slot.last_read_seq.max(seq);
                        expected.0 = expected.0.max(seq);
                    }
                    (None, None) => {}
                    (got, want) => panic!("step {step}: arena {:?}, map {want:?}", got.is_some()),
                }
            }
            if step % 4_096 == 0 {
                assert_eq!(arena_len(&arena), reference.len(), "step {step}");
            }
        }
        assert!(reference.len() > 100_000, "{} pairs", reference.len());
        assert_eq!(arena_len(&arena), reference.len());
        // 16 slots to start: every segment has doubled at least seven times.
        assert!(arena.segments.iter().all(|s| s.slots.len() >= 16 << 7));
        for (&(client, key), &(read, write)) in &reference {
            let slot = arena.get_mut(client, key).expect("every inserted pair has a slot");
            assert_eq!((slot.last_read_seq, slot.last_write_seq), (read, write));
        }
        for client in 3_000..3_100u32 {
            assert!(arena.get_mut(client * 5_000, 0).is_none());
        }
        assert_eq!(arena_len(&arena), reference.len(), "lookups inserted nothing");
    }
}
