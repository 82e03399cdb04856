//! # pbs-kvs — a Dynamo-style quorum-replicated key-value store
//!
//! The substrate for the paper's §5.2 validation: a faithful implementation
//! of the Dynamo replication protocol (§2.2) running on the deterministic
//! discrete-event simulator from `pbs-sim`, with per-message latencies drawn
//! from the same W/A/R/S distributions the paper injected into Cassandra.
//!
//! Implemented protocol surface:
//!
//! * **Coordinated quorum writes/reads** — a coordinator forwards each
//!   operation to all `N` replicas and answers the client after `W` acks
//!   (`R` responses), exactly as in Figure 1 of the paper. Replica sets
//!   come from a consistent-hashing [`Ring`] with virtual nodes.
//! * **Expanding quorums** — replicas keep receiving the write after
//!   commit; reads race those deliveries, which is the entire source of
//!   staleness being studied.
//! * **Read repair** (§4.2) — optional; disabled for validation runs, as the
//!   paper disabled it in Cassandra.
//! * **Merkle-style anti-entropy** (§4.2) — optional periodic digest
//!   exchange (Cassandra's `nodetool repair` analogue).
//! * **Hinted handoff and failure injection** (§6 "Failure modes") — nodes
//!   crash and recover (optionally losing state), messages can be dropped,
//!   coordinators stash hints for unresponsive replicas.
//! * **Asynchronous staleness detection** (§4.3) — coordinators compare the
//!   `N − R` late read responses against the returned value and log
//!   potential staleness, with ground-truth labelling to measure the false
//!   positive rate.
//! * **Buggify fault injection** — a seed-driven [`buggify::FaultProfile`]
//!   installed on the [`NetworkModel`] drops, duplicates, reorders, and
//!   slows messages, lags replica disk applies, and skews per-node protocol
//!   clocks, all bit-reproducibly; the [`checker`] module replays recorded
//!   op histories as an independent oracle for the streaming session
//!   guarantees, the online staleness labels, and replica convergence.
//!
//! Each node is a sans-io protocol core — [`node::Node`], which takes
//! [`node::Input`]s and answers in [`node::Output`]s over the typed
//! [`messages`] — hosted in the simulator by a crate-private shell that
//! alone knows the network model, the injected faults and how a timer is
//! encoded.
//!
//! Ground-truth staleness comes from [`staleness::GroundTruth`]: the harness
//! records every commit (version, commit time) and labels every read against
//! the versions actually committed before it started — the oracle the paper
//! could only approximate with instrumentation.
//!
//! Two client paths drive the store, and a finished operation is the same
//! record on both — a [`CompletedOp`], paired with its ground-truth label
//! as a [`checker::HistoryOp`] — which is also what
//! [`Cluster::enable_history`] records for the [`checker`]:
//!
//! * **Blocking** — [`Cluster::write`]/[`Cluster::read`] serialise one
//!   operation at a time (the §5.2 probe shape used by
//!   [`experiments`]) and return its record.
//! * **Open loop** — in-sim clients (one client table per PDES worker,
//!   one cache-line row per client) generate arrivals lazily from streaming `pbs-workload`
//!   sources and keep thousands of operations in flight;
//!   [`OpenLoopRun`] drives them window by window ([`WindowDrain`] holds
//!   the records that finished in one) with online
//!   (watermark-based) staleness labelling and O(clients + in-flight)
//!   memory — about a cache line per client, so a single process sustains
//!   millions of them. See [`openloop`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Keeps the private modules below sealed: a `pub` item in one of them that
// the crate root does not re-export is flagged, and once it is `pub(crate)`
// rustc's `dead_code` lint sees whether anything still uses it.
#![warn(unreachable_pub)]

pub mod buggify;
pub mod checker;
mod client;
pub mod cluster;
pub mod experiments;
mod fxhash;
pub mod merkle;
pub mod messages;
pub mod network;
pub mod node;
pub mod openloop;
mod partition;
mod ring;
mod shell;
pub mod staleness;
pub mod version;

pub use buggify::{
    Delivery, FaultConfigError, FaultProfile, FaultSchedule, ProtocolMutations, ScheduleSegment,
};
pub use checker::{
    check_order, CheckReport, ConvergenceCheck, CrashRecord, KeyLinResult, KeyLinVerdict,
    LabelCheck, LinCheck, LinOptions, LinViolation, OpHistory, OrderCheck, OrderViolation,
    SessionCheck,
};
pub use client::{ClientOptions, ClientStats, CompletedOp};
pub use cluster::{Cluster, ClusterOptions, DetectorStats, EngineKind, WindowDrain, WindowOp};
pub use network::NetworkModel;
pub use openloop::{DriveStep, OpenLoopOptions, OpenLoopReport, OpenLoopRun, OpenWindow};
pub use ring::Ring;
pub use version::Version;
