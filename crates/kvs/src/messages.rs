//! The message vocabulary of the Dynamo-style protocol, as typed unions:
//! what a client may send a node ([`ClientToNode`]), what nodes send each
//! other ([`NodeToNode`]), what a node answers a client ([`NodeToClient`]),
//! and the harness's controls for either side ([`NodeControl`] and the
//! crate-private `ClientControl`). The simulator carries one message type,
//! so the unions are wrapped once, by receiver, in `Msg`: a node cannot
//! be handed an operation result, nor a client table a replica write.
//! Deferred work is a message too: an actor that wants to act later sends
//! itself a typed timer ([`NodeTimer`], `ClientTimer`) with the delay.

use crate::node::NodeTimer;
use crate::version::Version;
use pbs_sim::{ActorId, SimTime};

/// Client → coordinator. Issued either by an in-sim client (open loop) or
/// injected by the blocking harness. The coordinator computes the
/// preference list from its ring and assigns the write's sequence number
/// when the operation actually starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientToNode {
    /// Begin a quorum write of `key`.
    Write {
        /// Globally unique operation id (allocated by the issuer).
        op_id: u64,
        /// Target key.
        key: u64,
    },
    /// Begin a quorum read of `key`.
    Read {
        /// Globally unique operation id.
        op_id: u64,
        /// Target key.
        key: u64,
    },
}

/// Coordinator → client: a completed operation, routed back to whoever
/// issued it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeToClient {
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

impl NodeToClient {
    /// The operation id.
    pub(crate) fn op_id(&self) -> u64 {
        match self {
            NodeToClient::Write { op_id, .. } | NodeToClient::Read { op_id, .. } => *op_id,
        }
    }
}

/// Node ↔ node: coordinator → replica, replica → coordinator, and the
/// anti-entropy exchanges.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeToNode {
    // ----- coordinator → replica -----
    /// Replica-level write.
    ReplicaWrite {
        /// Operation id.
        op_id: u64,
        /// Target key.
        key: u64,
        /// Version being installed.
        version: Version,
        /// Where to send the ack.
        coordinator: ActorId,
    },
    // ----- replica → itself (fault injection) -----
    /// A [`NodeToNode::ReplicaWrite`] apply deferred by buggify disk lag:
    /// the replica re-delivers the write to itself after the lag and only
    /// then applies it and acks the coordinator. Lost if the replica
    /// crashes before the lag elapses — exactly like an fsync that never
    /// happened.
    DiskApply {
        /// Operation id.
        op_id: u64,
        /// Target key.
        key: u64,
        /// Version being installed.
        version: Version,
        /// Where to send the ack.
        coordinator: ActorId,
    },
    /// Replica-level read.
    ReplicaRead {
        /// Operation id.
        op_id: u64,
        /// Target key.
        key: u64,
        /// Where to send the response.
        coordinator: ActorId,
    },

    // ----- replica → coordinator -----
    /// Acknowledgment of a [`NodeToNode::ReplicaWrite`].
    WriteAck {
        /// Operation id.
        op_id: u64,
        /// Acknowledging replica.
        replica: ActorId,
    },
    /// Response to a [`NodeToNode::ReplicaRead`].
    ReadResp {
        /// Operation id.
        op_id: u64,
        /// Responding replica.
        replica: ActorId,
        /// The replica's stored version (None if it has never seen the key).
        version: Option<Version>,
    },

    // ----- anti-entropy -----
    /// Asynchronous repair write (read repair §4.2, hinted handoff §6); not
    /// acknowledged toward any quorum.
    RepairWrite {
        /// Target key.
        key: u64,
        /// Version to merge (replicas keep the max).
        version: Version,
    },
    /// Hinted write delivered after a failure; acknowledged so the hint can
    /// be discarded.
    HintedWrite {
        /// Target key.
        key: u64,
        /// Version to merge.
        version: Version,
        /// Where to send the [`NodeToNode::HintAck`].
        coordinator: ActorId,
    },
    /// Acknowledgment of a [`NodeToNode::HintedWrite`].
    HintAck {
        /// Target key.
        key: u64,
        /// Version that was delivered.
        version: Version,
        /// Acknowledging replica.
        replica: ActorId,
    },
    /// Merkle-style digest of the sender's keys (bucketed hashes).
    SyncDigest {
        /// Requesting node (receives the diff).
        from: ActorId,
        /// Per-bucket XOR hashes of the sender's (key, version) pairs.
        buckets: Vec<u64>,
    },
    /// Entries for buckets that differed, flowing responder → requester.
    SyncDiff {
        /// Responding node (receives the reverse diff).
        from: ActorId,
        /// The responder's `(key, version)` pairs in differing buckets.
        entries: Vec<(u64, Version)>,
        /// Ids of the differing buckets (so the requester can push back its
        /// own entries for those buckets).
        differing: Vec<u32>,
    },
    /// Reverse direction of a sync: the original requester's entries for the
    /// differing buckets.
    SyncDiffReply {
        /// `(key, version)` pairs to merge.
        entries: Vec<(u64, Version)>,
    },
}

/// Harness → node: failure injection and lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeControl {
    /// Crash the receiving node for the given duration.
    Crash {
        /// Downtime in milliseconds.
        down_ms: f64,
        /// Whether the node loses its store contents (cold restart).
        wipe: bool,
    },
    /// Start the periodic anti-entropy timer, at the node's own
    /// `sync_interval_ms`.
    StartSync,
    /// Start the periodic pending-op sweep: entries older than the node's
    /// `op_timeout_ms` are garbage-collected so coordinator memory stays
    /// bounded by in-flight operations.
    StartGc,
}

/// Harness → client table: load generation on and off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClientControl {
    /// Begin generating load: schedules every client's first arrival.
    Start,
    /// Stop generating load: no further arrivals are issued; operations
    /// already in flight complete or time out normally.
    Stop,
}

/// A timer a client table sets on itself. The table keeps two armed —
/// the next arrival and the next op deadline — whatever its client count,
/// plus one per probe read in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClientTimer {
    /// The earliest queued arrival is due.
    Arrival,
    /// The oldest issued op's deadline has passed.
    OpTimeout,
    /// The §5.2 probe: `client` reads `key`, its write having committed
    /// `probe_read_offset_ms` ago.
    ProbeRead {
        /// The probing client's index.
        client: u32,
        /// The key its write committed on.
        key: u64,
    },
}

/// Everything a node can receive.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NodeIn {
    /// A client's request.
    Client(ClientToNode),
    /// Another node's (or, for a deferred disk apply, its own) message.
    Peer(NodeToNode),
    /// The harness's crash and lifecycle controls.
    Control(NodeControl),
    /// A timer the node set on itself has come due.
    Timer(NodeTimer),
}

/// Everything a client table can receive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ClientIn {
    /// A coordinator's answer.
    Reply(NodeToClient),
    /// The harness's start / stop.
    Control(ClientControl),
    /// A timer the table set on itself has come due.
    Timer(ClientTimer),
}

/// The simulator's message type: a receiver's union, tagged by the kind of
/// receiver.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Msg {
    /// Addressed to a storage node.
    Node(NodeIn),
    /// Addressed to a client table.
    Clients(ClientIn),
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_sim::Event;
    use std::mem::size_of;

    /// Every queued event carries one `Msg`; an operation result is its
    /// largest payload and sets the size.
    #[test]
    fn wrapping_the_unions_adds_no_bytes_to_an_event() {
        assert_eq!(size_of::<NodeToClient>(), 72);
        assert_eq!(size_of::<Msg>(), 72);
        assert_eq!(size_of::<Event<Msg>>(), 80);
    }
}
