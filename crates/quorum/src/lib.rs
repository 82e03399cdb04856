//! # pbs-quorum — quorum-system constructions and probabilistic analysis
//!
//! §2.1 of the PBS paper surveys the quorum-system design space this crate
//! samples. A [`QuorumSystem`] is its read and write quorum families, each
//! a predicate over who answered
//! ([`is_read_quorum`](QuorumSystem::is_read_quorum),
//! [`is_write_quorum`](QuorumSystem::is_write_quorum)) with a sampler that
//! draws a member and the exact probability that the sampler includes each
//! replica ([`inclusion`](QuorumSystem::inclusion)):
//!
//! * **the counted system** — [`pbs_core::ReplicaConfig`], uniformly random
//!   `R`-of-`N` reads and `W`-of-`N` writes, the model behind every PBS
//!   closed form. It is partial when `R + W ≤ N` and strict otherwise;
//!   [`ReplicaConfig::majority`](pbs_core::ReplicaConfig::majority) is its
//!   majority case;
//! * **strict** constructions, where any two quorums intersect — [`Grid`]
//!   (Naor–Wool row∪column) and [`TreeQuorum`] (Agrawal–El Abbadi);
//! * **deterministic k-quorums** — [`kquorum::RoundRobinWriter`], the
//!   single-writer construction whose reads are never more than `k`
//!   versions stale (Aiyer et al., §2.1).
//!
//! [`analysis`] estimates intersection probability and k-staleness by Monte
//! Carlo for any [`QuorumSystem`] over at most 64 replicas, cross-validated
//! against the `pbs-core` closed forms where those exist, and computes a
//! system's load exactly from its inclusion probabilities.
//! The `pbs-kvs` store's coordinators complete every read and write on the
//! predicates, over the preference-list positions that have answered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod kquorum;
pub mod nodeset;
pub mod systems;

pub use analysis::{intersection_probability, k_staleness_mc, load};
pub use nodeset::NodeSet;
pub use systems::{Grid, QuorumSystem, TreeQuorum};
