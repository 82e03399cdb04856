//! # pbs-quorum — quorum-system constructions and probabilistic analysis
//!
//! §2.1 of the PBS paper surveys the quorum-system design space this crate
//! implements:
//!
//! * **strict** systems, where any two quorums intersect — [`Majority`],
//!   [`Grid`] (Naor–Wool row∪column) and [`TreeQuorum`] (Agrawal–El Abbadi);
//! * **probabilistic / partial** systems — [`RandomFixed`], the
//!   `W`-of-`N` / `R`-of-`N` random-quorum model behind every PBS closed
//!   form;
//! * **deterministic k-quorums** — [`kquorum::RoundRobinWriter`], the
//!   single-writer construction whose reads are never more than `k`
//!   versions stale (Aiyer et al., §2.1).
//!
//! [`analysis`] provides Monte-Carlo intersection probability, k-staleness,
//! and load measurements for any [`QuorumSystem`], cross-validated against
//! the `pbs-core` closed forms where those exist.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod kquorum;
pub mod nodeset;
pub mod systems;

pub use analysis::{intersection_probability, k_staleness_mc, measure_load};
pub use nodeset::NodeSet;
pub use systems::{Grid, Majority, QuorumSystem, RandomFixed, TreeQuorum};
