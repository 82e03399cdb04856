//! # pbs-core — closed-form Probabilistically Bounded Staleness
//!
//! This crate implements the analytical backbone of *"Probabilistically
//! Bounded Staleness for Practical Partial Quorums"* (Bailis et al., VLDB
//! 2012):
//!
//! * **Equation 1** — probability a random read quorum misses the last write
//!   quorum ([`staleness::non_intersection_probability`]).
//! * **Equation 2** — PBS *k-staleness*: the miss probability is
//!   exponentially reduced by tolerating `k` versions of staleness
//!   ([`staleness::k_staleness_violation`]).
//! * **Equation 3** — PBS *monotonic reads* as a k-staleness special case
//!   with `k = 1 + γgw/γcr` ([`staleness::monotonic_reads_violation`]).
//! * **Equation 4** — PBS *t-visibility* for expanding quorums with
//!   instantaneous reads, stragglers receiving the write after i.i.d.
//!   exponential delays ([`tvisibility::t_visibility_violation`]; `fig4`
//!   inverts it at 99.9%).
//! * **Equation 5** — PBS *⟨k,t⟩-staleness*, Eq. 4's violation to the
//!   `k`-th power, lives with the WARS curves it exponentiates
//!   (`pbs_wars::TVisibility::kt_violation`).
//! * **§3.3** — load/capacity improvements for staleness-tolerant quorum
//!   systems ([`load`]).
//!
//! Everything here is deterministic, allocation-free in steady state, and has
//! no dependencies; the Monte-Carlo machinery lives in `pbs-wars` and the
//! simulated data store in `pbs-kvs`.
//!
//! ## Quick example
//!
//! ```
//! use pbs_core::{ReplicaConfig, staleness};
//!
//! // Cassandra's defaults: N=3, R=W=1 (partial quorum).
//! let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
//! assert!(!cfg.is_strict());
//!
//! // Probability a read misses the most recent write (Eq. 1): 2/3.
//! let p1 = staleness::non_intersection_probability(cfg);
//! assert!((p1 - 2.0 / 3.0).abs() < 1e-12);
//!
//! // …but the probability of being >2 versions stale is smaller (Eq. 2):
//! // (2/3)^2 = 4/9.
//! let p2 = staleness::k_staleness_violation(cfg, 2);
//! assert!((p2 - 4.0 / 9.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod combinatorics;
pub mod config;
pub mod error;
pub mod load;
pub mod staleness;
pub mod tvisibility;

pub use config::ReplicaConfig;
pub use error::ConfigError;
