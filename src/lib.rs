//! # PBS — Probabilistically Bounded Staleness for Practical Partial Quorums
//!
//! A full reproduction of Bailis et al., VLDB 2012, as a Rust workspace.
//! This façade crate re-exports every subsystem so examples and downstream
//! users can depend on a single crate:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`math`] | `pbs-core` | Closed-form Eqs. 1–4, load bounds |
//! | [`dist`] | `pbs-dist` | Latency distributions, mixture fitting, stats |
//! | [`mc`] | `pbs-mc` | Deterministic sharded runner, streaming sketches |
//! | [`sim`] | `pbs-sim` | Deterministic discrete-event simulation kernel |
//! | [`kvs`] | `pbs-kvs` | Dynamo-style quorum-replicated KV store |
//! | [`wars`] | `pbs-wars` | WARS Monte Carlo t-visibility engine, Eq. 5 |
//! | [`quorum`] | `pbs-quorum` | Quorum-system constructions & analysis |
//! | [`workload`] | `pbs-workload` | Arrival processes, key popularity, sessions |
//! | [`predictor`] | `pbs-predictor` | SLA optimizer, online prediction |
//! | [`scenario`] | `pbs-scenario` | Closed-loop chaos scenarios + adaptive reconfiguration |
//!
//! ## Thirty-second tour
//!
//! ```
//! use pbs::math::{ReplicaConfig, staleness};
//! use pbs::wars::{production, TVisibility};
//!
//! // How consistent is Cassandra's default N=3, R=W=1?
//! let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
//! let p_miss = staleness::non_intersection_probability(cfg); // 2/3 per read…
//! assert!(p_miss > 0.6);
//!
//! // …in versions. In *time*, production latencies close the gap fast:
//! let model = production::lnkd_ssd_model(cfg);
//! let curve = TVisibility::simulate(&model, 10_000, 42);
//! // Already >90% consistent immediately after commit, and ~100% within 5ms.
//! assert!(curve.prob_consistent(0.0) > 0.9);
//! assert!(curve.prob_consistent(5.0) > 0.999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pbs_core as math;
pub use pbs_dist as dist;
pub use pbs_kvs as kvs;
pub use pbs_mc as mc;
pub use pbs_predictor as predictor;
pub use pbs_quorum as quorum;
pub use pbs_scenario as scenario;
pub use pbs_sim as sim;
pub use pbs_wars as wars;
pub use pbs_workload as workload;
