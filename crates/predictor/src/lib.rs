//! # pbs-predictor — SLA-driven replication tuning on top of PBS
//!
//! §6 of the paper sketches what PBS predictions enable: *"we can
//! automatically configure replication parameters by optimizing operation
//! latency given constraints on staleness and minimum durability…
//! operators can subsequently provide service level agreements to
//! applications"*. This crate builds that layer:
//!
//! * [`Predictor`] — one WARS t-visibility run for a configuration:
//!   `P(consistent)` at a read offset and the expected consistency under
//!   Poisson commits, with the run itself (t-visibility, ⟨k,t⟩-staleness,
//!   latency percentiles) behind [`Predictor::tvisibility`].
//! * [`sla`] — exhaustive `O(N²)` search over `(R, W)` (optionally over
//!   `N`) for the lowest-latency configuration meeting staleness,
//!   durability, and latency constraints; strict quorums are judged
//!   exactly, only partial ones simulate staleness.
//! * [`adaptive`] — a sliding-window controller that refits empirical
//!   distributions as conditions drift and re-runs the optimizer (§6
//!   "Variable configurations"). It is the one way from **measured**
//!   latency samples (e.g. drained out of a `pbs-kvs` run — the
//!   online-profiling loop of §5.5/§6) to a [`Predictor`].
//!
//! Every Monte-Carlo entry point here takes its shard count as an argument
//! ([`Predictor::from_model_threads`], [`sla::optimize`]) or defaults it
//! to 1 ([`AdaptiveController::with_threads`]); the crate never reads the
//! host's core count, so a prediction depends on `(seed, threads)` alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod predictor;
pub mod sla;

pub use adaptive::{AdaptiveController, AdaptiveError};
pub use predictor::Predictor;
pub use sla::{ConfigEvaluation, SlaError, SlaReport, SlaSpec};
