//! # pbs-wars — the WARS latency model, Monte Carlo engine
//!
//! §4.1 of the PBS paper models a Dynamo-style write-then-read as four
//! one-way message delays per replica:
//!
//! * **W** — coordinator → replica write propagation,
//! * **A** — replica → coordinator write acknowledgment,
//! * **R** — coordinator → replica read request,
//! * **S** — replica → coordinator read response.
//!
//! A write *commits* when the coordinator has `W` acknowledgments (at the
//! `W`-th smallest `W[i] + A[i]`, time `w_t`). A read issued `t` after
//! commit returns stale data iff **every** one of the first `R` read
//! responses left its replica before that replica received the write:
//! `w_t + R[i] + t < W[i]` for all `i` among the first `R` responders
//! (ordered by `R[i] + S[i]`).
//!
//! The analytical form is a gnarly pair of dependent order statistics
//! (§4.1), so the paper — and this crate — evaluates it by Monte Carlo
//! (§5.1). The key implementation observation (see [`trial`]) is that each
//! trial yields a single *staleness threshold* `T`, the smallest `t` at
//! which that trial's read would have been consistent; the distribution of
//! thresholds therefore answers *every* `t`-query and inverts to
//! "t at 99.9% consistency" directly.
//!
//! Execution runs on the deterministic sharded runner and streaming
//! summaries of `pbs-mc`: shard `i` seeds from `rand::child(seed, i)`,
//! per-shard quantile sketches merge in shard order, so results are
//! bit-reproducible for a fixed `(seed, threads)` pair and peak memory is
//! independent of the trial count.
//!
//! A trial's draws depend on `N` alone, so there is **one sample stream per
//! (model, N, seed)** and configurations are views of it: a trial is sampled
//! and prepared once ([`trial::TrialScratch::prepare`]) and every `(R, W)` is
//! read off it ([`trial::PreparedTrial`]). [`TVisibility::simulate_grid`]
//! does that for any set of pairs; simulating one configuration is its
//! one-pair case.
//!
//! Modules: [`model`] (how a trial's W/A/R/S delays are sampled),
//! [`production`] (Table 3's production fits and §5.3's exponential
//! models), [`trial`] (one trial's commit time, latencies and staleness
//! threshold), [`tvisibility`] (the Monte-Carlo curves and percentiles) and
//! [`kt`] (direct multi-write ⟨k,t⟩-staleness).
//!
//! Entry points: [`TVisibility::simulate`] (single-threaded, deterministic),
//! [`TVisibility::simulate_parallel`] and [`TVisibility::simulate_grid`].
//! Every figure and table is one of these calls per point or per grid; the
//! record a grid is judged into — Table 4's rows, §6's SLA search — is
//! `pbs_predictor::sla::ConfigEvaluation`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kt;
pub mod model;
pub mod production;
pub mod trial;
pub mod tvisibility;

pub use model::{IidModel, LatencyModel, WanModel, WarsSample};
pub use trial::TrialResult;
pub use tvisibility::TVisibility;
