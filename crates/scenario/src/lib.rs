//! # pbs-scenario — closed-loop chaos scenarios for the PBS store
//!
//! §6 of the paper sketches *online* PBS: sample WARS latencies from a
//! live cluster, refit, and retune `(N, R, W)` as conditions drift. This
//! crate closes that loop end-to-end on the simulated store:
//!
//! * [`Scenario`] — a declarative, seeded timeline: a cluster + network
//!   baseline, a piecewise (nonstationary) probe-load schedule reusing
//!   `pbs_workload::arrivals`, and timed fault [`event`]s — node crashes,
//!   network partitions and heals, latency regime swaps and restores,
//!   and buggify fault schedules injected and cleared — applied to a
//!   **running** cluster through `pbs-kvs`'s dynamic `NetworkModel`
//!   conditions. Each of the seven events is used by a built-in scenario.
//! * [`run_scenario`] — the closed-loop driver: write→read probes labelled
//!   against ground truth, with an in-loop
//!   [`AdaptiveController`](pbs_predictor::AdaptiveController) that drains
//!   the cluster's measured leg samples on a cadence, refits, predicts the
//!   current configuration's consistency, and (when the scenario is
//!   adaptive) applies the SLA optimizer's winning configuration live via
//!   `Cluster::set_replication`.
//! * [`run_scenario_sharded`] — whole-scenario replication on the
//!   deterministic `pbs-mc` runner: `trials` independent runs shard
//!   across threads and their windowed time-series merge, giving
//!   confidence intervals that are bit-reproducible for a fixed
//!   `(seed, threads)` pair.
//!
//! The output is a windowed time-series ([`ScenarioRun`]) of predicted
//! vs. measured consistency, latency summaries, availability losses, and
//! applied reconfigurations — regenerate it from the CLI with
//! `cargo run --release --bin scenarios -- --scenario latency-spike`.
//!
//! Scenarios compose with the buggify layer: a seeded
//! [`FaultSchedule`](pbs_kvs::FaultSchedule) — constant or time-varying —
//! rides the timeline like any other fault, as a
//! [`ScenarioEvent::InjectFaults`] (at 0 ms for a whole-run storm) and a
//! `ClearFaults`; `check_history` runs the offline
//! [`checker`](pbs_kvs::checker) as a post-pass — the verdict lands in
//! [`ScenarioRun::check`].
//!
//! Five built-in scenarios ship with the crate: `diurnal-load` (a
//! repeating day/night load cycle), `latency-spike` (a write-leg regime
//! shift and recovery), `rolling-partition` (each node isolated in
//! turn), `buggify-storm` (every buggify fault at once, with the checker
//! post-pass), and `crash-storm` (a scheduled calm→storm→calm fault
//! window with two crashes inside it and every healing mechanism on,
//! audited down to final-state convergence). See [`Scenario::by_name`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod event;
pub mod scenario;

pub use driver::{run_scenario, run_scenario_sharded, ReconfigRecord, ScenarioRun, WindowRecord};
pub use event::{apply_event, ScenarioEvent, TimedEvent};
pub use scenario::{ControlOptions, Scenario};
