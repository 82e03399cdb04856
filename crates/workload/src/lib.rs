//! # pbs-workload — workload generation for the PBS store and models
//!
//! The paper's experiments need three workload ingredients, all provided
//! here:
//!
//! * [`arrivals`] — when operations happen (fixed-rate, Poisson, and
//!   piecewise-nonstationary [`PiecewisePoisson`] processes).
//!   §5.2's validation interleaves writes with concurrent reads; §3.2's
//!   monotonic-reads model is parameterised by rates; `pbs-scenario`'s
//!   load timelines are piecewise schedules.
//! * [`keys`] — which keys they touch (uniform, Zipf). Dynamo-style
//!   stores shard one quorum system per key (§2.2), so key popularity drives
//!   per-key write rates γgw.
//! * [`ops`] and [`session`] — read/write mixes, streaming operation
//!   sources ([`OpStream`] — what the open-loop client actors in `pbs-kvs`
//!   pull from), and per-client session models for measuring
//!   monotonic-reads violations.
//!
//! All generation is deterministic given an RNG, matching the workspace's
//! reproducibility rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod keys;
pub mod ops;
pub mod session;

pub use arrivals::{
    ArrivalProcess, FixedRate, PiecewisePoisson, Poisson, ScheduleError, StationaryArrivals,
};
pub use keys::{KeyChooser, UniformKeys, Zipf, ZipfCdf};
pub use ops::{Op, OpKind, OpMix, OpSource, OpStream, SharedOpSource, SharedStream};
pub use session::SessionModel;
