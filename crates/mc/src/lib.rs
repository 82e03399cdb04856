//! # pbs-mc — deterministic parallel Monte Carlo with streaming statistics
//!
//! The execution substrate for every Monte-Carlo estimate in the PBS
//! reproduction (t-visibility curves, ⟨k,t⟩-staleness, quorum loads,
//! cluster-simulation probes). Two pieces:
//!
//! * [`Runner`] — a deterministic sharded trial runner. `trials` split
//!   across `threads` shards; shard `i` seeds its RNG from
//!   `rand::child(seed, i)`; per-shard [`Mergeable`] accumulators fold in
//!   shard order. Results are **bit-reproducible for a fixed
//!   `(seed, threads)` pair**, agree across thread counts within
//!   Monte-Carlo error, and are independent samples for distinct seeds.
//! * [`QuantileSketch`] (alias [`Summary`], the name consumers record
//!   into) / [`Moments`] — streaming per-shard statistics in O(1) memory:
//!   a mergeable t-digest quantile sketch (rank error ∝ 1/compression,
//!   exact at the extreme tails) that also keeps the exact
//!   mean/variance/extrema of its stream, both fed from one staging buffer
//!   once per batch. One type, read two ways; it replaces the
//!   buffer-and-sort `SortedSamples` idiom in hot paths, making peak memory
//!   independent of the trial count.
//!
//! `threads` is always the caller's choice: the [`Runner`] can report the
//! host's cores for a command line's default, and nothing in the libraries
//! asks it to.
//!
//! ```
//! use pbs_mc::{Runner, Summary};
//! use rand::Rng;
//!
//! let summary = Runner::new(100_000, 42, 4).run(|rng, info| {
//!     let mut acc = Summary::default();
//!     for _ in 0..info.trials {
//!         acc.record(rng.gen::<f64>());
//!     }
//!     acc
//! });
//! assert_eq!(summary.count(), 100_000);
//! assert!((summary.percentile(99.0) - 0.99).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;
pub mod sketch;
pub mod summary;

pub use runner::{Mergeable, Runner, ShardInfo};
pub use sketch::QuantileSketch;
pub use summary::{Moments, Summary};
