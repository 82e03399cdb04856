//! # pbs-sim — deterministic discrete-event simulation kernel
//!
//! The PBS paper validated its WARS model against a modified Apache
//! Cassandra deployment (§5.2). This workspace replaces those three physical
//! servers with a deterministic, seeded discrete-event simulator: `pbs-kvs`
//! runs the same Dynamo-style message flow on top of this kernel, with
//! per-message latencies drawn from the same distributions the paper
//! injected into Cassandra.
//!
//! Design goals, in priority order:
//!
//! 1. **Determinism** — identical seeds and inputs yield identical event
//!    orders. Events are ordered by `(time, lane)`, where the lane packs
//!    the scheduling actor's id with its private monotone counter (the
//!    full contract is spelled out in [`queue::EventQueue`] and
//!    [`engine`]); the key is locally computable, which is what lets a
//!    [partitioned](Simulation::partitioned) simulation split its actors
//!    across worker threads under the conservative window protocol
//!    ([`pdes`]) and still match the serial engine event for event.
//!    The kernel owns no RNG: actors sample latencies themselves from
//!    RNGs they own, so the kernel never perturbs randomness.
//! 2. **Zero `unsafe`, no dependencies** — a timer wheel and a virtual
//!    clock.
//! 3. **Speed** — the open-loop engine dispatches millions of events per
//!    second; scheduling is amortised `O(1)` on a hierarchical timer
//!    wheel ([`queue::WheelQueue`]) and allocation-free in steady state
//!    (slot buckets, the sort scratch, and the outbox buffer are all
//!    recycled between events). The reference binary-heap scheduler
//!    ([`queue::HeapQueue`]) is kept as the oracle for the wheel's
//!    equivalence tests — the two produce **bit-identical** event orders
//!    because the ordering contract is a total order.
//!
//! See [`Simulation`] for the one engine type — serial by default,
//! partitioned across workers on request, with one step function under
//! both — [`Actor`] for the behaviour trait, and [`queue`] for the
//! scheduler implementations and their shared ordering contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod pdes;
pub mod queue;
pub mod time;

pub use engine::{Actor, ActorId, Context, Event, Simulation};
pub use pdes::{PdesError, PdesStats, PdesWorkerStats};
pub use queue::{EventQueue, HeapQueue, SchedulerStats, WheelQueue};
pub use time::{SimDuration, SimTime, SkewedClock};
