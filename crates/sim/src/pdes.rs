//! Conservative parallel discrete-event simulation (PDES): the window
//! protocol behind [`Simulation::partitioned`](crate::Simulation::partitioned).
//!
//! A partitioned simulation splits its actors across `W` workers. Each
//! worker owns a partition — its actors plus a private [`WheelQueue`](crate::WheelQueue)
//! holding their events — and executes it with the serial engine's own
//! step function; the workers stay causally consistent through
//! **synchronous time windows** bounded by the simulation's
//! **lookahead** `L` — the caller-guaranteed minimum delay of any
//! cross-partition message.
//!
//! # The window protocol
//!
//! Every round proceeds in lockstep:
//!
//! 1. **Merge.** Each worker drains its inbound mailboxes (events sent to
//!    it by other workers during the previous round) into its wheel.
//! 2. **Propose.** Each worker publishes the timestamp of its earliest
//!    pending event; a barrier makes all proposals visible.
//! 3. **Window.** Everyone computes the same global minimum `T` and
//!    executes local events in `[T, T + L)` (the window also never crosses
//!    the `run_until` deadline). A cross-partition send is buffered into a
//!    per-destination outbox instead of the local wheel; its arrival time
//!    is provably `≥ T + L`, i.e. **after** the window, so no worker can
//!    miss an event another worker is still producing.
//! 4. **Exchange.** A second barrier, after which outboxes become the next
//!    round's inboxes.
//!
//! Windows jump straight to the next global event time (step 3 recomputes
//! `T` every round), so idle stretches cost two barriers, not `L`-sized
//! busy steps. One worker runs the rounds inline; more run them on scoped
//! threads, one per worker.
//!
//! # Determinism and serial equivalence
//!
//! Event keys are `(time, lane)` with lanes derived from the *scheduling
//! actor* (see [`crate::engine`]), so a worker's wheel pops its actors'
//! events in exactly the order the serial engine would deliver them —
//! regardless of when remote events were merged, because merge always
//! completes before the window containing them executes. Runs are
//! therefore bit-reproducible per `(seed, workers)`; and as long as the
//! actors themselves have no cross-partition shared mutable state, a
//! partitioned run is event-for-event identical to a serial run of the
//! same workload.
//!
//! The engine **panics** if an actor violates the lookahead contract by
//! sending a cross-partition message with delay `< L` — silently breaking
//! determinism would be far worse.

use crate::engine::{Actor, ActorId, Event, Partition};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A rejected partitioned-simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PdesError {
    /// The lookahead (minimum cross-partition message delay) is zero:
    /// conservative windows would collapse to lockstep single-event
    /// steps, which is slower than running serially. Callers should fix
    /// the latency model (every cross-partition link needs a positive
    /// minimum) or run the serial engine.
    DegenerateLookahead {
        /// The offending lookahead, in milliseconds.
        lookahead_ms: f64,
    },
    /// A partitioned simulation needs at least one worker.
    NoWorkers,
}

impl fmt::Display for PdesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdesError::DegenerateLookahead { lookahead_ms } => write!(
                f,
                "degenerate lookahead {lookahead_ms} ms: every cross-partition link needs a \
                 positive minimum latency for conservative windows to make progress"
            ),
            PdesError::NoWorkers => write!(f, "a partitioned simulation needs at least one worker"),
        }
    }
}

impl std::error::Error for PdesError {}

/// Per-worker execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PdesWorkerStats {
    /// Events this worker dispatched.
    pub events: u64,
    /// Windows this worker participated in.
    pub windows: u64,
    /// Cross-partition events this worker received and merged.
    pub merged_remote: u64,
    /// Cross-partition events this worker sent.
    pub sent_remote: u64,
    /// Times this worker yielded its timeslice while waiting at a
    /// barrier (a direct measure of load imbalance / barrier stall).
    pub barrier_yields: u64,
}

/// A snapshot of a whole partitioned run: one entry per worker plus the
/// configured lookahead.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PdesStats {
    /// The conservative horizon, in milliseconds.
    pub lookahead_ms: f64,
    /// Per-worker counters, indexed by worker.
    pub workers: Vec<PdesWorkerStats>,
}

impl PdesStats {
    /// Total events dispatched across all workers.
    pub fn total_events(&self) -> u64 {
        self.workers.iter().map(|w| w.events).sum()
    }

    /// Synchronous windows executed (same for every worker).
    pub fn windows(&self) -> u64 {
        self.workers.first().map_or(0, |w| w.windows)
    }
}

/// A cross-partition event in flight between two workers.
struct Remote<M> {
    at: SimTime,
    lane: u64,
    to: ActorId,
    event: Event<M>,
}

/// What a partitioned simulation adds to the serial one: where each actor
/// lives, the lookahead, and each worker's outboxes and counters.
pub(crate) struct Pdes<A: Actor, Q> {
    /// Global actor id → owning worker.
    pub(crate) owner_of: Vec<u32>,
    /// Global actor id → index within its worker's partition.
    pub(crate) local_of: Vec<u32>,
    pub(crate) lookahead: SimDuration,
    /// Each worker's side of the exchange, indexed by worker.
    links: Vec<Link<A::Msg>>,
    /// [`Pdes::run_until`], instantiated by [`Pdes::new`], where the actor
    /// and queue types are known to be `Send`: so
    /// [`Simulation::run_until`](crate::Simulation::run_until) needs no
    /// thread bounds on the serial engine.
    pub(crate) run_until: fn(&mut Self, &mut [Partition<A, Q>], SimTime),
}

/// A worker's outboxes — per-destination-worker buffers, swapped into the
/// shared mailbox cells at the exchange barrier — and its counters.
struct Link<M> {
    out_bufs: Vec<Vec<Remote<M>>>,
    /// Everything but `events`, which its partition counts.
    stats: PdesWorkerStats,
}

/// Shared state of one `run_until` call.
struct Shared<'a, M> {
    barrier: SpinBarrier,
    /// Earliest pending event per worker (`u64::MAX` = idle).
    next_times: Vec<AtomicU64>,
    /// `W × W` mailbox cells, indexed `src * W + dst`.
    cells: Vec<Mutex<Vec<Remote<M>>>>,
    /// Set when any worker panics, so siblings spinning at the barrier
    /// unwind instead of waiting forever for a thread that died.
    poisoned: AtomicBool,
    deadline: SimTime,
    lookahead: SimDuration,
    owner_of: &'a [u32],
    local_of: &'a [u32],
}

/// Marks the shared state poisoned if its worker thread unwinds.
struct PoisonGuard<'a>(&'a AtomicBool);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// Routes an executing actor's sends within a window:
/// [`Context::send`](crate::Context::send) asks it whether a destination is
/// local, and it buffers the others into an outbox after the lookahead check.
pub(crate) struct RoutingSink<'a, M> {
    out_bufs: &'a mut [Vec<Remote<M>>],
    pub(crate) owner_of: &'a [u32],
    pub(crate) local_of: &'a [u32],
    me: u32,
    /// Exclusive end of the executing window, for the causality check.
    window_end_ns: u64,
    sent_remote: &'a mut u64,
}

impl<M> RoutingSink<'_, M> {
    /// Whether actor `to` lives on the executing worker.
    #[inline]
    pub(crate) fn owns(&self, to: ActorId) -> bool {
        self.owner_of[to] == self.me
    }

    /// Buffer an event for another worker's actor until the exchange.
    pub(crate) fn forward(&mut self, at: SimTime, lane: u64, to: ActorId, event: Event<M>) {
        assert!(
            at.as_nanos() >= self.window_end_ns,
            "cross-partition message to actor {to} arrives at {at}, inside the current \
             window (end {} ns): the sender violated the lookahead contract",
            self.window_end_ns,
        );
        *self.sent_remote += 1;
        self.out_bufs[self.owner_of[to] as usize].push(Remote { at, lane, to, event });
    }
}

/// Reject a lookahead that would collapse windows to single events.
pub(crate) fn check_lookahead(lookahead: SimDuration) -> Result<SimDuration, PdesError> {
    if lookahead.as_nanos() == 0 {
        return Err(PdesError::DegenerateLookahead { lookahead_ms: lookahead.as_ms() });
    }
    Ok(lookahead)
}

impl<A: Actor, Q> Pdes<A, Q> {
    /// A snapshot of the counters, given each partition's event count.
    pub(crate) fn stats(&self, events: impl Iterator<Item = u64>) -> PdesStats {
        PdesStats {
            lookahead_ms: self.lookahead.as_ms(),
            workers: self
                .links
                .iter()
                .zip(events)
                .map(|(link, events)| PdesWorkerStats { events, ..link.stats })
                .collect(),
        }
    }
}

impl<A, Q> Pdes<A, Q>
where
    A: Actor + Send,
    A::Msg: Send,
    Q: EventQueue<(ActorId, Event<A::Msg>)> + Send,
{
    pub(crate) fn new(workers: usize, lookahead: SimDuration) -> Result<Self, PdesError> {
        if workers == 0 {
            return Err(PdesError::NoWorkers);
        }
        Ok(Self {
            owner_of: Vec::new(),
            local_of: Vec::new(),
            lookahead: check_lookahead(lookahead)?,
            links: (0..workers)
                .map(|_| Link {
                    out_bufs: (0..workers).map(|_| Vec::new()).collect(),
                    stats: PdesWorkerStats::default(),
                })
                .collect(),
            run_until: Self::run_until,
        })
    }

    /// Run every worker's windows until the queue is globally empty **or**
    /// the next event is strictly after `deadline`; every partition's clock
    /// then reads at least `deadline`.
    fn run_until(&mut self, parts: &mut [Partition<A, Q>], deadline: SimTime) {
        let w = parts.len();
        let shared = Shared {
            barrier: SpinBarrier::new(w),
            next_times: (0..w).map(|_| AtomicU64::new(u64::MAX)).collect(),
            cells: (0..w * w).map(|_| Mutex::new(Vec::new())).collect(),
            poisoned: AtomicBool::new(false),
            deadline,
            lookahead: self.lookahead,
            owner_of: &self.owner_of,
            local_of: &self.local_of,
        };
        if w == 1 {
            // Single worker: no sibling to synchronize with, run inline.
            self.links[0].run_windows(0, &mut parts[0], &shared);
            return;
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .links
                .iter_mut()
                .zip(parts.iter_mut())
                .enumerate()
                .map(|(me, (link, part))| {
                    let shared = &shared;
                    s.spawn(move || {
                        let _guard = PoisonGuard(&shared.poisoned);
                        link.run_windows(me, part, shared);
                    })
                })
                .collect();
            // Join by hand so a worker's panic payload (e.g. the
            // lookahead-contract message) reaches the caller intact
            // instead of scope's generic "a scoped thread panicked".
            let mut first_panic = None;
            for h in handles {
                if let Err(payload) = h.join() {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
        });
    }
}

impl<M> Link<M> {
    /// Run synchronous windows on worker `me`'s partition until the global
    /// next-event time passes the deadline. Every worker executes this
    /// loop; all control decisions (window start, width, termination) are
    /// pure functions of the shared proposals, so the workers always agree.
    fn run_windows<A, Q>(&mut self, me: usize, part: &mut Partition<A, Q>, shared: &Shared<'_, M>)
    where
        A: Actor<Msg = M>,
        Q: EventQueue<(ActorId, Event<M>)>,
    {
        let w = shared.next_times.len();
        let deadline = shared.deadline;
        let mut sense = false;
        loop {
            // 1. Merge inbound cross-partition events. Arrival order is
            // irrelevant: the wheel orders by the unique (time, lane) key.
            for src in 0..w {
                let mut inbox = shared.cells[src * w + me]
                    .lock()
                    .expect("mailbox poisoned: a sibling worker panicked");
                self.stats.merged_remote += inbox.len() as u64;
                for r in inbox.drain(..) {
                    part.queue.schedule(r.at, r.lane, (r.to, r.event));
                }
            }
            // 2. Propose: publish the earliest local pending time.
            let next = part.queue.next_time().map_or(u64::MAX, SimTime::as_nanos);
            shared.next_times[me].store(next, Ordering::SeqCst);
            shared.barrier.wait(&mut sense, &mut self.stats.barrier_yields, &shared.poisoned);
            // 3. Window: everyone computes the same global minimum.
            let min = shared
                .next_times
                .iter()
                .map(|t| t.load(Ordering::SeqCst))
                .min()
                .expect("at least one worker");
            if min == u64::MAX || min > deadline.as_nanos() {
                // Globally idle (or past the deadline): every worker
                // computes the same verdict, outboxes are already empty.
                part.now = part.now.max(deadline);
                return;
            }
            let end_ns = min
                .saturating_add(shared.lookahead.as_nanos())
                .min(deadline.as_nanos().saturating_add(1));
            self.stats.windows += 1;
            while let Some(t) = part.queue.next_time() {
                if t.as_nanos() >= end_ns {
                    break;
                }
                part.dispatch(Some(&mut RoutingSink {
                    out_bufs: &mut self.out_bufs,
                    owner_of: shared.owner_of,
                    local_of: shared.local_of,
                    me: me as u32,
                    window_end_ns: end_ns,
                    sent_remote: &mut self.stats.sent_remote,
                }));
            }
            // 4. Exchange: publish outboxes, then make them visible.
            for (dst, buf) in self.out_bufs.iter_mut().enumerate() {
                if !buf.is_empty() {
                    let mut cell = shared.cells[me * w + dst]
                        .lock()
                        .expect("mailbox poisoned: a sibling worker panicked");
                    debug_assert!(cell.is_empty(), "mailbox not drained");
                    // Swap rather than drain: recycles the receiver-side
                    // capacity back into our buffer.
                    std::mem::swap(&mut *cell, buf);
                }
            }
            shared.barrier.wait(&mut sense, &mut self.stats.barrier_yields, &shared.poisoned);
        }
    }
}

/// A sense-reversing barrier that spins briefly and then yields.
///
/// `std::sync::Barrier` parks on a mutex/condvar pair — microseconds per
/// crossing, which is ruinous at one window per few hundred microseconds
/// of simulated time. Workers here spin a few dozen iterations (the
/// common case when partitions are balanced) before yielding their
/// timeslice, which keeps oversubscribed hosts (more workers than cores)
/// live.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
}

/// Spins before the first yield per barrier crossing.
const SPIN_LIMIT: u32 = 64;

impl SpinBarrier {
    fn new(n: usize) -> Self {
        Self { n, count: AtomicUsize::new(0), sense: AtomicBool::new(false) }
    }

    /// Block until all `n` workers arrive. `local_sense` must be a
    /// per-worker flag starting `false`; `yields` counts ceded
    /// timeslices for the stall statistics. Panics (rather than spinning
    /// forever) if `poisoned` reports that a sibling worker died.
    fn wait(&self, local_sense: &mut bool, yields: &mut u64, poisoned: &AtomicBool) {
        let target = !*local_sense;
        *local_sense = target;
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == self.n {
            self.count.store(0, Ordering::SeqCst);
            self.sense.store(target, Ordering::SeqCst);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::SeqCst) != target {
                assert!(!poisoned.load(Ordering::SeqCst), "sibling worker panicked");
                if spins < SPIN_LIMIT {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    *yields += 1;
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, Simulation};

    /// Deterministic ping-pong actor: forwards a decremented counter to a
    /// fixed peer with a fixed delay, recording everything it sees.
    struct Relay {
        peer: ActorId,
        delay_ms: f64,
        log: Vec<(u64, u64)>,
    }

    impl Actor for Relay {
        type Msg = u64;
        fn on_event(&mut self, ctx: &mut Context<'_, u64>, ev: Event<u64>) {
            if let Event::Message { msg, .. } = ev {
                self.log.push((ctx.now().as_nanos(), msg));
                if msg > 0 {
                    ctx.send(self.peer, self.delay_ms, msg - 1);
                }
            }
        }
    }

    fn relay_ring(n: usize, delay_ms: f64) -> Vec<Relay> {
        (0..n).map(|i| Relay { peer: (i + 1) % n, delay_ms, log: Vec::new() }).collect()
    }

    fn partitioned(workers: usize, lookahead_ms: f64) -> Simulation<Relay> {
        Simulation::partitioned(workers, SimDuration::from_ms(lookahead_ms)).expect("valid")
    }

    /// The same ring workload on the serial engine and on 1/2/4-worker
    /// partitioned simulations: logs must be identical everywhere.
    #[test]
    fn parallel_matches_serial_on_relay_ring() {
        let n = 8;
        let delay = 1.25;
        let deadline = SimTime::from_ms(500.0);

        let mut serial = Simulation::new();
        for r in relay_ring(n, delay) {
            serial.add_actor(r);
        }
        for i in 0..n {
            serial.inject(i, 0.0, 300 + i as u64);
        }
        serial.run_until(deadline);
        let reference: Vec<Vec<(u64, u64)>> = (0..n).map(|i| serial.actor(i).log.clone()).collect();
        assert!(serial.events_processed() > 1_000, "workload too small to be meaningful");
        assert_eq!(serial.pdes_stats(), None);

        for workers in [1, 2, 4] {
            let mut par = partitioned(workers, delay);
            for (i, r) in relay_ring(n, delay).into_iter().enumerate() {
                par.add_actor_on(r, i % workers);
            }
            for i in 0..n {
                par.inject(i, 0.0, 300 + i as u64);
            }
            par.run_until(deadline);
            assert_eq!(par.events_processed(), serial.events_processed(), "{workers} workers");
            for (i, expected) in reference.iter().enumerate() {
                assert_eq!(&par.actor(i).log, expected, "actor {i}, {workers} workers");
            }
            let stats = par.pdes_stats().expect("a partitioned simulation reports stats");
            assert_eq!(stats.workers.len(), workers);
            assert_eq!(stats.total_events(), par.events_processed());
            if workers > 1 {
                assert!(stats.workers.iter().any(|w| w.sent_remote > 0), "ring must cross");
                assert!(stats.windows() > 0);
            }
        }
    }

    /// Same-instant injections sort in injection order on every engine.
    #[test]
    fn injection_order_is_preserved_across_partitions() {
        let run = |workers: usize| {
            let mut par = partitioned(workers, 1.0);
            for i in 0..4usize {
                par.add_actor_on(Relay { peer: i, delay_ms: 1.0, log: Vec::new() }, i % workers);
            }
            for round in 0..16u64 {
                for i in 0..4usize {
                    par.inject_at(i, SimTime::from_ms(5.0), 100 * round + i as u64);
                }
            }
            par.run_until(SimTime::from_ms(50.0));
            (0..4).map(|i| par.actor(i).log.clone()).collect::<Vec<_>>()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    #[test]
    fn zero_lookahead_is_rejected() {
        let err = Simulation::<Relay>::partitioned(2, SimDuration::ZERO).unwrap_err();
        assert_eq!(err, PdesError::DegenerateLookahead { lookahead_ms: 0.0 });
        let mut sim = partitioned(2, 1.0);
        assert_eq!(sim.set_lookahead(SimDuration::ZERO).unwrap_err(), err);
        let none = Simulation::<Relay>::partitioned(0, SimDuration::from_ms(1.0));
        assert_eq!(none.unwrap_err(), PdesError::NoWorkers);
    }

    #[test]
    #[should_panic(expected = "lookahead contract")]
    fn lookahead_violation_panics() {
        // Two actors on different workers exchanging messages *faster*
        // than the declared lookahead: the router must catch it.
        let mut par = partitioned(2, 5.0);
        par.add_actor_on(Relay { peer: 1, delay_ms: 0.5, log: Vec::new() }, 0);
        par.add_actor_on(Relay { peer: 0, delay_ms: 0.5, log: Vec::new() }, 1);
        par.inject(0, 0.0, 10);
        par.run_until(SimTime::from_ms(100.0));
    }

    /// `run_until` advances the clock to the deadline even when idle, and
    /// processes events exactly at the deadline — the serial contract.
    #[test]
    fn run_until_contract_matches_serial() {
        let mut par = partitioned(2, 1.0);
        par.add_actor_on(Relay { peer: 0, delay_ms: 1.0, log: Vec::new() }, 0);
        par.run_until(SimTime::from_ms(42.0));
        assert_eq!(par.now(), SimTime::from_ms(42.0));
        // An event exactly at a later deadline is processed by that call.
        par.inject_at(0, SimTime::from_ms(50.0), 0);
        par.run_until(SimTime::from_ms(50.0));
        assert_eq!(par.actor(0).log, vec![(SimTime::from_ms(50.0).as_nanos(), 0)]);
    }
}
