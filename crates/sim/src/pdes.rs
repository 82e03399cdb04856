//! Conservative parallel discrete-event simulation (PDES) over
//! partitioned actors.
//!
//! [`ParallelSimulation`] splits a simulation's actors across `W` worker
//! threads. Each worker owns a private [`WheelQueue`] holding the events
//! of its own actors and executes them with the ordinary serial event
//! loop; the workers stay causally consistent through **synchronous
//! time windows** bounded by the simulation's **lookahead** `L` — the
//! caller-guaranteed minimum delay of any cross-partition message.
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
//! busy steps.
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
//! parallel run is event-for-event identical to a serial run of the same
//! partitioned workload.
//!
//! The engine **panics** if an actor violates the lookahead contract by
//! sending a cross-partition message with delay `< L` — silently breaking
//! determinism would be far worse.

use crate::engine::{Actor, ActorId, Context, Event, ScheduleSink, LANE_SHIFT};
use crate::queue::{EventQueue, SchedulerStats, WheelQueue};
use crate::time::{SimDuration, SimTime};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A rejected parallel-simulation configuration.
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
    /// A simulation needs at least one worker.
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
            PdesError::NoWorkers => write!(f, "parallel simulation needs at least one worker"),
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

/// A snapshot of the whole parallel run: one entry per worker plus the
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

/// One worker: a dense slice of the actor set plus its private wheel.
struct Worker<A: Actor> {
    index: usize,
    actors: Vec<A>,
    /// Global ids of `actors`, parallel to it.
    ids: Vec<ActorId>,
    lane_counters: Vec<u64>,
    queue: WheelQueue<(ActorId, Event<A::Msg>)>,
    /// Per-destination-worker buffers, swapped into the shared mailbox
    /// cells at the exchange barrier.
    out_bufs: Vec<Vec<Remote<A::Msg>>>,
    now: SimTime,
    stats: PdesWorkerStats,
}

/// Shared synchronization state for one `run_until` call.
struct Shared<M> {
    barrier: SpinBarrier,
    /// Earliest pending event per worker (`u64::MAX` = idle).
    next_times: Vec<AtomicU64>,
    /// `W × W` mailbox cells, indexed `src * W + dst`.
    cells: Vec<Mutex<Vec<Remote<M>>>>,
    /// Set when any worker panics, so siblings spinning at the barrier
    /// unwind instead of waiting forever for a thread that died.
    poisoned: AtomicBool,
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

/// Routes an executing actor's sends: local destinations go straight into
/// the worker's wheel, cross-partition destinations into an outbox after
/// the lookahead check.
struct RoutingSink<'a, M> {
    local: &'a mut WheelQueue<(ActorId, Event<M>)>,
    out_bufs: &'a mut [Vec<Remote<M>>],
    owner_of: &'a [u32],
    me: u32,
    /// Exclusive end of the executing window, for the causality check.
    window_end_ns: u64,
    sent_remote: &'a mut u64,
}

impl<M> ScheduleSink<M> for RoutingSink<'_, M> {
    #[inline]
    fn schedule_event(&mut self, at: SimTime, lane: u64, to: ActorId, event: Event<M>) {
        let owner = self.owner_of[to];
        if owner == self.me {
            self.local.schedule(at, lane, (to, event));
        } else {
            assert!(
                at.as_nanos() >= self.window_end_ns,
                "cross-partition message to actor {to} arrives at {at}, inside the current \
                 window (end {} ns): the sender violated the lookahead contract",
                self.window_end_ns,
            );
            *self.sent_remote += 1;
            self.out_bufs[owner as usize].push(Remote { at, lane, to, event });
        }
    }
}

impl<A: Actor> Worker<A> {
    /// Run synchronous windows until the global next-event time passes
    /// `deadline`. Every worker executes this loop; all control decisions
    /// (window start, width, termination) are pure functions of the
    /// shared proposals, so the workers always agree.
    fn run_windows(
        &mut self,
        deadline: SimTime,
        lookahead: SimDuration,
        shared: &Shared<A::Msg>,
        owner_of: &[u32],
        local_of: &[u32],
    ) {
        let w = shared.next_times.len();
        let mut sense = false;
        loop {
            // 1. Merge inbound cross-partition events. Arrival order is
            // irrelevant: the wheel orders by the unique (time, lane) key.
            for src in 0..w {
                let mut inbox = shared.cells[src * w + self.index]
                    .lock()
                    .expect("mailbox poisoned: a sibling worker panicked");
                self.stats.merged_remote += inbox.len() as u64;
                for r in inbox.drain(..) {
                    self.queue.schedule(r.at, r.lane, (r.to, r.event));
                }
            }
            // 2. Propose: publish the earliest local pending time.
            let next = self.queue.next_time().map_or(u64::MAX, SimTime::as_nanos);
            shared.next_times[self.index].store(next, Ordering::SeqCst);
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
                self.now = deadline.max(self.now);
                return;
            }
            let end_ns = min
                .saturating_add(lookahead.as_nanos())
                .min(deadline.as_nanos().saturating_add(1));
            self.stats.windows += 1;
            while let Some(t) = self.queue.next_time() {
                if t.as_nanos() >= end_ns {
                    break;
                }
                let (time, (target, event)) = self.queue.pop().expect("peeked event vanished");
                debug_assert!(time >= self.now, "worker clock went backwards");
                self.now = time;
                self.stats.events += 1;
                let local = local_of[target] as usize;
                let mut sink = RoutingSink {
                    local: &mut self.queue,
                    out_bufs: &mut self.out_bufs,
                    owner_of,
                    me: self.index as u32,
                    window_end_ns: end_ns,
                    sent_remote: &mut self.stats.sent_remote,
                };
                let mut ctx = Context {
                    now: time,
                    self_id: target,
                    actors: owner_of.len(),
                    lane_counter: &mut self.lane_counters[local],
                    queue: &mut sink,
                };
                self.actors[local].on_event(&mut ctx, event);
            }
            // 4. Exchange: publish outboxes, then make them visible.
            for (dst, buf) in self.out_bufs.iter_mut().enumerate() {
                if !buf.is_empty() {
                    let mut cell = shared.cells[self.index * w + dst]
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

/// A conservative parallel discrete-event simulation: the multi-worker
/// counterpart of [`Simulation`](crate::Simulation). See the
/// [module docs](self) for the synchronization protocol.
///
/// Actors are registered with an explicit owning worker
/// ([`add_actor`](Self::add_actor)); ids are global and dense across
/// workers, so actors address each other exactly as in the serial engine.
pub struct ParallelSimulation<A: Actor> {
    workers: Vec<Worker<A>>,
    /// Global actor id → owning worker.
    owner_of: Vec<u32>,
    /// Global actor id → index within its worker.
    local_of: Vec<u32>,
    /// Lane counter for externally injected events (origin 0), shared
    /// across workers so injections sort exactly as in the serial engine.
    injections: u64,
    now: SimTime,
    lookahead: SimDuration,
}

impl<A: Actor> ParallelSimulation<A> {
    /// Empty simulation at time zero with `workers` empty partitions.
    ///
    /// `lookahead` is the caller-guaranteed minimum delay of any
    /// cross-partition message; a zero lookahead is rejected as
    /// [`PdesError::DegenerateLookahead`].
    pub fn new(workers: usize, lookahead: SimDuration) -> Result<Self, PdesError> {
        if workers == 0 {
            return Err(PdesError::NoWorkers);
        }
        if lookahead.as_nanos() == 0 {
            return Err(PdesError::DegenerateLookahead { lookahead_ms: lookahead.as_ms() });
        }
        Ok(Self {
            workers: (0..workers)
                .map(|index| Worker {
                    index,
                    actors: Vec::new(),
                    ids: Vec::new(),
                    lane_counters: Vec::new(),
                    queue: WheelQueue::default(),
                    out_bufs: (0..workers).map(|_| Vec::new()).collect(),
                    now: SimTime::ZERO,
                    stats: PdesWorkerStats::default(),
                })
                .collect(),
            owner_of: Vec::new(),
            local_of: Vec::new(),
            injections: 0,
            now: SimTime::ZERO,
            lookahead,
        })
    }

    /// Replace the lookahead (e.g. after the latency model changed
    /// between windows). Rejects zero exactly like [`new`](Self::new).
    pub fn set_lookahead(&mut self, lookahead: SimDuration) -> Result<(), PdesError> {
        if lookahead.as_nanos() == 0 {
            return Err(PdesError::DegenerateLookahead { lookahead_ms: lookahead.as_ms() });
        }
        self.lookahead = lookahead;
        Ok(())
    }

    /// Register an actor owned by `worker`; returns its global id.
    pub fn add_actor(&mut self, actor: A, worker: usize) -> ActorId {
        assert!(worker < self.workers.len(), "unknown worker {worker}");
        let id = self.owner_of.len();
        debug_assert!((id as u64 + 1) < (1 << (64 - LANE_SHIFT)), "actor id too large for lane");
        let w = &mut self.workers[worker];
        self.owner_of.push(worker as u32);
        self.local_of.push(w.actors.len() as u32);
        w.actors.push(actor);
        w.ids.push(id);
        w.lane_counters.push(0);
        id
    }

    /// Immutable access to an actor (between runs).
    pub fn actor(&self, id: ActorId) -> &A {
        &self.workers[self.owner_of[id] as usize].actors[self.local_of[id] as usize]
    }

    /// Mutable access to an actor (between runs).
    pub fn actor_mut(&mut self, id: ActorId) -> &mut A {
        &mut self.workers[self.owner_of[id] as usize].actors[self.local_of[id] as usize]
    }

    /// Current simulated time (the deadline of the last
    /// [`run_until`](Self::run_until) call).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.workers.iter().map(|w| w.stats.events).sum()
    }

    /// Events currently waiting across all worker wheels.
    pub fn pending_events(&self) -> usize {
        self.workers.iter().map(|w| w.queue.len()).sum()
    }

    /// Scheduler counters summed across the worker wheels.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        let mut total = SchedulerStats::default();
        for w in &self.workers {
            let s = w.queue.stats();
            total.peak_pending += s.peak_pending;
            total.cascaded += s.cascaded;
        }
        total
    }

    /// Per-worker execution counters.
    pub fn stats(&self) -> PdesStats {
        PdesStats {
            lookahead_ms: self.lookahead.as_ms(),
            workers: self.workers.iter().map(|w| w.stats).collect(),
        }
    }

    /// Inject an external message at an absolute simulated time (not
    /// before the current time). Injections at the same instant sort
    /// before actor-scheduled events and in injection order — exactly
    /// like the serial engine.
    pub fn inject_at(&mut self, target: ActorId, at: SimTime, msg: A::Msg) {
        assert!(target < self.owner_of.len(), "unknown actor {target}");
        assert!(at >= self.now, "cannot schedule in the past: {at} < {}", self.now);
        debug_assert!(self.injections < (1 << LANE_SHIFT), "injection lane counter overflow");
        let lane = self.injections;
        self.injections += 1;
        let owner = self.owner_of[target] as usize;
        self.workers[owner].queue.schedule(at, lane, (target, Event::Message { from: target, msg }));
    }

    /// Inject an external message `delay_ms` after the current time.
    pub fn inject(&mut self, target: ActorId, delay_ms: f64, msg: A::Msg) {
        self.inject_at(target, self.now + SimDuration::from_ms(delay_ms), msg);
    }
}

impl<A: Actor + Send> ParallelSimulation<A>
where
    A::Msg: Send,
{
    /// Run all workers until the queue is globally empty **or** the next
    /// event is strictly after `deadline`; the clock is then advanced to
    /// `deadline`. Events exactly at `deadline` are processed — the same
    /// contract as the serial [`run_until`](crate::Simulation::run_until).
    pub fn run_until(&mut self, deadline: SimTime) {
        let w = self.workers.len();
        let shared: Shared<A::Msg> = Shared {
            barrier: SpinBarrier::new(w),
            next_times: (0..w).map(|_| AtomicU64::new(u64::MAX)).collect(),
            cells: (0..w * w).map(|_| Mutex::new(Vec::new())).collect(),
            poisoned: AtomicBool::new(false),
        };
        let lookahead = self.lookahead;
        let owner_of = &self.owner_of;
        let local_of = &self.local_of;
        if w == 1 {
            // Single worker: no sibling to synchronize with, run inline.
            self.workers[0].run_windows(deadline, lookahead, &shared, owner_of, local_of);
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .workers
                    .iter_mut()
                    .map(|worker| {
                        let shared = &shared;
                        s.spawn(move || {
                            let _guard = PoisonGuard(&shared.poisoned);
                            worker.run_windows(deadline, lookahead, shared, owner_of, local_of);
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
        self.now = self.now.max(deadline);
    }
}

impl<A: Actor> fmt::Debug for ParallelSimulation<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelSimulation")
            .field("workers", &self.workers.len())
            .field("actors", &self.owner_of.len())
            .field("now", &self.now)
            .field("lookahead_ms", &self.lookahead.as_ms())
            .field("pending", &self.pending_events())
            .finish()
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
    use crate::Simulation;

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

    /// The same ring workload on the serial engine and on 1/2/4-worker
    /// parallel engines: logs must be identical everywhere.
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

        for workers in [1, 2, 4] {
            let mut par =
                ParallelSimulation::new(workers, SimDuration::from_ms(delay)).expect("valid");
            for (i, r) in relay_ring(n, delay).into_iter().enumerate() {
                par.add_actor(r, i % workers);
            }
            for i in 0..n {
                par.inject(i, 0.0, 300 + i as u64);
            }
            par.run_until(deadline);
            assert_eq!(par.events_processed(), serial.events_processed(), "{workers} workers");
            for (i, expected) in reference.iter().enumerate() {
                assert_eq!(&par.actor(i).log, expected, "actor {i}, {workers} workers");
            }
            let stats = par.stats();
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
            let mut par = ParallelSimulation::new(workers, SimDuration::from_ms(1.0)).unwrap();
            for i in 0..4usize {
                par.add_actor(Relay { peer: i, delay_ms: 1.0, log: Vec::new() }, i % workers);
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
        let err = ParallelSimulation::<Relay>::new(2, SimDuration::ZERO).unwrap_err();
        assert_eq!(err, PdesError::DegenerateLookahead { lookahead_ms: 0.0 });
        let mut sim = ParallelSimulation::<Relay>::new(2, SimDuration::from_ms(1.0)).unwrap();
        assert_eq!(sim.set_lookahead(SimDuration::ZERO).unwrap_err(), err);
        assert!(ParallelSimulation::<Relay>::new(0, SimDuration::from_ms(1.0)).is_err());
    }

    #[test]
    #[should_panic(expected = "lookahead contract")]
    fn lookahead_violation_panics() {
        // Two actors on different workers exchanging messages *faster*
        // than the declared lookahead: the router must catch it.
        let mut par = ParallelSimulation::new(2, SimDuration::from_ms(5.0)).unwrap();
        par.add_actor(Relay { peer: 1, delay_ms: 0.5, log: Vec::new() }, 0);
        par.add_actor(Relay { peer: 0, delay_ms: 0.5, log: Vec::new() }, 1);
        par.inject(0, 0.0, 10);
        par.run_until(SimTime::from_ms(100.0));
    }

    /// `run_until` advances the clock to the deadline even when idle, and
    /// processes events exactly at the deadline — the serial contract.
    #[test]
    fn run_until_contract_matches_serial() {
        let mut par = ParallelSimulation::new(2, SimDuration::from_ms(1.0)).unwrap();
        par.add_actor(Relay { peer: 0, delay_ms: 1.0, log: Vec::new() }, 0);
        par.run_until(SimTime::from_ms(42.0));
        assert_eq!(par.now(), SimTime::from_ms(42.0));
        // An event exactly at a later deadline is processed by that call.
        par.inject_at(0, SimTime::from_ms(50.0), 0);
        par.run_until(SimTime::from_ms(50.0));
        assert_eq!(par.actor(0).log, vec![(SimTime::from_ms(50.0).as_nanos(), 0)]);
    }
}
