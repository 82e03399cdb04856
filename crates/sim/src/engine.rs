//! The event loop: actors, messages, timers, and the scheduler.
//!
//! # Ordering contract
//!
//! Events are delivered in ascending `(time, lane)` order. The lane is a
//! `u64` packed from the event's **origin**: an event scheduled by actor
//! `a` carries lane `(a + 1) << 40 | c` where `c` is `a`'s private
//! monotone counter, and an externally injected event carries lane `c`
//! drawn from the simulation's injection counter (so injections at time
//! `t` sort before actor-scheduled events at `t`). Two consequences:
//!
//! * **Per-origin FIFO.** Equal-time events from the same origin fire in
//!   the order they were scheduled; equal-time events from different
//!   origins fire in origin-id order. The key is a total order (counters
//!   never repeat), so swapping the scheduler implementation (see
//!   [`queue`]) cannot change any seeded run's behaviour.
//! * **Locally computable keys.** The key depends only on the scheduling
//!   actor's own state, never on a global counter — which is what lets a
//!   [partitioned](Simulation::partitioned) simulation ([`crate::pdes`])
//!   split actors across worker wheels and still deliver the exact event
//!   sequence the serial engine delivers.
//!
//! [`queue`]: crate::queue

use crate::pdes::{check_lookahead, Pdes, PdesError, PdesStats, RoutingSink};
use crate::queue::{EventQueue, SchedulerStats, WheelQueue};
use crate::time::{SimDuration, SimTime};

/// Bits reserved for the per-origin counter in a lane key. Actor `a`'s
/// lanes are `(a + 1) << LANE_SHIFT | counter`; injections use the bare
/// counter (origin 0).
pub(crate) const LANE_SHIFT: u32 = 40;

/// Pack a scheduling actor's id and private counter into a lane key,
/// bumping the counter.
#[inline]
pub(crate) fn next_actor_lane(id: ActorId, counter: &mut u64) -> u64 {
    debug_assert!(*counter < (1 << LANE_SHIFT), "lane counter overflow for actor {id}");
    debug_assert!(((id as u64) + 1) < (1 << (64 - LANE_SHIFT)), "actor id {id} too large for lane");
    let lane = ((id as u64) + 1) << LANE_SHIFT | *counter;
    *counter += 1;
    lane
}

/// Index of an actor within a [`Simulation`].
pub type ActorId = usize;

/// Something an actor can receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// A message from another actor (or injected externally).
    Message {
        /// Sending actor. External injections use the destination itself.
        from: ActorId,
        /// The payload.
        msg: M,
    },
    /// A timer the actor previously set via [`Context::set_timer`].
    Timer {
        /// The tag passed to `set_timer`, so actors can multiplex timers.
        tag: u64,
    },
}

/// Simulation behaviour: each actor handles messages and timers, emitting
/// new messages/timers through the [`Context`].
pub trait Actor {
    /// Message type exchanged in this simulation.
    type Msg;

    /// Handle one event. All effects go through `ctx`.
    fn on_event(&mut self, ctx: &mut Context<'_, Self::Msg>, event: Event<Self::Msg>);
}

/// Handle through which an actor interacts with the simulation during
/// event processing.
///
/// Effects are scheduled **directly** into the event queue (through an
/// erased sink, so `Context` stays non-generic over the scheduler): no
/// intermediate outbox buffer, no second copy per message.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ActorId,
    pub(crate) actors: usize,
    pub(crate) lane_counter: &'a mut u64,
    pub(crate) queue: &'a mut dyn ScheduleSink<M>,
    /// In a partitioned window: takes the sends to other workers' actors.
    pub(crate) router: Option<&'a mut RoutingSink<'a, M>>,
}

impl<M> std::fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("self_id", &self.self_id)
            .finish()
    }
}

impl<M> Context<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The handling actor's own id.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Send `msg` to `to`, arriving after `delay_ms` (≥ 0) of simulated
    /// time. Equal-time sends from this actor are never reordered
    /// relative to each other.
    pub fn send(&mut self, to: ActorId, delay_ms: f64, msg: M) {
        assert!(to < self.actors, "message to unknown actor {to}");
        let at = self.now + SimDuration::from_ms(delay_ms);
        let lane = next_actor_lane(self.self_id, self.lane_counter);
        let event = Event::Message { from: self.self_id, msg };
        match self.router.as_deref_mut() {
            Some(router) if !router.owns(to) => router.forward(at, lane, to, event),
            _ => self.queue.schedule_event(at, lane, to, event),
        }
    }

    /// Arrange for a [`Event::Timer`] with `tag` to fire on this actor after
    /// `delay_ms`.
    pub fn set_timer(&mut self, delay_ms: f64, tag: u64) {
        let at = self.now + SimDuration::from_ms(delay_ms);
        let lane = next_actor_lane(self.self_id, self.lane_counter);
        self.queue.schedule_event(at, lane, self.self_id, Event::Timer { tag });
    }
}

/// Object-safe adapter that lets the non-generic [`Context`] schedule into
/// whichever [`EventQueue`] the simulation runs on.
pub(crate) trait ScheduleSink<M> {
    fn schedule_event(&mut self, at: SimTime, lane: u64, to: ActorId, event: Event<M>);
}

impl<M, Q: EventQueue<(ActorId, Event<M>)>> ScheduleSink<M> for Q {
    #[inline]
    fn schedule_event(&mut self, at: SimTime, lane: u64, to: ActorId, event: Event<M>) {
        self.schedule(at, lane, (to, event));
    }
}

/// One event loop's state: actors, their lane counters, the queue of their
/// pending events, a clock and an event count. A serial simulation is one
/// partition; a partitioned one has one per worker.
pub(crate) struct Partition<A, Q> {
    actors: Vec<A>,
    /// Per-actor lane counters, parallel to `actors`.
    lane_counters: Vec<u64>,
    pub(crate) queue: Q,
    pub(crate) now: SimTime,
    events: u64,
}

impl<A: Actor, Q: EventQueue<(ActorId, Event<A::Msg>)>> Partition<A, Q> {
    fn new(queue: Q) -> Self {
        Self { actors: Vec::new(), lane_counters: Vec::new(), queue, now: SimTime::ZERO, events: 0 }
    }

    /// The event loop's one step, on every engine: pop the next event,
    /// advance the clock to it, count it and hand it to its actor. Without
    /// a `router` this partition holds every actor; with one, actor ids map
    /// into this partition's slice and sends to other workers' actors leave
    /// through it. Returns `false` when the queue is empty.
    #[inline]
    pub(crate) fn dispatch<'r>(
        &'r mut self,
        router: Option<&'r mut RoutingSink<'r, A::Msg>>,
    ) -> bool {
        let Some((time, (target, event))) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "scheduler went backwards");
        self.now = time;
        self.events += 1;
        let (local, actors) = match &router {
            None => (target, self.actors.len()),
            Some(router) => (router.local_of[target] as usize, router.owner_of.len()),
        };
        // Disjoint field borrows: the handler mutates its own actor while
        // scheduling follow-ups straight into the queue.
        let mut ctx = Context {
            now: time,
            self_id: target,
            actors,
            lane_counter: &mut self.lane_counters[local],
            queue: &mut self.queue,
            router,
        };
        self.actors[local].on_event(&mut ctx, event);
        true
    }
}

/// A deterministic discrete-event simulation over a homogeneous set of
/// actors — serial by default, or split across worker partitions that run
/// in conservative lookahead windows ([`partitioned`](Self::partitioned)).
///
/// ```
/// use pbs_sim::{Actor, Context, Event, Simulation, SimTime};
///
/// struct Counter(u32);
/// impl Actor for Counter {
///     type Msg = u32;
///     fn on_event(&mut self, ctx: &mut Context<'_, u32>, ev: Event<u32>) {
///         if let Event::Message { msg, .. } = ev {
///             self.0 += msg;
///             if msg > 1 {
///                 // Halve and forward to ourselves 1ms later.
///                 ctx.send(ctx.self_id(), 1.0, msg / 2);
///             }
///         }
///     }
/// }
///
/// let mut sim = Simulation::new();
/// let a = sim.add_actor(Counter(0));
/// sim.inject(a, 0.0, 8);
/// sim.run_until_idle();
/// assert_eq!(sim.actor(a).0, 8 + 4 + 2 + 1);
/// assert_eq!(sim.now(), SimTime::from_ms(3.0));
/// ```
pub struct Simulation<A: Actor, Q = WheelQueue<(ActorId, Event<<A as Actor>::Msg>)>> {
    /// The serial engine's one partition, or one per worker.
    parts: Vec<Partition<A, Q>>,
    /// Lane counter for externally injected events (origin 0), shared by
    /// every partition so injections sort exactly as on the serial engine.
    injections: u64,
    /// Actor placement, lookahead and window state (`None` = serial).
    pdes: Option<Pdes<A, Q>>,
}

impl<A: Actor> Default for Simulation<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Actor> Simulation<A> {
    /// Empty simulation at time zero, on the timer wheel.
    pub fn new() -> Self {
        Self::with_queue(WheelQueue::default())
    }
}

impl<A: Actor + Send> Simulation<A>
where
    A::Msg: Send,
{
    /// Empty simulation at time zero whose actors are split across
    /// `workers` partitions, each with its own timer wheel, run in
    /// conservative windows ([`crate::pdes`]): inline for one worker, on
    /// scoped threads otherwise. Place actors with
    /// [`add_actor_on`](Self::add_actor_on) and drive it with
    /// [`run_until`](Self::run_until): the single-stepping calls panic.
    /// `lookahead` is the caller-guaranteed minimum delay of any
    /// cross-partition message; zero is [`PdesError::DegenerateLookahead`].
    pub fn partitioned(workers: usize, lookahead: SimDuration) -> Result<Self, PdesError> {
        Ok(Self {
            parts: (0..workers).map(|_| Partition::new(WheelQueue::default())).collect(),
            injections: 0,
            pdes: Some(Pdes::new(workers, lookahead)?),
        })
    }
}

impl<A: Actor, Q: EventQueue<(ActorId, Event<A::Msg>)>> Simulation<A, Q> {
    /// Empty serial simulation at time zero, scheduling through `queue` —
    /// for tests and benchmarks that pin a specific scheduler implementation
    /// (e.g. comparing [`HeapQueue`](crate::queue::HeapQueue) against
    /// [`WheelQueue`] on one workload).
    pub fn with_queue(queue: Q) -> Self {
        Self { parts: vec![Partition::new(queue)], injections: 0, pdes: None }
    }

    /// Register an actor (on worker 0 if partitioned); returns its id.
    pub fn add_actor(&mut self, actor: A) -> ActorId {
        self.add_actor_on(actor, 0)
    }

    /// Register an actor owned by partition `worker`; returns its id. The
    /// serial engine's one partition runs every worker's actors, so there
    /// `worker` is ignored and callers can place actors alike on either
    /// engine. Ids are global and dense across partitions.
    pub fn add_actor_on(&mut self, actor: A, worker: usize) -> ActorId {
        let id = self.parts.iter().map(|p| p.actors.len()).sum();
        let worker = match &mut self.pdes {
            None => 0,
            Some(pdes) => {
                assert!(worker < self.parts.len(), "unknown worker {worker}");
                pdes.owner_of.push(worker as u32);
                pdes.local_of.push(self.parts[worker].actors.len() as u32);
                worker
            }
        };
        self.parts[worker].actors.push(actor);
        self.parts[worker].lane_counters.push(0);
        id
    }

    /// `(partition, index within it)` of actor `id`.
    fn locate(&self, id: ActorId) -> (usize, usize) {
        match &self.pdes {
            None => (0, id),
            Some(pdes) => (pdes.owner_of[id] as usize, pdes.local_of[id] as usize),
        }
    }

    /// Immutable access to an actor (e.g. to read collected metrics).
    pub fn actor(&self, id: ActorId) -> &A {
        let (worker, local) = self.locate(id);
        &self.parts[worker].actors[local]
    }

    /// Mutable access to an actor between event processing.
    pub fn actor_mut(&mut self, id: ActorId) -> &mut A {
        let (worker, local) = self.locate(id);
        &mut self.parts[worker].actors[local]
    }

    /// Current simulated time: the timestamp of the last processed event,
    /// or the last [`run_until`](Self::run_until) deadline if later.
    pub fn now(&self) -> SimTime {
        // Every partition's clock ends each `run_until` at the deadline.
        self.parts[0].now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.parts.iter().map(|p| p.events).sum()
    }

    /// Timestamp of the next pending event, if any. Takes `&mut self`
    /// because the wheel scheduler materialises its front batch lazily.
    /// Panics on a partitioned simulation.
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        self.serial("peek_next_time").queue.next_time()
    }

    /// Number of events currently waiting in the scheduler queues. Open-loop
    /// drivers use this to verify the queue stays bounded by in-flight work
    /// rather than total trace length.
    pub fn pending_events(&self) -> usize {
        self.parts.iter().map(|p| p.queue.len()).sum()
    }

    /// Scheduler counters (peak pending events, cascades), summed across
    /// partitions.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        let mut total = SchedulerStats::default();
        for part in &self.parts {
            let s = part.queue.stats();
            total.peak_pending += s.peak_pending;
            total.cascaded += s.cascaded;
        }
        total
    }

    /// Whether this simulation was built with
    /// [`partitioned`](Self::partitioned).
    pub fn is_partitioned(&self) -> bool {
        self.pdes.is_some()
    }

    /// Replace a partitioned simulation's lookahead (e.g. after the latency
    /// model changed between runs). Rejects zero exactly like
    /// [`partitioned`](Self::partitioned); panics on the serial engine,
    /// which has no lookahead.
    pub fn set_lookahead(&mut self, lookahead: SimDuration) -> Result<(), PdesError> {
        let pdes = self.pdes.as_mut().expect("only a partitioned simulation has a lookahead");
        pdes.lookahead = check_lookahead(lookahead)?;
        Ok(())
    }

    /// Per-worker execution counters of a partitioned simulation (`None`
    /// on the serial engine).
    pub fn pdes_stats(&self) -> Option<PdesStats> {
        self.pdes.as_ref().map(|pdes| pdes.stats(self.parts.iter().map(|p| p.events)))
    }

    /// Inject an external message to `target`, `delay_ms` after the current
    /// simulated time. The `from` field is set to `target` itself.
    /// Injections sort before actor-scheduled events at the same instant.
    pub fn inject(&mut self, target: ActorId, delay_ms: f64, msg: A::Msg) {
        let at = self.now() + SimDuration::from_ms(delay_ms);
        self.inject_at(target, at, msg);
    }

    /// Inject an external message at an **absolute** simulated time, which
    /// must not precede the current time. Workload drivers use this to
    /// pre-schedule entire traces.
    pub fn inject_at(&mut self, target: ActorId, at: SimTime, msg: A::Msg) {
        let actors: usize = self.parts.iter().map(|p| p.actors.len()).sum();
        assert!(target < actors, "unknown actor {target}");
        assert!(at >= self.now(), "cannot schedule in the past: {at} < {}", self.now());
        debug_assert!(self.injections < (1 << LANE_SHIFT), "injection lane counter overflow");
        let lane = self.injections;
        self.injections += 1;
        let (worker, _) = self.locate(target);
        self.parts[worker].queue.schedule(at, lane, (target, Event::Message { from: target, msg }));
    }

    /// Run until the queue is empty **or** the next event is strictly after
    /// `deadline`; the clock is then advanced to `deadline` if it has not
    /// passed it. Events exactly at `deadline` are processed. A partitioned
    /// simulation gets there in lookahead windows, on every worker at once.
    pub fn run_until(&mut self, deadline: SimTime) {
        match &mut self.pdes {
            Some(pdes) => (pdes.run_until)(pdes, &mut self.parts, deadline),
            None => {
                let part = &mut self.parts[0];
                while let Some(t) = part.queue.next_time() {
                    if t > deadline {
                        break;
                    }
                    part.dispatch(None);
                }
                part.now = part.now.max(deadline);
            }
        }
    }

    /// The serial engine's one partition, for the calls that single-step it.
    fn serial(&mut self, call: &str) -> &mut Partition<A, Q> {
        assert!(
            self.pdes.is_none(),
            "Simulation::{call} single-steps the serial engine; a partitioned simulation \
             runs whole windows through run_until"
        );
        &mut self.parts[0]
    }

    /// Process a single event; returns `false` when the queue is empty.
    /// Panics on a partitioned simulation.
    pub fn step(&mut self) -> bool {
        self.serial("step").dispatch(None)
    }

    /// Run until no events remain. Panics on a partitioned simulation; use
    /// [`run_until`](Self::run_until) to bound non-quiescent systems.
    pub fn run_until_idle(&mut self) {
        let part = self.serial("run_until_idle");
        while part.dispatch(None) {}
    }
}

impl<A: Actor, Q: EventQueue<(ActorId, Event<A::Msg>)>> std::fmt::Debug for Simulation<A, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("partitions", &self.parts.len())
            .field("now", &self.now())
            .field("pending", &self.pending_events())
            .field("events_processed", &self.events_processed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every event it sees with its arrival time.
    struct Recorder {
        log: Vec<(SimTime, Event<&'static str>)>,
    }

    impl Actor for Recorder {
        type Msg = &'static str;
        fn on_event(&mut self, ctx: &mut Context<'_, &'static str>, ev: Event<&'static str>) {
            self.log.push((ctx.now(), ev));
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(Recorder { log: vec![] });
        sim.inject(a, 5.0, "late");
        sim.inject(a, 1.0, "early");
        sim.inject(a, 3.0, "middle");
        sim.run_until_idle();
        let texts: Vec<&str> = sim
            .actor(a)
            .log
            .iter()
            .map(|(_, e)| match e {
                Event::Message { msg, .. } => *msg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(texts, ["early", "middle", "late"]);
        assert_eq!(sim.now(), SimTime::from_ms(5.0));
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn equal_times_fire_in_schedule_order() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(Recorder { log: vec![] });
        for (i, name) in ["first", "second", "third"].iter().enumerate() {
            let _ = i;
            sim.inject(a, 2.0, name);
        }
        sim.run_until_idle();
        let texts: Vec<&str> = sim
            .actor(a)
            .log
            .iter()
            .map(|(_, e)| match e {
                Event::Message { msg, .. } => *msg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(texts, ["first", "second", "third"]);
    }

    /// Two actors bouncing a counter back and forth with asymmetric delays.
    struct Ponger {
        peer: Option<ActorId>,
        remaining: u32,
        received: u32,
    }

    impl Actor for Ponger {
        type Msg = u32;
        fn on_event(&mut self, ctx: &mut Context<'_, u32>, ev: Event<u32>) {
            if let Event::Message { msg, .. } = ev {
                self.received += 1;
                if msg > 0 {
                    if let Some(peer) = self.peer {
                        ctx.send(peer, 1.5, msg - 1);
                    }
                }
                self.remaining = msg;
            }
        }
    }

    #[test]
    fn ping_pong_terminates_with_correct_clock() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(Ponger { peer: None, remaining: 0, received: 0 });
        let b = sim.add_actor(Ponger { peer: None, remaining: 0, received: 0 });
        sim.actor_mut(a).peer = Some(b);
        sim.actor_mut(b).peer = Some(a);
        sim.inject(a, 0.0, 6);
        sim.run_until_idle();
        // 6 →5→4→3→2→1→0: seven messages total, six hops of 1.5 ms.
        assert_eq!(sim.actor(a).received + sim.actor(b).received, 7);
        assert_eq!(sim.now(), SimTime::from_ms(9.0));
    }

    struct TimerBeeper {
        fired: Vec<u64>,
    }

    impl Actor for TimerBeeper {
        type Msg = ();
        fn on_event(&mut self, ctx: &mut Context<'_, ()>, ev: Event<()>) {
            match ev {
                Event::Message { .. } => {
                    ctx.set_timer(10.0, 1);
                    ctx.set_timer(5.0, 2);
                }
                Event::Timer { tag } => self.fired.push(tag),
            }
        }
    }

    #[test]
    fn timers_fire_with_tags() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(TimerBeeper { fired: vec![] });
        sim.inject(a, 0.0, ());
        sim.run_until_idle();
        assert_eq!(sim.actor(a).fired, vec![2, 1]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(Recorder { log: vec![] });
        sim.inject(a, 1.0, "in-window");
        sim.inject(a, 2.0, "at-deadline");
        sim.inject(a, 3.0, "beyond");
        sim.run_until(SimTime::from_ms(2.0));
        assert_eq!(sim.actor(a).log.len(), 2, "deadline-inclusive");
        assert_eq!(sim.now(), SimTime::from_ms(2.0));
        sim.run_until_idle();
        assert_eq!(sim.actor(a).log.len(), 3);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut sim: Simulation<Recorder> = Simulation::new();
        let _ = sim.add_actor(Recorder { log: vec![] });
        sim.run_until(SimTime::from_ms(42.0));
        assert_eq!(sim.now(), SimTime::from_ms(42.0));
    }

    #[test]
    fn inject_at_absolute_time() {
        let mut sim = Simulation::new();
        let a = sim.add_actor(Recorder { log: vec![] });
        sim.inject_at(a, SimTime::from_ms(7.5), "x");
        sim.run_until_idle();
        assert_eq!(sim.actor(a).log[0].0, SimTime::from_ms(7.5));
    }

    #[test]
    #[should_panic(expected = "unknown actor")]
    fn inject_to_unknown_actor_panics() {
        let mut sim: Simulation<Recorder> = Simulation::new();
        sim.inject(3, 0.0, "nope");
    }

    #[test]
    #[should_panic(expected = "Simulation::step single-steps the serial engine")]
    fn step_on_a_partitioned_simulation_panics() {
        let mut sim = Simulation::partitioned(1, SimDuration::from_ms(1.0)).unwrap();
        let a = sim.add_actor(Recorder { log: vec![] });
        sim.inject(a, 0.0, "x");
        sim.step();
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sim = Simulation::new();
            let a = sim.add_actor(Ponger { peer: None, remaining: 0, received: 0 });
            let b = sim.add_actor(Ponger { peer: None, remaining: 0, received: 0 });
            sim.actor_mut(a).peer = Some(b);
            sim.actor_mut(b).peer = Some(a);
            sim.inject(a, 0.25, 11);
            sim.run_until_idle();
            (sim.now(), sim.events_processed())
        };
        assert_eq!(run(), run());
    }
}
