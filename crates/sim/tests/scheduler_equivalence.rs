//! Scheduler-equivalence tests: the timer wheel must deliver **exactly**
//! the event order of the reference binary heap on any workload.
//!
//! The ordering contract (ascending `(time, lane)` with unique lanes) is
//! a total order, so the two queues have one correct answer —
//! these tests drive randomized workloads through both and assert
//! bit-identical delivery, both at the queue level (random schedule/pop
//! interleavings, clustered and far-flung timestamps) and at the
//! simulation level (a feedback actor whose every event deterministically
//! schedules more work, run once per scheduler).

use pbs_sim::{
    Actor, ActorId, Context, Event, EventQueue, HeapQueue, SimTime, Simulation, WheelQueue,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Queue-level equivalence on random schedule/pop interleavings.
// ---------------------------------------------------------------------------

/// One scripted action against both queues.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Schedule at `now + delta_ns` (deltas of 0 exercise equal-time FIFO).
    Schedule { delta_ns: u64 },
    /// Pop once from both queues and compare.
    Pop,
}

fn run_script(actions: &[Action]) {
    let mut wheel: WheelQueue<u32> = WheelQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    // The "current time" mirrors a simulation clock: it only advances to
    // the time of the last popped event, and schedules are relative to it.
    let mut now = SimTime::ZERO;
    let mut id = 0u32;
    for action in actions {
        match *action {
            Action::Schedule { delta_ns } => {
                let at = SimTime::from_ms(now.as_ms() + delta_ns as f64 / 1e6);
                wheel.schedule(at, u64::from(id), id);
                heap.schedule(at, u64::from(id), id);
                id += 1;
            }
            Action::Pop => {
                let w = wheel.pop();
                let h = heap.pop();
                prop_assert_eq!(w, h, "pop diverged");
                if let Some((t, _)) = w {
                    now = t;
                }
            }
        }
    }
    // Drain the rest in lockstep.
    loop {
        prop_assert_eq!(wheel.next_time(), heap.next_time(), "peek diverged");
        let w = wheel.pop();
        let h = heap.pop();
        prop_assert_eq!(w, h, "drain diverged");
        if w.is_none() {
            break;
        }
    }
    prop_assert_eq!(wheel.len(), 0);
    prop_assert_eq!(heap.len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Random interleavings of schedules and pops, with deltas spanning
    /// sub-tick (0–65 µs), slot-local, and multi-level horizons.
    #[test]
    fn wheel_matches_heap_on_random_interleavings(
        ops in prop::collection::vec((any::<u64>(), any::<u64>()), 1..200)
    ) {
        let actions: Vec<Action> = ops
            .iter()
            .map(|&(kind, raw)| {
                if kind % 4 == 0 {
                    Action::Pop
                } else {
                    // Bucket the raw delta into qualitatively different
                    // horizons: same-instant, sub-tick, ~ms, ~minute.
                    let delta_ns = match kind % 4 {
                        1 => raw % 3,                        // equal-time ties
                        2 => raw % 70_000,                   // within a tick
                        _ => raw % 60_000_000_000,           // up to a minute
                    };
                    Action::Schedule { delta_ns }
                }
            })
            .collect();
        run_script(&actions);
    }
}

// ---------------------------------------------------------------------------
// Simulation-level equivalence: a feedback workload on both schedulers.
// ---------------------------------------------------------------------------

/// An actor that logs every event and deterministically schedules
/// follow-up messages and timers from its own seeded RNG — events at
/// identical times, zero-delay sends, and multi-actor fan-out included.
struct Chaos {
    rng: StdRng,
    peers: usize,
    budget: u32,
    log: Vec<(u64, ActorId, u64)>,
}

impl Actor for Chaos {
    type Msg = u64;

    fn on_event(&mut self, ctx: &mut Context<'_, u64>, event: Event<u64>) {
        let payload = match event {
            Event::Message { msg, .. } => msg,
            Event::Timer { tag } => tag | 1 << 63,
        };
        self.log.push((ctx.now().as_nanos(), ctx.self_id(), payload));
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let fanout = self.rng.gen_range(0..3u32);
        for _ in 0..fanout {
            let to = self.rng.gen_range(0..self.peers);
            // Mix zero delays (equal-time FIFO), sub-ms, and second-scale.
            let delay_ms = match self.rng.gen_range(0..4u32) {
                0 => 0.0,
                1 => self.rng.gen::<f64>() * 0.05,
                2 => self.rng.gen::<f64>() * 7.0,
                _ => self.rng.gen::<f64>() * 3_000.0,
            };
            ctx.send(to, delay_ms, payload.wrapping_add(self.budget as u64));
        }
        if self.rng.gen::<f64>() < 0.3 {
            ctx.set_timer(self.rng.gen::<f64>() * 500.0, self.budget as u64);
        }
    }
}

/// How [`chaos_run`] advances the simulation.
#[derive(Clone, Copy)]
enum Drive {
    /// `run_until_idle` in one go.
    Idle,
    /// The way `pbs-kvs`'s `Cluster::drain_window_into` drives the engine:
    /// `run_until` one fixed window at a time — so the queue's `next_time`
    /// peek is compared against a deadline — with an `inject_at` between
    /// windows, alternately exactly at the boundary just reached and
    /// inside the next window.
    Windowed { window_ms: f64 },
}

fn chaos_run<Q: EventQueue<(ActorId, Event<u64>)>>(
    seed: u64,
    drive: Drive,
) -> Vec<(u64, ActorId, u64)> {
    let actors = 5usize;
    let mut sim: Simulation<Chaos, Q> = Simulation::with_queue(Q::default());
    for i in 0..actors {
        sim.add_actor(Chaos {
            rng: StdRng::seed_from_u64(seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9)),
            peers: actors,
            budget: 400,
            log: Vec::new(),
        });
    }
    for i in 0..actors {
        sim.inject(i, i as f64 * 0.25, i as u64);
    }
    match drive {
        Drive::Idle => sim.run_until_idle(),
        Drive::Windowed { window_ms } => {
            let mut window = 0u64;
            while sim.pending_events() > 0 {
                window += 1;
                let deadline = SimTime::from_ms(window as f64 * window_ms);
                sim.run_until(deadline);
                assert_eq!(sim.now(), deadline);
                if window <= 200 {
                    let at = if window.is_multiple_of(2) {
                        deadline
                    } else {
                        SimTime::from_ms((window as f64 + 0.5) * window_ms)
                    };
                    sim.inject_at(window as usize % actors, at, 1 << 40 | window);
                }
            }
        }
    }
    let mut log = Vec::new();
    for i in 0..actors {
        log.extend(sim.actor(i).log.iter().copied());
    }
    // Merge per-actor logs into one global order by (time, actor, payload):
    // within one actor the log is already in delivery order, and the
    // comparison below is only meaningful if both runs order identically.
    log.sort_unstable();
    log
}

/// The full event loop produces bit-identical histories on the heap and
/// the wheel, drained in one go or window by window — the end-to-end
/// witness that swapping the scheduler cannot perturb any seeded run (the
/// sharded bitwise-determinism tests in `tests/open_loop.rs` assert the
/// same at the workload level).
#[test]
fn simulation_histories_identical_across_schedulers() {
    for seed in [3, 17, 99, 2026] {
        for (mode, drive) in
            [("idle", Drive::Idle), ("windowed", Drive::Windowed { window_ms: 37.0 })]
        {
            let wheel = chaos_run::<WheelQueue<(ActorId, Event<u64>)>>(seed, drive);
            let heap = chaos_run::<HeapQueue<(ActorId, Event<u64>)>>(seed, drive);
            assert!(!wheel.is_empty(), "workload generated no events");
            assert_eq!(wheel, heap, "seed {seed} {mode}: scheduler changed the event history");
        }
    }
}

/// Equal-time storms: thousands of events at the same instant must drain
/// in lane order on both queues.
#[test]
fn equal_time_storm_preserves_fifo() {
    let mut wheel: WheelQueue<u32> = WheelQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let t = SimTime::from_ms(1.5);
    for i in 0..5_000 {
        wheel.schedule(t, u64::from(i), i);
        heap.schedule(t, u64::from(i), i);
    }
    for expect in 0..5_000 {
        assert_eq!(wheel.pop(), Some((t, expect)));
        assert_eq!(heap.pop(), Some((t, expect)));
    }
}
