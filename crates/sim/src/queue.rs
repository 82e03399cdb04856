//! Event-queue implementations behind the simulation scheduler.
//!
//! Both queues implement the **ordering contract** of [`EventQueue`]: events
//! are delivered in ascending `(time, lane)` order, the **lane** being a
//! caller-supplied `u64` tie-break, unique among equal-time events. The
//! engine derives lanes from `(scheduling actor, per-actor counter)` (see
//! [`crate::engine`]), which makes the key *locally computable*: the
//! parallel PDES engine ([`crate::pdes`]) merges cross-partition events
//! into per-worker wheels without a global counter and still matches the
//! serial engine event for event. Because the contract is a total order,
//! any two correct implementations deliver bit-identical event sequences.
//!
//! * [`HeapQueue`] — the reference implementation: a `BinaryHeap` ordered
//!   by `(time, lane)`, `O(log n)` sifts over ~100-byte entries per operation.
//! * [`WheelQueue`] — a hierarchical timer wheel (calendar queue):
//!   amortised `O(1)` scheduling and `O(1)` pops, the default scheduler.
//!
//! [`Simulation`](crate::Simulation) always runs on the wheel; a test pins the heap through
//! [`Simulation::with_queue`](crate::Simulation::with_queue) to compare the two on one workload.

use crate::time::SimTime;
use std::collections::{BinaryHeap, VecDeque};

/// Counters describing scheduler behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// High-water mark of [`EventQueue::len`].
    pub peak_pending: usize,
    /// Events redistributed from a higher wheel level to a lower one
    /// (0 for the heap; each event cascades at most `LEVELS − 1` times).
    pub cascaded: u64,
}

/// A priority queue of timestamped events with caller-supplied lane
/// tie-breaking.
///
/// The contract every implementation must honour: [`pop`](EventQueue::pop)
/// returns events in ascending `(time, lane)` order, where the lane is
/// supplied at [`schedule`](EventQueue::schedule) time and is unique among
/// events sharing a timestamp. Scheduling is only ever *forward*: never
/// below the time of the last popped event (the simulation clock is monotone).
pub trait EventQueue<T>: Default {
    /// Enqueue `item` to fire at `at`, tie-broken by `lane`.
    fn schedule(&mut self, at: SimTime, lane: u64, item: T);

    /// Remove and return the earliest event, or `None` when empty.
    fn pop(&mut self) -> Option<(SimTime, T)>;

    /// Timestamp of the earliest pending event. Takes `&mut self` because
    /// the wheel materialises its front batch lazily.
    fn next_time(&mut self) -> Option<SimTime>;

    /// Events currently queued.
    fn len(&self) -> usize;

    /// Whether no events are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scheduler counters (see [`SchedulerStats`]).
    fn stats(&self) -> SchedulerStats;
}

struct Entry<T> {
    time: SimTime,
    lane: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.lane)
    }
}

// --- HeapQueue: the reference binary-heap scheduler ---

struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.0.key().cmp(&self.0.key())
    }
}

/// The reference scheduler: a binary heap ordered by `(time, lane)`, kept
/// as the semantic oracle for the wheel's equivalence tests.
pub struct HeapQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    peak: usize,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self { heap: BinaryHeap::new(), peak: 0 }
    }
}

impl<T> HeapQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T> EventQueue<T> for HeapQueue<T> {
    fn schedule(&mut self, at: SimTime, lane: u64, item: T) {
        self.heap.push(HeapEntry(Entry { time: at, lane, item }));
        self.peak = self.peak.max(self.heap.len());
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|HeapEntry(e)| (e.time, e.item))
    }

    fn next_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.0.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats { peak_pending: self.peak, cascaded: 0 }
    }
}

// --- WheelQueue: hierarchical timer wheel (calendar queue) ---

/// Tick width: `2^16` ns ≈ 65.5 µs. Events within one tick are ordered
/// exactly (by their nanosecond timestamps) when the tick is drained.
const TICK_SHIFT: u32 = 16;
/// log2(slots per level).
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Levels. `LEVELS × LEVEL_BITS = 48` bits of tick, and ticks are
/// `nanos >> 16`, so the wheel spans the **entire** `u64` nanosecond
/// range — there is no overflow list to manage.
const LEVELS: usize = 8;

/// A hierarchical timer wheel — the default scheduler.
///
/// # Design
///
/// Time is quantised into `2^16` ns ticks. Eight levels of 64 slots each
/// hash events by successive 6-bit groups of their tick number, so the
/// wheel's horizon is `2^48` ticks = the full `u64` nanosecond range; no
/// separate overflow structure is needed. An event lands at the lowest
/// level whose 6-bit group differs from the current wheel position
/// (`O(1)`: one XOR + `leading_zeros`), and cascades toward level 0 as
/// the wheel's clock reaches its slot — each event moves at most
/// `LEVELS − 1` times in its life.
///
/// The wheel clock does not tick through empty slots: per-level occupancy
/// bitmaps let [`next_time`](EventQueue::next_time) jump straight to the
/// next occupied slot. When a level-0 slot (one tick) expires, its events
/// are sorted by `(time, lane)` — restoring exact sub-tick order — into a
/// sorted **ready batch**. Events scheduled at or below the ready batch's
/// tick (zero-delay sends are the common case) are merged into the batch
/// by binary insertion, which preserves the global delivery order for any
/// insertion sequence because `(time, lane)` keys are unique. Pops are
/// `O(1)` pops off the front of the batch.
///
/// Every slot keeps its own vector across drains, so steady-state
/// scheduling performs no allocation.
pub struct WheelQueue<T> {
    /// `LEVELS × SLOTS` unsorted buckets, indexed `level * SLOTS + slot`.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level occupancy bitmap (bit `s` ⇔ slot `s` non-empty).
    occupancy: [u64; LEVELS],
    /// The wheel position: tick of the most recently expired slot. All
    /// queued events in the wheel have ticks strictly greater; events at
    /// or below it live in `ready`.
    now_tick: u64,
    /// Sorted front batch in ascending `(time, lane)` order.
    ready: VecDeque<Entry<T>>,
    len: usize,
    peak: usize,
    cascaded: u64,
}

impl<T> Default for WheelQueue<T> {
    fn default() -> Self {
        Self {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            now_tick: 0,
            ready: VecDeque::new(),
            len: 0,
            peak: 0,
            cascaded: 0,
        }
    }
}

impl<T> WheelQueue<T> {
    /// Empty queue at tick zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Place an entry: into the sorted ready batch when its tick is at or
    /// below the wheel position, else into the wheel level addressed by
    /// the highest differing 6-bit tick group.
    fn place(&mut self, e: Entry<T>) {
        let t_tick = e.time.as_nanos() >> TICK_SHIFT;
        if t_tick <= self.now_tick {
            // Fast path: a fresh zero-delay send usually carries the
            // largest key in the batch, so it belongs at the back unless
            // larger-keyed events are already waiting there.
            match self.ready.back() {
                Some(b) if b.key() > e.key() => {
                    let i = self.ready.partition_point(|x| x.key() < e.key());
                    self.ready.insert(i, e);
                }
                _ => self.ready.push_back(e),
            }
        } else {
            let diff = t_tick ^ self.now_tick;
            let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
            let shift = LEVEL_BITS * level as u32;
            let slot = ((t_tick >> shift) & SLOT_MASK) as usize;
            self.occupancy[level] |= 1 << slot;
            self.slots[level * SLOTS + slot].push(e);
        }
    }

    /// Advance the wheel to the next occupied slot: drain a level-0 slot
    /// into `ready`, or expand one higher-level slot downward.
    fn advance(&mut self) {
        for level in 0..LEVELS {
            let shift = LEVEL_BITS * level as u32;
            let pos = ((self.now_tick >> shift) & SLOT_MASK) as u32;
            // Slots at or after the current position. The slot *at* the
            // position is always empty (drained when the clock passed it),
            // so the mask never re-delivers.
            let occ = self.occupancy[level] & (!0u64 << pos);
            if occ == 0 {
                continue; // nothing left at this level's current rotation
            }
            let slot = occ.trailing_zeros() as usize;
            self.occupancy[level] &= !(1u64 << slot);
            // Absolute tick of the slot's start: keep the bits above this
            // level, substitute the slot index, zero everything below.
            let span = shift + LEVEL_BITS;
            let high = if span >= 64 { 0 } else { (self.now_tick >> span) << span };
            self.now_tick = high | ((slot as u64) << shift);
            // The slot's own buffer, handed back below (`place` fills only
            // strictly lower slots): capacity never moves between slots.
            let idx = level * SLOTS + slot;
            let mut batch = std::mem::take(&mut self.slots[idx]);
            if level == 0 {
                // One tick's events: restore exact sub-tick order. Keys
                // are unique, so the unstable sort is deterministic.
                batch.sort_unstable_by_key(|e| (e.time, e.lane));
                debug_assert!(self.ready.is_empty());
                self.ready.extend(batch.drain(..));
            } else {
                // Redistribute into lower levels (strictly descends:
                // every tick in the slot agrees with `now_tick` above
                // this level's bit group).
                self.cascaded += batch.len() as u64;
                for e in batch.drain(..) {
                    self.place(e);
                }
            }
            self.slots[idx] = batch;
            return;
        }
        unreachable!("advance() called with events queued but no occupied slot");
    }

    fn ensure_ready(&mut self) {
        while self.ready.is_empty() && self.len > 0 {
            self.advance();
        }
    }
}

impl<T> EventQueue<T> for WheelQueue<T> {
    fn schedule(&mut self, at: SimTime, lane: u64, item: T) {
        self.len += 1;
        self.peak = self.peak.max(self.len);
        self.place(Entry { time: at, lane, item });
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.ensure_ready();
        let e = self.ready.pop_front()?;
        self.len -= 1;
        Some((e.time, e.item))
    }

    fn next_time(&mut self) -> Option<SimTime> {
        self.ensure_ready();
        self.ready.front().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats { peak_pending: self.peak, cascaded: self.cascaded }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    fn drain<Q: EventQueue<u32>>(q: &mut Q) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn wheel_orders_by_time_then_lane() {
        let mut q = WheelQueue::new();
        q.schedule(t(5.0), 0, 0);
        q.schedule(t(1.0), 1, 1);
        q.schedule(t(5.0), 2, 2);
        q.schedule(t(0.0), 3, 3);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, [3, 1, 0, 2], "time order, lane order on ties");
        // Lanes invert the tie-break independently of schedule order.
        let mut q = WheelQueue::new();
        q.schedule(t(5.0), 9, 0);
        q.schedule(t(5.0), 2, 1);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, [1, 0], "smaller lane fires first at equal time");
    }

    #[test]
    fn wheel_matches_heap_on_mixed_horizons() {
        // Timestamps spanning sub-tick spacing up to multi-level horizons
        // (0 ns … 10 min), interleaved with pops.
        let times_ms = [
            0.0, 0.000001, 0.0001, 0.07, 0.07, 1.0, 4.2, 4.2, 65.0, 300.0, 300.0, 4_000.0,
            17_000.0, 300_000.0, 600_000.0,
        ];
        let mut wheel = WheelQueue::new();
        let mut heap = HeapQueue::new();
        let mut w_out = Vec::new();
        let mut h_out = Vec::new();
        for (i, &ms) in times_ms.iter().enumerate() {
            wheel.schedule(t(ms), i as u64, i as u32);
            heap.schedule(t(ms), i as u64, i as u32);
            if i % 3 == 2 {
                w_out.extend(wheel.pop());
                h_out.extend(heap.pop());
            }
        }
        w_out.extend(drain(&mut wheel));
        h_out.extend(drain(&mut heap));
        assert_eq!(w_out, h_out);
    }

    #[test]
    fn zero_delay_insert_lands_after_equal_time_batch() {
        let mut q = WheelQueue::new();
        for i in 0..4 {
            q.schedule(t(2.0), u64::from(i), i);
        }
        assert_eq!(q.pop().map(|(_, v)| v), Some(0));
        // Scheduled mid-drain at the same instant with a larger lane:
        // fires after 1, 2, 3.
        q.schedule(t(2.0), 4, 99);
        let rest: Vec<u32> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(rest, [1, 2, 3, 99]);
    }

    #[test]
    fn mid_drain_insert_with_smaller_lane_preempts_batch() {
        // A remote merge (or an actor with a smaller id) may insert an
        // equal-time event whose lane sorts *before* the rest of the
        // materialised batch; binary insertion must honour the key.
        let mut q = WheelQueue::new();
        for i in 0..3 {
            q.schedule(t(2.0), 10 + u64::from(i), i);
        }
        assert_eq!(q.pop().map(|(_, v)| v), Some(0));
        q.schedule(t(2.0), 5, 99);
        let rest: Vec<u32> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(rest, [99, 1, 2]);
    }

    #[test]
    fn between_batch_insert_preempts_ready() {
        let mut q = WheelQueue::new();
        q.schedule(t(0.0), 0, 0);
        q.schedule(t(100.0), 1, 1);
        assert_eq!(q.pop().map(|(_, v)| v), Some(0));
        // next_time materialises the t=100 batch; an insert *between* the
        // popped time and the batch must still fire first.
        assert_eq!(q.next_time(), Some(t(100.0)));
        q.schedule(t(50.0), 2, 2);
        q.schedule(t(100.0), 3, 3);
        let rest: Vec<u32> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(rest, [2, 1, 3]);
    }

    #[test]
    fn far_future_spans_all_levels() {
        // ~3.2 simulated years exercises the top wheel levels.
        let mut q = WheelQueue::new();
        q.schedule(SimTime::from_ms(1e11), 0, 0);
        q.schedule(t(0.5), 1, 1);
        let out = drain(&mut q);
        assert_eq!(out[0], (t(0.5), 1));
        assert_eq!(out[1], (SimTime::from_ms(1e11), 0));
        assert!(q.is_empty());
    }

    #[test]
    fn max_time_is_representable() {
        let mut q = WheelQueue::new();
        q.schedule(SimTime::MAX, 0, 7);
        q.schedule(SimTime::ZERO, 1, 8);
        assert_eq!(q.next_time(), Some(SimTime::ZERO));
        let out = drain(&mut q);
        assert_eq!(out.last(), Some(&(SimTime::MAX, 7)));
    }

    #[test]
    fn stats_track_pending_and_cascades() {
        let mut q: WheelQueue<u32> = WheelQueue::new();
        for i in 0..10 {
            q.schedule(t(1_000.0 + f64::from(i)), u64::from(i), i); // beyond level 0 → cascades
        }
        assert_eq!(q.len(), 10);
        let _ = drain(&mut q);
        let s = q.stats();
        assert!(q.is_empty());
        assert!(s.cascaded > 0, "ms-scale timers must cascade");
        assert_eq!(s.peak_pending, 10);
    }

    #[test]
    fn drained_slots_keep_their_own_capacity() {
        // 300 level-1 rotations of 0.1 ms timers, each with one burst of
        // 1,000 far timers that waits in the same level-1 slot. Handed on to
        // the next drained slot, burst-sized buffers would reach every slot.
        let mut q: WheelQueue<u32> = WheelQueue::new();
        let step_ms = ((SLOTS * SLOTS) << TICK_SHIFT) as f64 / 256e6;
        let mut lanes = 0u64..;
        for step in 0..300 * 256u32 {
            let now = f64::from(step) * step_ms;
            q.schedule(t(now + 0.1), lanes.next().unwrap(), 0);
            for _ in 0..if step % 256 == 8 { 1_000 } else { 0 } {
                q.schedule(t(now + 120.0), lanes.next().unwrap(), 1);
            }
            while q.next_time().is_some_and(|at| at <= t(now)) {
                q.pop();
            }
        }
        let capacity: usize = q.slots.iter().map(Vec::capacity).sum();
        assert!(capacity <= 4 * q.stats().peak_pending, "capacity {capacity}: {:?}", q.stats());
    }
}
