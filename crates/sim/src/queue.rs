//! Event-queue implementations behind the simulation scheduler.
//!
//! Both queues implement the **ordering contract** of [`EventQueue`]: events
//! are delivered in ascending `(time, lane)` order, the **lane** being a
//! caller-supplied `u64` tie-break, unique among equal-time events. The
//! engine derives lanes from `(scheduling actor, per-actor counter)` (see
//! [`crate::engine`]), which makes the key *locally computable*: a
//! partitioned simulation ([`crate::pdes`]) merges cross-partition events
//! into per-worker wheels without a global counter and still matches the
//! serial engine event for event. Because the contract is a total order,
//! any two correct implementations deliver bit-identical event sequences.
//!
//! * [`HeapQueue`] — the reference implementation: a `BinaryHeap` ordered
//!   by `(time, lane)`, `O(log n)` sifts over ~100-byte entries per operation.
//! * [`WheelQueue`] — a hierarchical timer wheel (calendar queue):
//!   amortised `O(1)` scheduling and `O(1)` pops, the default scheduler.
//!   Each item is stored once: in the ready batch, or in a slab whose
//!   24-byte links thread the wheel's buckets, one `u32` list head each.
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
/// Each event is stored once. One due at or below the ready batch's tick
/// goes straight into the batch, item and all. A later one leaves its item
/// in a payload slab and its key in a 24-byte link at the same index, and
/// the link threads it onto its bucket's list (Varghese & Lauck's hashed
/// wheel, SOSP 1987): a bucket is one `u32` list head, so the cascade
/// relinks an event instead of copying it, and no bucket holds storage of
/// its own. Expiring a tick walks its list into one sort buffer of
/// handles, sorts that and moves the items into the ready batch. Freed
/// slab slots are threaded onto a free list through the same links and
/// reused last-freed first, so the slab and the links grow to the peak
/// number of events in the wheel and no further, the sort buffer and the
/// ready batch to the largest tick, and steady-state scheduling performs
/// no allocation.
pub struct WheelQueue<T> {
    /// `LEVELS × SLOTS` bucket lists, indexed `level * SLOTS + slot`: the
    /// first link of each, or [`NIL`].
    heads: Box<[u32; LEVELS * SLOTS]>,
    /// Per-level occupancy bitmap (bit `s` ⇔ slot `s` non-empty).
    occupancy: [u64; LEVELS],
    /// The wheel position: tick of the most recently expired slot. All
    /// queued events in the wheel have ticks strictly greater; events at
    /// or below it live in `ready`.
    now_tick: u64,
    /// Sorted front batch in ascending `(time, lane)` order, with items.
    ready: VecDeque<Entry<T>>,
    /// The payload slab: the item of every event still in the wheel;
    /// `None` marks a free slot.
    items: Vec<Option<T>>,
    /// One link per slab slot, at the same index: a queued event's key and
    /// the next event of its bucket, or a free slot's next free slot.
    links: Vec<Link>,
    /// First free slab slot, or [`NIL`].
    free: u32,
    /// The expiring tick's handles, sorted before their items move into
    /// `ready`; empty between expiries.
    sorted: Vec<Handle>,
    len: usize,
    peak: usize,
    cascaded: u64,
}

/// The end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// A slab slot's link: 24 bytes.
#[derive(Clone, Copy)]
struct Link {
    time: SimTime,
    lane: u64,
    next: u32,
}

/// An expiring event's key and its slab slot: 24 bytes.
#[derive(Clone, Copy)]
struct Handle {
    time: SimTime,
    lane: u64,
    slot: u32,
}

impl Handle {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.lane)
    }
}

impl<T> Default for WheelQueue<T> {
    fn default() -> Self {
        Self {
            heads: Box::new([NIL; LEVELS * SLOTS]),
            occupancy: [0; LEVELS],
            now_tick: 0,
            ready: VecDeque::new(),
            items: Vec::new(),
            links: Vec::new(),
            free: NIL,
            sorted: Vec::new(),
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

    /// Merge an event into the sorted ready batch.
    fn make_ready(&mut self, e: Entry<T>) {
        // Fast path: a fresh zero-delay send usually carries the largest
        // key in the batch, so it belongs at the back unless larger-keyed
        // events are already waiting there.
        match self.ready.back() {
            Some(b) if b.key() > e.key() => {
                let i = self.ready.partition_point(|x| x.key() < e.key());
                self.ready.insert(i, e);
            }
            _ => self.ready.push_back(e),
        }
    }

    /// Link slab slot `slot`, an event at tick `t_tick` above the wheel
    /// position, onto the bucket of the level addressed by the highest
    /// 6-bit tick group in which the two differ.
    fn bucket(&mut self, slot: u32, t_tick: u64) {
        let diff = t_tick ^ self.now_tick;
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        let shift = LEVEL_BITS * level as u32;
        let bucket = ((t_tick >> shift) & SLOT_MASK) as usize;
        self.occupancy[level] |= 1 << bucket;
        let head = &mut self.heads[level * SLOTS + bucket];
        self.links[slot as usize].next = *head;
        *head = slot;
    }

    /// Move slab slot `slot`'s item out, freeing the slot.
    fn release(&mut self, slot: u32) -> T {
        self.links[slot as usize].next = self.free;
        self.free = slot;
        self.items[slot as usize].take().expect("a queued link names a full slot")
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
            // Unlink the whole list (`bucket` fills only strictly lower
            // slots). List order is arbitrary: the sort and the binary
            // insertion below restore key order.
            let mut at = std::mem::replace(&mut self.heads[level * SLOTS + slot], NIL);
            if level == 0 {
                // One tick's events: restore exact sub-tick order. Keys
                // are unique, so the unstable sort is deterministic.
                debug_assert!(self.ready.is_empty() && self.sorted.is_empty());
                let mut sorted = std::mem::take(&mut self.sorted);
                while at != NIL {
                    let Link { time, lane, next } = self.links[at as usize];
                    sorted.push(Handle { time, lane, slot: at });
                    at = next;
                }
                sorted.sort_unstable_by_key(Handle::key);
                for Handle { time, lane, slot } in sorted.drain(..) {
                    let item = self.release(slot);
                    self.ready.push_back(Entry { time, lane, item });
                }
                self.sorted = sorted;
            } else {
                // Redistribute into lower levels (strictly descends:
                // every tick in the slot agrees with `now_tick` above
                // this level's bit group).
                while at != NIL {
                    let Link { time, lane, next } = self.links[at as usize];
                    self.cascaded += 1;
                    let t_tick = time.as_nanos() >> TICK_SHIFT;
                    if t_tick <= self.now_tick {
                        let item = self.release(at);
                        self.make_ready(Entry { time, lane, item });
                    } else {
                        self.bucket(at, t_tick);
                    }
                    at = next;
                }
            }
            return;
        }
        unreachable!("advance() called with events queued but no occupied slot");
    }

    /// Length of the free list.
    #[cfg(test)]
    fn free_slots(&self) -> usize {
        let mut at = self.free;
        let mut n = 0;
        while at != NIL {
            at = self.links[at as usize].next;
            n += 1;
        }
        n
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
        let t_tick = at.as_nanos() >> TICK_SHIFT;
        if t_tick <= self.now_tick {
            self.make_ready(Entry { time: at, lane, item });
            return;
        }
        let link = Link { time: at, lane, next: NIL };
        let slot = match self.free {
            NIL => {
                let slot = u32::try_from(self.items.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("more than u32::MAX − 1 events queued");
                self.items.push(Some(item));
                self.links.push(link);
                slot
            }
            slot => {
                self.free = self.links[slot as usize].next;
                self.items[slot as usize] = Some(item);
                self.links[slot as usize] = link;
                slot
            }
        };
        self.bucket(slot, t_tick);
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::rc::Rc;

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
    fn slab_holds_each_event_once_across_level1_rotations() {
        // 80 rotations of level 1. Once per level-1 slot width: pop what is
        // due, then schedule 100 events spread over the next slot width, so
        // every level-1 slot in turn holds the whole steady set. Once per
        // rotation, 1,000 timers for one instant also wait in one level-1
        // slot and then in one level-0 slot. Buckets of their own each kept
        // the steady set's capacity (Σ 19,448 entries for a peak of 1,199);
        // here a bucket is a list head, the items, 88 bytes like the
        // engine's `(ActorId, Event<Msg>)`, wait once in the slab, and their
        // keys in one link each.
        let mut q: WheelQueue<[u64; 11]> = WheelQueue::new();
        let width_ns = (SLOTS as u64) << TICK_SHIFT;
        let mut lanes = 0u64..;
        for step in 0..80 * SLOTS as u64 {
            let now = step * width_ns;
            while q.next_time().is_some_and(|at| at.as_nanos() <= now) {
                q.pop();
            }
            for i in 0..100 {
                let at_ns = now + width_ns + i * width_ns / 100;
                q.schedule(t(at_ns as f64 / 1e6), lanes.next().unwrap(), [7; 11]);
            }
            for _ in 0..if step % SLOTS as u64 == 8 { 1_000 } else { 0 } {
                q.schedule(t(now as f64 / 1e6 + 120.0), lanes.next().unwrap(), [7; 11]);
            }
        }
        let peak = q.stats().peak_pending;
        assert_eq!(std::mem::size_of::<Link>(), 24);
        assert_eq!(std::mem::size_of::<Handle>(), 24);
        assert_eq!(q.links.len(), q.items.len(), "one link per slab slot");
        assert!(q.items.capacity() <= 2 * peak, "slab {} for peak {peak}", q.items.capacity());
        assert!(q.links.capacity() <= 2 * peak, "links {} for peak {peak}", q.links.capacity());
        let in_slab = q.items.iter().flatten().count();
        assert_eq!(in_slab + q.ready.len(), q.len(), "one item per queued event");
        assert_eq!(in_slab + q.free_slots(), q.items.len(), "a slot is queued or free");
        // The largest tick is the burst plus the one or two steady events
        // that share its 65.5 µs: the sort buffer is sized by it alone.
        let largest_tick = 1_002;
        assert!(q.sorted.capacity() >= 1_000, "the burst went through the sort buffer");
        assert!(q.sorted.capacity() <= 2 * largest_tick, "sort buffer {}", q.sorted.capacity());
    }

    /// Pushes its id to a shared log when dropped.
    struct Counted {
        id: u32,
        drops: Rc<RefCell<Vec<u32>>>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.borrow_mut().push(self.id);
        }
    }

    #[test]
    fn every_payload_is_dropped_exactly_once() {
        let drops = Rc::new(RefCell::new(Vec::new()));
        let mut q = WheelQueue::new();
        let mut rng = StdRng::seed_from_u64(3);
        let (mut now, mut popped) = (0.0, 0);
        for id in 0..2_000u32 {
            let at = now + f64::from(rng.gen_range(0..400u32)) * 0.5;
            q.schedule(t(at), u64::from(id), Counted { id, drops: Rc::clone(&drops) });
            if rng.gen_bool(0.4) {
                let (at, item) = q.pop().unwrap();
                now = at.as_ms();
                assert!(!drops.borrow().contains(&item.id), "{} dropped while queued", item.id);
                popped += 1;
            }
            assert_eq!(drops.borrow().len(), popped, "popped items drop once, queued ones never");
        }
        q.next_time();
        assert!(q.items.iter().flatten().count() > 100, "the slab is dropped with items in it");
        assert!(!q.ready.is_empty(), "so is the ready batch");
        drop(q);
        let mut ids = drops.take();
        ids.sort_unstable();
        assert_eq!(ids, (0..2_000).collect::<Vec<_>>(), "every item dropped exactly once");
    }

    #[test]
    fn wheel_matches_heap_while_reusing_slots() {
        // 2·10^5 operations around ~64 pending events, so slab slots are
        // freed and refilled thousands of times. Lanes carry random high
        // bits, so an equal-time insert often sorts before the whole of a
        // batch that `next_time` has already materialised.
        let mut rng = StdRng::seed_from_u64(11);
        let mut wheel: WheelQueue<u32> = WheelQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        let mut now = SimTime::ZERO;
        let (mut ops, mut preempting) = (0u32, 0u32);
        for id in 0..100_000u32 {
            let delta_ms = match rng.gen_range(0..4u32) {
                0 => 0.0,
                1 => f64::from(rng.gen_range(0..100u32)) * 1e-5,
                2 => f64::from(rng.gen_range(0..400u32)) * 0.25,
                _ => f64::from(rng.gen_range(0..100u32)) * 40.0,
            };
            let at = t(now.as_ms() + delta_ms);
            let lane = u64::from(rng.gen::<u32>()) << 32 | u64::from(id);
            if wheel.ready.front().is_some_and(|h| h.time == at && h.lane > lane) {
                preempting += 1;
            }
            wheel.schedule(at, lane, id);
            heap.schedule(at, lane, id);
            ops += 1;
            let pops = if wheel.len() > 64 { 2 } else { rng.gen_range(0..2u32) };
            for _ in 0..pops {
                let w = wheel.pop();
                assert_eq!(w, heap.pop(), "pop {ops} diverged");
                now = w.map_or(now, |(at, _)| at);
                ops += 1;
            }
            assert_eq!(wheel.next_time(), heap.next_time());
        }
        assert_eq!(drain(&mut wheel), drain(&mut heap));
        assert!(ops >= 100_000, "{ops} operations");
        assert!(preempting > 500, "{preempting} equal-time inserts went before a ready batch");
        assert!(wheel.items.len() <= wheel.stats().peak_pending);
        assert_eq!(wheel.free_slots(), wheel.items.len(), "every slot is free once drained");
    }
}
