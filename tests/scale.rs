//! Million-client-scale acceptance tests, instrumented with a counting
//! global allocator so the bytes-per-client budget is *measured*, not
//! estimated.
//!
//! This file holds three tier-1 tests (plus an `#[ignore]`d heavy one), and
//! each holds [`SERIAL`] for its whole body, so no concurrently running
//! test in the same process pollutes the live-bytes deltas — with
//! `--include-ignored` too.
//!
//! The `pbs-kvs` and `pbs-workload` library crates `forbid(unsafe_code)`;
//! the allocator shim lives here, in the integration-test crate, which is
//! compiled separately and may use `unsafe` for the `GlobalAlloc` impl.

use pbs::dist::Exponential;
use pbs::kvs::staleness::GroundTruth;
use pbs::kvs::{ClientOptions, Cluster, ClusterOptions, NetworkModel};
use pbs::math::ReplicaConfig;
use pbs::sim::{EventQueue, SimTime, WheelQueue};
use pbs::workload::{KeyChooser, OpMix, Poisson, SharedStream, Zipf};
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Wraps the system allocator and tracks live (allocated − freed) bytes
/// and their peak.
/// Relaxed counters: the tests below snapshot while single-threaded, and
/// even under the parallel engine the deltas are read only at quiescent
/// points (between `drain_window` calls).
struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn bump(size: usize) {
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            bump(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            bump(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// The tests read the one global [`LIVE`] counter and cargo runs tests
/// concurrently: each holds this lock for its whole body. A failed test
/// poisons it, which must not fail the others too.
static SERIAL: Mutex<()> = Mutex::new(());

fn cluster(seed: u64, nodes: u32) -> Cluster {
    let mut opts = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).unwrap(), seed);
    opts.nodes = nodes;
    opts.op_timeout_ms = 1_000.0;
    let net = NetworkModel::w_ars(
        Arc::new(Exponential::from_mean(10.0)),
        Arc::new(Exponential::from_mean(2.0)),
    );
    Cluster::new(opts, net)
}

/// The hard budget: steady-state client-table memory must stay at or
/// under 96 bytes per client. A client costs one 64-byte row (RNG 32 +
/// pacing 16 + next-op key 8 + op counter 4 + in-flight count and next
/// kind 4) plus one 16-byte arrival-heap entry — 80 B; traced `scale100k`
/// reads 80.09 in `kvs.client.table_bytes_per_client`, and in-flight ops
/// live in one per-table map — so the budget leaves headroom without
/// hiding regressions.
const BYTES_PER_CLIENT_BUDGET: u64 = 96;

/// Live bytes the tables take at start, live bytes added by the end of the
/// run, and the highest live bytes added at any instant between.
fn measure(
    clients: u32,
    keys: u64,
    windows: u32,
    window_ms: f64,
    rate_hz: f64,
) -> (u64, u64, u64) {
    let mut c = cluster(97, 8);
    let copts = ClientOptions { op_timeout_ms: 1_000.0, ..ClientOptions::default() };
    let source = Arc::new(SharedStream::new(
        Poisson::per_second(rate_hz),
        Zipf::new(keys, 0.99),
        OpMix::new(0.8),
    ));

    let before = live_bytes();
    PEAK.store(before, Relaxed);
    c.add_clients_shared(clients, source, copts);
    c.start_clients();
    // Process the StartClient events (they pull each client's first
    // arrival into the table and the scheduler) without issuing any ops.
    c.drain_window(SimTime::from_ms(1e-3));
    let after_tables = live_bytes();
    let table_bytes = after_tables - before;

    let mut issued_some = false;
    for w in 1..=windows {
        let drain = c.drain_window(SimTime::from_ms(w as f64 * window_ms));
        issued_some |= !drain.writes.is_empty() || !drain.reads.is_empty();
    }
    assert!(issued_some, "the run must actually issue operations");
    let stats = c.client_stats();
    assert_eq!(stats.dropped_results, 0, "windows drained promptly; nothing shed");
    assert!(stats.issued > 0);

    // Steady-state growth beyond the tables themselves: session entries,
    // ground truth (watermark-GC'd), drain buffers.
    let steady = live_bytes().saturating_sub(before);
    let peak = PEAK.load(Relaxed).saturating_sub(before);
    (table_bytes, steady, peak)
}

/// Tier-1 scale gate: 100k clients fit the per-client budget, and a
/// short steady-state run (sessions + watermark-GC'd ground truth +
/// drain buffers included) stays within 4× of it, at its end and at its
/// peak (a table growth holds its old and new storage at once).
#[test]
fn hundred_thousand_clients_fit_the_byte_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let clients = 100_000u32;
    let (table_bytes, steady, peak) = measure(clients, 1_000_000, 4, 250.0, 0.2);
    let per_client = table_bytes / clients as u64;
    assert!(
        per_client <= BYTES_PER_CLIENT_BUDGET,
        "client tables cost {per_client} B/client (budget {BYTES_PER_CLIENT_BUDGET})"
    );
    let steady_per_client = steady / clients as u64;
    assert!(
        steady_per_client <= 4 * BYTES_PER_CLIENT_BUDGET,
        "steady state costs {steady_per_client} B/client"
    );
    let peak_per_client = peak / clients as u64;
    assert!(
        peak_per_client <= 4 * BYTES_PER_CLIENT_BUDGET,
        "the run peaked at {peak_per_client} B/client above its start"
    );
}

/// The ground truth's budget per tracked key, GC on. A key is one 48-byte
/// map bucket (key + history) plus one allocation of 24-byte
/// `(commit, seq, running max)` entries grown by about half; the stream
/// below reads 146 B per key. Two parallel `Vec`s per key, each starting
/// at four slots in a 72-byte bucket, read 245.
const GROUND_TRUTH_BYTES_PER_KEY_BUDGET: u64 = 200;

/// Tier-1 ground-truth gate: a bare `GroundTruth` fed `scale100k`'s commit
/// stream — Zipf(0.99) over 1M keys, ~5k commits per 100 ms window, 25
/// windows, GC'd at the 2 s op-timeout — stays within its budget per key.
#[test]
fn ground_truth_fits_the_byte_budget_per_key() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let keys = Zipf::new(1_000_000, 0.99);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6A7E);
    let before = live_bytes();
    let mut gt = GroundTruth::new();
    gt.enable_gc(2_000.0);
    let window_ms = 100.0;
    for w in 0..25 {
        let from = w as f64 * window_ms;
        for _ in 0..5_000 {
            // A write starts in the window, commits a few ms later, and its
            // sequence is its start instant in ns + 1.
            let start = from + rng.gen::<f64>() * window_ms;
            let commit = start + 0.001 + rng.gen::<f64>() * 30.0;
            let seq = (start * 1e6) as u64 + 1;
            gt.ingest_commit(keys.choose(&mut rng), seq, SimTime::from_ms(commit));
        }
        gt.advance_watermark(SimTime::from_ms(from + window_ms));
    }
    let bytes = live_bytes().saturating_sub(before);
    let tracked = gt.tracked_keys().len() as u64;
    assert!(tracked > 30_000, "the stream must spread over the key space ({tracked} keys)");
    let per_key = bytes / tracked;
    assert!(
        per_key <= GROUND_TRUTH_BYTES_PER_KEY_BUDGET,
        "the ground truth costs {per_key} B/key over {tracked} keys \
         (budget {GROUND_TRUTH_BYTES_PER_KEY_BUDGET})"
    );
}

/// Tier-1 scheduler gate: the event wheel holds each queued event once and
/// no peak it no longer has. 80 rotations of the wheel's level 1: once per
/// level-1 slot width (64 ticks of 2^16 ns) pop what is due and schedule
/// 100 events spread over the next width, so every level-1 slot in turn
/// holds the steady set; once per rotation 1,000 timers for one instant
/// also wait in one level-1 slot, then one level-0 slot. Items are 88
/// bytes, like the engine's `(ActorId, Event<Msg>)`.
///
/// The budget, at the run's peak of live bytes: twice the peak of pending
/// events in slab slots (an `Option<[u64; 11]>`, 96 B) and 24-byte links,
/// plus the largest tick (the burst and the one or two steady events in
/// its 65.5 µs) in ready-batch entries (104 B) and 24-byte sort handles,
/// plus 512 `u32` bucket heads. The run peaks at 1,199 pending events, so
/// the budget is 418,064 B. A bucket that is one list head through the
/// links reads 378,880. Buckets that are vectors of their own, each keeping
/// the capacity it once held, read 790,336: Σ 19,448 handles for that peak.
#[test]
fn the_event_wheel_holds_each_queued_event_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = live_bytes();
    PEAK.store(before, Relaxed);
    let mut q: WheelQueue<[u64; 11]> = WheelQueue::new();
    let width_ns = 64u64 << 16;
    let mut lanes = 0u64..;
    for step in 0..80 * 64 {
        let now = step * width_ns;
        while q.next_time().is_some_and(|at| at.as_nanos() <= now) {
            q.pop();
        }
        for i in 0..100 {
            let at = SimTime::from_ms((now + width_ns + i * width_ns / 100) as f64 / 1e6);
            q.schedule(at, lanes.next().unwrap(), [7; 11]);
        }
        for _ in 0..if step % 64 == 8 { 1_000 } else { 0 } {
            q.schedule(SimTime::from_ms(now as f64 / 1e6 + 120.0), lanes.next().unwrap(), [7; 11]);
        }
    }
    let peak_bytes = PEAK.load(Relaxed) - before;
    let pending = q.stats().peak_pending as u64;
    let (slot, link, entry, handle) = (96, 24, 104, 24);
    let largest_tick = 1_002;
    let budget = 2 * pending * (slot + link) + largest_tick * (entry + handle) + 512 * 4;
    assert_eq!(std::mem::size_of::<Option<[u64; 11]>>() as u64, slot);
    assert_eq!(pending, 1_199, "the load's peak");
    assert!(
        peak_bytes <= budget,
        "the wheel held {peak_bytes} B for a peak of {pending} events (budget {budget})"
    );
}

/// The headline number: one million concurrent clients over a ten-million
/// key Zipf universe, within the same per-client budget. Run with
/// `cargo test --release --test scale -- --ignored` (debug builds work
/// but take minutes).
#[test]
#[ignore = "heavy: ~1 GiB peak, run explicitly in release"]
fn one_million_clients_ten_million_keys() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let clients = 1_000_000u32;
    let (table_bytes, _steady, _peak) = measure(clients, 10_000_000, 4, 100.0, 0.05);
    let per_client = table_bytes / clients as u64;
    assert!(
        per_client <= BYTES_PER_CLIENT_BUDGET,
        "client tables cost {per_client} B/client (budget {BYTES_PER_CLIENT_BUDGET})"
    );
}
