//! Counting global allocator for the traced binary.
//!
//! The library crates forbid `unsafe`; a `GlobalAlloc` impl cannot avoid it,
//! so it lives here, in the benchmark package, and only `perf-trace` installs
//! it (`perf-record`, which produces every end-to-end number, runs on the
//! plain system allocator).
//!
//! Counting is gated by [`set_counting`]: the traced run alternates
//! instrumented and bare rounds to price its own overhead, and a bare round
//! must not pay for four atomics per allocation. Live-byte readings are
//! therefore only meaningful as *deltas inside one counting period* (net
//! bytes allocated minus net bytes freed while counting) — which is exactly
//! how [`Snapshot::since`] is used.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Delegates to [`System`], counting calls, bytes, live bytes and their
/// high-water mark while counting is on.
#[derive(Debug)]
pub struct Counting;

#[inline]
fn on_alloc(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

#[inline]
fn on_free(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed atomics that
// publish no other data and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, forwarded as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` was returned by `System` for this `layout` (all
        // allocation goes through the methods of this impl).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, forwarded as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }
}

/// Turn counting on or off. A no-op (the counters simply stay 0) in a
/// binary that did not install [`Counting`].
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls counted so far.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Net live bytes (allocated − freed while counting).
    pub live: i64,
    /// High-water mark of `live`.
    pub peak: i64,
}

impl Snapshot {
    /// Read the counters.
    pub fn now() -> Self {
        Self {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            live: LIVE.load(Ordering::Relaxed),
            peak: PEAK.load(Ordering::Relaxed),
        }
    }

    /// `self − earlier`, field by field (`peak` is carried over, not
    /// differenced: a high-water mark has no meaningful delta).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            live: self.live - earlier.live,
            peak: self.peak,
        }
    }
}
