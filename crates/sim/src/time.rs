//! Virtual time: nanosecond-resolution instants and durations.
//!
//! Latencies throughout the workspace are `f64` milliseconds (matching the
//! paper's units); the simulator stores integer nanoseconds internally so
//! event ordering is exact and runs are bit-reproducible across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds per millisecond.
const NANOS_PER_MS: f64 = 1_000_000.0;

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from a millisecond offset (must be finite and nonnegative).
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        assert!(ms >= 0.0 && ms.is_finite(), "time must be finite and nonnegative, got {ms}");
        SimTime((ms * NANOS_PER_MS).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Convert to milliseconds (lossless for times below ~2^53 ns ≈ 104
    /// simulated days, far beyond any experiment here).
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / NANOS_PER_MS
    }

    /// Saturating difference `self − earlier`.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.as_ms())
    }
}

/// A span of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from milliseconds (finite, nonnegative).
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        assert!(ms >= 0.0 && ms.is_finite(), "duration must be finite and nonnegative, got {ms}");
        SimDuration((ms * NANOS_PER_MS).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Convert to milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / NANOS_PER_MS
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulated time overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("simulated duration overflow"))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        assert!(self >= rhs, "negative duration: {self} - {rhs}");
        SimDuration(self.0 - rhs.0)
    }
}

/// A per-node clock running at a fixed rate relative to simulated time.
///
/// The simulator's clock is the global (true) time axis — the paper's
/// t-visibility and the staleness ground truth are defined on it. Real
/// deployments have no such axis: each node schedules its protocol
/// timers (hinted-handoff flushes, anti-entropy rounds, timeouts) on a
/// local clock that drifts. `SkewedClock` models that drift as a
/// constant rate: a clock with `rate > 1` runs fast, so a timer armed
/// for `local_ms` on it fires after only `local_ms / rate` of global
/// time.
///
/// The conversion is deliberately stateless (a pure rate, no offset):
/// fault injection derives each node's rate from a seed, keeping skewed
/// runs bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewedClock {
    rate: f64,
}

impl SkewedClock {
    /// A true clock (rate exactly 1): local and global time agree.
    pub const IDENTITY: SkewedClock = SkewedClock { rate: 1.0 };

    /// A clock running at `rate` × global time (must be finite and
    /// positive).
    pub fn with_rate(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "clock rate must be finite and positive, got {rate}");
        SkewedClock { rate }
    }

    /// The clock's rate relative to global time.
    pub fn rate(self) -> f64 {
        self.rate
    }

    /// Whether this clock is exactly the identity (no skew).
    pub fn is_identity(self) -> bool {
        self.rate == 1.0
    }

    /// Global milliseconds until a timer armed for `local_ms` on this
    /// clock fires.
    pub fn global_delay_ms(self, local_ms: f64) -> f64 {
        local_ms / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_round_trip() {
        for ms in [0.0, 0.001, 1.0, 2.5, 1234.567, 1e9] {
            let t = SimTime::from_ms(ms);
            assert!((t.as_ms() - ms).abs() < 1e-6, "{ms}");
        }
    }

    #[test]
    fn ordering_is_exact() {
        // Nanosecond resolution: a 1 ns difference is preserved…
        let a = SimTime::from_ms(1.000001);
        let b = SimTime::from_ms(1.000002);
        assert!(a < b);
        // …while sub-nanosecond differences collapse (by design).
        assert_eq!(SimTime::from_ms(1.0000001), SimTime::from_ms(1.0000002));
        assert_eq!(SimTime::from_ms(2.0), SimTime::from_ms(2.0));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(10.0) + SimDuration::from_ms(2.5);
        assert!((t.as_ms() - 12.5).abs() < 1e-9);
        let d = SimTime::from_ms(12.5) - SimTime::from_ms(10.0);
        assert!((d.as_ms() - 2.5).abs() < 1e-9);
        let mut t2 = SimTime::ZERO;
        t2 += SimDuration::from_ms(1.0);
        assert_eq!(t2, SimTime::from_ms(1.0));
    }

    #[test]
    fn duration_since_saturates() {
        let early = SimTime::from_ms(1.0);
        let late = SimTime::from_ms(2.0);
        assert_eq!(early.duration_since(late), SimDuration::ZERO);
        assert!((late.duration_since(early).as_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_ms(-1.0);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn backwards_subtraction_panics() {
        let _ = SimTime::from_ms(1.0) - SimTime::from_ms(2.0);
    }

    #[test]
    fn skewed_clock_round_trips() {
        // A fast clock fires its timers early in global time, a slow one
        // late.
        let fast = SkewedClock::with_rate(1.25);
        assert!((fast.global_delay_ms(100.0) - 80.0).abs() < 1e-12);
        let slow = SkewedClock::with_rate(0.5);
        assert!((slow.global_delay_ms(50.0) - 100.0).abs() < 1e-12);
        // Round trip: over that global delay the clock itself, running at
        // `rate`, shows exactly the local interval asked for.
        for rate in [0.9, 1.0, 1.013, 2.0] {
            let c = SkewedClock::with_rate(rate);
            let back = c.global_delay_ms(7.5) * c.rate();
            assert!((back - 7.5).abs() < 1e-12, "rate {rate}");
        }
    }

    #[test]
    fn skewed_clock_identity() {
        assert!(SkewedClock::IDENTITY.is_identity());
        assert_eq!(SkewedClock::IDENTITY.global_delay_ms(42.0), 42.0);
        assert!(!SkewedClock::with_rate(1.001).is_identity());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_rate_clock_rejected() {
        let _ = SkewedClock::with_rate(0.0);
    }
}
