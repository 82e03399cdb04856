//! Operation arrival processes.

use rand::Rng;
use rand::RngCore;

/// A stationary arrival process generating inter-arrival gaps in
/// milliseconds.
pub trait ArrivalProcess: Send + Sync {
    /// Sample the next inter-arrival gap (ms, ≥ 0).
    fn next_gap(&mut self, rng: &mut dyn RngCore) -> f64;
}

/// Marker for arrival processes that are **memoryless across calls**: a
/// copy of the process produces the same gap distribution as the original,
/// because `next_gap` keeps no state between draws.
///
/// Only such processes may back a [`SharedOpSource`], where one immutable
/// value serves millions of clients concurrently. [`PiecewisePoisson`]
/// carries per-stream state (its stream clock) and deliberately does not
/// qualify.
///
/// [`SharedOpSource`]: crate::ops::SharedOpSource
pub trait StationaryArrivals: ArrivalProcess + Copy {}

impl StationaryArrivals for FixedRate {}
impl StationaryArrivals for Poisson {}

/// Deterministic fixed-interval arrivals.
#[derive(Debug, Clone, Copy)]
pub struct FixedRate {
    gap_ms: f64,
}

impl FixedRate {
    /// One arrival every `gap_ms > 0` milliseconds.
    pub fn new(gap_ms: f64) -> Self {
        assert!(gap_ms > 0.0 && gap_ms.is_finite());
        Self { gap_ms }
    }

    /// From a rate in operations/second.
    pub fn per_second(ops: f64) -> Self {
        assert!(ops > 0.0);
        Self::new(1000.0 / ops)
    }
}

impl ArrivalProcess for FixedRate {
    fn next_gap(&mut self, _rng: &mut dyn RngCore) -> f64 {
        self.gap_ms
    }
}

/// Poisson arrivals (exponential gaps) with a given mean rate.
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    rate_per_ms: f64,
}

impl Poisson {
    /// From a rate in operations per millisecond.
    pub fn per_ms(rate_per_ms: f64) -> Self {
        assert!(rate_per_ms > 0.0 && rate_per_ms.is_finite());
        Self { rate_per_ms }
    }

    /// From a rate in operations per second (e.g. Table 2's 718.18 gets/s).
    pub fn per_second(ops: f64) -> Self {
        Self::per_ms(ops / 1000.0)
    }
}

impl ArrivalProcess for Poisson {
    fn next_gap(&mut self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.rate_per_ms
    }
}

/// A **nonstationary** Poisson process with a piecewise-constant rate —
/// the declarative load timeline of `pbs-scenario`'s chaos scenarios
/// (diurnal load curves, traffic steps, flash crowds).
///
/// Segments are `(start_ms, rate_per_ms)` pairs with strictly increasing
/// starts, the first at 0. The last segment either extends forever or, in
/// [`cyclic`](Self::cyclic) mode, wraps back to the first after
/// `period_ms` (a repeating diurnal cycle).
///
/// Sampling uses the exponential's memorylessness: a gap drawn in the
/// current segment that would cross the next boundary is discarded and
/// redrawn from the boundary, which yields an exact piecewise-constant
/// intensity. The process tracks its own absolute clock (ms since
/// [`reset`](Self::reset)); [`next_gap`](ArrivalProcess::next_gap)
/// advances it.
#[derive(Debug, Clone)]
pub struct PiecewisePoisson {
    /// `(start_ms, rate_per_ms)`, first start at 0, starts increasing.
    segments: Vec<(f64, f64)>,
    /// Cycle length; `None` = the last segment extends forever.
    period_ms: Option<f64>,
    now_ms: f64,
}

impl PiecewisePoisson {
    /// Build from `(start_ms, rate_per_ms)` segments; the last segment
    /// extends forever (and must therefore have a positive rate).
    pub fn new(segments: Vec<(f64, f64)>) -> Self {
        let s = Self { segments, period_ms: None, now_ms: 0.0 };
        s.validate();
        s
    }

    /// Build a repeating schedule: after `period_ms` the timeline wraps to
    /// the first segment. At least one segment must have a positive rate.
    pub fn cyclic(segments: Vec<(f64, f64)>, period_ms: f64) -> Self {
        assert!(period_ms > 0.0 && period_ms.is_finite());
        let s = Self { segments, period_ms: Some(period_ms), now_ms: 0.0 };
        s.validate();
        assert!(
            s.segments.last().expect("validated nonempty").0 < period_ms,
            "segment starts must precede the period"
        );
        s
    }

    fn validate(&self) {
        assert!(!self.segments.is_empty(), "need at least one segment");
        assert_eq!(self.segments[0].0, 0.0, "first segment must start at 0");
        for pair in self.segments.windows(2) {
            assert!(pair[0].0 < pair[1].0, "segment starts must increase");
        }
        for &(start, rate) in &self.segments {
            assert!(start >= 0.0 && start.is_finite());
            assert!(rate >= 0.0 && rate.is_finite(), "rates must be finite and ≥ 0");
        }
        assert!(
            self.segments.iter().any(|&(_, r)| r > 0.0),
            "at least one segment must have a positive rate"
        );
        if self.period_ms.is_none() {
            assert!(
                self.segments.last().expect("nonempty").1 > 0.0,
                "the final (unbounded) segment needs a positive rate"
            );
        }
    }

    /// Restart the internal clock at `at_ms` (e.g. the start of a run).
    pub fn reset(&mut self, at_ms: f64) {
        assert!(at_ms >= 0.0 && at_ms.is_finite());
        self.now_ms = at_ms;
    }

    /// The process's current absolute time (ms).
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// The instantaneous rate at absolute time `t_ms`.
    pub fn rate_at(&self, t_ms: f64) -> f64 {
        let t = match self.period_ms {
            Some(p) => t_ms.rem_euclid(p),
            None => t_ms,
        };
        let idx =
            self.segments.iter().rposition(|&(start, _)| start <= t).unwrap_or_default();
        self.segments[idx].1
    }

    /// The absolute time of the next segment boundary strictly after
    /// `t_ms` (`f64::INFINITY` inside a final unbounded segment).
    fn boundary_after(&self, t_ms: f64) -> f64 {
        match self.period_ms {
            Some(p) => {
                let cycle = (t_ms / p).floor();
                let in_cycle = t_ms - cycle * p;
                for &(start, _) in &self.segments {
                    if start > in_cycle {
                        return cycle * p + start;
                    }
                }
                (cycle + 1.0) * p
            }
            None => {
                for &(start, _) in &self.segments {
                    if start > t_ms {
                        return start;
                    }
                }
                f64::INFINITY
            }
        }
    }
}

impl ArrivalProcess for PiecewisePoisson {
    fn next_gap(&mut self, rng: &mut dyn RngCore) -> f64 {
        let from = self.now_ms;
        loop {
            let rate = self.rate_at(self.now_ms);
            let boundary = self.boundary_after(self.now_ms);
            if rate <= 0.0 {
                debug_assert!(boundary.is_finite(), "zero-rate segments cannot be final");
                self.now_ms = boundary;
                continue;
            }
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let gap = -u.ln() / rate;
            if self.now_ms + gap <= boundary {
                self.now_ms += gap;
                return self.now_ms - from;
            }
            // The draw crosses into the next regime: restart there
            // (memorylessness makes this exact).
            self.now_ms = boundary;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_rate_schedule_is_regular() {
        let mut p = FixedRate::per_second(100.0); // every 10ms
        let mut rng = StdRng::seed_from_u64(0);
        let mut t = 0.0;
        let times: Vec<f64> = (0..5).map(|_| { t += p.next_gap(&mut rng); t }).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0, 40.0, 50.0]);
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let mut p = Poisson::per_ms(0.25); // mean gap 4ms
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng)).sum();
        let mean = total / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean gap {mean}");
    }

    #[test]
    fn poisson_schedule_is_increasing() {
        let mut p = Poisson::per_second(718.18);
        let mut rng = StdRng::seed_from_u64(2);
        let mut t = 5.0;
        let times: Vec<f64> = (0..1000).map(|_| { t += p.next_gap(&mut rng); t }).collect();
        assert!(times[0] >= 5.0);
        for w in times.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn piecewise_matches_segment_rates() {
        // 0–1000ms at 0.5/ms, then 0.05/ms forever.
        let mut p = PiecewisePoisson::new(vec![(0.0, 0.5), (1000.0, 0.05)]);
        let mut rng = StdRng::seed_from_u64(7);
        let (mut in_first, mut in_second) = (0usize, 0usize);
        p.reset(0.0);
        while p.now_ms() < 11_000.0 {
            let _ = p.next_gap(&mut rng);
            if p.now_ms() < 1000.0 {
                in_first += 1;
            } else if p.now_ms() < 11_000.0 {
                in_second += 1;
            }
        }
        let rate1 = in_first as f64 / 1000.0;
        let rate2 = in_second as f64 / 10_000.0;
        assert!((rate1 - 0.5).abs() < 0.06, "first segment rate {rate1}");
        assert!((rate2 - 0.05).abs() < 0.01, "second segment rate {rate2}");
        assert_eq!(p.rate_at(500.0), 0.5);
        assert_eq!(p.rate_at(5000.0), 0.05);
    }

    #[test]
    fn piecewise_zero_rate_segment_is_silent() {
        let mut p = PiecewisePoisson::new(vec![(0.0, 1.0), (100.0, 0.0), (200.0, 1.0)]);
        let mut rng = StdRng::seed_from_u64(8);
        let mut arrivals = Vec::new();
        p.reset(0.0);
        while p.now_ms() < 300.0 {
            let _ = p.next_gap(&mut rng);
            if p.now_ms() < 300.0 {
                arrivals.push(p.now_ms());
            }
        }
        assert!(arrivals.iter().all(|&t| !(100.0..200.0).contains(&t)), "quiet window respected");
        assert!(arrivals.iter().any(|&t| t < 100.0));
        assert!(arrivals.iter().any(|&t| t >= 200.0));
    }

    #[test]
    fn cyclic_schedule_wraps() {
        // 0–100ms busy (1/ms), 100–200ms quiet (0.01/ms), period 200ms.
        let mut p = PiecewisePoisson::cyclic(vec![(0.0, 1.0), (100.0, 0.01)], 200.0);
        assert_eq!(p.rate_at(50.0), 1.0);
        assert_eq!(p.rate_at(150.0), 0.01);
        assert_eq!(p.rate_at(250.0), 1.0, "second cycle busy phase");
        assert_eq!(p.rate_at(350.0), 0.01);
        // Empirically, cycle 2's busy window sees ~100× the quiet window.
        let mut rng = StdRng::seed_from_u64(9);
        let (mut busy, mut quiet) = (0usize, 0usize);
        p.reset(0.0);
        while p.now_ms() < 2_000.0 {
            let _ = p.next_gap(&mut rng);
            if p.now_ms() < 2_000.0 {
                if p.now_ms().rem_euclid(200.0) < 100.0 {
                    busy += 1;
                } else {
                    quiet += 1;
                }
            }
        }
        assert!(busy > 20 * quiet.max(1), "busy {busy} vs quiet {quiet}");
    }
}
