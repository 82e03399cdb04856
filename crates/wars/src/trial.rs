//! Single-trial WARS computation (§5.1): commit time, operation latencies,
//! and the per-trial staleness threshold.
//!
//! One trial serves every `(R, W)` of its `N` up to a bound.
//! [`TrialScratch::prepare`] does the part that depends on the sampled legs
//! alone: it keeps the `w_max` earliest acknowledgments `W + A`, ascending,
//! and the `r_max` first read responders by `R + S`, each by one bounded
//! insertion pass over the `N` replicas — O(N·max(R, W)), a scan for the
//! min and argmin that `R = W = 1` reads. Responders tied in `R + S` go to
//! the lower replica index, at every `N`. A [`PreparedTrial`] answers any
//! `(r, w)` with `r ≤ r_max`, `w ≤ w_max` in O(r): the `w`-th
//! acknowledgment, the `r`-th response, the minimum of `W[i] − w_t − R[i]`
//! over the first `r` responders. A grid passes the maxima over its pairs,
//! so one preparation serves them all; [`run_trial`] is one preparation,
//! bounded by its own pair, read at that pair.

use crate::model::WarsSample;
use pbs_core::ReplicaConfig;

/// Outcome of one WARS trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// Write operation latency: the time at which the coordinator received
    /// the `W`-th acknowledgment (the commit time `w_t`).
    pub write_latency: f64,
    /// Read operation latency: the time at which the coordinator received
    /// the `R`-th read response.
    pub read_latency: f64,
    /// The *staleness threshold* `T`: the smallest read offset `t` (relative
    /// to commit) at which this trial's read observes the write.
    ///
    /// `T = min over the first R responders i of (W[i] − w_t − R[i])`.
    /// `T ≤ 0` means the read is consistent even if issued immediately at
    /// commit; `T ≤ t` means consistent when issued `t` after commit. For
    /// strict quorums `T ≤ 0` always.
    pub staleness_threshold: f64,
}

/// Reusable scratch buffers so the hot Monte-Carlo loop never allocates.
#[derive(Debug, Default)]
pub struct TrialScratch {
    wa: Vec<f64>,
    arrival: Vec<f64>,
    order: Vec<usize>,
}

impl TrialScratch {
    /// Order one trial's legs once, for every `(r, w)` with `r ≤ r_max` and
    /// `w ≤ w_max` read off the result.
    ///
    /// The replica count is `sample.w.len()`; the four legs must be equally
    /// long ([`run_trial`] asserts it per call, the grid kernel once per
    /// shard). Bounds past `N` keep all `N`. Panics if a leg is NaN.
    pub fn prepare<'a>(
        &'a mut self,
        sample: &'a WarsSample,
        r_max: usize,
        w_max: usize,
    ) -> PreparedTrial<'a> {
        let mut nan = false;
        // The w_max earliest acknowledgment arrivals W[i] + A[i], ascending.
        self.wa.clear();
        for (w, a) in sample.w.iter().zip(&sample.a) {
            let ack = w + a;
            nan |= ack.is_nan();
            keep_earliest(&mut self.wa, w_max, ack, |&ack| ack);
        }
        // The r_max first read responders by response arrival R[i] + S[i].
        self.arrival.clear();
        self.arrival.extend(sample.r.iter().zip(&sample.s).map(|(r, s)| r + s));
        self.order.clear();
        let arrival = &self.arrival;
        for (i, &response) in arrival.iter().enumerate() {
            nan |= response.is_nan();
            keep_earliest(&mut self.order, r_max, i, |&i| arrival[i]);
        }
        assert!(!nan, "latencies are not NaN");
        PreparedTrial { sample, wa: &self.wa, order: &self.order }
    }
}

/// File `item` into `kept`, the at most `bound` items of smallest `key`
/// offered so far, ascending, after every item of equal key: items offered
/// in replica order keep that order on ties. An item whose key is not below
/// the last of a full `kept` (a NaN key among them) is dropped.
fn keep_earliest<T: Copy>(kept: &mut Vec<T>, bound: usize, item: T, key: impl Fn(&T) -> f64) {
    let item_key = key(&item);
    if kept.len() == bound {
        match kept.last_mut() {
            Some(last) if item_key < key(last) => *last = item,
            _ => return,
        }
    } else {
        kept.push(item);
    }
    let mut slot = kept.len() - 1;
    while slot > 0 && item_key < key(&kept[slot - 1]) {
        kept[slot] = kept[slot - 1];
        slot -= 1;
    }
    kept[slot] = item;
}

/// One sampled trial with its earliest acknowledgments and responses in
/// arrival order: every `(r, w)` with `1 ≤ r ≤ r_max`, `1 ≤ w ≤ w_max` is a
/// view of it.
#[derive(Debug, Clone, Copy)]
pub struct PreparedTrial<'a> {
    sample: &'a WarsSample,
    wa: &'a [f64],
    order: &'a [usize],
}

// The views are `#[inline]`: generic callers such as `simulate_grid` are
// compiled in the caller's crate and read them once per pair per trial.
impl PreparedTrial<'_> {
    /// Commit time `w_t` under write quorum `w`: the `w`-th smallest
    /// `W[i] + A[i]`. Panics if `w` is past the prepared `w_max`.
    #[inline]
    pub fn write_latency(&self, w: usize) -> f64 {
        let kept = self.wa.len();
        assert!(w <= kept, "W = {w} is past the {kept} prepared acknowledgments");
        self.wa[w - 1]
    }

    /// The first `r` read responders (replica indices), in arrival order.
    /// Panics if `r` is past the prepared `r_max`.
    #[inline]
    pub fn responders(&self, r: usize) -> &[usize] {
        let kept = self.order.len();
        assert!(r <= kept, "R = {r} is past the {kept} prepared responders");
        &self.order[..r]
    }

    /// Arrival of the `r`-th read response.
    #[inline]
    pub fn read_latency(&self, r: usize) -> f64 {
        let last_responder = self.responders(r)[r - 1];
        self.sample.r[last_responder] + self.sample.s[last_responder]
    }

    /// Staleness threshold of `(r, w)`. Replica `i` (among the first `r`
    /// responders) holds the write at read arrival iff
    /// `W[i] ≤ w_t + t + R[i]  ⇔  t ≥ W[i] − w_t − R[i]`.
    #[inline]
    pub fn staleness_threshold(&self, r: usize, w: usize) -> f64 {
        let commit_time = self.write_latency(w);
        self.responders(r)
            .iter()
            .map(|&i| self.sample.w[i] - commit_time - self.sample.r[i])
            .fold(f64::INFINITY, f64::min)
    }

    /// All three outcomes of `(r, w)`.
    #[inline]
    pub fn view(&self, r: usize, w: usize) -> TrialResult {
        TrialResult {
            write_latency: self.write_latency(w),
            read_latency: self.read_latency(r),
            staleness_threshold: self.staleness_threshold(r, w),
        }
    }
}

/// Evaluate one WARS trial.
///
/// Semantics follow §5.1 exactly, with one tie convention: a read request
/// arriving at a replica at the *same instant* as the write observes the
/// write (consistency favoured on ties; measure-zero for continuous
/// distributions, relevant only for degenerate test distributions).
pub fn run_trial(cfg: ReplicaConfig, sample: &WarsSample, scratch: &mut TrialScratch) -> TrialResult {
    let n = cfg.n() as usize;
    assert_eq!(sample.w.len(), n, "sample/config mismatch");
    assert_eq!(sample.a.len(), n);
    assert_eq!(sample.r.len(), n);
    assert_eq!(sample.s.len(), n);
    let (r, w) = (cfg.r() as usize, cfg.w() as usize);
    scratch.prepare(sample, r, w).view(r, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: u32, r: u32, w: u32) -> ReplicaConfig {
        ReplicaConfig::new(n, r, w).unwrap()
    }

    fn sample(w: &[f64], a: &[f64], r: &[f64], s: &[f64]) -> WarsSample {
        WarsSample { w: w.to_vec(), a: a.to_vec(), r: r.to_vec(), s: s.to_vec() }
    }

    #[test]
    fn commit_time_is_wth_order_statistic() {
        // W delays: 5, 1, 3. A delays: 1 each → W+A = 6, 2, 4.
        let smp = sample(&[5.0, 1.0, 3.0], &[1.0; 3], &[1.0; 3], &[1.0; 3]);
        let mut scratch = TrialScratch::default();
        let r1 = run_trial(cfg(3, 1, 1), &smp, &mut scratch);
        assert_eq!(r1.write_latency, 2.0);
        let r2 = run_trial(cfg(3, 1, 2), &smp, &mut scratch);
        assert_eq!(r2.write_latency, 4.0);
        let r3 = run_trial(cfg(3, 1, 3), &smp, &mut scratch);
        assert_eq!(r3.write_latency, 6.0);
    }

    #[test]
    fn read_latency_is_rth_response() {
        let smp = sample(&[0.0; 3], &[0.0; 3], &[3.0, 1.0, 2.0], &[0.5, 0.5, 0.5]);
        let mut scratch = TrialScratch::default();
        assert_eq!(run_trial(cfg(3, 1, 1), &smp, &mut scratch).read_latency, 1.5);
        assert_eq!(run_trial(cfg(3, 2, 1), &smp, &mut scratch).read_latency, 2.5);
        assert_eq!(run_trial(cfg(3, 3, 1), &smp, &mut scratch).read_latency, 3.5);
    }

    #[test]
    fn stale_when_fast_reader_beats_slow_write() {
        // Replica 0 acks instantly (commit at 1.0), replica 1 receives the
        // write very late (at 10.0). The read's first responder is replica 1
        // (r+s = 1), so at t=0 the read arrives at replica 1 at time
        // 1.0 + 0.5 = 1.5 < 10.0 → stale until t = 10 − 1 − 0.5 = 8.5.
        let smp = sample(
            &[1.0, 10.0],
            &[0.0, 50.0],
            &[9.0, 0.5],
            &[9.0, 0.5],
        );
        let mut scratch = TrialScratch::default();
        let res = run_trial(cfg(2, 1, 1), &smp, &mut scratch);
        assert_eq!(res.write_latency, 1.0);
        assert_eq!(res.read_latency, 1.0);
        assert!((res.staleness_threshold - 8.5).abs() < 1e-12);
    }

    #[test]
    fn consistent_when_responder_has_the_write() {
        // First responder is replica 0, which received the write before
        // commit → threshold ≤ 0.
        let smp = sample(&[0.5, 9.0], &[0.5, 9.0], &[0.1, 5.0], &[0.1, 5.0], );
        let mut scratch = TrialScratch::default();
        let res = run_trial(cfg(2, 1, 1), &smp, &mut scratch);
        assert!(res.staleness_threshold <= 0.0);
    }

    #[test]
    fn strict_quorum_threshold_never_positive() {
        // R+W > N: some responder must hold the committed write at t=0.
        // Exhaustive micro-check over a few adversarial samples.
        let samples = [
            sample(&[9.0, 1.0, 5.0], &[0.1, 0.1, 0.1], &[0.1, 9.0, 4.0], &[0.1, 0.1, 0.1]),
            sample(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0], &[2.0, 1.0, 0.5]),
            sample(&[10.0, 0.1, 0.2], &[5.0, 0.1, 0.1], &[0.5, 8.0, 7.0], &[0.5, 0.5, 0.5]),
        ];
        let mut scratch = TrialScratch::default();
        for smp in &samples {
            for (r, w) in [(2u32, 2u32), (1, 3), (3, 1)] {
                let res = run_trial(cfg(3, r, w), smp, &mut scratch);
                assert!(
                    res.staleness_threshold <= 1e-12,
                    "strict quorum R={r} W={w} produced positive threshold {}",
                    res.staleness_threshold
                );
            }
        }
    }

    #[test]
    fn tie_read_at_write_arrival_is_consistent() {
        // Write arrives at replica exactly when the read does: W = w_t + R.
        // Replica 0: W+A = 1.0 → commit at 1.0. Read to replica 1 arrives at
        // 1.0 + r[1]; its write arrives at w[1] = 1.0 + r[1] → threshold 0.
        let smp = sample(&[1.0, 3.0], &[0.0, 0.0], &[5.0, 2.0], &[5.0, 0.0]);
        let mut scratch = TrialScratch::default();
        let res = run_trial(cfg(2, 1, 1), &smp, &mut scratch);
        assert_eq!(res.staleness_threshold, 0.0);
        // Consistency at t = 0 uses t ≥ threshold.
        assert!(res.staleness_threshold <= 0.0 || res.staleness_threshold == 0.0);
    }

    #[test]
    #[should_panic(expected = "latencies are not NaN")]
    fn nan_write_leg_panics_with_one_replica() {
        let smp = sample(&[f64::NAN], &[1.0], &[1.0], &[1.0]);
        let _ = run_trial(cfg(1, 1, 1), &smp, &mut TrialScratch::default());
    }

    #[test]
    #[should_panic(expected = "latencies are not NaN")]
    fn nan_read_leg_panics_with_one_replica() {
        let smp = sample(&[1.0], &[1.0], &[1.0], &[f64::NAN]);
        let _ = run_trial(cfg(1, 1, 1), &smp, &mut TrialScratch::default());
    }

    #[test]
    #[should_panic(expected = "R = 2 is past the 1 prepared responders")]
    fn view_past_the_prepared_bound_panics() {
        let smp = sample(&[1.0, 2.0, 3.0], &[0.0; 3], &[1.0; 3], &[1.0; 3]);
        let mut scratch = TrialScratch::default();
        let trial = scratch.prepare(&smp, 1, 3);
        assert_eq!(trial.write_latency(3), 3.0);
        let _ = trial.view(2, 1);
    }

    #[test]
    #[should_panic(expected = "sample/config mismatch")]
    fn mismatched_sample_panics() {
        let smp = sample(&[1.0], &[1.0], &[1.0], &[1.0]);
        let mut scratch = TrialScratch::default();
        let _ = run_trial(cfg(3, 1, 1), &smp, &mut scratch);
    }
}
