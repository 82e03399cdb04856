//! Property tests for the WARS Monte-Carlo engine.

use pbs_core::{staleness, ReplicaConfig};
use pbs_dist::Exponential;
use pbs_wars::model::WithReadDelay;
use pbs_wars::production::exponential_model;
use pbs_wars::trial::{run_trial, TrialResult, TrialScratch};
use pbs_wars::{IidModel, LatencyModel, TVisibility, WarsSample};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn any_config() -> impl Strategy<Value = ReplicaConfig> {
    (1u32..=8).prop_flat_map(|n| {
        (Just(n), 1u32..=n, 1u32..=n)
            .prop_map(|(n, r, w)| ReplicaConfig::new(n, r, w).expect("valid"))
    })
}

/// `n ≤ 24` replicas' worth of finite legs, half of them small integers so
/// that ties in `W + A` and `R + S` are common.
fn any_sample() -> impl Strategy<Value = WarsSample> {
    let leg = (0u32..6, 0.0f64..50.0).prop_map(|(k, x)| if k < 3 { f64::from(k) } else { x });
    (1usize..=24).prop_flat_map(move |n| {
        let legs = || prop::collection::vec(leg.clone(), n);
        (legs(), legs(), legs(), legs()).prop_map(|(w, a, r, s)| WarsSample { w, a, r, s })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// One preparation answers every `(r, w)` exactly as `run_trial` answers
    /// that configuration on its own, and as every preparation bounded at
    /// `(r_max, w_max) ≥ (r, w)` does, bit for bit.
    #[test]
    fn prepared_view_equals_run_trial(sample in any_sample()) {
        let n = sample.w.len();
        let mut scratch = TrialScratch::default();
        let mut views = Vec::new();
        let trial = scratch.prepare(&sample, n, n);
        // Responders in `R + S` order, ties to the lower replica index.
        let arrival = |i: usize| sample.r[i] + sample.s[i];
        let mut by_arrival: Vec<usize> = (0..n).collect();
        by_arrival.sort_by(|&i, &j| arrival(i).partial_cmp(&arrival(j)).expect("finite legs"));
        prop_assert_eq!(trial.responders(n), &by_arrival[..]);
        for r in 1..=n {
            for w in 1..=n {
                views.push((r, w, trial.view(r, w)));
            }
        }
        // §5.1 from the definition, where ties cannot change the answer.
        let sorted = |mut xs: Vec<f64>| {
            xs.sort_by(f64::total_cmp);
            xs
        };
        let acks = sorted(sample.w.iter().zip(&sample.a).map(|(w, a)| w + a).collect());
        let responses = sorted((0..n).map(arrival).collect());
        let bits = |t: TrialResult| {
            [t.write_latency, t.read_latency, t.staleness_threshold].map(f64::to_bits)
        };
        for &(r, w, view) in &views {
            prop_assert_eq!(view.write_latency, acks[w - 1]);
            prop_assert_eq!(view.read_latency, responses[r - 1]);
            let over_all = (0..n)
                .map(|i| sample.w[i] - acks[w - 1] - sample.r[i])
                .fold(f64::INFINITY, f64::min);
            prop_assert!(view.staleness_threshold >= over_all);
            if r == n {
                prop_assert_eq!(view.staleness_threshold, over_all);
            }

            let cfg = ReplicaConfig::new(n as u32, r as u32, w as u32).unwrap();
            let alone = run_trial(cfg, &sample, &mut scratch);
            prop_assert_eq!(bits(view), bits(alone), "{}", cfg);
        }
        for r_max in 1..=n {
            for w_max in 1..=n {
                let bounded = scratch.prepare(&sample, r_max, w_max);
                for &(r, w, view) in views.iter().filter(|v| v.0 <= r_max && v.1 <= w_max) {
                    let at = (r_max, w_max, r, w);
                    prop_assert_eq!(bits(bounded.view(r, w)), bits(view), "{:?}", at);
                }
            }
        }
    }

    /// Thresholds are finite; strict quorums never produce positive ones.
    #[test]
    fn thresholds_well_formed(cfg in any_config(), w_rate in 0.02f64..4.0, ars_rate in 0.05f64..4.0) {
        let model = exponential_model(cfg, w_rate, ars_rate);
        let tv = TVisibility::simulate(&model, 2_000, 3);
        let t = tv.thresholds();
        prop_assert!(t.min().is_finite() && t.max().is_finite());
        prop_assert_eq!(t.count(), 2_000);
        if cfg.is_strict() {
            prop_assert!(t.max() <= 1e-12, "strict quorum threshold {} > 0", t.max());
            prop_assert_eq!(tv.prob_consistent(0.0), 1.0);
        }
    }

    /// Read/write latency percentiles are monotone in the percentile and in
    /// the quorum size.
    #[test]
    fn latency_percentiles_monotone(seed in 0u64..500) {
        let n = 5u32;
        let mut prev_read = 0.0;
        for r in 1..=n {
            let cfg = ReplicaConfig::new(n, r, 1).unwrap();
            let tv = TVisibility::simulate(&exponential_model(cfg, 0.2, 0.5), 4_000, seed);
            let p50 = tv.read_latency_percentile(50.0);
            let p99 = tv.read_latency_percentile(99.0);
            prop_assert!(p99 >= p50);
            prop_assert!(p50 >= prev_read - 1e-9, "R={r}: bigger quorums wait longer");
            prev_read = p50;
        }
    }

    /// Violation at t is nonincreasing in t and bounded by the frozen
    /// closed form.
    #[test]
    fn violation_bounded_and_monotone(cfg in any_config(), seed in 0u64..500) {
        let model = exponential_model(cfg, 0.1, 0.5);
        let tv = TVisibility::simulate(&model, 4_000, seed);
        let frozen = staleness::non_intersection_probability(cfg);
        let mut prev = 1.0;
        for i in 0..10 {
            let v = tv.violation(i as f64 * 5.0);
            prop_assert!(v <= prev + 1e-12);
            prop_assert!(v <= frozen + 0.05, "v={v} frozen={frozen}");
            prev = v;
        }
    }

    /// Delaying reads (§5.3) only improves consistency, never hurts, and
    /// shifts read latency by exactly the delay.
    #[test]
    fn read_delay_trades_latency_for_consistency(delay in 0.0f64..20.0, seed in 0u64..200) {
        let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
        let base = exponential_model(cfg, 0.1, 0.5);
        let tv_base = TVisibility::simulate(&base, 20_000, seed);
        let delayed = WithReadDelay::new(exponential_model(cfg, 0.1, 0.5), delay);
        let tv_delayed = TVisibility::simulate(&delayed, 20_000, seed);
        // Same seed → same underlying randomness → exact comparison of the
        // threshold distribution is possible statistically.
        prop_assert!(
            tv_delayed.prob_consistent(0.0) >= tv_base.prob_consistent(0.0) - 0.02,
            "delaying reads must not reduce consistency"
        );
        let shift = tv_delayed.read_latency_percentile(50.0) - tv_base.read_latency_percentile(50.0);
        prop_assert!((shift - delay).abs() < 0.5, "median read shifted by {shift}, expected {delay}");
    }

    /// Samples honour the configured replica count for every model shape.
    #[test]
    fn sample_vectors_sized_to_n(cfg in any_config(), seed in 0u64..200) {
        let d = Arc::new(Exponential::from_rate(1.0));
        let model = IidModel::new(cfg, "x", d.clone(), d.clone(), d.clone(), d);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = WarsSample::default();
        model.sample_trial(&mut rng, &mut s);
        let n = cfg.n() as usize;
        prop_assert_eq!(s.w.len(), n);
        prop_assert_eq!(s.a.len(), n);
        prop_assert_eq!(s.r.len(), n);
        prop_assert_eq!(s.s.len(), n);
        prop_assert!(s.w.iter().all(|&x| x >= 0.0));
    }
}

/// The read-delay knob reproduces §5.3's suggestion quantitatively: a
/// modest delay recovers most of the consistency gap of a heavy write tail.
#[test]
fn read_delay_closes_the_gap() {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let base = exponential_model(cfg, 0.05, 1.0); // 20ms mean writes
    let tv = TVisibility::simulate(&base, 60_000, 9);
    let delayed = WithReadDelay::new(exponential_model(cfg, 0.05, 1.0), 40.0);
    let tv_delayed = TVisibility::simulate(&delayed, 60_000, 9);
    assert!(tv.prob_consistent(0.0) < 0.6);
    assert!(tv_delayed.prob_consistent(0.0) > 0.85);
    assert_eq!(tv_delayed.trials(), 60_000);
}
