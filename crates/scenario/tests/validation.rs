//! `Scenario::validate` turns away settings that would otherwise pass it
//! and then hang the run, crash it or silently switch the controller off,
//! with a message that names the offending field. Every case is judged by
//! `validate()` alone; none is run.

use pbs_scenario::Scenario;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The panic message of `validate()` on a latency-spike scenario after
/// `spoil`, or `None` if it passed.
fn rejection(spoil: impl FnOnce(&mut Scenario)) -> Option<String> {
    let mut sc = Scenario::latency_spike(7);
    spoil(&mut sc);
    let payload = catch_unwind(AssertUnwindSafe(|| sc.validate())).err()?;
    Some(match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast::<&str>().map_or("?".into(), |msg| msg.to_string()),
    })
}

#[test]
fn builtin_scenarios_pass() {
    assert_eq!(rejection(|_| {}), None);
    for name in Scenario::builtin_names() {
        Scenario::by_name(name, 3).expect("registered").validate();
    }
}

#[test]
fn controller_settings_that_would_panic_mid_run_are_rejected_by_field() {
    type Spoil = fn(&mut Scenario);
    const PROBABILITY: &str = "control.spec.consistency_probability";
    const PERCENTILE: &str = "control.spec.latency_percentile";
    const WITHIN: &str = "control.spec.within_ms";
    const REFIT: &str = "control.refit_interval_ms";
    let cases: [(&str, Spoil); 28] = [
        ("control.mc_trials", |sc| sc.control.mc_trials = 0),
        ("control.window", |sc| sc.control.window = 0),
        ("control.candidate_ns", |sc| sc.control.candidate_ns.clear()),
        (PROBABILITY, |sc| sc.control.spec.consistency_probability = 1.5),
        (PROBABILITY, |sc| sc.control.spec.consistency_probability = -0.1),
        (PROBABILITY, |sc| sc.control.spec.consistency_probability = f64::NAN),
        (PERCENTILE, |sc| sc.control.spec.latency_percentile = 100.5),
        (PERCENTILE, |sc| sc.control.spec.latency_percentile = -1.0),
        (PERCENTILE, |sc| sc.control.spec.latency_percentile = f64::NAN),
        // A NaN window panics inside the first refit ("cdf of NaN"); a
        // negative one asks for t-visibility before commit.
        (WITHIN, |sc| sc.control.spec.within_ms = f64::NAN),
        (WITHIN, |sc| sc.control.spec.within_ms = -1.0),
        // A NaN cap fails every configuration: the run would report that
        // none meets the SLA instead of failing.
        ("control.spec.max_read_latency_ms", |sc| {
            sc.control.spec.max_read_latency_ms = Some(f64::NAN)
        }),
        ("control.spec.max_write_latency_ms", |sc| {
            sc.control.spec.max_write_latency_ms = Some(f64::NAN)
        }),
        // A refit cadence that never gets past the next window hangs the
        // run; a NaN one turns every refit off without a word.
        (REFIT, |sc| sc.control.refit_interval_ms = 0.0),
        (REFIT, |sc| sc.control.refit_interval_ms = -1_500.0),
        (REFIT, |sc| sc.control.refit_interval_ms = f64::NAN),
        // No prediction is ever made: the window never holds that many.
        ("control.min_samples", |sc| sc.control.min_samples = sc.control.window + 1),
        // The window grid would overflow its allocation.
        ("duration_ms", |sc| sc.duration_ms = f64::INFINITY),
        ("duration_ms", |sc| sc.duration_ms = f64::NAN),
        ("window_ms", |sc| sc.window_ms = f64::NAN),
        ("probe_offset_ms", |sc| sc.probe_offset_ms = f64::INFINITY),
        // The run settles for one operation timeout.
        ("cluster.op_timeout_ms", |sc| sc.cluster.op_timeout_ms = f64::INFINITY),
        // The probe source would refuse these mid-run (on a replica thread,
        // under `run_scenario_sharded`).
        ("load", |sc| sc.load = vec![(5.0, 70.0)]),
        ("load", |sc| sc.load = vec![(0.0, 70.0), (2_000.0, 30.0), (1_000.0, 50.0)]),
        ("load", |sc| sc.load = vec![(0.0, f64::NAN)]),
        ("load", |sc| sc.load = vec![(0.0, 70.0), (1_000.0, -5.0), (2_000.0, 70.0)]),
        // Nothing would ever arrive after the last boundary.
        ("load", |sc| sc.load = vec![(0.0, 70.0), (1_000.0, 0.0)]),
        ("load_period_ms", |sc| {
            sc.load = vec![(0.0, 70.0), (1_000.0, 30.0)];
            sc.load_period_ms = Some(1_000.0);
        }),
    ];
    for (field, spoil) in cases {
        let msg = rejection(spoil).unwrap_or_else(|| panic!("a bad {field} passed validate()"));
        let named = msg.starts_with(&format!("{field} "));
        assert!(named, "rejection of {field} does not open with its name: {msg}");
    }
}

/// The range ends themselves are legal.
#[test]
fn boundary_values_pass() {
    for (p, pct) in [(0.0, 0.0), (1.0, 100.0)] {
        let verdict = rejection(|sc| {
            sc.control.spec.consistency_probability = p;
            sc.control.spec.latency_percentile = pct;
            sc.control.mc_trials = 1;
            sc.control.window = 1;
            sc.control.min_samples = 1;
        });
        assert_eq!(verdict, None);
    }
}

/// What validate() lets through at the range ends does run: the smallest
/// legal controller refits without panicking.
#[test]
fn the_smallest_legal_controller_runs() {
    let mut sc = Scenario::latency_spike(7);
    sc.duration_ms = 4_000.0;
    sc.events.clear();
    sc.stationary.clear();
    sc.control.mc_trials = 1;
    sc.control.window = 1;
    sc.control.min_samples = 1;
    sc.control.spec.consistency_probability = 1.0;
    sc.control.spec.latency_percentile = 100.0;
    let run = pbs_scenario::run_scenario(&sc, 11);
    assert!(run.windows.iter().any(|w| w.predicted().is_some()), "a refit ran");
}
