//! `Scenario::validate` turns away controller settings that would otherwise
//! pass it and panic inside the first refit, with a message that names the
//! offending field.

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
    let cases: [(&str, Spoil); 9] = [
        ("control.mc_trials", |sc| sc.control.mc_trials = 0),
        ("control.window", |sc| sc.control.window = 0),
        ("control.candidate_ns", |sc| sc.control.candidate_ns.clear()),
        (PROBABILITY, |sc| sc.control.spec.consistency_probability = 1.5),
        (PROBABILITY, |sc| sc.control.spec.consistency_probability = -0.1),
        (PROBABILITY, |sc| sc.control.spec.consistency_probability = f64::NAN),
        (PERCENTILE, |sc| sc.control.spec.latency_percentile = 100.5),
        (PERCENTILE, |sc| sc.control.spec.latency_percentile = -1.0),
        (PERCENTILE, |sc| sc.control.spec.latency_percentile = f64::NAN),
    ];
    for (field, spoil) in cases {
        let msg = rejection(spoil).unwrap_or_else(|| panic!("a bad {field} passed validate()"));
        assert!(msg.contains(field), "rejection of {field} does not name it: {msg}");
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
