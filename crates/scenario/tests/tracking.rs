//! Closed-loop prediction quality: on stationary segments the adaptive
//! prediction must track measured consistency within ±0.05 (the §6
//! "online PBS" acceptance bar).

use pbs_scenario::{run_scenario_sharded, Scenario};

#[test]
fn latency_spike_predictions_track_on_stationary_segments() {
    let mut sc = Scenario::latency_spike(0);
    // Trim the Monte-Carlo budget for test runtime; the error budget is
    // dominated by probe counts, which replication supplies.
    sc.control.mc_trials = 1_500;
    let run = run_scenario_sharded(&sc, 8, 7, 4);
    let err = run
        .stationary_tracking_error(&sc)
        .expect("stationary windows have both series");
    assert!(err <= 0.05, "stationary tracking error {err} > 0.05");
    // The spike must actually be visible: measured consistency during the
    // degraded regime differs from the pre-spike baseline, or the
    // controller reconfigured around it.
    let at = |ms: f64| {
        run.windows
            .iter()
            .find(|w| w.counts.start_ms <= ms && ms < w.end_ms)
            .and_then(|w| w.counts.measured())
            .expect("window has probes")
    };
    let baseline = at(4_500.0);
    let spike = at(8_500.0);
    assert!(
        (baseline - spike).abs() > 0.05 || !run.reconfigs.is_empty(),
        "the regime shift should move measured consistency ({baseline} vs {spike}) \
         or trigger a reconfiguration"
    );
}

#[test]
fn diurnal_load_predictions_track_through_the_cycle() {
    let mut sc = Scenario::diurnal_load(0);
    sc.control.mc_trials = 1_500;
    // 16 replicas: trough windows see ~25 probes/s, so per-window noise
    // needs the extra replication to stay inside the ±0.05 budget.
    let run = run_scenario_sharded(&sc, 16, 3, 4);
    let err = run
        .stationary_tracking_error(&sc)
        .expect("stationary windows have both series");
    assert!(err <= 0.05, "stationary tracking error {err} > 0.05");
    // Load actually cycles: peak windows see several times the trough's
    // probe volume.
    let peak: u64 = run.windows[..4].iter().map(|w| w.counts.reads).sum();
    let trough: u64 = run.windows[4..8].iter().map(|w| w.counts.reads).sum();
    assert!(peak > 2 * trough, "diurnal cycle in probe volume: {peak} vs {trough}");
}
