//! The scenario driver: runs a live cluster through a scenario's
//! fault/load timeline **under open-loop probe load** while an in-loop
//! [`AdaptiveController`] consumes drained leg samples, refits on a
//! cadence, and (optionally) applies reconfigurations — emitting a
//! windowed time-series of predicted vs. measured consistency and
//! latency.
//!
//! The driver has no open-loop drive of its own: a scenario run is an
//! [`OpenLoopRun`] on [`OpenLoopRun::drive`], and the closed loop is the
//! drive's step — fault events and refits before each drain, the window
//! fold after it. An in-sim client actor pulls write arrivals from the
//! scenario's piecewise load, and each committed write schedules a read
//! of the same key `probe_offset_ms` after its commit (the §5.2 probe
//! pair). Probes overlap freely — a timed-out operation does not hold the
//! simulation up, so fault events, refits, and windows all fire at their
//! exact scheduled instants and reads are labelled online as the commit
//! watermark passes each window boundary.

use crate::event::apply_event;
use crate::scenario::Scenario;
use pbs_core::ReplicaConfig;
use pbs_kvs::{
    checker, CheckReport, ClientOptions, Cluster, DriveStep, OpenLoopOptions, OpenLoopRun,
    OpenWindow, WindowDrain, WindowOp,
};
use pbs_mc::{Mergeable, Runner, Summary};
use pbs_predictor::AdaptiveController;
use pbs_sim::SimTime;
use pbs_workload::{OpMix, OpSource, OpStream, PiecewisePoisson, UniformKeys};

/// One reporting window of a scenario run (counts sum and sketches merge
/// across replicated runs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowRecord {
    /// The window's start and probe counts, as every open-loop window
    /// keeps them: `reads` are probes whose read completed, `consistent`
    /// those that saw the newest committed version (ground truth),
    /// `failed_writes` the availability loss.
    pub counts: OpenWindow,
    /// Window end (ms).
    pub end_ms: f64,
    /// Sum of the in-force predicted `P(consistent)` over probes that had
    /// a prediction available.
    pub predicted_sum: f64,
    /// Number of probes contributing to `predicted_sum`.
    pub predicted_count: u64,
    /// Commit latencies of successful probe writes (ms).
    pub write_latency: Summary,
    /// Latencies of completed probe reads (ms).
    pub read_latency: Summary,
    /// Reconfigurations the controller applied in this window.
    pub reconfigs: u64,
}

impl WindowRecord {
    /// Mean predicted `P(consistent)` in force during this window
    /// (`None` before the controller's first refit).
    pub fn predicted(&self) -> Option<f64> {
        (self.predicted_count > 0).then(|| self.predicted_sum / self.predicted_count as f64)
    }

    /// `|predicted − measured|`, when both exist.
    pub fn tracking_error(&self) -> Option<f64> {
        Some((self.predicted()? - self.counts.measured()?).abs())
    }
}

impl Mergeable for WindowRecord {
    fn merge(&mut self, other: Self) {
        self.counts.merge(other.counts);
        self.predicted_sum += other.predicted_sum;
        self.predicted_count += other.predicted_count;
        self.write_latency.merge(other.write_latency);
        self.read_latency.merge(other.read_latency);
        self.reconfigs += other.reconfigs;
    }
}

/// One reconfiguration the in-loop controller applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigRecord {
    /// When it was applied (ms from scenario start).
    pub at_ms: f64,
    /// Seed of the replica run that applied it.
    pub run_seed: u64,
    /// Configuration before.
    pub from: ReplicaConfig,
    /// Configuration after.
    pub to: ReplicaConfig,
}

/// The merged result of one or more replicated runs of a scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioRun {
    /// Scenario name.
    pub name: String,
    /// Windowed time-series.
    pub windows: Vec<WindowRecord>,
    /// Every reconfiguration across every replica run, in merge order.
    pub reconfigs: Vec<ReconfigRecord>,
    /// Offline checker verdict (when the scenario sets `check_history`),
    /// merged across replica runs.
    pub check: Option<CheckReport>,
    /// Timeline events the cluster rejected as malformed (bad partition
    /// grouping, non-finite link fault, invalid fault profile, …).
    pub event_errors: u64,
    /// Replica runs folded into this result.
    pub runs: u64,
}

impl ScenarioRun {
    /// Largest `|predicted − measured|` over windows that lie entirely
    /// inside the scenario's declared stationary segments (`None` when no
    /// such window has both series) — the acceptance metric for
    /// closed-loop prediction quality.
    pub fn stationary_tracking_error(&self, scenario: &Scenario) -> Option<f64> {
        self.windows
            .iter()
            .filter(|w| {
                scenario
                    .stationary
                    .iter()
                    .any(|&(a, b)| w.counts.start_ms >= a && w.end_ms <= b)
            })
            .filter_map(WindowRecord::tracking_error)
            .max_by(|a, b| a.partial_cmp(b).expect("errors are not NaN"))
    }
}

impl Mergeable for ScenarioRun {
    fn merge(&mut self, other: Self) {
        if other.runs == 0 {
            return;
        }
        if self.runs == 0 {
            *self = other;
            return;
        }
        assert_eq!(self.windows.len(), other.windows.len(), "window grids differ");
        for (a, b) in self.windows.iter_mut().zip(other.windows) {
            a.merge(b);
        }
        self.reconfigs.extend(other.reconfigs);
        self.check = match (self.check.take(), other.check) {
            (Some(mut a), Some(b)) => {
                a.merge(b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
        self.event_errors += other.event_errors;
        self.runs += other.runs;
    }
}

fn advance(cluster: &mut Cluster, to_ms: f64) {
    let target = SimTime::from_ms(to_ms);
    if target > cluster.now() {
        cluster.advance_to(target);
    }
}

/// Fold one window drain into the run's window grid. Window attribution
/// (by op start, clamped — reads of writes committing near the end of
/// the run may start past `duration`) is [`WindowDrain::fold`]'s, shared
/// with the engine reports. A probe is credited with the prediction in
/// force at its read's start: the last of `steps`, a step function
/// of `(from_ms, P(consistent at probe offset))`, from at or before it.
fn fold_drain(out: &mut ScenarioRun, window_ms: f64, drain: &WindowDrain, steps: &[(f64, f64)]) {
    let last = out.windows.len() - 1;
    drain.fold(window_ms, last, |idx, op| {
        let win = &mut out.windows[idx];
        let Some(latency) = win.counts.count(op) else { return };
        match op {
            WindowOp::Write(_) => win.write_latency.record(latency),
            WindowOp::Read(r) => {
                win.read_latency.record(latency);
                let start_ms = r.op.start.as_ms();
                if let Some(&(_, p)) = steps.iter().rev().find(|&&(from, _)| from <= start_ms) {
                    win.predicted_sum += p;
                    win.predicted_count += 1;
                }
            }
        }
    });
}

/// Run one replica of `scenario`, seeded by `run_seed`.
///
/// The scenario is an [`OpenLoopRun`] on the serial engine, run on its
/// one drive ([`OpenLoopRun::drive`]): an in-sim probe client pulls write
/// arrivals from the scenario's piecewise load and schedules a read of the
/// same key `probe_offset_ms` after each commit, the drive drains every
/// window, stops the probes at `duration_ms` and settles for one
/// operation timeout. Before each drain, the step fires the timeline's
/// fault events and the controller's refits that fall at or before the
/// drain and before `duration_ms`, in simulated-time order — at a shared
/// instant the event first, then the refit, then the drain. Each refit
/// drains the cluster's measured one-way WARS samples into the
/// controller, re-predicts the current configuration, and — when the
/// scenario is adaptive — applies the SLA optimizer's winning
/// configuration to the live cluster. Each drain advances the online
/// ground-truth watermark and labels the probes that completed before it.
///
/// Because probes do not block the simulation, a timed-out operation
/// cannot delay an event or refit past its scheduled instant, and load
/// shedding only occurs at the client's in-flight cap (a genuinely
/// overloaded store), not from clock divergence.
pub fn run_scenario(scenario: &Scenario, run_seed: u64) -> ScenarioRun {
    scenario.validate();
    let mut opts = scenario.cluster;
    opts.seed = run_seed;
    opts.record_leg_samples = true;
    let run = OpenLoopRun::new(
        opts,
        scenario.network.clone(),
        OpenLoopOptions::new(scenario.duration_ms, scenario.window_ms, opts.op_timeout_ms),
        1,
        ClientOptions {
            op_timeout_ms: opts.op_timeout_ms,
            max_in_flight: 4_096,
            probe_read_offset_ms: Some(scenario.probe_offset_ms),
        },
    );
    // Probe load: per-second rates → per-ms rates, pulled lazily by the
    // in-sim probe client (writes only; reads ride the probe offset).
    let probes = |_| -> Box<dyn OpSource> {
        let segments: Vec<(f64, f64)> =
            scenario.load.iter().map(|&(start, per_s)| (start, per_s / 1000.0)).collect();
        let load = match scenario.load_period_ms {
            Some(p) => PiecewisePoisson::cyclic(segments, p),
            None => PiecewisePoisson::new(segments),
        };
        Box::new(OpStream::new(load, UniformKeys::new(scenario.keys), OpMix::writes_only(), 1))
    };

    let control = &scenario.control;
    let mut ctl = AdaptiveController::new(
        control.spec,
        control.candidate_ns.clone(),
        control.window,
        control.mc_trials,
        run_seed ^ 0xada9_71c0_1175_0c5e,
    );
    let window_ms = scenario.window_ms;
    let mut out = ScenarioRun {
        name: scenario.name.clone(),
        windows: (0..run.timing.window_count())
            .map(|i| {
                let start_ms = i as f64 * window_ms;
                WindowRecord {
                    counts: OpenWindow { start_ms, ..OpenWindow::default() },
                    end_ms: (start_ms + window_ms).min(scenario.duration_ms),
                    ..WindowRecord::default()
                }
            })
            .collect(),
        runs: 1,
        ..ScenarioRun::default()
    };
    let last_window = out.windows.len() - 1;
    let mut ev_idx = 0usize;
    let mut next_refit = control.refit_interval_ms;
    let mut current_cfg = opts.replication;
    let mut predictions = Vec::new(); // one step per successful refit

    let prepare = |cluster: &mut Cluster| {
        if scenario.check_history {
            cluster.enable_history();
        }
    };
    let step = |cluster: &mut Cluster, phase: DriveStep<'_>| {
        let until_ms = match phase {
            DriveStep::Before(until_ms) => until_ms,
            DriveStep::After(drain) => return fold_drain(&mut out, window_ms, drain, &predictions),
        };
        // Events, then refits, due at or before this drain and before the
        // workload's end, in time order: at a shared instant the event first.
        loop {
            let ev_at = scenario.events.get(ev_idx).map_or(f64::INFINITY, |e| e.at_ms);
            let t = ev_at.min(next_refit);
            if t > until_ms || t >= scenario.duration_ms {
                return;
            }
            advance(cluster, t);
            if ev_at <= t {
                // A malformed event is counted, not fatal: the rest of the
                // timeline (and the checker post-pass) still runs.
                if apply_event(cluster, &scenario.events[ev_idx].event).is_err() {
                    out.event_errors += 1;
                }
                ev_idx += 1;
                continue;
            }
            let legs = cluster.drain_leg_samples();
            ctl.observe_many(&legs.w, &legs.a, &legs.r, &legs.s);
            if ctl.window_len() >= control.min_samples {
                if control.adaptive {
                    if let Ok(report) = ctl.reoptimize() {
                        if let Some(best) = report.best_config() {
                            if best.cfg != current_cfg {
                                cluster.set_replication(best.cfg);
                                out.windows[((t / window_ms) as usize).min(last_window)]
                                    .reconfigs += 1;
                                out.reconfigs.push(ReconfigRecord {
                                    at_ms: t,
                                    run_seed,
                                    from: current_cfg,
                                    to: best.cfg,
                                });
                                current_cfg = best.cfg;
                            }
                        }
                    }
                }
                if let Ok(p) = ctl.predict(current_cfg) {
                    predictions.push((t, p.prob_consistent(scenario.probe_offset_ms)));
                }
            }
            next_refit += control.refit_interval_ms;
        }
    };
    let mut cluster =
        run.drive(probes, prepare, step).expect("the serial engine accepts every latency model");

    for w in &mut out.windows {
        w.write_latency.seal();
        w.read_latency.seal();
    }
    if scenario.check_history {
        let history = cluster.take_history();
        out.check = Some(checker::check_run(&history, &cluster, scenario.check_convergence));
    }
    out
}

/// Replicate `scenario` across `trials` independent whole-scenario runs
/// sharded over `threads` on the `pbs-mc` runner
/// ([`Runner::run_replicas`]: shard `i` seeds `seed ^ i`, each run gets
/// its replica seed, accumulators merge in shard order), yielding
/// per-window counts large enough for confidence intervals. Results are
/// bit-reproducible for a fixed `(seed, threads)` pair.
pub fn run_scenario_sharded(
    scenario: &Scenario,
    trials: usize,
    seed: u64,
    threads: usize,
) -> ScenarioRun {
    assert!(trials > 0 && threads > 0);
    Runner::new(trials, seed, threads)
        .run_replicas(ScenarioRun::default, |run_seed| run_scenario(scenario, run_seed))
}
