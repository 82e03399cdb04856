//! Declarative scenario definitions and the built-in scenario library.

use crate::event::{ScenarioEvent, TimedEvent};
use pbs_core::ReplicaConfig;
use pbs_dist::Exponential;
use pbs_kvs::{ClusterOptions, FaultProfile, FaultSchedule, NetworkModel};
use pbs_predictor::SlaSpec;
use std::sync::Arc;

/// Closed-loop controller settings for a scenario run.
#[derive(Debug, Clone)]
pub struct ControlOptions {
    /// How often the driver drains leg samples and refits (ms).
    pub refit_interval_ms: f64,
    /// Minimum per-leg window fill before the first refit is attempted.
    pub min_samples: usize,
    /// Sliding-window capacity per WARS leg.
    pub window: usize,
    /// Monte-Carlo trials per candidate evaluation.
    pub mc_trials: usize,
    /// Whether the controller's best configuration is **applied** to the
    /// live cluster (`false` = observe/predict only).
    pub adaptive: bool,
    /// The SLA the optimizer targets when `adaptive`.
    pub spec: SlaSpec,
    /// Candidate replication factors for the optimizer.
    pub candidate_ns: Vec<u32>,
}

impl ControlOptions {
    /// Sensible defaults for the built-in scenarios: refit every 1.5 s
    /// over a 1 000-sample window, 3 000 MC trials per candidate,
    /// adaptive reconfiguration on, targeting 90% consistency within
    /// 10 ms.
    pub fn default_for(candidate_ns: Vec<u32>) -> Self {
        Self {
            refit_interval_ms: 1_500.0,
            min_samples: 300,
            window: 1_000,
            mc_trials: 3_000,
            adaptive: true,
            spec: SlaSpec::consistency(0.9, 10.0),
            candidate_ns,
        }
    }
}

/// A declarative, seeded chaos scenario: a cluster + network baseline, a
/// (possibly nonstationary) probe-load timeline, a list of timed fault
/// events, and closed-loop controller settings.
///
/// Run one with [`crate::run_scenario`] or replicate it for confidence
/// intervals with [`crate::run_scenario_sharded`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (`Scenario::by_name` key).
    pub name: String,
    /// One-line description for harness output.
    pub description: String,
    /// Cluster options (the driver overrides `seed` per run and forces
    /// `record_leg_samples`).
    pub cluster: ClusterOptions,
    /// Baseline network (cloned — i.e. forked — per run).
    pub network: NetworkModel,
    /// Piecewise probe load: `(start_ms, probes per second)` segments.
    pub load: Vec<(f64, f64)>,
    /// Optional load period (ms) — the load timeline repeats (diurnal).
    pub load_period_ms: Option<f64>,
    /// Fault timeline, sorted by time.
    pub events: Vec<TimedEvent>,
    /// Total simulated duration (ms).
    pub duration_ms: f64,
    /// Reporting window width (ms).
    pub window_ms: f64,
    /// Probe read offset: each probe reads this many ms after its write's
    /// commit (`t` in the paper's t-visibility).
    pub probe_offset_ms: f64,
    /// Keyspace size for probe keys.
    pub keys: u64,
    /// Segments `(start_ms, end_ms)` on which conditions are stationary
    /// and the refit window has converged — where adaptive predictions
    /// are expected to track measurements (used by tests and the harness
    /// summary).
    pub stationary: Vec<(f64, f64)>,
    /// Closed-loop controller settings.
    pub control: ControlOptions,
    /// Record the full op history and run the offline checker as a
    /// post-pass (session replay vs. streaming counters, label recount).
    pub check_history: bool,
    /// Also audit post-settle replica convergence. Only meaningful when
    /// the timeline clears every fault long enough before the end for
    /// repair traffic to land.
    pub check_convergence: bool,
}

impl Scenario {
    fn baseline(name: &str, description: &str, seed: u64) -> Self {
        let cfg = ReplicaConfig::new(3, 1, 1).expect("valid");
        let mut cluster = ClusterOptions::validation(cfg, seed);
        // Probes must not warp time past in-flight faults on failure.
        cluster.op_timeout_ms = 400.0;
        // Disk-like writes (mean 6 ms) against fast A=R=S legs (mean
        // 1.5 ms): mid-range immediate consistency, so both improvements
        // and regressions are visible.
        let network = NetworkModel::w_ars(
            Arc::new(Exponential::from_mean(6.0)),
            Arc::new(Exponential::from_mean(1.5)),
        );
        Self {
            name: name.into(),
            description: description.into(),
            cluster,
            network,
            load: vec![(0.0, 70.0)],
            load_period_ms: None,
            events: Vec::new(),
            duration_ms: 16_000.0,
            window_ms: 1_000.0,
            probe_offset_ms: 0.0,
            keys: 16,
            stationary: Vec::new(),
            control: ControlOptions::default_for(vec![3]),
            check_history: false,
            check_convergence: false,
        }
    }

    /// Built-in: a repeating day/night load curve. Peak traffic refits on
    /// dense samples; the trough shows how prediction confidence degrades
    /// when the store goes quiet. Conditions are otherwise stationary, so
    /// predictions should track measurements throughout (after the first
    /// refit).
    pub fn diurnal_load(seed: u64) -> Self {
        let mut s = Self::baseline(
            "diurnal-load",
            "day/night load cycle over a stationary network; predictions should track",
            seed,
        );
        s.load = vec![(0.0, 90.0), (4_000.0, 25.0)];
        s.load_period_ms = Some(8_000.0);
        s.duration_ms = 16_000.0;
        s.stationary = vec![(4_000.0, 16_000.0)];
        s
    }

    /// Built-in: a latency-regime spike. At 6 s the write leg degrades to
    /// a 30 ms mean (fsync storms / compaction); at 10 s it recovers. The
    /// adaptive controller tightens quorums during the spike and relaxes
    /// after; the pre-spike and late post-recovery segments are
    /// stationary.
    pub fn latency_spike(seed: u64) -> Self {
        let mut s = Self::baseline(
            "latency-spike",
            "write-leg regime spike at 6s, recovery at 10s; adaptive quorums tighten and relax",
            seed,
        );
        let slow_w: pbs_dist::DynDistribution = Arc::new(Exponential::from_mean(30.0));
        let ars: pbs_dist::DynDistribution = Arc::new(Exponential::from_mean(1.5));
        s.events = vec![
            TimedEvent::new(
                6_000.0,
                ScenarioEvent::SwapRegime {
                    w: slow_w,
                    a: ars.clone(),
                    r: ars.clone(),
                    s: ars,
                },
            ),
            TimedEvent::new(10_000.0, ScenarioEvent::RestoreBaseline),
        ];
        s.duration_ms = 22_000.0;
        // Pre-spike after first refits; post-recovery after the sliding
        // window has fully rolled past spike-era samples.
        s.stationary = vec![(3_000.0, 6_000.0), (16_000.0, 22_000.0)];
        s
    }

    /// Built-in: a rolling one-node partition — each node is isolated for
    /// 2 s in turn (a rolling restart / rolling network maintenance).
    /// Availability and consistency dip while a probe's coordinator or
    /// replicas sit on the wrong side; the tail after the last heal is
    /// stationary.
    pub fn rolling_partition(seed: u64) -> Self {
        let mut s = Self::baseline(
            "rolling-partition",
            "each node isolated for 2s in turn; consistency dips per wave (predictions are blind to partitions)",
            seed,
        );
        let mut events = Vec::new();
        for (i, at) in [4_000.0f64, 8_000.0, 12_000.0].iter().enumerate() {
            let mut groups = vec![0u32; 3];
            groups[i] = 1; // isolate node i
            events.push(TimedEvent::new(*at, ScenarioEvent::Partition { groups }));
            events.push(TimedEvent::new(at + 2_000.0, ScenarioEvent::HealPartition));
        }
        s.events = events;
        s.duration_ms = 20_000.0;
        s.stationary = vec![(3_000.0, 4_000.0)];
        // Reconfiguration cannot route around a partition here (every node
        // is a replica at N=3); observe/predict only.
        s.control.adaptive = false;
        s
    }

    /// Built-in: a buggify storm — seeded message drops, duplicates,
    /// bounded reordering, slow nodes, disk lag, and per-node clock drift
    /// all at once, cleared at 12 s so the tail shows recovery. The
    /// offline history checker runs as a post-pass: under faults the
    /// session guarantees *will* be violated; the acceptance criterion is
    /// that the streaming counters and the offline replay agree on every
    /// violation, and that no online staleness label is mismatched.
    pub fn buggify_storm(seed: u64) -> Self {
        let mut s = Self::baseline(
            "buggify-storm",
            "full fault storm until 12s (drops, dups, reorder, slow nodes, disk lag, clock skew); history checker post-pass",
            seed,
        );
        let storm = FaultSchedule::constant(FaultProfile::storm(seed));
        s.events = vec![
            TimedEvent::new(0.0, ScenarioEvent::InjectFaults(storm)),
            TimedEvent::new(12_000.0, ScenarioEvent::ClearFaults),
        ];
        s.duration_ms = 16_000.0;
        s.check_history = true;
        // Predictions are blind to buggify faults (drops aren't latency);
        // observe only, don't let the optimizer thrash on them.
        s.control.adaptive = false;
        s
    }

    /// Built-in: a scheduled calm→storm→calm message-fault window (3–9 s)
    /// with two node crashes inside it — the adversarial audit shape. The
    /// cluster runs every healing mechanism (hinted handoff, read repair,
    /// merkle anti-entropy), so the post-storm tail must fully converge;
    /// the history checker post-pass audits sessions, labels, per-key
    /// order, and final-state convergence.
    pub fn crash_storm(seed: u64) -> Self {
        let mut s = Self::baseline(
            "crash-storm",
            "scheduled fault storm 3-9s with two crashes inside; hints/repair/anti-entropy must reconverge the tail",
            seed,
        );
        // Message faults only: drops, duplicates, bounded reordering. Disk
        // lag / slow nodes / clock drift are exercised by buggify-storm;
        // here the calm tail must be genuinely calm so the convergence
        // audit is meaningful.
        let storm = FaultProfile::new(seed)
            .with_drop(0.12)
            .with_duplicate(0.08)
            .with_reorder(0.1, 4.0);
        let schedule = FaultSchedule::calm_storm_calm(storm, 3_000.0, 9_000.0);
        s.cluster.read_repair = true;
        s.cluster.hinted_handoff = true;
        s.cluster.hint_timeout_ms = 100.0;
        s.cluster.hint_flush_interval_ms = 250.0;
        s.cluster.sync_interval_ms = Some(2_000.0);
        s.events = vec![
            TimedEvent::new(0.0, ScenarioEvent::InjectFaults(schedule)),
            TimedEvent::new(4_000.0, ScenarioEvent::Crash { node: 1, down_ms: 1_500.0 }),
            TimedEvent::new(6_500.0, ScenarioEvent::Crash { node: 2, down_ms: 1_500.0 }),
        ];
        s.duration_ms = 16_000.0;
        s.check_history = true;
        s.check_convergence = true;
        // Predictions are blind to drops; observe only.
        s.control.adaptive = false;
        s
    }

    /// Look up a built-in scenario by name.
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        match name {
            "diurnal-load" => Some(Self::diurnal_load(seed)),
            "latency-spike" => Some(Self::latency_spike(seed)),
            "rolling-partition" => Some(Self::rolling_partition(seed)),
            "buggify-storm" => Some(Self::buggify_storm(seed)),
            "crash-storm" => Some(Self::crash_storm(seed)),
            _ => None,
        }
    }

    /// Names of the built-in scenarios.
    pub fn builtin_names() -> &'static [&'static str] {
        &["diurnal-load", "latency-spike", "rolling-partition", "buggify-storm", "crash-storm"]
    }

    /// Validate cross-field invariants (called by the driver).
    pub fn validate(&self) {
        // Each of these would otherwise hang the run or die inside it.
        let control = &self.control;
        for (field, value) in [
            ("duration_ms", self.duration_ms),
            ("window_ms", self.window_ms),
            ("cluster.op_timeout_ms", self.cluster.op_timeout_ms),
            ("control.refit_interval_ms", control.refit_interval_ms),
        ] {
            assert!(value.is_finite() && value > 0.0, "{field} must be finite and > 0, got {value}");
        }
        assert!(
            self.probe_offset_ms.is_finite() && self.probe_offset_ms >= 0.0,
            "probe_offset_ms must be finite and >= 0, got {}",
            self.probe_offset_ms
        );
        assert!(self.keys > 0);
        assert!(!self.load.is_empty());
        for pair in self.events.windows(2) {
            assert!(
                pair[0].at_ms <= pair[1].at_ms,
                "events must be sorted by time: {} after {}",
                pair[0].at_ms,
                pair[1].at_ms
            );
        }
        for &(a, b) in &self.stationary {
            assert!(a < b && b <= self.duration_ms, "bad stationary segment ({a}, {b})");
        }
        // Each of these would otherwise panic inside the first refit.
        assert!(control.mc_trials > 0, "control.mc_trials must be at least 1");
        assert!(control.window > 0, "control.window must be at least 1");
        assert!(
            control.min_samples <= control.window,
            "control.min_samples ({}) must not exceed control.window ({}): a refit \
             would never collect that many samples",
            control.min_samples,
            control.window
        );
        assert!(
            !control.candidate_ns.is_empty(),
            "control.candidate_ns must name at least one replication factor"
        );
        assert!(
            (0.0..=1.0).contains(&control.spec.consistency_probability),
            "control.spec.consistency_probability must lie in [0, 1], got {}",
            control.spec.consistency_probability
        );
        assert!(
            (0.0..=100.0).contains(&control.spec.latency_percentile),
            "control.spec.latency_percentile must lie in [0, 100], got {}",
            control.spec.latency_percentile
        );
        for &n in &control.candidate_ns {
            assert!(
                n <= self.cluster.nodes,
                "candidate N={n} exceeds the cluster's {} nodes — an adaptive \
                 reconfiguration to it would fail mid-run",
                self.cluster.nodes
            );
        }
        assert!(
            !self.check_convergence || self.check_history,
            "check_convergence requires check_history (the checker post-pass)"
        );
    }
}
