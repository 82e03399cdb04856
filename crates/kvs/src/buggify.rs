//! Buggify-style deterministic fault injection for the simulated store.
//!
//! FoundationDB's simulation testing popularised "buggify": seed-driven
//! fault hooks compiled into the normal code path, so every test run can
//! double as a chaos run without giving up reproducibility. This module
//! is the configuration surface for our port of that idea: a
//! [`FaultProfile`] describes per-message and per-node fault rates, and
//! the [`NetworkModel`](crate::NetworkModel) plus the storage nodes
//! consult it on the hot path.
//!
//! Two invariants make the layer safe to weave through existing code:
//!
//! 1. **No profile, no perturbation.** When no profile is installed the
//!    message path consumes *exactly* the RNG draws it consumed before
//!    this module existed, so every seeded run in the repo stays
//!    bit-identical.
//! 2. **Per-site determinism.** All fault decisions are functions of
//!    either (a) the owning node's private RNG stream (message rolls) or
//!    (b) a pure hash of `(profile.seed, node id)` (slow-node selection,
//!    clock drift). Neither depends on cross-node event interleaving, so
//!    sharded runs stay bit-reproducible per `(seed, threads)` exactly
//!    like fault-free runs.
//!
//! The faults themselves:
//!
//! * **drop** — a message vanishes (models loss; the paper's partial
//!   quorums only matter *because* messages go missing).
//! * **duplicate** — a message is delivered twice with independent
//!   delays (at-least-once networks; exercises idempotency of replica
//!   apply, ack, and hint handling).
//! * **reorder** — extra uniform delay up to a bound, reordering the
//!   message against its peers (models queueing jitter beyond the WARS
//!   distributions).
//! * **slow node** — a deterministic subset of nodes sees all of its
//!   message latencies multiplied (the paper's §5.2 "degraded node"
//!   regime).
//! * **disk lag** — replica apply (the `W` leg's server-side write) is
//!   deferred by a random lag before the ack is sent (models fsync
//!   stalls; stretches the `A` leg seen by coordinators).
//! * **clock skew** — each node's *protocol timers* (hint timeout, hint
//!   flush, anti-entropy cadence) run on a private clock with a rate
//!   drawn from `1 ± clock_drift_max` (models unsynchronised clocks;
//!   the paper's t-visibility is defined on global time, which the
//!   simulator — like a linearizable history recorder — keeps).

use pbs_sim::SkewedClock;
use std::fmt;

/// Golden-ratio multiplier shared with the workspace's seed-derivation
/// scheme (`pbs-mc` shards, per-node RNG streams).
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salts separating the per-node derivation domains.
const SALT_SLOW: u64 = 0x5103;
const SALT_DRIFT: u64 = 0xd21f7;

/// A rejected [`FaultProfile`] or fault-surface parameter.
///
/// Returned instead of panicking so scenario timelines (which apply
/// events to a *running* cluster) can surface bad configuration as data
/// rather than aborting a sharded run mid-flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultConfigError {
    /// A probability field fell outside `[0, 1]` (or was not finite).
    BadProbability {
        /// Which field was rejected.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A magnitude field (milliseconds, multiplier, drift) was not
    /// finite or fell outside its documented range.
    BadMagnitude {
        /// Which field was rejected.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A partition grouping did not assign every node exactly one group.
    GroupCountMismatch {
        /// Number of group assignments supplied.
        groups: usize,
        /// Number of nodes in the cluster.
        nodes: usize,
    },
    /// A [`FaultSchedule`] with no segments.
    EmptySchedule,
    /// A [`FaultSchedule`] segment start that is not finite, or not
    /// strictly after the previous segment's start (the first segment
    /// must start at exactly 0 ms so every instant has a profile).
    BadScheduleSegment {
        /// Index of the offending segment.
        index: usize,
        /// Its `from_ms`.
        from_ms: f64,
    },
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultConfigError::BadProbability { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            FaultConfigError::BadMagnitude { field, value } => {
                write!(f, "{field} out of range: {value}")
            }
            FaultConfigError::GroupCountMismatch { groups, nodes } => {
                write!(f, "partition supplies {groups} group assignments for {nodes} nodes")
            }
            FaultConfigError::EmptySchedule => {
                write!(f, "fault schedule has no segments")
            }
            FaultConfigError::BadScheduleSegment { index, from_ms } => {
                write!(
                    f,
                    "fault schedule segment {index} starts at {from_ms} ms; starts must be \
                     finite, strictly increasing, and begin at 0"
                )
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// How the network decided to deliver one message.
///
/// Produced by [`NetworkModel::transmit_buggified`](crate::NetworkModel::transmit_buggified);
/// the sending node turns each arm into zero, one, or two `ctx.send`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// The message is lost (partition or injected drop).
    Dropped,
    /// Normal delivery after the given one-way delay (milliseconds).
    Once(f64),
    /// The message is duplicated: two copies with independent delays.
    Twice(f64, f64),
}

/// Seed-driven fault rates for a chaos run.
///
/// All probabilities are per-message (or per-replica-apply for
/// `disk_lag_prob`); magnitudes are milliseconds unless noted. The
/// default profile ([`FaultProfile::new`]) injects nothing; build up
/// faults with the `with_*` methods or start from the
/// [`storm`](FaultProfile::storm) preset. Validate with
/// [`validate`](FaultProfile::validate) before installing — the network
/// rejects invalid profiles with a [`FaultConfigError`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Seed for the *per-node trait* derivations (slow-node membership,
    /// clock drift). Message-level rolls use each node's private RNG
    /// stream instead, so this seed only selects *which* nodes are
    /// slow/skewed, independent of the run seed.
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a (non-dropped) message is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a delivery picks up extra reorder jitter.
    pub reorder_prob: f64,
    /// Upper bound on the uniform reorder jitter (ms).
    pub reorder_max_ms: f64,
    /// Fraction of nodes deterministically designated "slow".
    pub slow_node_frac: f64,
    /// Latency multiplier applied to messages touching a slow node
    /// (must be ≥ 1).
    pub slow_node_factor: f64,
    /// Probability a replica apply is deferred by disk lag.
    pub disk_lag_prob: f64,
    /// Upper bound on the uniform disk lag (ms).
    pub disk_lag_max_ms: f64,
    /// Maximum relative clock drift per node: each node's protocol
    /// timers run at a rate drawn deterministically from
    /// `[1 − max, 1 + max]`. Must be in `[0, 0.5)`.
    pub clock_drift_max: f64,
}

impl FaultProfile {
    /// A profile that injects nothing (all rates zero, all clocks true).
    pub fn new(seed: u64) -> Self {
        FaultProfile {
            seed,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_max_ms: 0.0,
            slow_node_frac: 0.0,
            slow_node_factor: 1.0,
            disk_lag_prob: 0.0,
            disk_lag_max_ms: 0.0,
            clock_drift_max: 0.0,
        }
    }

    /// The everything-at-once preset used by the `chaos` bench mode and
    /// the CI smoke job: moderate drop/duplicate/reorder, a third of the
    /// nodes slow, occasional disk lag, and ±2% clock drift.
    pub fn storm(seed: u64) -> Self {
        FaultProfile::new(seed)
            .with_drop(0.02)
            .with_duplicate(0.02)
            .with_reorder(0.15, 4.0)
            .with_slow_nodes(0.34, 2.5)
            .with_disk_lag(0.10, 3.0)
            .with_clock_drift(0.02)
    }

    /// Set the per-message drop probability.
    pub fn with_drop(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Set the per-message duplication probability.
    pub fn with_duplicate(mut self, prob: f64) -> Self {
        self.duplicate_prob = prob;
        self
    }

    /// Set the reorder probability and jitter bound (ms).
    pub fn with_reorder(mut self, prob: f64, max_ms: f64) -> Self {
        self.reorder_prob = prob;
        self.reorder_max_ms = max_ms;
        self
    }

    /// Set the slow-node fraction and latency multiplier.
    pub fn with_slow_nodes(mut self, frac: f64, factor: f64) -> Self {
        self.slow_node_frac = frac;
        self.slow_node_factor = factor;
        self
    }

    /// Set the disk-lag probability and bound (ms) for replica applies.
    pub fn with_disk_lag(mut self, prob: f64, max_ms: f64) -> Self {
        self.disk_lag_prob = prob;
        self.disk_lag_max_ms = max_ms;
        self
    }

    /// Set the maximum per-node clock drift (relative rate, `[0, 0.5)`).
    pub fn with_clock_drift(mut self, max: f64) -> Self {
        self.clock_drift_max = max;
        self
    }

    /// Check every field against its documented range.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        let probs = [
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("reorder_prob", self.reorder_prob),
            ("slow_node_frac", self.slow_node_frac),
            ("disk_lag_prob", self.disk_lag_prob),
        ];
        for (field, value) in probs {
            if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
                return Err(FaultConfigError::BadProbability { field, value });
            }
        }
        let nonneg = [
            ("reorder_max_ms", self.reorder_max_ms),
            ("disk_lag_max_ms", self.disk_lag_max_ms),
        ];
        for (field, value) in nonneg {
            if !(value.is_finite() && value >= 0.0) {
                return Err(FaultConfigError::BadMagnitude { field, value });
            }
        }
        if !(self.slow_node_factor.is_finite() && self.slow_node_factor >= 1.0) {
            return Err(FaultConfigError::BadMagnitude {
                field: "slow_node_factor",
                value: self.slow_node_factor,
            });
        }
        if !(self.clock_drift_max.is_finite() && (0.0..0.5).contains(&self.clock_drift_max)) {
            return Err(FaultConfigError::BadMagnitude {
                field: "clock_drift_max",
                value: self.clock_drift_max,
            });
        }
        Ok(())
    }

    /// Whether `node` is in the deterministic slow set.
    pub fn is_slow(&self, node: u32) -> bool {
        self.slow_node_frac > 0.0 && site_unit(self.seed, node, SALT_SLOW) < self.slow_node_frac
    }

    /// The latency multiplier for messages touching `node` (1.0 when the
    /// node is not slow).
    pub fn slow_factor(&self, node: u32) -> f64 {
        if self.is_slow(node) {
            self.slow_node_factor
        } else {
            1.0
        }
    }

    /// The deterministic relative clock drift assigned to `node`, in
    /// `[−clock_drift_max, +clock_drift_max]`.
    pub fn clock_drift(&self, node: u32) -> f64 {
        if self.clock_drift_max == 0.0 {
            0.0
        } else {
            (2.0 * site_unit(self.seed, node, SALT_DRIFT) - 1.0) * self.clock_drift_max
        }
    }

    /// The protocol-timer clock assigned to `node`.
    pub fn clock_of(&self, node: u32) -> SkewedClock {
        let drift = self.clock_drift(node);
        if drift == 0.0 {
            SkewedClock::IDENTITY
        } else {
            SkewedClock::with_rate(1.0 + drift)
        }
    }
}

/// One segment of a [`FaultSchedule`]: `profile` is in force from
/// `from_ms` (inclusive) until the next segment's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleSegment {
    /// Simulated instant (ms) at which this segment takes effect.
    pub from_ms: f64,
    /// The fault profile in force during the segment.
    pub profile: FaultProfile,
}

impl ScheduleSegment {
    /// Construct a segment.
    pub fn new(from_ms: f64, profile: FaultProfile) -> Self {
        Self { from_ms, profile }
    }
}

/// A piecewise time-varying fault profile: scheduled storms.
///
/// A schedule is a sorted list of [`ScheduleSegment`]s; the profile in
/// force at simulated time `t` is the last segment with `from_ms ≤ t`,
/// and the final segment persists forever. The first segment must start
/// at 0 ms, so every instant has a well-defined profile.
///
/// Schedules preserve both buggify invariants. Fault decisions are still
/// sender-local functions of `(sender RNG, send time)` — the active
/// profile is looked up at the instant the message is sent, never at
/// delivery — so scheduled storms stay bit-reproducible per
/// `(seed, threads)` and identical between the serial and PDES engines.
/// And the strict RNG-draw discipline holds *per segment*: during a
/// segment whose probabilities are all zero the message path consumes
/// exactly the draws a profile-free run consumes, so a calm segment is
/// indistinguishable from no profile at all.
///
/// Scheduled profiles never *shrink* delivery delays (slow factors are
/// ≥ 1, reorder only adds jitter), so the PDES lookahead derived from
/// the base latency model remains a valid lower bound throughout.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    segments: Vec<ScheduleSegment>,
}

impl FaultSchedule {
    /// A schedule with a single profile in force forever — how a plain
    /// [`FaultProfile`] installs internally.
    pub fn constant(profile: FaultProfile) -> Self {
        Self { segments: vec![ScheduleSegment::new(0.0, profile)] }
    }

    /// An arbitrary piecewise schedule. Validate with
    /// [`validate`](FaultSchedule::validate) before installing.
    pub fn piecewise(segments: Vec<ScheduleSegment>) -> Self {
        Self { segments }
    }

    /// Preset: calm until `storm_from_ms`, `storm` until
    /// `storm_until_ms`, calm again afterwards — the canonical
    /// crash-during-storm audit timeline.
    pub fn calm_storm_calm(storm: FaultProfile, storm_from_ms: f64, storm_until_ms: f64) -> Self {
        assert!(0.0 < storm_from_ms && storm_from_ms < storm_until_ms);
        let calm = FaultProfile::new(storm.seed);
        Self {
            segments: vec![
                ScheduleSegment::new(0.0, calm),
                ScheduleSegment::new(storm_from_ms, storm),
                ScheduleSegment::new(storm_until_ms, calm),
            ],
        }
    }

    /// Check segment ordering and every segment's profile.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        if self.segments.is_empty() {
            return Err(FaultConfigError::EmptySchedule);
        }
        let mut prev = f64::NEG_INFINITY;
        for (index, seg) in self.segments.iter().enumerate() {
            let bad_first_start = index == 0 && seg.from_ms != 0.0;
            if !seg.from_ms.is_finite() || seg.from_ms <= prev || bad_first_start {
                return Err(FaultConfigError::BadScheduleSegment {
                    index,
                    from_ms: seg.from_ms,
                });
            }
            seg.profile.validate()?;
            prev = seg.from_ms;
        }
        Ok(())
    }

    /// The profile in force at simulated time `now_ms`: the last segment
    /// with `from_ms ≤ now_ms` (the final segment persists forever).
    pub fn active_at(&self, now_ms: f64) -> &FaultProfile {
        let idx = self.segments.partition_point(|s| s.from_ms <= now_ms);
        &self.segments[idx.saturating_sub(1)].profile
    }

    /// `Some(profile)` when the schedule is a single constant segment.
    pub fn as_constant(&self) -> Option<FaultProfile> {
        (self.segments.len() == 1).then(|| self.segments[0].profile)
    }

    /// The segments, sorted by start time.
    pub fn segments(&self) -> &[ScheduleSegment] {
        &self.segments
    }
}

/// A plain profile is the schedule that holds it forever.
impl From<FaultProfile> for FaultSchedule {
    fn from(profile: FaultProfile) -> Self {
        Self::constant(profile)
    }
}

/// Deliberate, test-only protocol breakages for **mutation testing** the
/// checker's order oracle: each flag disables or corrupts one healing /
/// merge mechanism in the storage node, and
/// `tests/oracle_mutations.rs` proves the oracle catches each one with
/// the expected [`OrderViolation`](crate::checker::OrderViolation) type.
/// All flags default to `false`; production code never sets them — they
/// exist so a silent future regression in the *checker* (an oracle that
/// stops detecting real bugs) fails CI instead of rotting quietly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolMutations {
    /// Read repair observes stale replicas but never sends the repair
    /// write (healing silently stops; replicas stay divergent).
    pub skip_read_repair: bool,
    /// Read repair sends a *corrupted* version: a fabricated sequence
    /// number far in the future that no write ever committed.
    pub corrupt_read_repair: bool,
    /// Replica apply overwrites unconditionally instead of keeping the
    /// per-key max — a hinted or duplicated old write rolls the replica
    /// back to a superseded version.
    pub drop_version_merge: bool,
    /// The hint-flush timer fires but delivers nothing: hints accumulate
    /// until they expire and recovered replicas never hear the writes
    /// they missed.
    pub swallow_hints: bool,
}

/// SplitMix64 finalizer: the same mixer the `rand` shim uses for seeding,
/// reused here to hash `(seed, node, salt)` into an independent uniform.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(PHI);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform in `[0, 1)` derived purely from `(seed, node, salt)`.
fn site_unit(seed: u64, node: u32, salt: u64) -> f64 {
    let h = splitmix64(seed ^ salt.wrapping_mul(PHI) ^ (u64::from(node) + 1).wrapping_mul(PHI));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_inert_and_valid() {
        let p = FaultProfile::new(7);
        assert!(p.validate().is_ok());
        for node in 0..16 {
            assert!(!p.is_slow(node));
            assert_eq!(p.slow_factor(node), 1.0);
            assert_eq!(p.clock_drift(node), 0.0);
            assert!(p.clock_of(node).is_identity());
        }
    }

    #[test]
    fn storm_preset_validates_and_activates_everything() {
        let p = FaultProfile::storm(3);
        assert!(p.validate().is_ok());
        assert!(p.drop_prob > 0.0 && p.duplicate_prob > 0.0 && p.reorder_prob > 0.0);
        assert!(p.disk_lag_prob > 0.0 && p.clock_drift_max > 0.0);
    }

    #[test]
    fn validation_rejects_each_bad_field() {
        let bad_prob = FaultProfile::new(0).with_drop(1.5);
        assert_eq!(
            bad_prob.validate(),
            Err(FaultConfigError::BadProbability { field: "drop_prob", value: 1.5 })
        );
        let nan_prob = FaultProfile::new(0).with_duplicate(f64::NAN);
        assert!(matches!(
            nan_prob.validate(),
            Err(FaultConfigError::BadProbability { field: "duplicate_prob", .. })
        ));
        let neg_ms = FaultProfile::new(0).with_reorder(0.1, -1.0);
        assert!(matches!(
            neg_ms.validate(),
            Err(FaultConfigError::BadMagnitude { field: "reorder_max_ms", .. })
        ));
        let shrink = FaultProfile::new(0).with_slow_nodes(0.5, 0.5);
        assert!(matches!(
            shrink.validate(),
            Err(FaultConfigError::BadMagnitude { field: "slow_node_factor", .. })
        ));
        let wild_drift = FaultProfile::new(0).with_clock_drift(0.5);
        assert!(matches!(
            wild_drift.validate(),
            Err(FaultConfigError::BadMagnitude { field: "clock_drift_max", .. })
        ));
    }

    #[test]
    fn per_node_traits_are_deterministic_in_profile_seed() {
        let a = FaultProfile::new(42).with_slow_nodes(0.5, 2.0).with_clock_drift(0.1);
        let b = FaultProfile::new(42).with_slow_nodes(0.5, 2.0).with_clock_drift(0.1);
        for node in 0..64 {
            assert_eq!(a.is_slow(node), b.is_slow(node));
            assert_eq!(a.clock_drift(node), b.clock_drift(node));
        }
        // A different profile seed reshuffles the slow set.
        let c = FaultProfile::new(43).with_slow_nodes(0.5, 2.0);
        assert!((0..64).any(|n| a.is_slow(n) != c.is_slow(n)));
    }

    #[test]
    fn slow_fraction_extremes() {
        let none = FaultProfile::new(9).with_slow_nodes(0.0, 3.0);
        let all = FaultProfile::new(9).with_slow_nodes(1.0, 3.0);
        for node in 0..32 {
            assert!(!none.is_slow(node));
            assert!(all.is_slow(node), "frac=1.0 marks every node slow");
            assert_eq!(all.slow_factor(node), 3.0);
        }
    }

    #[test]
    fn schedule_lookup_is_boundary_inclusive_and_last_persists() {
        let storm = FaultProfile::storm(5);
        let s = FaultSchedule::calm_storm_calm(storm, 100.0, 300.0);
        assert!(s.validate().is_ok());
        let calm = FaultProfile::new(5);
        assert_eq!(*s.active_at(0.0), calm);
        assert_eq!(*s.active_at(99.999), calm, "strictly before the boundary: calm");
        assert_eq!(*s.active_at(100.0), storm, "segment starts are inclusive");
        assert_eq!(*s.active_at(299.999), storm);
        assert_eq!(*s.active_at(300.0), calm, "storm ends exactly at its bound");
        assert_eq!(*s.active_at(1.0e12), calm, "the final segment persists forever");
        assert!(s.as_constant().is_none());
    }

    #[test]
    fn schedule_validation_rejects_malformed_segment_lists() {
        assert_eq!(
            FaultSchedule::piecewise(vec![]).validate(),
            Err(FaultConfigError::EmptySchedule)
        );
        let late_start =
            FaultSchedule::piecewise(vec![ScheduleSegment::new(5.0, FaultProfile::new(0))]);
        assert_eq!(
            late_start.validate(),
            Err(FaultConfigError::BadScheduleSegment { index: 0, from_ms: 5.0 })
        );
        let unsorted = FaultSchedule::piecewise(vec![
            ScheduleSegment::new(0.0, FaultProfile::new(0)),
            ScheduleSegment::new(10.0, FaultProfile::storm(0)),
            ScheduleSegment::new(10.0, FaultProfile::new(0)),
        ]);
        assert_eq!(
            unsorted.validate(),
            Err(FaultConfigError::BadScheduleSegment { index: 2, from_ms: 10.0 })
        );
        let bad_profile = FaultSchedule::piecewise(vec![ScheduleSegment::new(
            0.0,
            FaultProfile::new(0).with_drop(2.0),
        )]);
        assert!(matches!(
            bad_profile.validate(),
            Err(FaultConfigError::BadProbability { field: "drop_prob", .. })
        ));
    }

    #[test]
    fn constant_schedule_round_trips_the_profile() {
        let p = FaultProfile::storm(9);
        let s = FaultSchedule::constant(p);
        assert!(s.validate().is_ok());
        assert_eq!(s.as_constant(), Some(p));
        assert_eq!(*s.active_at(0.0), p);
        assert_eq!(*s.active_at(1.0e9), p);
    }

    #[test]
    fn mutations_default_inert() {
        let off = ProtocolMutations {
            skip_read_repair: false,
            corrupt_read_repair: false,
            drop_version_merge: false,
            swallow_hints: false,
        };
        assert_eq!(ProtocolMutations::default(), off);
    }

    #[test]
    fn clock_drift_stays_in_bounds_and_varies() {
        let p = FaultProfile::new(11).with_clock_drift(0.05);
        let drifts: Vec<f64> = (0..32).map(|n| p.clock_drift(n)).collect();
        for &d in &drifts {
            assert!(d.abs() <= 0.05, "drift {d} out of bounds");
            let clock = p.clock_of(0);
            assert!(clock.rate() > 0.0);
        }
        assert!(drifts.iter().any(|&d| d > 0.0) && drifts.iter().any(|&d| d < 0.0));
    }
}
