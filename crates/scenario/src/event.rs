//! The scenario event vocabulary: everything a fault/load timeline can do
//! to a running cluster.

use pbs_dist::DynDistribution;
use pbs_kvs::{Cluster, FaultSchedule, LinkFault};
use pbs_sim::SimTime;

/// One dynamic condition change. Events are interpreted by
/// [`apply_event`] against a live [`Cluster`]; each takes effect at the
/// simulated instant it is applied (in-flight messages keep the
/// conditions they were sent under).
#[derive(Clone)]
pub enum ScenarioEvent {
    /// Crash `node` for `down_ms` (state wiped iff the cluster's
    /// `wipe_on_crash` is set).
    Crash {
        /// Node to crash.
        node: usize,
        /// Downtime in ms.
        down_ms: f64,
    },
    /// Install a network partition: `groups[node]` is each node's side;
    /// cross-group messages are dropped.
    Partition {
        /// Partition group per node.
        groups: Vec<u32>,
    },
    /// Remove the partition.
    HealPartition,
    /// Degrade one directed link (see [`LinkFault`]).
    DegradeLink(LinkFault),
    /// Remove every link fault.
    ClearLinkFaults,
    /// Swap the active per-leg latency distributions — a latency *regime*
    /// change (e.g. SSD-like service times degrade to disk-like tails).
    SwapRegime {
        /// Write-propagation leg.
        w: DynDistribution,
        /// Write-ack leg.
        a: DynDistribution,
        /// Read-request leg.
        r: DynDistribution,
        /// Read-response leg.
        s: DynDistribution,
    },
    /// Scale the active legs by per-leg factors (absolute, not
    /// cumulative).
    ScaleLegs {
        /// W factor.
        w: f64,
        /// A factor.
        a: f64,
        /// R factor.
        r: f64,
        /// S factor.
        s: f64,
    },
    /// Drop any regime swap / leg scaling, returning to the base network.
    RestoreBaseline,
    /// Install (or replace) a buggify [`FaultSchedule`] — seeded message
    /// drops/duplicates/reordering, slow nodes, disk lag, and clock skew,
    /// at one intensity (`profile.into()`, a
    /// [`FaultProfile`](pbs_kvs::FaultProfile) held forever) or piecewise
    /// (calm→storm→calm, or any `piecewise` list), evaluated at each
    /// message's send time. Segment times are absolute simulated ms, not
    /// relative to this event.
    InjectFaults(FaultSchedule),
    /// Remove the buggify fault profile (messages flow cleanly again; the
    /// usual precondition for a meaningful convergence check).
    ClearFaults,
}

impl ScenarioEvent {
    /// Short human-readable description for timelines and logs.
    pub fn describe(&self) -> String {
        match self {
            ScenarioEvent::Crash { node, down_ms } => {
                format!("crash node {node} for {down_ms}ms")
            }
            ScenarioEvent::Partition { groups } => format!("partition {groups:?}"),
            ScenarioEvent::HealPartition => "heal partition".into(),
            ScenarioEvent::DegradeLink(f) => format!(
                "degrade link {}→{} (×{} +{}ms)",
                f.from, f.to, f.scale, f.extra_ms
            ),
            ScenarioEvent::ClearLinkFaults => "clear link faults".into(),
            ScenarioEvent::SwapRegime { w, a, r, s } => format!(
                "swap regime W={} A={} R={} S={}",
                w.describe(),
                a.describe(),
                r.describe(),
                s.describe()
            ),
            ScenarioEvent::ScaleLegs { w, a, r, s } => {
                format!("scale legs W×{w} A×{a} R×{r} S×{s}")
            }
            ScenarioEvent::RestoreBaseline => "restore baseline network".into(),
            ScenarioEvent::InjectFaults(s) => match s.as_constant() {
                Some(p) => format!(
                    "inject faults (drop {} dup {} reorder {} slow {} disk-lag {} drift {})",
                    p.drop_prob,
                    p.duplicate_prob,
                    p.reorder_prob,
                    p.slow_node_frac,
                    p.disk_lag_prob,
                    p.clock_drift_max
                ),
                None => format!("inject fault schedule ({} segments)", s.segments().len()),
            },
            ScenarioEvent::ClearFaults => "clear fault profile".into(),
        }
    }
}

impl std::fmt::Debug for ScenarioEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ScenarioEvent({})", self.describe())
    }
}

/// An event pinned to an absolute scenario time.
#[derive(Debug, Clone)]
pub struct TimedEvent {
    /// When the event fires (ms from scenario start).
    pub at_ms: f64,
    /// What happens.
    pub event: ScenarioEvent,
}

impl TimedEvent {
    /// Construct a timed event.
    pub fn new(at_ms: f64, event: ScenarioEvent) -> Self {
        assert!(at_ms >= 0.0 && at_ms.is_finite());
        Self { at_ms, event }
    }
}

/// `Err` unless `value` is finite and ≥ 0 — the condition the kvs layer
/// asserts on a downtime or a leg factor.
fn magnitude(what: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(format!("{what} must be finite and ≥ 0, got {value}"))
    }
}

/// Apply one event to a live cluster **at the cluster's current simulated
/// time**. Drivers advance the cluster to the event's `at_ms` before
/// calling this (probes are open-loop, so nothing runs the clock past
/// it), and the event takes effect at the scheduled `SimTime`.
///
/// Malformed events — a partition whose `groups` doesn't cover the
/// cluster, a crash of a nonexistent node or for a negative or non-finite
/// downtime, a negative or non-finite leg factor or link fault, an
/// invalid fault profile — are rejected with a description instead of
/// panicking mid-run or being silently reshaped.
pub fn apply_event(cluster: &mut Cluster, event: &ScenarioEvent) -> Result<(), String> {
    match event {
        ScenarioEvent::Crash { node, down_ms } => {
            if *node >= cluster.node_count() {
                return Err(format!(
                    "cannot crash node {node}: cluster has {} nodes",
                    cluster.node_count()
                ));
            }
            magnitude("crash downtime (ms)", *down_ms)?;
            let now: SimTime = cluster.now();
            cluster.crash_node_at(*node, now, *down_ms);
        }
        ScenarioEvent::Partition { groups } => {
            let nodes = cluster.node_count();
            cluster
                .network()
                .try_partition(groups.clone(), nodes)
                .map_err(|e| e.to_string())?;
        }
        ScenarioEvent::HealPartition => cluster.network().heal_partition(),
        ScenarioEvent::DegradeLink(fault) => {
            cluster.network().add_link_fault(*fault).map_err(|e| e.to_string())?;
        }
        ScenarioEvent::ClearLinkFaults => cluster.network().clear_link_faults(),
        ScenarioEvent::SwapRegime { w, a, r, s } => {
            cluster.network().swap_legs(w.clone(), a.clone(), r.clone(), s.clone());
        }
        ScenarioEvent::ScaleLegs { w, a, r, s } => {
            for factor in [w, a, r, s] {
                magnitude("leg scale factor", *factor)?;
            }
            cluster.network().set_leg_scale(*w, *a, *r, *s);
        }
        ScenarioEvent::RestoreBaseline => cluster.network().restore_base_legs(),
        ScenarioEvent::InjectFaults(schedule) => {
            cluster.network().set_fault_schedule(schedule.clone()).map_err(|e| e.to_string())?;
        }
        ScenarioEvent::ClearFaults => cluster.network().clear_fault_profile(),
    }
    Ok(())
}
