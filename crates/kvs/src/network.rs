//! The network latency model: per-leg WARS distributions, optional
//! datacenter topology, and **dynamic conditions** (partitions, per-link
//! faults, latency-regime changes, and buggify [`FaultProfile`]s) that can
//! be altered while a cluster is running — the substrate for
//! `pbs-scenario`'s fault/load timelines.

use crate::buggify::{Delivery, FaultConfigError, FaultProfile, FaultSchedule};
use pbs_dist::DynDistribution;
use pbs_sim::SkewedClock;
use rand::RngCore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// Uniform draw in `[0, 1)` matching the `rand` shim's `Standard` f64
/// layout, usable through `dyn RngCore`.
fn unit(rng: &mut dyn RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Which WARS leg a message travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Coordinator → replica write propagation.
    W,
    /// Replica → coordinator write acknowledgment.
    A,
    /// Coordinator → replica read request.
    R,
    /// Replica → coordinator read response.
    S,
}

impl Leg {
    fn index(self) -> usize {
        match self {
            Leg::W => 0,
            Leg::A => 1,
            Leg::R => 2,
            Leg::S => 3,
        }
    }
}

/// A directed per-link latency fault: messages from `from` to `to` have
/// their sampled delay multiplied by `scale` and then increased by
/// `extra_ms` (a degraded NIC, an overloaded switch port, a slow WAN hop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// Additive one-way penalty (ms, ≥ 0).
    pub extra_ms: f64,
    /// Multiplicative slowdown (≥ 0; 1.0 = no scaling).
    pub scale: f64,
}

/// Mutable network conditions, shared (behind a lock) between every node of
/// one cluster and the driver steering the run.
#[derive(Clone, Default)]
struct Conditions {
    /// Replacement per-leg distributions (a latency *regime swap*);
    /// `None` = the base legs.
    legs: Option<[DynDistribution; 4]>,
    /// Per-leg multiplicative scaling on top of whichever legs are active.
    /// `None` = all ones.
    leg_scale: Option<[f64; 4]>,
    /// Partition group of each node; messages crossing groups are dropped.
    /// Empty = no partition.
    partition: Vec<u32>,
    /// Active per-link faults (checked in order; all matches apply).
    link_faults: Vec<LinkFault>,
    /// Installed buggify fault schedule (a plain profile installs as a
    /// single-segment constant schedule); `None` = no injected faults.
    faults: Option<FaultSchedule>,
}

/// One-way message delays for the simulated cluster.
///
/// Base per-leg distributions are sampled i.i.d. per message (matching the
/// WARS assumptions); an optional datacenter map adds a fixed penalty to
/// messages crossing datacenter boundaries, reproducing §5.5's WAN model
/// inside the full store.
///
/// On top of the immutable base model sits a set of **dynamic conditions**
/// that may change mid-run through `&self` (interior mutability):
/// [`swap_legs`](Self::swap_legs) replaces the active distributions (a
/// latency-regime shift), [`set_leg_scale`](Self::set_leg_scale) scales
/// them, [`try_partition`](Self::try_partition) drops messages across group
/// boundaries until [`heal_partition`](Self::heal_partition), and
/// [`add_link_fault`](Self::add_link_fault) degrades individual links.
/// Messages already in flight keep the delay they were sampled with —
/// condition changes affect subsequent sends, exactly like a real network.
///
/// `Clone` **forks** the model: the clone shares the (immutable) base legs
/// cheaply via `Arc` but receives an independent copy of the dynamic
/// conditions, so sharded experiment drivers can steer one cluster per
/// shard without cross-talk.
pub struct NetworkModel {
    base: [DynDistribution; 4],
    /// `dc_of[node]` — datacenter of each node; empty = single DC.
    dc_of: Vec<u32>,
    inter_dc_penalty_ms: f64,
    dynamic: Arc<RwLock<Conditions>>,
    /// Whether any dynamic condition is currently active. The per-message
    /// hot path checks this one relaxed load and, in the common
    /// no-conditions case, samples the base legs without touching the
    /// conditions lock at all.
    dynamic_active: Arc<AtomicBool>,
}

impl Clone for NetworkModel {
    fn clone(&self) -> Self {
        Self {
            base: self.base.clone(),
            dc_of: self.dc_of.clone(),
            inter_dc_penalty_ms: self.inter_dc_penalty_ms,
            // Deep-fork the dynamic state: clones steer independently.
            dynamic: Arc::new(RwLock::new(self.conditions().clone())),
            dynamic_active: Arc::new(AtomicBool::new(self.dynamic_active.load(Ordering::Relaxed))),
        }
    }
}

impl NetworkModel {
    /// Single-datacenter model with independent per-leg distributions.
    pub fn new(
        w: DynDistribution,
        a: DynDistribution,
        r: DynDistribution,
        s: DynDistribution,
    ) -> Self {
        Self {
            base: [w, a, r, s],
            dc_of: Vec::new(),
            inter_dc_penalty_ms: 0.0,
            dynamic: Arc::new(RwLock::new(Conditions::default())),
            dynamic_active: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Common shorthand: one distribution for `W`, one shared by `A=R=S`.
    pub fn w_ars(w: DynDistribution, ars: DynDistribution) -> Self {
        Self::new(w, ars.clone(), ars.clone(), ars)
    }

    /// Attach a datacenter topology: `dc_of[node]` is each node's DC and
    /// `penalty_ms` is added per one-way message crossing DCs.
    pub fn with_datacenters(mut self, dc_of: Vec<u32>, penalty_ms: f64) -> Self {
        assert!(penalty_ms >= 0.0 && penalty_ms.is_finite());
        self.dc_of = dc_of;
        self.inter_dc_penalty_ms = penalty_ms;
        self
    }

    fn conditions(&self) -> std::sync::RwLockReadGuard<'_, Conditions> {
        self.dynamic.read().expect("network conditions lock poisoned")
    }

    /// Mutate the dynamic conditions and refresh the hot-path activity
    /// flag. All condition setters funnel through here.
    fn update_conditions(&self, f: impl FnOnce(&mut Conditions)) {
        let mut c = self.dynamic.write().expect("network conditions lock poisoned");
        f(&mut c);
        let active = c.legs.is_some()
            || c.leg_scale.is_some()
            || !c.partition.is_empty()
            || !c.link_faults.is_empty()
            || c.faults.is_some();
        self.dynamic_active.store(active, Ordering::Relaxed);
    }

    // ----- dynamic conditions (mid-run steering) -----

    /// Replace the active per-leg distributions — a latency *regime swap*
    /// (e.g. SSDs degrade to disk-like write tails). Takes effect for every
    /// message sent after the call; in-flight messages are unaffected.
    pub fn swap_legs(
        &self,
        w: DynDistribution,
        a: DynDistribution,
        r: DynDistribution,
        s: DynDistribution,
    ) {
        self.update_conditions(|c| c.legs = Some([w, a, r, s]));
    }

    /// Scale whichever legs are active by per-leg factors (≥ 0). Factors
    /// are absolute, not cumulative: calling twice with `2.0` scales by
    /// 2×, not 4×.
    pub fn set_leg_scale(&self, w: f64, a: f64, r: f64, s: f64) {
        for f in [w, a, r, s] {
            assert!(f >= 0.0 && f.is_finite(), "leg scale must be finite and ≥ 0: {f}");
        }
        self.update_conditions(|c| c.leg_scale = Some([w, a, r, s]));
    }

    /// Drop any regime swap and leg scaling, returning to the base legs.
    /// Partitions and link faults are left in place.
    pub fn restore_base_legs(&self) {
        self.update_conditions(|c| {
            c.legs = None;
            c.leg_scale = None;
        });
    }

    /// Install a network partition: `groups[node]` assigns each node to a
    /// partition group, and every message between nodes in *different*
    /// groups is silently dropped. Replaces any existing partition. A
    /// grouping that does not assign exactly one group to each of the
    /// cluster's `nodes` nodes is rejected and not installed.
    pub fn try_partition(&self, groups: Vec<u32>, nodes: usize) -> Result<(), FaultConfigError> {
        if groups.len() != nodes {
            return Err(FaultConfigError::GroupCountMismatch { groups: groups.len(), nodes });
        }
        self.update_conditions(|c| c.partition = groups);
        Ok(())
    }

    /// Heal the partition: full pairwise delivery resumes for messages sent
    /// after the call.
    pub fn heal_partition(&self) {
        self.update_conditions(|c| c.partition.clear());
    }

    /// Add a directed per-link fault (see [`LinkFault`]). Faults stack:
    /// every matching fault applies, in insertion order. Non-finite or
    /// negative parameters are rejected with an error (not a panic), so
    /// a bad scenario timeline cannot abort a run mid-flight.
    pub fn add_link_fault(&self, fault: LinkFault) -> Result<(), FaultConfigError> {
        if !(fault.extra_ms.is_finite() && fault.extra_ms >= 0.0) {
            return Err(FaultConfigError::BadMagnitude {
                field: "link_fault.extra_ms",
                value: fault.extra_ms,
            });
        }
        if !(fault.scale.is_finite() && fault.scale >= 0.0) {
            return Err(FaultConfigError::BadMagnitude {
                field: "link_fault.scale",
                value: fault.scale,
            });
        }
        self.update_conditions(|c| c.link_faults.push(fault));
        Ok(())
    }

    /// Remove every per-link fault.
    pub fn clear_link_faults(&self) {
        self.update_conditions(|c| c.link_faults.clear());
    }

    /// Install a buggify [`FaultProfile`], validating it first. Takes
    /// effect for messages sent (and replica applies performed) after the
    /// call; replaces any previously installed profile or schedule.
    /// Internally this installs a single-segment constant
    /// [`FaultSchedule`].
    pub fn set_fault_profile(&self, profile: FaultProfile) -> Result<(), FaultConfigError> {
        profile.validate()?;
        self.update_conditions(|c| c.faults = Some(FaultSchedule::constant(profile)));
        Ok(())
    }

    /// Install a piecewise time-varying [`FaultSchedule`], validating it
    /// first. The profile consulted for each message (and replica apply,
    /// and protocol timer) is the segment active at the sender's current
    /// simulated time, so storms start and clear on the schedule's clock.
    /// Replaces any previously installed profile or schedule.
    pub fn set_fault_schedule(&self, schedule: FaultSchedule) -> Result<(), FaultConfigError> {
        schedule.validate()?;
        self.update_conditions(|c| c.faults = Some(schedule));
        Ok(())
    }

    /// Remove the installed fault profile or schedule (subsequent sends
    /// are clean).
    pub fn clear_fault_profile(&self) {
        self.update_conditions(|c| c.faults = None);
    }

    /// The currently installed fault schedule, if any (a plain profile
    /// reads back as a single-segment constant schedule).
    pub fn fault_schedule(&self) -> Option<FaultSchedule> {
        if !self.dynamic_active.load(Ordering::Relaxed) {
            return None;
        }
        self.conditions().faults.clone()
    }

    // ----- sampling -----

    /// Attempt to transmit one message on `leg` from `from` to `to` under
    /// the current dynamic conditions, **ignoring** any installed fault
    /// schedule: `None` when a partition blocks the link, otherwise the
    /// sampled one-way delay (regime, scaling, DC penalty, link faults
    /// applied).
    pub fn transmit(&self, leg: Leg, from: usize, to: usize, rng: &mut dyn RngCore) -> Option<f64> {
        match self.decide(leg, from, to, None, rng) {
            Delivery::Once(delay) => Some(delay),
            Delivery::Dropped => None,
            Delivery::Twice(..) => unreachable!("only a fault profile duplicates messages"),
        }
    }

    /// [`transmit`](Self::transmit) with the installed buggify
    /// [`FaultSchedule`] applied: the message may be dropped, duplicated,
    /// reordered (bounded extra jitter), or slowed (slow-node multiplier)
    /// on top of the usual dynamic conditions. The profile consulted is
    /// the schedule segment active at `now_ms`, the sender's current
    /// simulated time. With no schedule installed — or when the active
    /// segment's probabilities are all zero — this consumes **exactly**
    /// the RNG draws of `transmit` and returns `Once`/`Dropped`
    /// accordingly: the fault layer is invisible to fault-free seeded
    /// runs and to calm segments of a scheduled storm. All rolls come
    /// from the *sender's* RNG and `now_ms` is sender-local state, so
    /// sharded chaos runs stay bit-reproducible per `(seed, threads)`.
    ///
    /// This is where a node's message meets the network: loss, partition,
    /// delay and duplication are decided here and nowhere else.
    pub fn transmit_buggified(
        &self,
        leg: Leg,
        from: usize,
        to: usize,
        now_ms: f64,
        rng: &mut dyn RngCore,
    ) -> Delivery {
        self.decide(leg, from, to, Some(now_ms), rng)
    }

    /// The one delivery decision behind both entry points; `faults_at` is
    /// the send instant at which to consult the fault schedule (`None` =
    /// leave it out). One conditions-lock acquisition per message, with no
    /// window between the partition test and the sample.
    #[inline]
    fn decide(
        &self,
        leg: Leg,
        from: usize,
        to: usize,
        faults_at: Option<f64>,
        rng: &mut dyn RngCore,
    ) -> Delivery {
        if !self.dynamic_active.load(Ordering::Relaxed) {
            // Hot path: no partitions, regimes, scaling, link faults or
            // fault schedule — sample the base leg without acquiring the
            // conditions lock. Consumes exactly the same RNG draws as the
            // general path.
            return Delivery::Once(self.base[leg.index()].sample(rng) + self.penalty(from, to));
        }
        let c = self.conditions();
        if !c.partition.is_empty() {
            let group = |node: usize| c.partition.get(node).copied().unwrap_or(0);
            if group(from) != group(to) {
                return Delivery::Dropped;
            }
        }
        let Some(p) = faults_at.and_then(|at| c.faults.as_ref().map(|s| *s.active_at(at))) else {
            return Delivery::Once(self.delay_under(&c, leg, from, to, rng));
        };
        if p.drop_prob > 0.0 && unit(rng) < p.drop_prob {
            return Delivery::Dropped;
        }
        let first = self.faulty_delay(&c, &p, leg, from, to, rng);
        if p.duplicate_prob > 0.0 && unit(rng) < p.duplicate_prob {
            // Independent delay for the duplicate: the two copies race.
            let second = self.faulty_delay(&c, &p, leg, from, to, rng);
            Delivery::Twice(first, second)
        } else {
            Delivery::Once(first)
        }
    }

    /// One delivery's delay under dynamic conditions *plus* the profile's
    /// reorder jitter and slow-node multiplier. Zero-probability faults
    /// consume no RNG draws, so a profile with only (say) drops enabled
    /// perturbs the stream minimally and deterministically.
    fn faulty_delay(
        &self,
        c: &Conditions,
        p: &FaultProfile,
        leg: Leg,
        from: usize,
        to: usize,
        rng: &mut dyn RngCore,
    ) -> f64 {
        let mut delay = self.delay_under(c, leg, from, to, rng);
        if p.reorder_prob > 0.0 && unit(rng) < p.reorder_prob {
            delay += unit(rng) * p.reorder_max_ms;
        }
        delay * p.slow_factor(from as u32).max(p.slow_factor(to as u32))
    }

    /// Disk lag (ms) to impose on a replica apply at `node` under the
    /// schedule segment active at `now_ms`; 0.0 with no schedule, a
    /// zero-probability segment (no RNG draws), or a missed roll. Rolls
    /// come from the replica's own RNG; slow nodes (whose disks are slow
    /// too) scale the lag by their latency factor.
    pub fn disk_lag_ms(&self, node: usize, now_ms: f64, rng: &mut dyn RngCore) -> f64 {
        if !self.dynamic_active.load(Ordering::Relaxed) {
            return 0.0;
        }
        let Some(p) = self.conditions().faults.as_ref().map(|s| *s.active_at(now_ms)) else {
            return 0.0;
        };
        if p.disk_lag_prob > 0.0 && unit(rng) < p.disk_lag_prob {
            unit(rng) * p.disk_lag_max_ms * p.slow_factor(node as u32)
        } else {
            0.0
        }
    }

    /// The protocol-timer clock for `node` under the schedule segment
    /// active at `now_ms` ([`SkewedClock::IDENTITY`] with no schedule).
    /// Pure per-(node, segment) trait — no RNG draws.
    pub fn clock_of(&self, node: usize, now_ms: f64) -> SkewedClock {
        if !self.dynamic_active.load(Ordering::Relaxed) {
            return SkewedClock::IDENTITY;
        }
        match self.conditions().faults.as_ref() {
            Some(s) => s.active_at(now_ms).clock_of(node as u32),
            None => SkewedClock::IDENTITY,
        }
    }

    fn delay_under(
        &self,
        c: &Conditions,
        leg: Leg,
        from: usize,
        to: usize,
        rng: &mut dyn RngCore,
    ) -> f64 {
        let i = leg.index();
        let dist = match &c.legs {
            Some(legs) => &legs[i],
            None => &self.base[i],
        };
        let mut delay = dist.sample(rng);
        if let Some(scale) = c.leg_scale {
            delay *= scale[i];
        }
        delay += self.penalty(from, to);
        for f in &c.link_faults {
            if f.from == from && f.to == to {
                delay = delay * f.scale + f.extra_ms;
            }
        }
        delay
    }

    fn penalty(&self, from: usize, to: usize) -> f64 {
        if self.dc_of.is_empty() {
            return 0.0;
        }
        let a = self.dc_of.get(from).copied().unwrap_or(0);
        let b = self.dc_of.get(to).copied().unwrap_or(0);
        if a == b {
            0.0
        } else {
            self.inter_dc_penalty_ms
        }
    }

    /// A conservative lower bound (ms) on the one-way delay of **any**
    /// node-to-node message under the *current* dynamic conditions — the
    /// lookahead the conservative parallel engine
    /// ([`pbs_sim::ParallelSimulation`]) synchronises on.
    ///
    /// Soundness over tightness: every term that can only *increase* a
    /// delay (the inter-DC penalty, link-fault `extra_ms`, buggify reorder
    /// jitter, slow-node factors ≥ 1) is ignored, while every term that
    /// can *shrink* one is folded in — per-leg scaling and link-fault
    /// scales below 1 multiply the bound down. The result is 0 whenever
    /// any active leg has unbounded-below support (e.g. an exponential
    /// component), which the parallel engine rejects as degenerate
    /// lookahead.
    ///
    /// Conditions only change at run-driver boundaries, so callers
    /// re-query this once per `run_until` window, not per message.
    pub fn min_cross_delay_ms(&self) -> f64 {
        let c = self.conditions();
        let legs = match &c.legs {
            Some(legs) => legs,
            None => &self.base,
        };
        let scale = c.leg_scale.unwrap_or([1.0; 4]);
        let mut lb = f64::INFINITY;
        for i in 0..4 {
            lb = lb.min(legs[i].lower_bound() * scale[i]);
        }
        // Link faults rescale a sampled delay (`d * scale + extra`);
        // `extra ≥ 0` only adds, so dropping it keeps the bound sound,
        // while a scale below 1 genuinely shrinks delays on that link.
        for f in &c.link_faults {
            lb *= f.scale.min(1.0);
        }
        lb
    }
}

impl std::fmt::Debug for NetworkModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.conditions();
        let active = |i: usize| -> String {
            match &c.legs {
                Some(legs) => legs[i].describe(),
                None => self.base[i].describe(),
            }
        };
        f.debug_struct("NetworkModel")
            .field("w", &active(0))
            .field("a", &active(1))
            .field("r", &active(2))
            .field("s", &active(3))
            .field("leg_scale", &c.leg_scale)
            .field("partition", &c.partition)
            .field("link_faults", &c.link_faults)
            .field("faults", &c.faults)
            .field("datacenters", &self.dc_of)
            .field("inter_dc_penalty_ms", &self.inter_dc_penalty_ms)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_dist::Constant;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn constant_net() -> NetworkModel {
        NetworkModel::new(
            Arc::new(Constant::new(4.0)),
            Arc::new(Constant::new(3.0)),
            Arc::new(Constant::new(2.0)),
            Arc::new(Constant::new(1.0)),
        )
    }

    /// Whether a message from `from` to `to` currently gets through.
    fn delivers(net: &NetworkModel, from: usize, to: usize) -> bool {
        net.transmit(Leg::W, from, to, &mut StdRng::seed_from_u64(0)).is_some()
    }

    #[test]
    fn per_leg_distributions() {
        let net = constant_net();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(net.transmit(Leg::W, 0, 1, &mut rng), Some(4.0));
        assert_eq!(net.transmit(Leg::A, 1, 0, &mut rng), Some(3.0));
        assert_eq!(net.transmit(Leg::R, 0, 1, &mut rng), Some(2.0));
        assert_eq!(net.transmit(Leg::S, 1, 0, &mut rng), Some(1.0));
    }

    #[test]
    fn dc_penalty_applies_only_across_dcs() {
        let net = constant_net().with_datacenters(vec![0, 0, 1], 75.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(net.transmit(Leg::W, 0, 1, &mut rng), Some(4.0), "same DC");
        assert_eq!(net.transmit(Leg::W, 0, 2, &mut rng), Some(79.0), "cross DC");
        assert_eq!(net.transmit(Leg::S, 2, 0, &mut rng), Some(76.0));
    }

    #[test]
    fn regime_swap_and_restore() {
        let net = constant_net();
        let mut rng = StdRng::seed_from_u64(0);
        net.swap_legs(
            Arc::new(Constant::new(40.0)),
            Arc::new(Constant::new(30.0)),
            Arc::new(Constant::new(20.0)),
            Arc::new(Constant::new(10.0)),
        );
        assert_eq!(net.transmit(Leg::W, 0, 1, &mut rng), Some(40.0));
        assert_eq!(net.transmit(Leg::S, 1, 0, &mut rng), Some(10.0));
        net.restore_base_legs();
        assert_eq!(net.transmit(Leg::W, 0, 1, &mut rng), Some(4.0));
    }

    #[test]
    fn leg_scale_is_absolute_not_cumulative() {
        let net = constant_net();
        let mut rng = StdRng::seed_from_u64(0);
        net.set_leg_scale(2.0, 1.0, 1.0, 1.0);
        net.set_leg_scale(2.0, 1.0, 1.0, 1.0);
        assert_eq!(net.transmit(Leg::W, 0, 1, &mut rng), Some(8.0), "2× once, not 4×");
        assert_eq!(net.transmit(Leg::A, 1, 0, &mut rng), Some(3.0), "other legs untouched");
    }

    #[test]
    fn partition_blocks_cross_group_only() {
        let net = constant_net();
        net.try_partition(vec![0, 0, 1], 3).unwrap();
        assert!(delivers(&net, 0, 1));
        assert!(!delivers(&net, 0, 2));
        assert!(!delivers(&net, 2, 1));
        assert!(delivers(&net, 2, 2), "self-delivery always works");
        net.heal_partition();
        assert!(delivers(&net, 0, 2));
    }

    #[test]
    fn link_faults_scale_then_add() {
        let net = constant_net();
        let mut rng = StdRng::seed_from_u64(0);
        net.add_link_fault(LinkFault { from: 0, to: 1, extra_ms: 5.0, scale: 3.0 }).unwrap();
        assert_eq!(net.transmit(Leg::W, 0, 1, &mut rng), Some(4.0 * 3.0 + 5.0));
        assert_eq!(net.transmit(Leg::W, 1, 0, &mut rng), Some(4.0), "directed: reverse unaffected");
        net.clear_link_faults();
        assert_eq!(net.transmit(Leg::W, 0, 1, &mut rng), Some(4.0));
    }

    #[test]
    fn transmit_gates_on_partition_and_samples_otherwise() {
        let net = constant_net();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(net.transmit(Leg::W, 0, 2, &mut rng), Some(4.0));
        net.try_partition(vec![0, 0, 1], 3).unwrap();
        assert_eq!(net.transmit(Leg::W, 0, 2, &mut rng), None, "cross-group blocked");
        assert_eq!(net.transmit(Leg::W, 0, 1, &mut rng), Some(4.0), "same group flows");
        net.heal_partition();
        assert_eq!(net.transmit(Leg::W, 0, 2, &mut rng), Some(4.0));
    }

    #[test]
    fn try_partition_rejects_short_and_long_groupings() {
        // A short vector would leave the tail of the cluster in nobody's
        // group; a mismatch is an error, not a guess.
        let net = constant_net();
        assert_eq!(
            net.try_partition(vec![0, 1], 3),
            Err(FaultConfigError::GroupCountMismatch { groups: 2, nodes: 3 })
        );
        assert_eq!(
            net.try_partition(vec![0, 1, 0, 1], 3),
            Err(FaultConfigError::GroupCountMismatch { groups: 4, nodes: 3 })
        );
        assert!(delivers(&net, 0, 1), "rejected grouping is not installed");
        net.try_partition(vec![0, 1, 0], 3).unwrap();
        assert!(!delivers(&net, 0, 1));
    }

    #[test]
    fn add_link_fault_rejects_bad_magnitudes_without_panicking() {
        let net = constant_net();
        for bad in [
            LinkFault { from: 0, to: 1, extra_ms: -1.0, scale: 1.0 },
            LinkFault { from: 0, to: 1, extra_ms: f64::NAN, scale: 1.0 },
            LinkFault { from: 0, to: 1, extra_ms: 0.0, scale: -2.0 },
            LinkFault { from: 0, to: 1, extra_ms: 0.0, scale: f64::INFINITY },
        ] {
            assert!(matches!(
                net.add_link_fault(bad),
                Err(FaultConfigError::BadMagnitude { .. })
            ));
        }
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(net.transmit(Leg::W, 0, 1, &mut rng), Some(4.0), "rejected faults not installed");
    }

    #[test]
    fn buggified_transmit_without_profile_matches_transmit() {
        use pbs_dist::Exponential;
        // Sampled legs, so the two RNG streams only stay in lockstep if
        // both entry points draw alike.
        let exp = |mean| -> DynDistribution { Arc::new(Exponential::from_mean(mean)) };
        let net = NetworkModel::new(exp(4.0), exp(3.0), exp(2.0), exp(1.0));
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let mut agree = |net: &NetworkModel| {
            for (leg, from, to) in [(Leg::W, 0, 1), (Leg::A, 1, 0), (Leg::R, 0, 2), (Leg::S, 2, 1)] {
                let expect = match net.transmit(leg, from, to, &mut a) {
                    Some(delay) => Delivery::Once(delay),
                    None => Delivery::Dropped,
                };
                assert_eq!(net.transmit_buggified(leg, from, to, 0.0, &mut b), expect);
            }
        };
        agree(&net); // lock-free fast path
        net.try_partition(vec![0, 0, 1], 3).unwrap();
        agree(&net); // 0→1 flows, the links to node 2 are cut
        net.heal_partition();
        net.swap_legs(exp(40.0), exp(30.0), exp(20.0), exp(10.0));
        agree(&net);
        net.set_leg_scale(2.0, 1.0, 0.5, 1.0);
        agree(&net);
        net.add_link_fault(LinkFault { from: 0, to: 1, extra_ms: 5.0, scale: 3.0 }).unwrap();
        agree(&net);
        // RNG streams consumed identically throughout.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn certain_drop_and_certain_duplicate() {
        let net = constant_net();
        let mut rng = StdRng::seed_from_u64(1);
        net.set_fault_profile(FaultProfile::new(0).with_drop(1.0)).unwrap();
        assert_eq!(net.transmit_buggified(Leg::W, 0, 1, 0.0, &mut rng), Delivery::Dropped);
        net.set_fault_profile(FaultProfile::new(0).with_duplicate(1.0)).unwrap();
        assert_eq!(
            net.transmit_buggified(Leg::W, 0, 1, 0.0, &mut rng),
            Delivery::Twice(4.0, 4.0),
            "constant legs, certain duplication"
        );
        net.clear_fault_profile();
        assert_eq!(net.fault_schedule(), None);
        assert_eq!(net.transmit_buggified(Leg::W, 0, 1, 0.0, &mut rng), Delivery::Once(4.0));
    }

    #[test]
    fn reorder_jitter_is_bounded_and_slow_nodes_multiply() {
        let net = constant_net();
        let mut rng = StdRng::seed_from_u64(2);
        net.set_fault_profile(FaultProfile::new(0).with_reorder(1.0, 6.0)).unwrap();
        for _ in 0..64 {
            let Delivery::Once(d) = net.transmit_buggified(Leg::W, 0, 1, 0.0, &mut rng) else {
                panic!("no drops configured");
            };
            assert!((4.0..4.0 + 6.0).contains(&d), "jitter within bound: {d}");
        }
        // Every node slow at 2×: constant 4ms leg becomes exactly 8ms.
        net.set_fault_profile(FaultProfile::new(0).with_slow_nodes(1.0, 2.0)).unwrap();
        assert_eq!(net.transmit_buggified(Leg::W, 0, 1, 0.0, &mut rng), Delivery::Once(8.0));
    }

    #[test]
    fn disk_lag_and_clocks_follow_the_profile() {
        let net = constant_net();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(net.disk_lag_ms(0, 0.0, &mut rng), 0.0, "no profile, no lag, no draws");
        assert!(net.clock_of(0, 0.0).is_identity());
        net.set_fault_profile(FaultProfile::new(5).with_disk_lag(1.0, 2.5)).unwrap();
        for _ in 0..32 {
            let lag = net.disk_lag_ms(0, 0.0, &mut rng);
            assert!((0.0..2.5).contains(&lag));
        }
        net.set_fault_profile(FaultProfile::new(5).with_clock_drift(0.05)).unwrap();
        let rates: Vec<f64> = (0..8).map(|n| net.clock_of(n, 0.0).rate()).collect();
        assert!(rates.iter().all(|r| (0.95..=1.05).contains(r)));
        assert!(rates.iter().any(|r| *r != 1.0), "drift actually assigned");
    }

    #[test]
    fn invalid_profile_rejected_and_not_installed() {
        let net = constant_net();
        assert!(net.set_fault_profile(FaultProfile::new(0).with_drop(2.0)).is_err());
        assert_eq!(net.fault_schedule(), None);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(net.transmit_buggified(Leg::W, 0, 1, 0.0, &mut rng), Delivery::Once(4.0));
    }

    #[test]
    fn schedule_switches_profiles_at_segment_boundaries() {
        use crate::buggify::{FaultSchedule, ScheduleSegment};
        let net = constant_net();
        let mut rng = StdRng::seed_from_u64(4);
        net.set_fault_schedule(FaultSchedule::piecewise(vec![
            ScheduleSegment::new(0.0, FaultProfile::new(7)),
            ScheduleSegment::new(10.0, FaultProfile::new(7).with_drop(1.0)),
            ScheduleSegment::new(20.0, FaultProfile::new(7)),
        ]))
        .unwrap();
        assert_eq!(net.fault_schedule().unwrap().segments().len(), 3);
        // Calm before, certain drop inside [10, 20), calm again after —
        // and the boundary itself belongs to the new segment.
        assert_eq!(net.transmit_buggified(Leg::W, 0, 1, 9.999, &mut rng), Delivery::Once(4.0));
        assert_eq!(net.transmit_buggified(Leg::W, 0, 1, 10.0, &mut rng), Delivery::Dropped);
        assert_eq!(net.transmit_buggified(Leg::W, 0, 1, 19.999, &mut rng), Delivery::Dropped);
        assert_eq!(net.transmit_buggified(Leg::W, 0, 1, 20.0, &mut rng), Delivery::Once(4.0));
        assert_eq!(net.transmit_buggified(Leg::W, 0, 1, 1e9, &mut rng), Delivery::Once(4.0));
    }

    #[test]
    fn calm_schedule_segment_draws_exactly_like_plain_transmit() {
        use crate::buggify::FaultSchedule;
        // A scheduled storm whose active segment is inert must consume
        // exactly the RNG draws of an unfaulted transmit — zero-probability
        // segments are invisible to the stream.
        let net = constant_net();
        net.set_fault_schedule(FaultSchedule::calm_storm_calm(
            FaultProfile::storm(7),
            50.0,
            100.0,
        ))
        .unwrap();
        let plain = constant_net();
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for now in [0.0, 10.0, 49.999, 100.0, 5000.0] {
            let expect = plain.transmit(Leg::W, 0, 1, &mut a).unwrap();
            assert_eq!(net.transmit_buggified(Leg::W, 0, 1, now, &mut b), Delivery::Once(expect));
            assert_eq!(net.disk_lag_ms(0, now, &mut b), 0.0, "calm segment: no disk draws");
            assert!(net.clock_of(0, now).is_identity());
        }
        assert_eq!(a.next_u64(), b.next_u64(), "RNG streams stayed in lockstep");
        // Inside the storm window the drift trait switches on.
        assert!((0..8).any(|n| !net.clock_of(n, 75.0).is_identity()));
    }

    #[test]
    fn invalid_schedule_rejected_and_not_installed() {
        use crate::buggify::{FaultSchedule, ScheduleSegment};
        let net = constant_net();
        let bad = FaultSchedule::piecewise(vec![ScheduleSegment::new(
            5.0,
            FaultProfile::new(0),
        )]);
        assert!(net.set_fault_schedule(bad).is_err());
        assert_eq!(net.fault_schedule(), None);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(net.transmit_buggified(Leg::W, 0, 1, 0.0, &mut rng), Delivery::Once(4.0));
    }

    #[test]
    fn min_cross_delay_tracks_shrinking_conditions_only() {
        use pbs_dist::{Exponential, Mixture, Pareto};
        let net = constant_net();
        // Base: min over the four constant legs (S = 1 ms).
        assert_eq!(net.min_cross_delay_ms(), 1.0);
        // DC penalties only add — the bound must not grow.
        let net = constant_net().with_datacenters(vec![0, 1], 75.0);
        assert_eq!(net.min_cross_delay_ms(), 1.0);
        // Leg scaling shrinks the bound through the cheapest leg.
        net.set_leg_scale(1.0, 1.0, 1.0, 0.5);
        assert_eq!(net.min_cross_delay_ms(), 0.5);
        net.set_leg_scale(1.0, 1.0, 1.0, 4.0);
        assert_eq!(net.min_cross_delay_ms(), 2.0, "all legs scaled up: R leg now floors");
        net.restore_base_legs();
        // A link fault with scale < 1 shrinks; extra_ms alone does not.
        net.add_link_fault(LinkFault { from: 0, to: 1, extra_ms: 9.0, scale: 1.0 }).unwrap();
        assert_eq!(net.min_cross_delay_ms(), 1.0, "additive fault cannot raise the floor");
        net.add_link_fault(LinkFault { from: 1, to: 0, extra_ms: 0.0, scale: 0.25 }).unwrap();
        assert_eq!(net.min_cross_delay_ms(), 0.25);
        net.clear_link_faults();
        // Regime swap to a Pareto-bodied mixture: floor = w · nothing, it's
        // the true support minimum xm, not quantile(0).
        let pareto = Arc::new(Mixture::pure_pareto(Pareto::new(0.235, 10.0)));
        net.swap_legs(pareto.clone(), pareto.clone(), pareto.clone(), pareto.clone());
        assert_eq!(net.min_cross_delay_ms(), 0.235);
        // An exponential component drives the bound to zero — the
        // degenerate-lookahead case the parallel engine rejects.
        let exp = Arc::new(Exponential::from_mean(2.0));
        net.swap_legs(exp.clone(), exp.clone(), exp.clone(), exp.clone());
        assert_eq!(net.min_cross_delay_ms(), 0.0);
    }

    #[test]
    fn clone_forks_dynamic_conditions() {
        let net = constant_net();
        net.try_partition(vec![0, 1], 2).unwrap();
        let fork = net.clone();
        assert!(!delivers(&fork, 0, 1), "clone inherits current conditions");
        net.heal_partition();
        assert!(!delivers(&fork, 0, 1), "healing the original leaves the fork alone");
        fork.heal_partition();
        let mut rng = StdRng::seed_from_u64(0);
        fork.swap_legs(
            Arc::new(Constant::new(9.0)),
            Arc::new(Constant::new(9.0)),
            Arc::new(Constant::new(9.0)),
            Arc::new(Constant::new(9.0)),
        );
        assert_eq!(net.transmit(Leg::W, 0, 1, &mut rng), Some(4.0), "fork's swap is private");
    }
}
