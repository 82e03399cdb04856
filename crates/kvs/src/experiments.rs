//! The §5.2 experiment drivers: measure t-visibility and operation
//! latencies on the simulated store, in the exact shape the paper used to
//! validate WARS against Cassandra ("we inserted increasing versions of a
//! key while concurrently issuing read requests").
//!
//! Latencies stream into `pbs-mc` [`Summary`] sketches (O(1) memory) and
//! measurements are [`Mergeable`], so probe budgets can shard across
//! threads as independent clusters — see
//! [`measure_t_visibility_sharded`].

use crate::cluster::{Cluster, ClusterOptions};
use crate::network::NetworkModel;
use pbs_mc::{Mergeable, Runner, Summary};
use pbs_sim::SimDuration;

/// Empirical consistency at one read offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetPoint {
    /// Read offset after commit (ms).
    pub t_ms: f64,
    /// Trials performed at this offset.
    pub trials: usize,
    /// Trials whose read was consistent.
    pub consistent: usize,
}

impl OffsetPoint {
    /// Empirical `P(consistent)` at this offset.
    pub fn probability(&self) -> f64 {
        self.consistent as f64 / self.trials as f64
    }
}

/// Results of a t-visibility measurement on the live (simulated) store.
#[derive(Debug, Clone, Default)]
pub struct TVisibilityMeasurement {
    /// Per-offset consistency counts.
    pub points: Vec<OffsetPoint>,
    /// Streaming summary of commit latencies of every successful write (ms).
    pub write_latency: Summary,
    /// Streaming summary of latencies of every completed read (ms).
    pub read_latency: Summary,
}

impl TVisibilityMeasurement {
    /// The `(t, P(consistent))` series.
    pub fn series(&self) -> Vec<(f64, f64)> {
        self.points.iter().map(|p| (p.t_ms, p.probability())).collect()
    }
}

impl Mergeable for TVisibilityMeasurement {
    /// Fold another measurement over the **same offset grid** into this
    /// one: per-offset counts add, latency summaries merge.
    fn merge(&mut self, other: Self) {
        if other.points.is_empty() {
            return;
        }
        if self.points.is_empty() {
            *self = other;
            return;
        }
        assert_eq!(self.points.len(), other.points.len(), "offset grids differ");
        for (a, b) in self.points.iter_mut().zip(other.points) {
            assert_eq!(a.t_ms, b.t_ms, "offset grids differ");
            a.trials += b.trials;
            a.consistent += b.consistent;
        }
        self.write_latency.merge(other.write_latency);
        self.read_latency.merge(other.read_latency);
    }
}

/// Measure t-visibility on a cluster: for each offset `t`, run
/// `trials_per_offset` write→read probes where the read starts exactly `t`
/// ms after the write's commit, and label each read against ground truth.
///
/// Trials run back to back: later writes have strictly newer versions,
/// so stragglers from earlier trials are merged away by the replicas'
/// max-version rule.
pub fn measure_t_visibility(
    cluster: &mut Cluster,
    key: u64,
    offsets: &[f64],
    trials_per_offset: usize,
) -> TVisibilityMeasurement {
    assert!(!offsets.is_empty() && trials_per_offset > 0);
    let mut out = TVisibilityMeasurement::default();
    for &t in offsets {
        assert!(t >= 0.0, "offsets must be nonnegative");
        let mut point = OffsetPoint { t_ms: t, trials: 0, consistent: 0 };
        for _ in 0..trials_per_offset {
            let w = cluster.write(key);
            let Some(commit) = w.commit else {
                continue; // failed write: no probe
            };
            out.write_latency.record(w.latency_ms().expect("committed"));
            let read_at = commit + SimDuration::from_ms(t);
            let r = cluster.read_at(key, read_at);
            let Some(label) = r.label else {
                continue; // read timed out (possible under failures)
            };
            out.read_latency.record(r.op.latency_ms().expect("completed"));
            point.trials += 1;
            if label.consistent {
                point.consistent += 1;
            }
        }
        out.points.push(point);
    }
    out.write_latency.seal();
    out.read_latency.seal();
    out
}

/// Sharded [`measure_t_visibility`]: the probe budget splits across
/// `threads` **independent clusters** (shard `i` gets cluster seed
/// `rand::child(opts.seed, i)` via the deterministic runner), so cluster
/// simulation saturates every core. Results merge per offset and are
/// bit-reproducible for a fixed `(opts.seed, threads)` pair.
pub fn measure_t_visibility_sharded(
    opts: ClusterOptions,
    network: &NetworkModel,
    key: u64,
    offsets: &[f64],
    trials_per_offset: usize,
    threads: usize,
) -> TVisibilityMeasurement {
    assert!(!offsets.is_empty() && trials_per_offset > 0 && threads > 0);
    Runner::new(trials_per_offset, opts.seed, threads).run(|_rng, info| {
        if info.trials == 0 {
            return TVisibilityMeasurement::default();
        }
        let mut shard_opts = opts;
        shard_opts.seed = info.seed;
        let mut cluster = Cluster::new(shard_opts, network.clone());
        measure_t_visibility(&mut cluster, key, offsets, info.trials)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterOptions;
    use crate::network::NetworkModel;
    use pbs_core::ReplicaConfig;
    use pbs_dist::Exponential;
    use std::sync::Arc;

    fn net(w_rate: f64, ars_rate: f64) -> NetworkModel {
        NetworkModel::w_ars(
            Arc::new(Exponential::from_rate(w_rate)),
            Arc::new(Exponential::from_rate(ars_rate)),
        )
    }

    fn make_cluster(n: u32, r: u32, w: u32, w_rate: f64, ars_rate: f64, seed: u64) -> Cluster {
        Cluster::new(
            ClusterOptions::validation(ReplicaConfig::new(n, r, w).unwrap(), seed),
            net(w_rate, ars_rate),
        )
    }

    #[test]
    fn curve_is_roughly_monotone_and_reaches_one() {
        let mut cluster = make_cluster(3, 1, 1, 0.1, 0.5, 1);
        let m = measure_t_visibility(&mut cluster, 5, &[0.0, 10.0, 40.0, 120.0], 300);
        let series = m.series();
        assert!(series[0].1 < series[3].1, "staleness should vanish with t: {series:?}");
        assert!(series[3].1 > 0.97, "t=120ms should be nearly always consistent");
        assert_eq!(m.write_latency.count(), 1200);
        assert_eq!(m.read_latency.count(), 1200);
        assert!(m.read_latency.percentile(99.0) > m.read_latency.percentile(50.0));
    }

    #[test]
    fn strict_quorum_fully_consistent_at_zero() {
        let mut cluster = make_cluster(3, 2, 2, 0.1, 0.5, 2);
        let m = measure_t_visibility(&mut cluster, 5, &[0.0], 300);
        assert_eq!(m.points[0].probability(), 1.0);
    }

    #[test]
    fn sharded_measurement_matches_single_cluster() {
        let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
        let opts = ClusterOptions::validation(cfg, 11);
        let network = net(0.1, 0.5);
        let offsets = [0.0, 20.0, 80.0];
        let sharded =
            measure_t_visibility_sharded(opts, &network, 5, &offsets, 600, 3);
        assert_eq!(sharded.points.len(), 3);
        for p in &sharded.points {
            assert_eq!(p.trials, 600, "shards must cover the full budget");
        }
        assert_eq!(sharded.write_latency.count(), 1800);
        // Statistically equivalent to one big cluster run.
        let mut cluster = Cluster::new(opts, network.clone());
        let single = measure_t_visibility(&mut cluster, 5, &offsets, 600);
        for (a, b) in sharded.points.iter().zip(&single.points) {
            assert!(
                (a.probability() - b.probability()).abs() < 0.08,
                "t={}: sharded {} vs single {}",
                a.t_ms,
                a.probability(),
                b.probability()
            );
        }
    }

    #[test]
    fn sharded_measurement_is_deterministic() {
        let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
        let opts = ClusterOptions::validation(cfg, 4);
        let network = net(0.2, 0.5);
        let run = || measure_t_visibility_sharded(opts, &network, 2, &[0.0, 10.0], 200, 4);
        let (a, b) = (run(), run());
        assert_eq!(a.points, b.points);
        assert_eq!(a.write_latency, b.write_latency);
        assert_eq!(a.read_latency, b.read_latency);
    }
}
