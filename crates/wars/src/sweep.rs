//! Parameter sweeps producing the series behind the paper's figures and
//! tables.

use crate::model::LatencyModel;
use crate::tvisibility::TVisibility;
use pbs_core::ReplicaConfig;

/// Log-spaced sample points from `lo` to `hi` (inclusive), matching the
/// paper's log-x-axis figures.
pub fn log_spaced(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && points >= 2);
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..points)
        .map(|i| (llo + (lhi - llo) * i as f64 / (points - 1) as f64).exp())
        .collect()
}

/// Linearly spaced sample points from `lo` to `hi` inclusive.
pub fn lin_spaced(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(hi >= lo && points >= 2);
    (0..points)
        .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
        .collect()
}

/// One row of Table 4: a configuration's 99.9th-percentile operation
/// latencies and its t-visibility at 99.9% probability of consistency.
#[derive(Debug, Clone, Copy)]
pub struct LatencyStalenessRow {
    /// The replication configuration.
    pub cfg: ReplicaConfig,
    /// Read latency at `pct` (ms).
    pub read_latency: f64,
    /// Write latency at `pct` (ms).
    pub write_latency: f64,
    /// Smallest `t` with `P(consistent) ≥ target`, or `None` if more trials
    /// are needed to resolve it.
    pub t_visibility: Option<f64>,
}

/// A Table-4-style row read off one simulated configuration.
pub fn latency_staleness_row(
    tv: &TVisibility,
    pct: f64,
    target_consistency: f64,
) -> LatencyStalenessRow {
    LatencyStalenessRow {
        cfg: tv.config(),
        read_latency: tv.read_latency_percentile(pct),
        write_latency: tv.write_latency_percentile(pct),
        t_visibility: tv.t_at_probability(target_consistency),
    }
}

/// Sweep `(R, W)` pairs for a fixed `N`, producing Table 4's rows in the
/// paper's order: one [`TVisibility::simulate_grid`] over `pairs`. `factory`
/// builds the model (e.g. `|cfg| ProductionProfile::Ymmr.model(cfg)`) and is
/// called once, with the first pair's configuration.
pub fn table4_sweep(
    factory: &dyn Fn(ReplicaConfig) -> Box<dyn LatencyModel>,
    n: u32,
    pairs: &[(u32, u32)],
    trials: usize,
    seed: u64,
    threads: usize,
) -> Vec<LatencyStalenessRow> {
    let Some(&(r, w)) = pairs.first() else { return Vec::new() };
    let model = factory(ReplicaConfig::new(n, r, w).expect("valid sweep configuration"));
    TVisibility::simulate_grid(model.as_ref(), pairs, trials, seed, threads)
        .iter()
        .map(|tv| latency_staleness_row(tv, 99.9, 0.999))
        .collect()
}

/// The `(R, W)` pairs of Table 4, in row order.
pub const TABLE4_PAIRS: [(u32, u32); 6] = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)];

/// Sweep the replication factor `N` with `R = W = 1` (Figure 7), each
/// point sharded over `threads` on the deterministic runner.
pub fn replication_factor_sweep(
    factory: &dyn Fn(ReplicaConfig) -> Box<dyn LatencyModel>,
    ns: &[u32],
    trials: usize,
    seed: u64,
    threads: usize,
) -> Vec<(u32, TVisibility)> {
    ns.iter()
        .map(|&n| {
            let cfg = ReplicaConfig::new(n, 1, 1).expect("valid N");
            (n, TVisibility::simulate_parallel(factory(cfg).as_ref(), trials, seed, threads))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::production::{exponential_model, lnkd_disk_model};

    #[test]
    fn log_spacing_endpoints_and_monotonicity() {
        let pts = log_spaced(0.1, 1000.0, 9);
        assert_eq!(pts.len(), 9);
        assert!((pts[0] - 0.1).abs() < 1e-9);
        assert!((pts[8] - 1000.0).abs() < 1e-6);
        for w in pts.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn lin_spacing_endpoints() {
        let pts = lin_spaced(0.0, 10.0, 11);
        assert_eq!(pts[3], 3.0);
    }

    #[test]
    fn table4_sweep_strict_rows_have_zero_tvisibility() {
        let rows = table4_sweep(
            &|c| Box::new(exponential_model(c, 0.2, 0.5)),
            3,
            &TABLE4_PAIRS,
            20_000,
            3,
            1,
        );
        assert_eq!(rows.len(), 6);
        for row in &rows {
            if row.cfg.is_strict() {
                assert_eq!(row.t_visibility, Some(0.0), "{}", row.cfg);
            } else {
                assert!(row.t_visibility.unwrap() >= 0.0);
            }
            // Bigger R ⇒ slower reads; bigger W ⇒ slower writes.
        }
        // R=3 reads slower than R=1 reads at the same percentile.
        let r1 = rows.iter().find(|r| r.cfg.r() == 1 && r.cfg.w() == 1).unwrap();
        let r3 = rows.iter().find(|r| r.cfg.r() == 3).unwrap();
        assert!(r3.read_latency > r1.read_latency);
    }

    #[test]
    fn replication_sweep_more_replicas_lower_immediate_consistency() {
        // Figure 7's effect: with R=W=1, growing N lowers the probability of
        // consistency immediately after commit.
        let runs = replication_factor_sweep(
            &|c| Box::new(lnkd_disk_model(c)),
            &[2, 3, 5, 10],
            30_000,
            5,
            2,
        );
        let p0: Vec<f64> = runs.iter().map(|(_, tv)| tv.prob_consistent(0.0)).collect();
        for w in p0.windows(2) {
            assert!(w[1] < w[0] + 0.02, "immediate consistency should fall with N: {p0:?}");
        }
    }
}
