//! SLA-driven configuration search (§6 "Latency/Staleness SLAs").
//!
//! The paper notes the configuration space is small (`O(N²)` for fixed `N`),
//! so exhaustive evaluation is tractable: run the WARS Monte Carlo for every
//! `(R, W)` pair, discard configurations violating the SLA, and return the
//! cheapest survivor. This also "disentangles replication for durability
//! from replication for low latency": `N` can grow for durability while the
//! optimizer keeps `R`/`W` small.

use pbs_core::ReplicaConfig;
use pbs_wars::{LatencyModel, TVisibility};
use std::borrow::Borrow;

/// A latency/staleness service-level agreement.
#[derive(Debug, Clone, Copy)]
pub struct SlaSpec {
    /// Required probability of consistent reads (e.g. `0.999`).
    pub consistency_probability: f64,
    /// The window after commit within which that probability must hold
    /// (ms). `0.0` demands it immediately at commit.
    pub within_ms: f64,
    /// Percentile at which latency constraints/objective are evaluated
    /// (e.g. `99.9`).
    pub latency_percentile: f64,
    /// Optional cap on read latency at that percentile (ms).
    pub max_read_latency_ms: Option<f64>,
    /// Optional cap on write latency at that percentile (ms).
    pub max_write_latency_ms: Option<f64>,
    /// Durability floor: minimum synchronous write quorum `W`.
    pub min_write_quorum: u32,
}

impl SlaSpec {
    /// A typical "99.9% consistent within `t` ms" SLA with a durability
    /// floor of 1.
    pub fn consistency(p: f64, within_ms: f64) -> Self {
        Self {
            consistency_probability: p,
            within_ms,
            latency_percentile: 99.9,
            max_read_latency_ms: None,
            max_write_latency_ms: None,
            min_write_quorum: 1,
        }
    }
}

/// The evaluation of one candidate configuration.
#[derive(Debug, Clone, Copy)]
pub struct ConfigEvaluation {
    /// The candidate.
    pub cfg: ReplicaConfig,
    /// Read latency at the SLA percentile (ms).
    pub read_latency: f64,
    /// Write latency at the SLA percentile (ms).
    pub write_latency: f64,
    /// `P(consistent)` at the SLA window.
    pub consistency: f64,
    /// t-visibility at the SLA probability (None = unresolved).
    pub t_visibility: Option<f64>,
    /// Whether every SLA constraint is met.
    pub meets_sla: bool,
}

impl ConfigEvaluation {
    /// The optimizer's objective: combined read + write latency at the SLA
    /// percentile (the quantity Table 4 trades off against t-visibility).
    pub fn combined_latency(&self) -> f64 {
        self.read_latency + self.write_latency
    }
}

/// Result of an SLA search.
#[derive(Debug, Clone)]
pub struct SlaReport {
    /// Every configuration evaluated, in search order.
    pub evaluations: Vec<ConfigEvaluation>,
    /// Index of the best SLA-satisfying configuration, if any.
    pub best: Option<usize>,
}

impl SlaReport {
    /// The winning evaluation, if any configuration met the SLA.
    pub fn best_config(&self) -> Option<&ConfigEvaluation> {
        self.best.map(|i| &self.evaluations[i])
    }
}

/// The per-configuration SLA test.
fn evaluate(tv: &TVisibility, spec: &SlaSpec) -> ConfigEvaluation {
    let cfg = tv.config();
    let consistency = tv.prob_consistent(spec.within_ms);
    let read_latency = tv.read_latency_percentile(spec.latency_percentile);
    let write_latency = tv.write_latency_percentile(spec.latency_percentile);
    let mut meets = consistency >= spec.consistency_probability
        && cfg.w() >= spec.min_write_quorum;
    if let Some(cap) = spec.max_read_latency_ms {
        meets &= read_latency <= cap;
    }
    if let Some(cap) = spec.max_write_latency_ms {
        meets &= write_latency <= cap;
    }
    ConfigEvaluation {
        cfg,
        read_latency,
        write_latency,
        consistency,
        t_visibility: tv.t_at_probability(spec.consistency_probability),
        meets_sla: meets,
    }
}

/// Judge already-simulated configurations (e.g. one
/// [`TVisibility::simulate_grid`]) against an SLA: every one is evaluated,
/// in order, and the best is the lowest combined latency among those that
/// meet it. Simulating is the expensive half of a search; one grid can be
/// judged against any number of SLAs.
pub fn judge_grid<T: Borrow<TVisibility>>(
    grid: impl IntoIterator<Item = T>,
    spec: &SlaSpec,
) -> SlaReport {
    let evaluations: Vec<ConfigEvaluation> =
        grid.into_iter().map(|tv| evaluate(tv.borrow(), spec)).collect();
    let best = evaluations
        .iter()
        .enumerate()
        .filter(|(_, e)| e.meets_sla)
        .min_by(|(_, a), (_, b)| {
            a.combined_latency()
                .partial_cmp(&b.combined_latency())
                .expect("latencies are not NaN")
        })
        .map(|(i, _)| i);
    SlaReport { evaluations, best }
}

/// Exhaustively search every `(R, W)` pair for each `N` in `ns`, returning
/// all evaluations and the lowest-combined-latency configuration meeting
/// the SLA.
///
/// The factory is called once per N, not once per configuration: every
/// `(R, W)` of one `N` is read off the same `trials` trials
/// ([`TVisibility::simulate_grid`]), which [`LatencyModel`]'s contract — a
/// trial's draws depend on `N` alone — makes equal to simulating each
/// configuration on its own from `seed`.
///
/// `threads` shards each grid. Closed-loop drivers that embed the optimizer
/// inside their own parallel shards pass 1, for no thread oversubscription.
pub fn optimize(
    factory: &dyn Fn(ReplicaConfig) -> Box<dyn LatencyModel>,
    ns: &[u32],
    spec: &SlaSpec,
    trials: usize,
    seed: u64,
    threads: usize,
) -> SlaReport {
    // Lazily, one N at a time: a grid is judged and dropped before the next
    // is simulated.
    let grids = ns.iter().flat_map(|&n| {
        let cfgs: Vec<ReplicaConfig> = ReplicaConfig::all_for_n(n).collect();
        // An N with no valid pair (N = 0) has no model to build.
        let Some(&first) = cfgs.first() else { return Vec::new() };
        let pairs: Vec<(u32, u32)> = cfgs.iter().map(|c| (c.r(), c.w())).collect();
        TVisibility::simulate_grid(factory(first).as_ref(), &pairs, trials, seed, threads)
    });
    judge_grid(grids, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_wars::production::{exponential_model, lnkd_disk_model};

    fn factory_exp(w_rate: f64, ars_rate: f64) -> impl Fn(ReplicaConfig) -> Box<dyn LatencyModel> {
        move |cfg| Box::new(exponential_model(cfg, w_rate, ars_rate))
    }

    #[test]
    fn strict_quorums_always_meet_pure_consistency_slas() {
        let spec = SlaSpec::consistency(0.999999, 0.0);
        let report = optimize(&factory_exp(0.1, 0.5), &[3], &spec, 5_000, 1, 2);
        assert_eq!(report.evaluations.len(), 9);
        let best = report.best_config().expect("strict configs qualify");
        assert!(best.cfg.is_strict(), "only strict quorums hit 1.0 at t=0: {}", best.cfg);
        // The winner should be the *cheapest* strict quorum.
        for e in &report.evaluations {
            if e.meets_sla {
                assert!(best.combined_latency() <= e.combined_latency() + 1e-9);
            }
        }
    }

    #[test]
    fn relaxed_sla_picks_partial_quorum() {
        // With a generous window, partial quorums qualify and win on
        // latency (the paper's core message).
        let spec = SlaSpec::consistency(0.999, 200.0);
        let report = optimize(&factory_exp(0.1, 0.5), &[3], &spec, 20_000, 2, 2);
        let best = report.best_config().expect("some config qualifies");
        assert!(
            best.cfg.is_partial(),
            "a partial quorum should win under a 200ms window, got {}",
            best.cfg
        );
        assert!(best.cfg.r() == 1 && best.cfg.w() == 1, "R=W=1 is cheapest: {}", best.cfg);
    }

    #[test]
    fn durability_floor_respected() {
        let mut spec = SlaSpec::consistency(0.9, 100.0);
        spec.min_write_quorum = 2;
        let report = optimize(&factory_exp(0.2, 0.5), &[3], &spec, 10_000, 3, 2);
        let best = report.best_config().expect("qualifies");
        assert!(best.cfg.w() >= 2, "{}", best.cfg);
        for e in &report.evaluations {
            if e.cfg.w() < 2 {
                assert!(!e.meets_sla);
            }
        }
    }

    #[test]
    fn latency_caps_filter_configs() {
        let mut spec = SlaSpec::consistency(0.5, 1000.0);
        // LNKD-DISK writes at p99.9 for W=3 exceed 50ms; cap below that.
        spec.max_write_latency_ms = Some(15.0);
        let report = optimize(&|c| Box::new(lnkd_disk_model(c)), &[3], &spec, 20_000, 4, 2);
        for e in &report.evaluations {
            if e.meets_sla {
                assert!(e.write_latency <= 15.0, "{}: {}", e.cfg, e.write_latency);
            }
        }
        let best = report.best_config().expect("some config fits");
        assert!(best.cfg.w() < 3);
    }

    #[test]
    fn an_n_without_configurations_is_skipped() {
        let spec = SlaSpec::consistency(0.9, 50.0);
        let report = optimize(&factory_exp(0.5, 0.5), &[0, 3], &spec, 2_000, 5, 1);
        assert_eq!(report.evaluations.len(), 9);
        assert!(report.evaluations.iter().all(|e| e.cfg.n() == 3));
    }

    /// One simulated grid judged against several SLAs reports what a search
    /// per SLA does.
    #[test]
    fn one_grid_serves_every_sla() {
        let factory = factory_exp(0.1, 0.5);
        let cfgs: Vec<ReplicaConfig> = ReplicaConfig::all_for_n(3).collect();
        let pairs: Vec<(u32, u32)> = cfgs.iter().map(|c| (c.r(), c.w())).collect();
        let grid = TVisibility::simulate_grid(factory(cfgs[0]).as_ref(), &pairs, 4_000, 6, 2);
        let mut strict = SlaSpec::consistency(0.999999, 0.0);
        strict.max_read_latency_ms = Some(30.0);
        for spec in [SlaSpec::consistency(0.9, 20.0), strict] {
            let judged = judge_grid(&grid, &spec);
            let searched = optimize(&factory, &[3], &spec, 4_000, 6, 2);
            assert_eq!(judged.best, searched.best);
            for (a, b) in judged.evaluations.iter().zip(&searched.evaluations) {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
    }

    /// Table 4's rows are this judge's evaluations of one grid: p99.9
    /// latencies and t-visibility at 99.9%, bit for bit what the grid's
    /// accessors report.
    #[test]
    fn judging_a_table4_grid_reads_its_latencies_and_t_visibility() {
        let pairs = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)];
        let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
        let model = exponential_model(cfg, 0.2, 0.5);
        let grid = TVisibility::simulate_grid(&model, &pairs, 20_000, 3, 1);
        let rows = judge_grid(&grid, &SlaSpec::consistency(0.999, 0.0)).evaluations;
        assert_eq!(rows.len(), 6);
        for (row, tv) in rows.iter().zip(&grid) {
            assert_eq!(row.cfg, tv.config());
            assert_eq!(row.read_latency.to_bits(), tv.read_latency_percentile(99.9).to_bits());
            assert_eq!(row.write_latency.to_bits(), tv.write_latency_percentile(99.9).to_bits());
            let t = tv.t_at_probability(0.999);
            assert_eq!(row.t_visibility.map(f64::to_bits), t.map(f64::to_bits), "{}", row.cfg);
            if row.cfg.is_strict() {
                assert_eq!(row.t_visibility, Some(0.0), "{}", row.cfg);
            } else {
                assert!(row.t_visibility.unwrap() >= 0.0);
            }
        }
        // R=3 reads slower than R=1 reads at the same percentile.
        let r1 = rows.iter().find(|r| r.cfg.r() == 1 && r.cfg.w() == 1).unwrap();
        let r3 = rows.iter().find(|r| r.cfg.r() == 3).unwrap();
        assert!(r3.read_latency > r1.read_latency);
    }

    #[test]
    fn search_covers_multiple_n() {
        let spec = SlaSpec::consistency(0.9, 50.0);
        let report = optimize(&factory_exp(0.5, 0.5), &[2, 3], &spec, 4_000, 5, 2);
        assert_eq!(report.evaluations.len(), 4 + 9);
    }
}
