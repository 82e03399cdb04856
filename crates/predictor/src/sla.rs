//! SLA-driven configuration search (§6 "Latency/Staleness SLAs").
//!
//! The paper notes the configuration space is small (`O(N²)` for fixed `N`),
//! so exhaustive evaluation is tractable: judge every `(R, W)` pair, discard
//! configurations violating the SLA, and return the cheapest survivor. This
//! also "disentangles replication for durability from replication for low
//! latency": `N` can grow for durability while the optimizer keeps `R`/`W`
//! small.
//!
//! Only the partial configurations (`R + W ≤ N`) need the WARS Monte Carlo
//! for staleness. A strict one (`R + W > N`) is judged exactly: its
//! consistency is `1.0` at every window `t ≥ 0` and its t-visibility
//! `0.0` at every probability — bit for bit what a simulation of it
//! reports. In every trial the first `W` ackers and the first `R`
//! responders share a replica `i`. Its acknowledgment is among the first
//! `W`, so `fl(W[i] + A[i]) ≤ w_t`, the commit time; `A[i] ≥ 0` gives
//! `W[i] ≤ fl(W[i] + A[i])`, so `W[i] − w_t ≤ 0`, and `R[i] ≥ 0` then makes
//! `i`'s threshold `W[i] − w_t − R[i] ≤ 0` (rounding is monotone, so each
//! step holds in floating point). The trial's threshold, a minimum over
//! the responders that includes `i`, is `≤ 0` on every trial. So the exact
//! count of trials at `threshold ≤ 0` is the trial count and
//! `prob_consistent(0)` is exactly `1.0`; any `t > 0` lies past the largest
//! threshold, where the sketch CDF is exactly `1.0`; and a sketch quantile
//! never exceeds the largest threshold, so `t_at_probability(p)` clamps to
//! exactly `0`. The legs are finite and nonnegative by [`LatencyModel`]'s
//! contract; [`SlaSpec::check`] refuses a NaN or negative window, where
//! none of this holds.
//!
//! A strict configuration still needs its read latency at `R` and its write
//! latency at `W`, and those depend on one side alone. [`optimize`] runs
//! one [`TVisibility::simulate_grid`] per candidate `N` over the partial
//! pairs plus `(N, N)`: every `R < N` has the partial pair `(R, 1)` and
//! every `W < N` has `(1, W)`, and `(N, N)` — the one strict pair kept —
//! carries the `R = N` read and `W = N` write summaries no partial pair
//! has. The trials and their preparation (up to `R = W = N`) are the full
//! grid's, so each latency summary is the one a full grid records.

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

    /// The rules an SLA must keep before any search runs: `within_ms ≥ 0`
    /// (t-visibility is defined for `t ≥ 0`), the probability in `[0, 1]`,
    /// the percentile in `[0, 100]`, and a set latency cap not NaN (a NaN
    /// cap would disqualify every configuration without a word).
    ///
    /// # Errors
    ///
    /// [`SlaError`] naming the first field at fault.
    pub fn check(&self) -> Result<(), SlaError> {
        let bad = |field, rule: String| Err(SlaError { field, rule });
        let p = self.consistency_probability;
        if !(0.0..=1.0).contains(&p) {
            return bad("consistency_probability", format!("must lie in [0, 1], got {p}"));
        }
        let t = self.within_ms;
        if t.is_nan() || t < 0.0 {
            return bad("within_ms", format!("must be >= 0 (t-visibility needs t >= 0), got {t}"));
        }
        let pct = self.latency_percentile;
        if !(0.0..=100.0).contains(&pct) {
            return bad("latency_percentile", format!("must lie in [0, 100], got {pct}"));
        }
        for (field, cap) in [
            ("max_read_latency_ms", self.max_read_latency_ms),
            ("max_write_latency_ms", self.max_write_latency_ms),
        ] {
            if cap.is_some_and(f64::is_nan) {
                return bad(field, "must not be NaN when set".into());
            }
        }
        Ok(())
    }
}

/// Why [`SlaSpec::check`] refused an SLA.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaError {
    /// The [`SlaSpec`] field at fault, e.g. `"within_ms"`.
    pub field: &'static str,
    /// The rule it breaks, with the value it had.
    pub rule: String,
}

impl std::fmt::Display for SlaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.field, self.rule)
    }
}

impl std::error::Error for SlaError {}

/// Panic with [`SlaSpec::check`]'s message unless `spec` keeps its rules.
pub(crate) fn assert_valid(spec: &SlaSpec) {
    if let Err(e) = spec.check() {
        panic!("{e}");
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
    /// t-visibility at the SLA probability (ms).
    pub t_visibility: f64,
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

/// The one SLA test, on a configuration's four readings however they were
/// obtained: latency at the SLA percentile, `P(consistent)` at its window
/// and t-visibility at its probability.
fn evaluate(
    cfg: ReplicaConfig,
    read_latency: f64,
    write_latency: f64,
    consistency: f64,
    t_visibility: f64,
    spec: &SlaSpec,
) -> ConfigEvaluation {
    let mut meets_sla = consistency >= spec.consistency_probability
        && cfg.w() >= spec.min_write_quorum;
    if let Some(cap) = spec.max_read_latency_ms {
        meets_sla &= read_latency <= cap;
    }
    if let Some(cap) = spec.max_write_latency_ms {
        meets_sla &= write_latency <= cap;
    }
    ConfigEvaluation { cfg, read_latency, write_latency, consistency, t_visibility, meets_sla }
}

/// The report over `evaluations`: the best is the lowest combined latency
/// among those that meet the SLA, the first of equals.
fn report(evaluations: Vec<ConfigEvaluation>) -> SlaReport {
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

/// Judge already-simulated configurations (e.g. one
/// [`TVisibility::simulate_grid`]) against an SLA: every one is evaluated
/// from its own simulation, in order, and the best is the lowest combined
/// latency among those that meet it. Simulating is the expensive half of a
/// search; one grid can be judged against any number of SLAs.
///
/// Panics if `spec` fails [`SlaSpec::check`].
pub fn judge_grid<T: Borrow<TVisibility>>(
    grid: impl IntoIterator<Item = T>,
    spec: &SlaSpec,
) -> SlaReport {
    assert_valid(spec);
    let evaluations = grid.into_iter().map(|tv| {
        let tv = tv.borrow();
        evaluate(
            tv.config(),
            tv.read_latency_percentile(spec.latency_percentile),
            tv.write_latency_percentile(spec.latency_percentile),
            tv.prob_consistent(spec.within_ms),
            tv.t_at_probability(spec.consistency_probability),
            spec,
        )
    });
    report(evaluations.collect())
}

/// Exhaustively search every `(R, W)` pair for each `N` in `ns`, returning
/// all evaluations (per `N`, in [`ReplicaConfig::all_for_n`] order) and the
/// lowest-combined-latency configuration meeting the SLA.
///
/// The factory is called once per N, not once per configuration: the
/// partial pairs of one `N` and `(N, N)` are read off the same `trials`
/// trials ([`TVisibility::simulate_grid`]), which [`LatencyModel`]'s
/// contract — a trial's draws depend on `N` alone — makes equal to
/// simulating each configuration on its own from `seed`. Every strict
/// configuration is judged exactly (see the [module docs](self)), with the
/// read and write latency summaries its `R` and `W` share with simulated
/// pairs; the report is bit for bit what [`judge_grid`] makes of the full
/// grid.
///
/// `threads` shards each grid. Closed-loop drivers that embed the optimizer
/// inside their own parallel shards pass 1, for no thread oversubscription.
///
/// Panics if `spec` fails [`SlaSpec::check`], before any trial runs.
pub fn optimize(
    factory: &dyn Fn(ReplicaConfig) -> Box<dyn LatencyModel>,
    ns: &[u32],
    spec: &SlaSpec,
    trials: usize,
    seed: u64,
    threads: usize,
) -> SlaReport {
    assert_valid(spec);
    let mut evaluations = Vec::new();
    // One N at a time: a grid is judged and dropped before the next is
    // simulated.
    for &n in ns {
        let cfgs: Vec<ReplicaConfig> = ReplicaConfig::all_for_n(n).collect();
        // An N with no valid pair (N = 0) has no model to build.
        let Some(&first) = cfgs.first() else { continue };
        let pairs: Vec<(u32, u32)> = cfgs
            .iter()
            .filter(|c| c.is_partial() || c.r() == n && c.w() == n)
            .map(|c| (c.r(), c.w()))
            .collect();
        let grid =
            TVisibility::simulate_grid(factory(first).as_ref(), &pairs, trials, seed, threads);
        // The percentile of each R and each W, read once off the summary
        // the pairs of that side share.
        let percentiles = |side: fn(&ReplicaConfig) -> u32,
                           of: fn(&TVisibility, f64) -> f64| {
            (1..=n)
                .map(|q| {
                    let tv = grid.iter().find(|tv| side(&tv.config()) == q);
                    of(tv.expect("every R and W up to N is simulated"), spec.latency_percentile)
                })
                .collect::<Vec<f64>>()
        };
        let reads = percentiles(ReplicaConfig::r, TVisibility::read_latency_percentile);
        let writes = percentiles(ReplicaConfig::w, TVisibility::write_latency_percentile);
        let mut partial = grid.iter().filter(|tv| tv.config().is_partial());
        for cfg in cfgs {
            let (consistency, t_visibility) = if cfg.is_strict() {
                (1.0, 0.0)
            } else {
                let tv = partial.next().expect("one simulation per partial pair");
                let p = spec.consistency_probability;
                (tv.prob_consistent(spec.within_ms), tv.t_at_probability(p))
            };
            let (read, write) = (reads[cfg.r() as usize - 1], writes[cfg.w() as usize - 1]);
            evaluations.push(evaluate(cfg, read, write, consistency, t_visibility, spec));
        }
    }
    report(evaluations)
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

    /// The search's exact path against the full-grid judge, its reference:
    /// for every N, model, SLA and shard count, `optimize` reports bit for
    /// bit what `judge_grid` makes of every pair simulated. On the same
    /// grids, every strict pair's simulated thresholds are all `≤ 0` — the
    /// premise of the exact path (module docs).
    #[test]
    fn one_grid_serves_every_sla() {
        use pbs_dist::{Empirical, Exponential, LatencyDistribution};
        use pbs_wars::model::WithReadDelay;
        use pbs_wars::production::{lnkd_ssd_model, wan_model, ymmr_model};
        use pbs_wars::IidModel;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::Arc;

        type Factory = Box<dyn Fn(ReplicaConfig) -> Box<dyn LatencyModel>>;
        // Legs refit from a window of measurements, as the controller does.
        let mut rng = StdRng::seed_from_u64(11);
        let mut window = |mean: f64| {
            let d = Exponential::from_mean(mean);
            Arc::new(Empirical::from_samples((0..2_000).map(|_| d.sample(&mut rng)).collect()))
        };
        let (we, ae, re, se) = (window(5.0), window(0.8), window(0.8), window(0.8));
        let models: [(&str, Factory); 7] = [
            ("exponential", Box::new(factory_exp(0.1, 0.5))),
            ("LNKD-SSD", Box::new(|c| Box::new(lnkd_ssd_model(c)))),
            ("LNKD-DISK", Box::new(|c| Box::new(lnkd_disk_model(c)))),
            ("YMMR", Box::new(|c| Box::new(ymmr_model(c)))),
            ("WAN", Box::new(|c| Box::new(wan_model(c)))),
            ("LNKD-DISK + 2.5 ms reads", Box::new(|c| {
                Box::new(WithReadDelay::new(lnkd_disk_model(c), 2.5))
            })),
            ("windowed", Box::new(move |c| {
                let legs = (we.clone(), ae.clone(), re.clone(), se.clone());
                Box::new(IidModel::new(c, "windowed", legs.0, legs.1, legs.2, legs.3))
            })),
        ];
        let mut strict = SlaSpec::consistency(0.999999, 0.0);
        strict.max_read_latency_ms = Some(30.0);
        let mut capped = SlaSpec::consistency(0.99, 5.0);
        capped.max_read_latency_ms = Some(10.0);
        capped.min_write_quorum = 2;
        let specs = [
            SlaSpec::consistency(0.9, 20.0),
            strict,
            SlaSpec::consistency(0.999, 0.0),
            SlaSpec::consistency(0.999, 50.0),
            SlaSpec::consistency(1.0, 10.0),
            capped,
        ];
        let ns = [1, 2, 3, 5];
        let (trials, seed) = (2_000, 6);
        for (name, factory) in &models {
            for threads in [1, 2] {
                let grids: Vec<Vec<TVisibility>> = ns
                    .iter()
                    .map(|&n| {
                        let cfgs: Vec<ReplicaConfig> = ReplicaConfig::all_for_n(n).collect();
                        let pairs: Vec<(u32, u32)> =
                            cfgs.iter().map(|c| (c.r(), c.w())).collect();
                        let model = factory(cfgs[0]);
                        TVisibility::simulate_grid(model.as_ref(), &pairs, trials, seed, threads)
                    })
                    .collect();
                for tv in grids.iter().flatten().filter(|tv| tv.config().is_strict()) {
                    let cfg = tv.config();
                    assert!(tv.thresholds().max() <= 0.0, "{name} {cfg}: a threshold is > 0");
                    assert_eq!(tv.prob_consistent(0.0), 1.0, "{name} {cfg}");
                }
                for spec in &specs {
                    let judged = judge_grid(grids.iter().flatten(), spec);
                    let searched = optimize(factory.as_ref(), &ns, spec, trials, seed, threads);
                    let case = format!("{name}, {threads} threads, {spec:?}");
                    assert_eq!(judged.best, searched.best, "{case}");
                    assert_eq!(judged.evaluations.len(), searched.evaluations.len(), "{case}");
                    for (a, b) in judged.evaluations.iter().zip(&searched.evaluations) {
                        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{case}");
                    }
                }
            }
        }
    }

    /// Every rule of `SlaSpec::check`, refused by the name of its field;
    /// the range ends pass.
    #[test]
    fn sla_check_names_the_field_at_fault() {
        type Spoil = fn(&mut SlaSpec);
        let cases: [(&str, Spoil); 10] = [
            ("consistency_probability", |s| s.consistency_probability = 1.5),
            ("consistency_probability", |s| s.consistency_probability = -0.1),
            ("consistency_probability", |s| s.consistency_probability = f64::NAN),
            ("latency_percentile", |s| s.latency_percentile = 100.5),
            ("latency_percentile", |s| s.latency_percentile = -1.0),
            ("latency_percentile", |s| s.latency_percentile = f64::NAN),
            ("within_ms", |s| s.within_ms = f64::NAN),
            ("within_ms", |s| s.within_ms = -1.0),
            ("max_read_latency_ms", |s| s.max_read_latency_ms = Some(f64::NAN)),
            ("max_write_latency_ms", |s| s.max_write_latency_ms = Some(f64::NAN)),
        ];
        for (field, spoil) in cases {
            let mut spec = SlaSpec::consistency(0.9, 10.0);
            spoil(&mut spec);
            let err = spec.check().expect_err(field);
            assert_eq!(err.field, field);
            assert!(err.to_string().starts_with(&format!("{field} ")), "{err}");
        }
        for (p, t, pct) in [(0.0, 0.0, 0.0), (1.0, f64::INFINITY, 100.0)] {
            let mut spec = SlaSpec::consistency(p, t);
            spec.latency_percentile = pct;
            spec.max_read_latency_ms = Some(f64::INFINITY);
            spec.max_write_latency_ms = Some(-1.0);
            assert_eq!(spec.check(), Ok(()));
        }
    }

    /// A refused SLA stops the search before its factory builds a model.
    #[test]
    #[should_panic(expected = "within_ms must be >= 0")]
    fn optimize_refuses_a_nan_window_before_simulating() {
        let never = |_: ReplicaConfig| -> Box<dyn LatencyModel> { panic!("a model was built") };
        optimize(&never, &[3], &SlaSpec::consistency(0.9, f64::NAN), 100, 1, 1);
    }

    #[test]
    #[should_panic(expected = "max_read_latency_ms must not be NaN")]
    fn judge_grid_refuses_a_nan_cap() {
        let mut spec = SlaSpec::consistency(0.9, 10.0);
        spec.max_read_latency_ms = Some(f64::NAN);
        judge_grid(Vec::<TVisibility>::new(), &spec);
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
            assert_eq!(row.t_visibility.to_bits(), t.to_bits(), "{}", row.cfg);
            if row.cfg.is_strict() {
                assert_eq!(row.t_visibility, 0.0, "{}", row.cfg);
            } else {
                assert!(row.t_visibility >= 0.0);
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
