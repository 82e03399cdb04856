//! `wars_predict`: the paper's own artefact with zero simulator work.
//!
//! A round is one cycle: `TVisibility::simulate` at 20,000 trials for each of
//! the four production fits × {(3,1,1), (3,2,1), (3,1,2), (10,1,1)} — sixteen
//! `Wars` slices — then one `Refit` slice: `observe_many` of 1,000 pre-drawn
//! LNKD-DISK samples per leg into an `AdaptiveController` and `reoptimize()`
//! over every (N, R, W) with N ∈ {3, 5}.

use crate::harness::{fnv, fnv_start, Harness, Outcome, Phase};
use crate::trace::Tracer;
use pbs_core::ReplicaConfig;
use pbs_dist::{production as fits, LatencyDistribution};
use pbs_predictor::{AdaptiveController, SlaReport, SlaSpec};
use pbs_wars::production::{self, ProductionProfile};
use pbs_wars::{LatencyModel, TVisibility};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TRIALS: usize = 20_000;
const CONFIGS: [(u32, u32, u32); 4] = [(3, 1, 1), (3, 2, 1), (3, 1, 2), (10, 1, 1)];
const REFIT_WINDOW: usize = 1_000;
const REFIT_TRIALS: usize = 3_000;
const REFIT_NS: [u32; 2] = [3, 5];
/// Pre-drawn sample batches the refits rotate through.
const BATCHES: usize = 8;
/// "99% of reads consistent within 50 ms": loose enough that partial quorums
/// compete, strict enough that not every configuration passes.
const SLA_PROBABILITY: f64 = 0.99;
const SLA_WITHIN_MS: f64 = 50.0;
/// Paper window for P(consistent, t = 0) on LNKD-SSD (3,1,1): 97.4% ± MC
/// noise at 20k trials.
const SSD_T0_WINDOW: (f64, f64) = (0.96, 0.985);

fn span_of(profile: ProductionProfile, n: u32) -> &'static str {
    if n == 10 {
        return "wars.simulate.n10";
    }
    match profile {
        ProductionProfile::LnkdSsd => "wars.simulate.lnkd_ssd",
        ProductionProfile::LnkdDisk => "wars.simulate.lnkd_disk",
        ProductionProfile::Ymmr => "wars.simulate.ymmr",
        ProductionProfile::Wan => "wars.simulate.wan",
    }
}

struct GridCell {
    profile: ProductionProfile,
    cfg: ReplicaConfig,
    model: Box<dyn LatencyModel>,
}

/// One batch of per-leg samples.
struct Batch {
    w: Vec<f64>,
    a: Vec<f64>,
    r: Vec<f64>,
    s: Vec<f64>,
}

struct State {
    grid: Vec<GridCell>,
    batches: Vec<Batch>,
    controller: AdaptiveController,
    /// Cycles run so far on this state (varies the Monte-Carlo seeds).
    cycles: u64,
    seed: u64,
    /// Running fingerprint of every result (f64 bits), for the digest.
    words: Vec<u64>,
    last_refit: Option<SlaReport>,
    ssd_t0: f64,
}

impl State {
    fn build(seed: u64) -> State {
        let grid = ProductionProfile::ALL
            .iter()
            .flat_map(|&profile| {
                CONFIGS.iter().map(move |&(n, r, w)| {
                    let cfg = ReplicaConfig::new(n, r, w).expect("valid config");
                    GridCell {
                        profile,
                        cfg,
                        model: profile.model(cfg),
                    }
                })
            })
            .collect();
        let (w_leg, ars_leg) = (fits::lnkd_disk_write(), fits::lnkd_disk_ars());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |d: &dyn LatencyDistribution| -> Vec<f64> {
            (0..REFIT_WINDOW).map(|_| d.sample(&mut rng)).collect()
        };
        let batches = (0..BATCHES)
            .map(|_| Batch {
                w: draw(&w_leg),
                a: draw(&ars_leg),
                r: draw(&ars_leg),
                s: draw(&ars_leg),
            })
            .collect();
        let controller = AdaptiveController::new(
            SlaSpec::consistency(SLA_PROBABILITY, SLA_WITHIN_MS),
            REFIT_NS.to_vec(),
            REFIT_WINDOW,
            REFIT_TRIALS,
            seed,
        )
        .with_threads(1);
        State {
            grid,
            batches,
            controller,
            cycles: 0,
            seed,
            words: Vec::new(),
            last_refit: None,
            ssd_t0: f64::NAN,
        }
    }

    /// Simulate grid cell `i`; returns trials run.
    fn simulate(&mut self, i: usize, tr: &mut Tracer) -> u64 {
        let cell = &self.grid[i];
        let seed = self.seed ^ (self.cycles << 8) ^ i as u64;
        let tv = tr.span(span_of(cell.profile, cell.cfg.n()), || {
            TVisibility::simulate(cell.model.as_ref(), TRIALS, seed)
        });
        let t0 = tv.prob_consistent(0.0);
        if cell.profile == ProductionProfile::LnkdSsd
            && cell.cfg.n() == 3
            && cell.cfg.r() == 1
            && cell.cfg.w() == 1
        {
            self.ssd_t0 = t0;
        }
        self.words
            .extend([t0.to_bits(), tv.read_latency_percentile(99.9).to_bits()]);
        TRIALS as u64
    }

    /// One refit: ingest the next batch, re-optimise. Returns 1 (one refit).
    fn refit(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let b = &self.batches[self.cycles as usize % BATCHES];
        tr.span("predictor.observe_many", || {
            self.controller.observe_many(&b.w, &b.a, &b.r, &b.s)
        });
        let report = tr
            .span("predictor.reoptimize", || self.controller.reoptimize())
            .map_err(|e| format!("reoptimize failed: {e}"))?;
        self.words.push(report.evaluations.len() as u64);
        self.words
            .extend(report.best_config().map(|e| e.consistency.to_bits()));
        self.last_refit = Some(report);
        Ok(1)
    }

    /// The whole cycle, untimed (warm-up pass).
    fn warm_cycle(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for i in 0..self.grid.len() {
            self.simulate(i, tr);
        }
        self.refit(tr)?;
        self.cycles += 1;
        Ok(())
    }

    /// Semantic gate on the latest results — windows, not golden bits, so a
    /// change that legitimately reorders RNG draws still passes.
    fn gate(&self) -> Result<(), String> {
        let (lo, hi) = SSD_T0_WINDOW;
        if !(lo..=hi).contains(&self.ssd_t0) {
            return Err(format!(
                "LNKD-SSD (3,1,1) P(consistent, t=0) = {:.4}, outside [{lo}, {hi}]",
                self.ssd_t0
            ));
        }
        let report = self.last_refit.as_ref().ok_or("no refit ran")?;
        let best = report
            .best_config()
            .ok_or("reoptimize found no configuration meeting the SLA")?;
        if !best.meets_sla || best.consistency < SLA_PROBABILITY {
            return Err(format!(
                "reoptimize returned a configuration that misses its SLA: {best:?}"
            ));
        }
        Ok(())
    }
}

/// A strict quorum (R + W > N) must be consistent at t = 0 on every trial.
fn strict_control(seed: u64) -> Result<(), String> {
    let cfg = ReplicaConfig::new(3, 2, 2).expect("valid config");
    let tv = TVisibility::simulate(&production::lnkd_ssd_model(cfg), TRIALS, seed);
    if tv.prob_consistent(0.0) != 1.0 {
        return Err(format!(
            "strict (3,2,2) control read {} at t=0",
            tv.prob_consistent(0.0)
        ));
    }
    Ok(())
}

/// Entry point of `wars_predict`.
pub fn run(h: &mut Harness) -> Result<Outcome, String> {
    let seed = h.seed();
    let mut warm = Ok(());
    let mut st = h.set_up(|tr| {
        let mut st = tr.span("wars.build_models", || State::build(seed));
        warm = st.warm_cycle(tr);
        let digest = fnv(fnv_start(), &st.words);
        st.words.clear();
        (st, digest)
    })?;
    warm?;
    st.gate()?;

    let cells = st.grid.len();
    let (mut trials, mut refits, mut failed) = (0u64, 0u64, 0u64);
    let mut configs_evaluated = 0usize;

    h.begin_measure();
    while h.next_round() {
        for i in 0..cells {
            trials += h.slice(Phase::Wars, |tr| st.simulate(i, tr));
        }
        let mut refit = Ok(0);
        h.slice(Phase::Refit, |tr| {
            refit = st.refit(tr);
            1
        });
        refits += refit?;
        if h.instrumented() {
            // The cheap in-loop query, for `predictor.predict_ms`.
            let cfg = ReplicaConfig::new(3, 1, 1).expect("valid config");
            if h.tr
                .span("predictor.predict", || st.controller.predict(cfg))
                .is_err()
            {
                failed += 1;
            }
        }
        st.gate()?;
        st.cycles += 1;
        configs_evaluated = st.last_refit.as_ref().map_or(0, |r| r.evaluations.len());
        let words = std::mem::take(&mut st.words);
        h.digest_push(&words);
    }
    h.end_measure();
    h.tr.span("gate", || strict_control(seed))?;

    // ---- per-layer readings ----
    for (span, name) in [
        ("wars.simulate.lnkd_ssd", "wars.trial_ns.lnkd_ssd"),
        ("wars.simulate.lnkd_disk", "wars.trial_ns.lnkd_disk"),
        ("wars.simulate.ymmr", "wars.trial_ns.ymmr"),
        ("wars.simulate.wan", "wars.trial_ns.wan"),
        ("wars.simulate.n10", "wars.trial_ns.n10"),
    ] {
        h.set_layer(name, h.tr.of(span).mean_ns() / TRIALS as f64);
    }
    h.set_layer(
        "predictor.observe_ns_per_sample",
        h.tr.of("predictor.observe_many").mean_ns() / (4 * REFIT_WINDOW) as f64,
    );
    h.set_layer(
        "predictor.predict_ms",
        h.tr.of("predictor.predict").mean_ns() / 1e6,
    );
    h.set_layer(
        "predictor.reoptimize_ms",
        h.tr.of("predictor.reoptimize").mean_ns() / 1e6,
    );
    h.set_layer("predictor.configs_evaluated", configs_evaluated as f64);

    // One operation = one simulate call or one refit.
    Ok(Outcome {
        attempted: trials / TRIALS as u64 + refits,
        failed,
        modelled_timeouts: 0,
    })
}
