//! The measuring loop shared by the four workloads.
//!
//! One process, one harness thread. A run is:
//!
//! 1. a fixed burst warm-up (the host's clock ramps, the kernel state warms);
//! 2. several set-ups ([`WorkloadDef::setup_reps`]) — build the workload from nothing and run its
//!    untimed warm-up pass — each bracketed by calibration bursts;
//!    `setup_s` is the median calibrated time of one;
//! 3. the measured loop: **rounds** (a window, or a simulate-and-audit cycle)
//!    made of timed **slices**, one calibration burst before every slice and
//!    one after the last, until `--seconds` of wall time have passed (or
//!    exactly `--rounds` rounds, for tests);
//! 4. the workload's correctness gate, then the result line.
//!
//! Work per round is fixed and seeded; only the *number* of rounds depends on
//! the clock. Everything that must repeat exactly for a seed — the digest,
//! the counts marked `=` in the README — is therefore taken over the first
//! [`WorkloadDef::prefix_rounds`] rounds, which every full-length run
//! completes.

use crate::alloc;
use crate::calib::{Calibrator, Kernel};
use crate::metrics::{self, MetricDef};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Bursts on each side of a set-up. A set-up is one long untimed-inside
/// span, so unlike a slice it cannot lean on its neighbours' bursts; four a
/// side keep its own host reading steady.
pub const SETUP_BURSTS: usize = 4;
/// Untimed bursts before anything is measured (~0.4 s).
pub const RAMP_BURSTS: usize = 250;

/// What a timed slice spent its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// `Cluster::drain_window_into` + the harness fold. Work unit: completed
    /// client operations (commits + labelled reads).
    Sim,
    /// `checker::check_run` on a recorded history. Work unit: history ops.
    Audit,
    /// `TVisibility::simulate`. Work unit: WARS trials.
    Wars,
    /// `AdaptiveController::observe_many` + `reoptimize`. Work unit: refits.
    Refit,
}

impl Phase {
    /// Every phase.
    pub const ALL: [Phase; 4] = [Phase::Sim, Phase::Audit, Phase::Wars, Phase::Refit];

    /// The per-layer metric that carries this phase's own reading (the
    /// issue's phase-named metrics): a rate, or for a refit its latency.
    fn layer_metric(self) -> &'static str {
        match self {
            Phase::Sim => "sim_ops_per_cal_s",
            Phase::Audit => "audit_ops_per_cal_s",
            Phase::Wars => "wars_trials_per_cal_s",
            Phase::Refit => "refit_cal_ms",
        }
    }

    /// Span name of a slice of this phase.
    pub fn span(self) -> &'static str {
        match self {
            Phase::Sim => "slice.sim",
            Phase::Audit => "slice.audit",
            Phase::Wars => "slice.wars",
            Phase::Refit => "slice.refit",
        }
    }
}

/// Static description of a workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// Kernel that calibrates it.
    pub kernel: Kernel,
    /// Phase whose work ÷ time is `work_per_cal_s`.
    pub work_phase: Phase,
    /// Phase whose median slice time is `step_cal_ms`.
    pub step_phase: Phase,
    /// Rounds over which the digest and the exact counts are taken.
    pub prefix_rounds: u32,
    /// Set-ups per run; `setup_s` is their median. More for a workload whose
    /// set-up is short (a 0.08 s set-up read seven times spread 12% across
    /// ten seeds), fewer for one whose set-up is long.
    pub setup_reps: usize,
    /// Entry point.
    pub run: fn(&mut Harness) -> Result<Outcome, String>,
}

/// What a workload hands back after passing its gate.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Operations attempted by the measured instance.
    pub attempted: u64,
    /// Operations the toolkit failed to complete or verify — the result
    /// line's `failed`. Zero on every workload unless something is broken.
    pub failed: u64,
    /// Simulated client operations that timed out *because the workload
    /// injects faults* (`storm_audit`): the modelled store behaving as
    /// modelled, deterministic per seed, audited by the checker. Printed in
    /// the text block's `ops_failed` next to `failed`, so the failed share
    /// stays comparable across commits, but not counted as benchmark
    /// failures.
    pub modelled_timeouts: u64,
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload.
    pub workload: &'static WorkloadDef,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall seconds of the measured loop.
    pub seconds: f64,
    /// Print per-layer metrics.
    pub trace: bool,
    /// 1/20 of the work.
    pub quick: bool,
    /// Exact round count (overrides the clock).
    pub rounds: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Slice {
    phase: Phase,
    ns: u64,
    work: u64,
    /// Index of the burst before the slice; the one after is `burst + 1`.
    burst: usize,
    round: u32,
    traced: bool,
}

/// Summary of one phase's slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Slices.
    pub n: usize,
    /// Σ work.
    pub work: u64,
    /// Σ work ÷ Σ wall seconds.
    pub raw_rate: f64,
    /// Σ work ÷ Σ locally calibrated seconds.
    pub cal_rate: f64,
    /// Median wall ms per slice.
    pub raw_median_ms: f64,
    /// Median locally calibrated ms per slice.
    pub cal_median_ms: f64,
    /// The highest percentile with at least ten slices beyond it…
    pub tail_pct: f64,
    /// …and the calibrated ms there.
    pub tail_cal_ms: f64,
}

/// The result of a finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// Rounds completed.
    pub rounds: u32,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Simulated operations timed out under injected faults.
    pub modelled_timeouts: u64,
    /// Digest of the deterministic counters of the prefix rounds.
    pub digest: u64,
    /// Digest of the warm-up pass (identical across the set-up repetitions).
    pub warm_digest: u64,
    /// Whether the run did 1/20 of the work.
    pub quick: bool,
    /// Whether per-layer metrics are the ones to print.
    pub trace: bool,
    /// Every metric measured, by name.
    pub values: BTreeMap<&'static str, f64>,
}

/// The measuring loop's state.
#[derive(Debug)]
pub struct Harness {
    spec: RunSpec,
    cal: Calibrator,
    /// Span recorder (inert in `perf-record`).
    pub tr: Tracer,
    process_start: Instant,
    slices: Vec<Slice>,
    setup_cal_s: Vec<f64>,
    warm_digest: u64,
    measure_start: Option<Instant>,
    first_burst: usize,
    last_burst: usize,
    setup_raw_s: f64,
    rounds: u32,
    digest: u64,
    steal_start: Option<(u64, u64)>,
    /// `VmHWM` when the prefix rounds completed.
    prefix_rss_mb: Option<f64>,
    layer: BTreeMap<&'static str, f64>,
}

/// Median of an ascending slice (0 when empty).
pub(crate) fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() >= 8).then(|| (fields[7], fields.iter().take(8).sum()))
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
pub fn fnv(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A fresh digest accumulator.
pub fn fnv_start() -> u64 {
    FNV_OFFSET
}

impl Harness {
    /// Start a run: note the process start, build the calibrator for the
    /// workload's kernel, and ramp.
    pub fn new(spec: RunSpec, instrumented: bool) -> Self {
        let process_start = Instant::now();
        let mut cal = Calibrator::new(spec.workload.kernel);
        cal.warm_up(if spec.quick {
            RAMP_BURSTS / 20
        } else {
            RAMP_BURSTS
        });
        Self {
            cal,
            tr: Tracer::new(instrumented),
            process_start,
            slices: Vec::new(),
            setup_cal_s: Vec::new(),
            warm_digest: 0,
            measure_start: None,
            first_burst: 0,
            last_burst: 0,
            setup_raw_s: 0.0,
            rounds: 0,
            digest: fnv_start(),
            steal_start: None,
            prefix_rss_mb: None,
            layer: BTreeMap::new(),
            spec,
        }
    }

    /// The run's parameters.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// The seed.
    pub fn seed(&self) -> u64 {
        self.spec.seed
    }

    /// The workload's prefix length; a twentieth of it (at least 1) under
    /// `--quick`.
    fn prefix_rounds(&self) -> u32 {
        let full = self.spec.workload.prefix_rounds;
        if self.spec.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }

    fn burst(&mut self) -> usize {
        let open = self.tr.begin("host.calib.burst");
        let index = self.cal.burst();
        self.tr.end(open);
        index
    }

    /// Build the workload [`WorkloadDef::setup_reps`] times (once under `--quick`) and
    /// keep the last. `build` constructs everything from the seed, runs the
    /// untimed warm-up pass, and returns the state with a digest of that
    /// pass; the digests of all repetitions must agree (same seed ⇒ same
    /// simulated history), which is the run's built-in determinism gate.
    pub fn set_up<S>(
        &mut self,
        mut build: impl FnMut(&mut Tracer) -> (S, u64),
    ) -> Result<S, String> {
        alloc::set_counting(self.tr.enabled());
        let reps = if self.spec.quick {
            1
        } else {
            self.spec.workload.setup_reps
        };
        let mut state = None;
        for rep in 0..reps {
            // At most one instance alive: peak RSS must describe one
            // workload, not two overlapping set-ups.
            if let Some(previous) = state.take() {
                self.tr.span("harness.teardown", || drop(previous));
            }
            let before = self.burst();
            for _ in 1..SETUP_BURSTS {
                self.burst();
            }
            let open = self.tr.begin("harness.setup");
            let start = Instant::now();
            let (s, digest) = build(&mut self.tr);
            let raw_s = start.elapsed().as_secs_f64();
            self.tr.end(open);
            let mut after = self.burst();
            for _ in 1..SETUP_BURSTS {
                after = self.burst();
            }
            self.setup_cal_s
                .push(raw_s / self.cal.host_factor(before, after));
            if rep > 0 && digest != self.warm_digest {
                return Err(format!(
                    "warm-up pass is not deterministic: digest {:#018x} then {digest:#018x}",
                    self.warm_digest
                ));
            }
            self.warm_digest = digest;
            state = Some(s);
        }
        Ok(state.expect("at least one set-up repetition"))
    }

    /// Start the measured loop's clock.
    pub fn begin_measure(&mut self) {
        self.setup_raw_s = self.process_start.elapsed().as_secs_f64();
        self.steal_start = cpu_jiffies();
        self.first_burst = self.cal.burst_count();
        self.measure_start = Some(Instant::now());
    }

    /// Whether another round should run; if so, makes it the current round:
    /// tags spans with it and switches instrumentation on (every prefix
    /// round, then every other round — the bare ones price the tracing).
    pub fn next_round(&mut self) -> bool {
        let start = self.measure_start.expect("begin_measure before next_round");
        let more = match self.spec.rounds {
            Some(limit) => self.rounds < limit,
            None => {
                let seconds = if self.spec.quick {
                    self.spec.seconds / 20.0
                } else {
                    self.spec.seconds
                };
                self.rounds == 0 || start.elapsed().as_secs_f64() < seconds
            }
        };
        // Peak memory is read after a fixed amount of work, not at exit: the
        // number of rounds a run fits into `--seconds` follows the host's
        // speed, and any per-operation growth would turn that into noise.
        if self.rounds == self.prefix_rounds() || (!more && self.prefix_rss_mb.is_none()) {
            self.prefix_rss_mb = peak_rss_mb();
        }
        if more {
            let round = self.rounds;
            self.rounds += 1;
            let instrument = round < self.prefix_rounds() || round.is_multiple_of(2);
            self.tr.set_round(round);
            self.tr.set_active(instrument);
            alloc::set_counting(self.tr.active());
        }
        more
    }

    /// Index of the current round.
    pub fn round(&self) -> u32 {
        self.rounds.saturating_sub(1)
    }

    /// Whether the current round is one of the prefix rounds, over which
    /// exact counts and the digest are taken.
    pub fn in_prefix(&self) -> bool {
        self.rounds >= 1 && self.round() < self.prefix_rounds()
    }

    /// Whether the current round records spans and counts allocations.
    pub fn instrumented(&self) -> bool {
        self.tr.active()
    }

    /// Fold `words` into the run digest (prefix rounds only).
    pub fn digest_push(&mut self, words: &[u64]) {
        if self.in_prefix() {
            self.digest = fnv(self.digest, words);
        }
    }

    /// One timed slice: a calibration burst, then `f`, which returns the
    /// work it completed. Only the closure is timed.
    pub fn slice(&mut self, phase: Phase, f: impl FnOnce(&mut Tracer) -> u64) -> u64 {
        let burst = self.burst();
        let open = self.tr.begin(phase.span());
        let start = Instant::now();
        let work = f(&mut self.tr);
        let ns = start.elapsed().as_nanos() as u64;
        self.tr.end(open);
        self.slices.push(Slice {
            phase,
            ns,
            work,
            burst,
            round: self.round(),
            traced: self.tr.active(),
        });
        work
    }

    /// Close the measured loop: the burst after the last slice.
    pub fn end_measure(&mut self) {
        self.last_burst = self.burst();
        self.tr.set_active(true);
        if let (Some((s0, t0)), Some((s1, t1))) = (self.steal_start, cpu_jiffies()) {
            let frac = if t1 > t0 {
                (s1 - s0) as f64 / (t1 - t0) as f64
            } else {
                0.0
            };
            self.layer.insert("host.steal_frac", frac);
        }
    }

    /// Record a per-layer reading.
    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            metrics::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in metrics::PER_LAYER"
        );
        self.layer.insert(name, value);
    }

    /// A per-layer reading recorded earlier.
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layer.get(name).copied()
    }

    fn local_cal_ns(&self, s: &Slice) -> f64 {
        s.ns as f64 / self.cal.host_factor(s.burst, s.burst + 1)
    }

    /// Summarise the slices of `phase` that satisfy `keep`.
    fn stats_where(&self, phase: Phase, keep: impl Fn(&Slice) -> bool) -> PhaseStats {
        let picked: Vec<&Slice> = self
            .slices
            .iter()
            .filter(|s| s.phase == phase && keep(s))
            .collect();
        if picked.is_empty() {
            return PhaseStats::default();
        }
        let work: u64 = picked.iter().map(|s| s.work).sum();
        let raw_ns: f64 = picked.iter().map(|s| s.ns as f64).sum();
        let mut cal_ms: Vec<f64> = picked.iter().map(|s| self.local_cal_ns(s) / 1e6).collect();
        let cal_ns: f64 = cal_ms.iter().sum::<f64>() * 1e6;
        let mut raw_ms: Vec<f64> = picked.iter().map(|s| s.ns as f64 / 1e6).collect();
        cal_ms.sort_by(f64::total_cmp);
        raw_ms.sort_by(f64::total_cmp);
        let n = picked.len();
        // The highest percentile that still has ten samples beyond it; with
        // fewer than twenty slices that is no higher than the median.
        let beyond = 10.min(n / 2);
        let tail_index = n - 1 - beyond;
        PhaseStats {
            n,
            work,
            raw_rate: work as f64 / (raw_ns / 1e9),
            cal_rate: work as f64 / (cal_ns / 1e9),
            raw_median_ms: median(&raw_ms),
            cal_median_ms: median(&cal_ms),
            tail_pct: 100.0 * (tail_index + 1) as f64 / n as f64,
            tail_cal_ms: cal_ms[tail_index],
        }
    }

    /// Summary of every slice of `phase`.
    pub fn stats(&self, phase: Phase) -> PhaseStats {
        self.stats_where(phase, |_| true)
    }

    /// Σ calibrated seconds of the slices of `phase` in prefix rounds — the
    /// denominator that matches the exact prefix counts.
    pub fn prefix_cal_s(&self, phase: Phase) -> f64 {
        let prefix = self.prefix_rounds();
        self.slices
            .iter()
            .filter(|s| s.phase == phase && s.round < prefix)
            .map(|s| self.local_cal_ns(s) / 1e9)
            .sum()
    }

    /// Cost of instrumented rounds over what the same work costs in bare
    /// rounds, minus one — over the rounds after the prefix, where the two
    /// alternate.
    fn trace_overhead(&self) -> f64 {
        let prefix = self.prefix_rounds();
        let mut traced_cal_ns = 0.0;
        let mut predicted_bare_ns = 0.0;
        for phase in Phase::ALL {
            let bare = self.stats_where(phase, |s| s.round >= prefix && !s.traced);
            let traced = self.stats_where(phase, |s| s.round >= prefix && s.traced);
            if bare.work == 0 || traced.work == 0 {
                continue;
            }
            traced_cal_ns += traced.work as f64 / traced.cal_rate;
            predicted_bare_ns += traced.work as f64 / bare.cal_rate;
        }
        if predicted_bare_ns > 0.0 {
            traced_cal_ns / predicted_bare_ns - 1.0
        } else {
            0.0
        }
    }

    /// Turn the finished run into its report: the four end-to-end metrics,
    /// plus every generic per-layer reading the harness itself owns.
    pub fn finish(mut self, outcome: Outcome) -> Result<(Report, Tracer), String> {
        if self.tr.dropped() > 0 {
            return Err(format!(
                "{} spans lost to the raw-span cap",
                self.tr.dropped()
            ));
        }
        let def = self.spec.workload;
        let work = self.stats(def.work_phase);
        let step = self.stats(def.step_phase);
        if work.work == 0 || step.n == 0 {
            return Err("no timed work was recorded".into());
        }
        let mut setups = self.setup_cal_s.clone();
        setups.sort_by(f64::total_cmp);
        let rss = self
            .prefix_rss_mb
            .ok_or("cannot read VmHWM from /proc/self/status")?;

        let mut values = std::mem::take(&mut self.layer);
        values.insert(metrics::WORK_PER_CAL_S, work.cal_rate);
        values.insert(metrics::STEP_CAL_MS, step.cal_median_ms);
        values.insert(metrics::PEAK_RSS_MB, rss);
        values.insert(metrics::SETUP_S, median(&setups));

        values.insert("work_per_s_raw", work.raw_rate);
        values.insert("step_ms_raw", step.raw_median_ms);
        values.insert("step_tail_cal_ms", step.tail_cal_ms);
        values.insert("step_tail_pct", step.tail_pct);
        values.insert("step_n", step.n as f64);
        values.insert("rounds", self.rounds as f64);
        values.insert("harness.setup_raw_s", self.setup_raw_s);
        let ns_per_step = self.cal.host_factor(self.first_burst, self.last_burst)
            * def.kernel.reference_ns_per_step();
        values.insert(
            match def.kernel {
                Kernel::Mem => "host.cal_ns_per_step.mem",
                Kernel::Fp => "host.cal_ns_per_step.fp",
            },
            ns_per_step,
        );
        values.insert("host.cal_spread", self.cal.spread());
        values.insert("trace.overhead_frac", self.trace_overhead());
        // The issue's phase-named metrics, from instrumented slices only in
        // a traced run (all slices otherwise).
        let instrumented = self.tr.enabled();
        for phase in Phase::ALL {
            let s = self.stats_where(phase, |s| s.traced || !instrumented);
            if s.n > 0 {
                let reading = if phase == Phase::Refit {
                    s.cal_median_ms
                } else {
                    s.cal_rate
                };
                values.insert(phase.layer_metric(), reading);
            }
        }

        let report = Report {
            workload: def.name,
            seed: self.spec.seed,
            rounds: self.rounds,
            attempted: outcome.attempted,
            failed: outcome.failed,
            modelled_timeouts: outcome.modelled_timeouts,
            digest: self.digest,
            warm_digest: self.warm_digest,
            quick: self.spec.quick,
            trace: self.spec.trace,
            values,
        };
        Ok((report, self.tr))
    }
}

fn json_number(v: f64) -> String {
    // `{}` on an f64 prints the shortest decimal that round-trips: every
    // digit measured, and always a valid JSON number for finite input.
    assert!(v.is_finite(), "metric is not finite");
    format!("{v}")
}

impl Report {
    fn defs(&self) -> &'static [MetricDef] {
        if self.trace {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        }
    }

    /// A metric's value (0 when this workload does not fill it).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The human-readable block printed above the result line.
    pub fn text(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "workload={} seed={} rounds={} ops_attempted={} ops_failed={} modelled_timeouts={} \
             digest={:016x} warm_digest={:016x} quick={}",
            self.workload,
            self.seed,
            self.rounds,
            self.attempted,
            self.failed + self.modelled_timeouts,
            self.modelled_timeouts,
            self.digest,
            self.warm_digest,
            self.quick
        )
        .unwrap();
        if self.quick {
            writeln!(
                out,
                "\"quick\": true — 1/20 of the work; never compare these numbers"
            )
            .unwrap();
        }
        for m in self.defs() {
            writeln!(
                out,
                "  {:<36} {:>18.6} {:<8} ({} is better{})",
                m.name,
                self.value(m.name),
                m.unit,
                m.better.as_str(),
                m.bound
                    .map(|b| format!(", bound {:.0}%", b * 100.0))
                    .unwrap_or_default()
            )
            .unwrap();
        }
        if !self.trace {
            // Context a reader wants next to the end-to-end numbers.
            for name in [
                "work_per_s_raw",
                "step_ms_raw",
                "step_tail_cal_ms",
                "step_tail_pct",
                "step_n",
                "harness.setup_raw_s",
                "host.cal_ns_per_step.mem",
                "host.cal_ns_per_step.fp",
                "host.cal_spread",
            ] {
                writeln!(out, "  ~ {:<34} {:>18.6}", name, self.value(name)).unwrap();
            }
        }
        out
    }

    /// The result line the driver parses: exactly the keys `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.defs().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(self.value(m.name)),
                m.unit
            )
            .unwrap();
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        assert_ne!(fnv(fnv_start(), &[1, 2]), fnv(fnv_start(), &[2, 1]));
        assert_eq!(fnv(fnv(fnv_start(), &[1]), &[2]), fnv(fnv_start(), &[1, 2]));
        assert_eq!(fnv(fnv_start(), &[]), FNV_OFFSET);
    }

    #[test]
    fn proc_readings_are_available_on_linux() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.5));
        assert!(cpu_jiffies().is_some_and(|(steal, total)| steal <= total && total > 0));
    }
}
