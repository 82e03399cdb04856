//! The metric vocabulary: every name the benchmark can print, with unit,
//! direction, and (for end-to-end metrics) the regression bound.
//!
//! `BENCHMARK.json` at the repo root is rendered from these tables (a test
//! compares them byte for byte), so a metric exists in exactly one place.
//! The driver's contract makes every workload print every end-to-end metric,
//! so those four are *workload-generic*; what each means on each workload is
//! in [`crate::workloads`] and the README glossary.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger readings are better.
    Higher,
    /// Smaller readings are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name (`[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters).
    pub name: &'static str,
    /// Unit (at most 16 characters).
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median; `None` for
    /// per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

/// Work units per calibrated second.
pub const WORK_PER_CAL_S: &str = "work_per_cal_s";
/// Median calibrated latency of the workload's user-visible step.
pub const STEP_CAL_MS: &str = "step_cal_ms";
/// `VmHWM` when the prefix rounds complete.
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
/// Median calibrated set-up time.
pub const SETUP_S: &str = "setup_s";

/// End-to-end metrics — what a user of the toolkit sees. Printed by the
/// untraced `perf-record` binary only.
///
/// Each bound is at least three times the widest inter-quartile spread the
/// metric showed over ten seeds on this class of host, neighbours busy
/// included (`NOISE.md`): 6.0% for the rate, 5.9% for the step, 6.4% for
/// memory (the seeds move it, not the host), 8.6% for set-up (capped at the
/// contract's 25%). The rate's bound also has to cover `scale100k` reading
/// 13–15% apart between a loaded and a quiet half hour.
pub const END_TO_END: &[MetricDef] = &[
    e2e(WORK_PER_CAL_S, "1/cal_s", Better::Higher, 0.20),
    e2e(STEP_CAL_MS, "cal_ms", Better::Lower, 0.20),
    e2e(PEAK_RSS_MB, "MiB", Better::Lower, 0.20),
    e2e(SETUP_S, "s", Better::Lower, 0.25),
];

/// Per-layer metrics — printed by the traced run, never gated. Layer =
/// crate/module name. Which workload fills which metric (the others read 0)
/// and which end-to-end metric each should move is in the README glossary.
pub const PER_LAYER: &[MetricDef] = &[
    // pbs-sim
    lo("sim.events_per_op", "count"),
    hi("sim.events_per_cal_s", "1/cal_s"),
    lo("sim.queue.hold_ns", "ns"),
    lo("sim.queue.peak_pending", "count"),
    lo("sim.queue.cascaded_per_event", "count"),
    lo("sim.engine.dispatch_ns", "ns"),
    lo("sim.pdes.w1_ratio", "ratio"),
    lo("sim.pdes.w2_ratio", "ratio"),
    lo("sim.pdes.windows", "count"),
    lo("sim.pdes.sent_remote", "count"),
    hi("sim.pdes.events_per_window", "count"),
    // pbs-dist
    lo("dist.exp_sample_ns", "ns"),
    lo("dist.pareto_sample_ns", "ns"),
    lo("dist.lnkd_disk_sample_ns", "ns"),
    lo("dist.empirical_sample_ns", "ns"),
    // pbs-mc
    lo("mc.sketch_record_ns", "ns"),
    lo("mc.sketch_quantile_ns", "ns"),
    hi("mc.runner_2t_speedup", "ratio"),
    // pbs-workload
    lo("workload.opstream_next_ns", "ns"),
    lo("workload.shared_zipf_next_ns", "ns"),
    // pbs-kvs: cluster, network, staleness, client, node
    lo("kvs.cluster.build_ms", "ms"),
    lo("kvs.cluster.add_clients_ms", "ms"),
    lo("kvs.cluster.start_ms", "ms"),
    lo("kvs.cluster.drain_ms", "ms"),
    lo("kvs.cluster.drain_ns_per_event", "ns"),
    lo("harness.fold_ms", "ms"),
    lo("kvs.history.take_ms", "ms"),
    lo("kvs.network.transmit_ns", "ns"),
    lo("kvs.network.transmit_storm_ns", "ns"),
    lo("kvs.staleness.ingest_label_ns", "ns"),
    lo("kvs.allocs_per_op", "count"),
    lo("kvs.alloc_bytes_per_op", "B"),
    lo("kvs.client.table_bytes_per_client", "B"),
    lo("kvs.steady_bytes_per_client", "B"),
    lo("kvs.bytes_per_key", "B"),
    lo("kvs.peak_live_mb", "MiB"),
    lo("kvs.node.repairs_per_op", "count"),
    lo("kvs.node.hints_per_op", "count"),
    lo("kvs.fail_frac", "ratio"),
    // pbs-kvs: the four checkers
    lo("kvs.checker.sessions_ns_per_op", "ns"),
    lo("kvs.checker.labels_ns_per_op", "ns"),
    lo("kvs.checker.order_ns_per_op", "ns"),
    lo("kvs.checker.lin_ns_per_op", "ns"),
    lo("kvs.checker.lin_keys", "count"),
    lo("kvs.checker.lin_violations", "count"),
    lo("kvs.checker.lin_exhausted", "count"),
    // pbs-wars
    lo("wars.trial_ns.lnkd_ssd", "ns"),
    lo("wars.trial_ns.lnkd_disk", "ns"),
    lo("wars.trial_ns.ymmr", "ns"),
    lo("wars.trial_ns.wan", "ns"),
    lo("wars.trial_ns.n10", "ns"),
    // pbs-predictor
    lo("predictor.observe_ns_per_sample", "ns"),
    lo("predictor.predict_ms", "ms"),
    lo("predictor.reoptimize_ms", "ms"),
    lo("predictor.configs_evaluated", "count"),
    // pbs-scenario: the §6 loop end to end
    lo("scenario.latency_spike_s", "s"),
    lo("scenario.track_err", "ratio"),
    // the issue's phase-named rates, from the traced run's instrumented rounds
    hi("sim_ops_per_cal_s", "1/cal_s"),
    hi("audit_ops_per_cal_s", "1/cal_s"),
    hi("wars_trials_per_cal_s", "1/cal_s"),
    lo("refit_cal_ms", "cal_ms"),
    // raw twins, tails and host readings: explain a number, never gate it
    hi("work_per_s_raw", "1/s"),
    lo("step_ms_raw", "ms"),
    lo("step_tail_cal_ms", "cal_ms"),
    hi("step_tail_pct", "%"),
    hi("step_n", "count"),
    hi("rounds", "count"),
    lo("harness.setup_raw_s", "s"),
    lo("host.cal_ns_per_step.mem", "ns"),
    lo("host.cal_ns_per_step.fp", "ns"),
    lo("host.cal_spread", "ratio"),
    lo("host.steal_frac", "ratio"),
    lo("trace.overhead_frac", "ratio"),
];

/// Whether `name` is a legal metric/workload name under the driver's
/// contract: starts with a letter or digit, then letters, digits, `_`, `.`,
/// `-`; at most 64 characters.
pub fn is_legal_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: letters, digits, `_`, `/`, `%`, `.`, `-`;
/// 1 to 16 characters.
pub fn is_legal_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_legal_name(m.name), "illegal name {:?}", m.name);
            assert!(
                is_legal_unit(m.unit),
                "illegal unit {:?} on {}",
                m.unit,
                m.name
            );
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == SETUP_S)
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the widest bound");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn name_syntax_rejects_what_the_driver_rejects() {
        for bad in ["", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!is_legal_name(bad), "{bad:?}");
        }
        assert!(is_legal_name("kvs.checker.lin_ns_per_op") && is_legal_name("9lives-ok_1"));
        assert!(is_legal_unit("1/cal_s") && is_legal_unit("%") && !is_legal_unit(""));
        assert!(!is_legal_unit("seventeen-chars-x"));
    }
}
