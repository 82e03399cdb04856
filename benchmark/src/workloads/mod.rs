//! The four workloads, and what the four end-to-end metrics mean on each.
//!
//! All four are open loop: clients issue Poisson arrivals in *simulated*
//! time whatever the host does, so the offered load is the achieved load and
//! nothing is shed; the host's speed only decides how long the simulation
//! takes, which is the thing measured.
//!
//! | workload | `work_per_cal_s` | `step_cal_ms` | layers that do no work |
//! |---|---|---|---|
//! | `steady64` | client ops ÷ time in drain + fold | one 500 ms window | checker, wars, predictor, client-table scale paths |
//! | `scale100k` | same | one 100 ms window | checker, wars, predictor |
//! | `storm_audit` | same, under a fault storm with history on | one `check_run` of a ~20k-op history | wars, predictor |
//! | `wars_predict` | WARS trials ÷ time in `TVisibility::simulate` | one `observe_many` + `reoptimize` | sim, kvs, workload |

pub mod open_loop;
pub mod storm_audit;
pub mod wars_predict;

use crate::calib::Kernel;
use crate::harness::{Harness, Phase, WorkloadDef};
use pbs_kvs::WindowDrain;
use pbs_mc::Summary;

/// Running totals of everything drained — the harness-side fold, shaped
/// like `run_open_loop`'s so the slice costs what a user's run costs.
#[derive(Debug, Default)]
pub(crate) struct Totals {
    pub(crate) commits: u64,
    pub(crate) failed_writes: u64,
    pub(crate) reads: u64,
    pub(crate) consistent: u64,
    pub(crate) incomplete_reads: u64,
    pub(crate) versions_behind: u64,
    pub(crate) write_latency: Summary,
    pub(crate) read_latency: Summary,
}

impl Totals {
    /// Fold one window; returns the operations it completed.
    pub(crate) fn fold(&mut self, drain: &WindowDrain) -> u64 {
        let before = self.commits + self.reads;
        for w in &drain.writes {
            match (w.commit, w.finish) {
                (Some(_), Some(finish)) => {
                    self.commits += 1;
                    self.write_latency.record((finish - w.start).as_ms());
                }
                _ => self.failed_writes += 1,
            }
        }
        for r in &drain.reads {
            match (r.label, r.op.finish) {
                (Some(label), Some(finish)) => {
                    self.reads += 1;
                    if label.consistent {
                        self.consistent += 1;
                    } else {
                        self.versions_behind += label.versions_behind;
                    }
                    self.read_latency.record((finish - r.op.start).as_ms());
                }
                _ => self.incomplete_reads += 1,
            }
        }
        self.commits + self.reads - before
    }

    pub(crate) fn words(&self) -> [u64; 6] {
        [
            self.commits,
            self.failed_writes,
            self.reads,
            self.consistent,
            self.incomplete_reads,
            self.versions_behind,
        ]
    }
}

/// Per-layer readings every cluster-driving workload takes from its spans:
/// mean cost of building, populating and starting a cluster (set-ups
/// included), and of one drain and one fold (measured rounds only).
/// `traced_events` is the events dispatched inside the measured drain spans.
pub(crate) fn record_cluster_spans(h: &mut Harness, traced_events: u64) {
    let ms = |h: &Harness, span: &str| h.tr.of(span).mean_ns() / 1e6;
    for (span, name) in [
        ("kvs.cluster.build", "kvs.cluster.build_ms"),
        ("kvs.cluster.add_clients", "kvs.cluster.add_clients_ms"),
        ("kvs.cluster.start", "kvs.cluster.start_ms"),
    ] {
        let value = ms(h, span);
        h.set_layer(name, value);
    }
    let drain = h.tr.of_measured("kvs.cluster.drain");
    let fold = h.tr.of_measured("harness.fold");
    h.set_layer("kvs.cluster.drain_ms", drain.mean_ns() / 1e6);
    h.set_layer(
        "kvs.cluster.drain_ns_per_event",
        drain.total_ns as f64 / traced_events.max(1) as f64,
    );
    h.set_layer("harness.fold_ms", fold.mean_ns() / 1e6);
}

/// The historical headline shape: everything cache-resident.
pub const STEADY64: WorkloadDef = WorkloadDef {
    name: "steady64",
    why: "64 boxed clients on 3 nodes over 64 keys: cache-resident, so time is scheduler + node \
          handlers + latency sampling + network decision; checkers, WARS, client-table scale paths idle",
    kernel: Kernel::Mem,
    work_phase: Phase::Sim,
    step_phase: Phase::Sim,
    prefix_rounds: 200,
    setup_reps: 11,
    run: open_loop::run_steady64,
};

/// The million-client path at a size that leaves the caches.
pub const SCALE100K: WorkloadDef = WorkloadDef {
    name: "scale100k",
    why: "100k shared-source clients over 1M Zipf keys on 8 nodes: SoA client tables, O(1) Zipf and \
          GC'd ground truth dominate and the working set leaves the caches; memory and set-up matter most",
    kernel: Kernel::Mem,
    work_phase: Phase::Sim,
    step_phase: Phase::Sim,
    prefix_rounds: 20,
    setup_reps: 7,
    run: open_loop::run_scale100k,
};

/// Simulate under a fault storm with history on, then audit the history.
pub const STORM_AUDIT: WorkloadDef = WorkloadDef {
    name: "storm_audit",
    why: "write-heavy cycles under a fault storm with a crash, repair, hints and history on, each \
          audited by check_run: the same kvs layer used differently, and the only workload where the four checkers work",
    kernel: Kernel::Mem,
    work_phase: Phase::Sim,
    step_phase: Phase::Audit,
    prefix_rounds: 20,
    setup_reps: 21,
    run: storm_audit::run,
};

/// The paper's own artefact: WARS Monte-Carlo and the §6 refit.
pub const WARS_PREDICT: WorkloadDef = WorkloadDef {
    name: "wars_predict",
    why: "WARS t-visibility over the four production fits x four configs, then an online refit: dist, mc, \
          wars, predictor do everything and sim/kvs nothing, so a simulator change must read no change here",
    kernel: Kernel::Fp,
    work_phase: Phase::Wars,
    step_phase: Phase::Refit,
    prefix_rounds: 4,
    setup_reps: 7,
    run: wars_predict::run,
};

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [&WorkloadDef; 4] = [&STEADY64, &SCALE100K, &STORM_AUDIT, &WARS_PREDICT];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static WorkloadDef> {
    ALL.iter().copied().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::is_legal_name;

    #[test]
    fn workload_table_fits_the_contract() {
        assert!((2..=8).contains(&ALL.len()));
        for w in ALL {
            assert!(is_legal_name(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
            assert!(w.prefix_rounds >= 1);
            assert!(
                w.setup_reps >= 3,
                "setup_s must be a median of several set-ups"
            );
            assert_eq!(by_name(w.name).map(|found| found.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }
}
