//! Same seed ⇒ same simulated history, whichever binary runs it and however
//! often; different seed ⇒ a different one. And the span tree a traced run
//! leaves behind is well-formed.
//!
//! These run whole (short) workloads in-process; `instrumented = true` turns
//! the tracer on exactly as `perf-trace` does (the counting allocator is a
//! property of that binary, not of the workload code, and cannot change what
//! is simulated).

use pbs_perf::harness::{Report, RunSpec};
use pbs_perf::trace::Tracer;
use pbs_perf::workloads;

fn spec(workload: &'static pbs_perf::harness::WorkloadDef, seed: u64, rounds: u32) -> RunSpec {
    RunSpec {
        workload,
        seed,
        seconds: 1.0,
        trace: false,
        quick: true,
        rounds: Some(rounds),
    }
}

fn run(
    workload: &'static pbs_perf::harness::WorkloadDef,
    seed: u64,
    traced: bool,
) -> (Report, Tracer) {
    pbs_perf::run(spec(workload, seed, 3), traced)
        .unwrap_or_else(|e| panic!("{} seed {seed} failed its gate: {e}", workload.name))
}

#[test]
fn same_seed_same_digest_across_binaries_and_repeats() {
    for w in workloads::ALL {
        let (record, _) = run(w, 11, false);
        let (trace, _) = run(w, 11, true);
        let (again, _) = run(w, 11, false);
        assert_eq!(
            record.digest, trace.digest,
            "{}: perf-record vs perf-trace",
            w.name
        );
        assert_eq!(record.digest, again.digest, "{}: repeat", w.name);
        assert_eq!(
            record.warm_digest, trace.warm_digest,
            "{}: warm-up pass",
            w.name
        );
        assert_eq!(record.rounds, 3);
        assert_eq!(
            (record.attempted, record.failed),
            (trace.attempted, trace.failed)
        );
        assert!(record.attempted > 0 && record.failed == 0);
    }
}

#[test]
fn different_seed_different_digest() {
    for w in workloads::ALL {
        let (a, _) = run(w, 11, false);
        let (b, _) = run(w, 12, false);
        assert_ne!(
            a.digest, b.digest,
            "{}: the seed must reach the inputs",
            w.name
        );
        assert_ne!(a.warm_digest, b.warm_digest, "{}: warm-up pass", w.name);
    }
}

#[test]
fn warm_up_pass_repeats_across_set_up_repetitions() {
    // A full (non-quick) run sets up `setup_reps` times and refuses to go on
    // if two warm-up passes disagree; one round keeps it short.
    let full = RunSpec {
        quick: false,
        ..spec(&workloads::STORM_AUDIT, 5, 1)
    };
    let (report, _) = pbs_perf::run(full, false).expect("set-up repetitions agree");
    let (quick, _) = run(&workloads::STORM_AUDIT, 5, false);
    assert_eq!(report.warm_digest, quick.warm_digest);
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    // The counts the README marks `=`.
    let exact = [
        "sim.events_per_op",
        "sim.queue.peak_pending",
        "sim.queue.cascaded_per_event",
        "kvs.node.repairs_per_op",
        "kvs.node.hints_per_op",
        "kvs.fail_frac",
        "kvs.checker.lin_keys",
        "kvs.checker.lin_violations",
        "kvs.checker.lin_exhausted",
        "predictor.configs_evaluated",
    ];
    for w in workloads::ALL {
        let (a, _) = run(w, 21, true);
        let (b, _) = run(w, 21, true);
        for name in exact {
            assert_eq!(
                a.value(name).to_bits(),
                b.value(name).to_bits(),
                "{}: {name}",
                w.name
            );
        }
    }
    let (storm, _) = run(&workloads::STORM_AUDIT, 21, true);
    assert_eq!(storm.value("kvs.checker.lin_exhausted"), 0.0);
    assert!(storm.value("kvs.checker.lin_keys") > 0.0 && storm.value("sim.events_per_op") > 1.0);
}

#[test]
fn span_tree_is_well_formed() {
    for w in workloads::ALL {
        // One round sits inside every workload's (quick) prefix, so no bare
        // round punches a hole into the root.
        let (_, tracer) = pbs_perf::run(spec(w, 7, 1), true).expect("gate passes");
        let spans = tracer.spans();
        assert!(spans.len() > 10, "{}: {} spans", w.name, spans.len());
        let roots: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].parent.is_none())
            .collect();
        assert_eq!(roots.len(), 1, "{}: one root", w.name);
        assert_eq!(spans[roots[0]].name, "run");

        let mut child_sum = vec![0u64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            assert!(
                s.end_ns >= s.start_ns,
                "{}: span {i} ends before it starts",
                w.name
            );
            if let Some(p) = s.parent {
                let parent = &spans[p as usize];
                assert!((p as usize) < i, "parents open first");
                assert!(
                    s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns,
                    "{}: {} [{}, {}] escapes {} [{}, {}]",
                    w.name,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    parent.name,
                    parent.start_ns,
                    parent.end_ns
                );
                child_sum[p as usize] += s.dur_ns();
            }
        }
        for (s, children) in spans.iter().zip(&child_sum) {
            assert!(
                *children <= s.dur_ns(),
                "{}: {} has negative self time",
                w.name,
                s.name
            );
        }
        let root = &spans[roots[0]];
        let root_self = root.dur_ns() - child_sum[roots[0]];
        assert!(
            root_self as f64 <= 0.05 * root.dur_ns() as f64,
            "{}: root self time {root_self} ns of {} ns — work is escaping the spans",
            w.name,
            root.dur_ns()
        );
    }
}
