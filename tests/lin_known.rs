//! Known-answer battery for the WGL linearizability checker: hand-built
//! micro-histories pinning the classic register cases — exact verdicts
//! *and* exact minimal violating windows.
//!
//! Conventions: versions are `(seq, writer)` with `(0, 0)` = the empty
//! register; a write's interval closes at its **commit** (the instant the
//! W-th ack landed), a read's at its client finish; writes without a
//! commit are possibly-committed (optional, open interval).

use pbs::kvs::checker::lin::{check_lin, check_lin_keys, KeyLinVerdict, LinOptions};
use pbs::kvs::checker::{check_order, relabel_reads};
use pbs::kvs::staleness::ReadLabel;
use pbs::kvs::{CompletedOp, OpHistory};
use pbs::sim::SimTime;
use pbs::workload::OpKind;

fn t(ms: f64) -> SimTime {
    SimTime::from_ms(ms)
}

fn ns(ms: f64) -> u64 {
    t(ms).as_nanos()
}

/// A write of version `(seq, 0)`; committed iff `commit` is given
/// (`finish` mirrors `commit` — the blocking-harness shape).
fn write(op_id: u64, key: u64, seq: u64, start: f64, commit: Option<f64>) -> CompletedOp {
    CompletedOp {
        op_id,
        client: 0,
        kind: OpKind::Write,
        key,
        start: t(start),
        finish: commit.map(t),
        seq: Some(seq),
        commit: commit.map(t),
        writer: Some(0),
        source: None,
        quorum_mask: 0,
    }
}

/// A completed read observing `(seq, 0)` (`None` = empty register).
fn read(op_id: u64, key: u64, seq: Option<u64>, start: f64, finish: f64) -> CompletedOp {
    CompletedOp {
        op_id,
        client: 0,
        kind: OpKind::Read,
        key,
        start: t(start),
        finish: Some(t(finish)),
        seq,
        commit: None,
        writer: seq.map(|_| 0),
        source: None,
        quorum_mask: 0,
    }
}

fn history(ops: Vec<CompletedOp>) -> OpHistory {
    let mut h = OpHistory::new();
    for op in ops {
        h.push(op, None);
    }
    h
}

/// A read that begins strictly after a write's commit and still sees the
/// old value is the canonical violation; the minimal window spans from
/// the missed commit to the read's start — the paper's `t`.
#[test]
fn non_overlapping_stale_read_is_rejected_with_t_visibility_window() {
    let h = history(vec![
        write(1, 7, 1, 0.0, Some(5.0)),
        read(2, 7, None, 10.0, 11.0), // saw empty after v1 committed
    ]);
    let keys = check_lin_keys(&h, &LinOptions::default());
    assert_eq!(keys.len(), 1);
    assert_eq!(keys[0].verdict, KeyLinVerdict::Violation);
    assert_eq!(keys[0].violations.len(), 1);
    let v = keys[0].violations[0];
    assert_eq!(v.key, 7);
    assert_eq!(v.op_id, 2, "the stale read is the culprit");
    assert_eq!(v.window_start_ns, ns(5.0), "window opens at the missed commit");
    assert_eq!(v.window_end_ns, ns(10.0), "window closes at the read's start");
    assert_eq!(v.window_ns(), ns(5.0));

    let agg = check_lin(&h, &LinOptions::default());
    assert_eq!(agg.violated_keys, 1);
    assert_eq!(agg.violation_count(), 1);
    assert_eq!(agg.window_percentile_ms(90.0), Some(5.0));
    assert!(!agg.all_linearizable());
}

/// A read overlapping a write in flight may return either the old or the
/// new value: the write's linearization point floats inside its interval.
#[test]
fn concurrent_read_overlapping_a_write_may_return_old_or_new() {
    for seen in [Some(1), Some(2)] {
        let h = history(vec![
            write(1, 7, 1, 0.0, Some(1.0)),
            write(2, 7, 2, 10.0, Some(20.0)),
            read(3, 7, seen, 12.0, 14.0), // entirely inside w2's interval
        ]);
        let agg = check_lin(&h, &LinOptions::default());
        assert!(
            agg.all_linearizable(),
            "read overlapping w2 may see {seen:?}: {agg:?}"
        );
    }
}

/// Two writes with overlapping intervals admit either linearization
/// order — but two *sequential* reads must observe a consistent choice:
/// new-then-old across non-overlapping reads is the classic inversion.
#[test]
fn overlapping_writes_admit_either_order_but_not_an_inversion() {
    for seen in [Some(1), Some(2)] {
        let h = history(vec![
            write(1, 7, 1, 0.0, Some(10.0)),
            write(2, 7, 2, 0.0, Some(10.0)),
            read(3, 7, seen, 20.0, 21.0),
        ]);
        let agg = check_lin(&h, &LinOptions::default());
        assert!(agg.all_linearizable(), "either write may order last: {agg:?}");
    }
    // r1 sees v2, then r2 (after r1 finished) sees v1: no single order
    // of w1/w2 satisfies both. The culprit is r2; its window runs from
    // w2's commit (the newest write r2 missed) to r2's start.
    let h = history(vec![
        write(1, 7, 1, 0.0, Some(10.0)),
        write(2, 7, 2, 0.0, Some(10.0)),
        read(3, 7, Some(2), 20.0, 21.0),
        read(4, 7, Some(1), 30.0, 31.0),
    ]);
    let keys = check_lin_keys(&h, &LinOptions::default());
    assert_eq!(keys[0].verdict, KeyLinVerdict::Violation);
    assert_eq!(keys[0].violations.len(), 1, "removing r2 restores feasibility");
    let v = keys[0].violations[0];
    assert_eq!(v.op_id, 4, "the second (inverted) read is the culprit");
    assert_eq!(v.window_start_ns, ns(10.0));
    assert_eq!(v.window_end_ns, ns(30.0));
    assert_eq!(v.window_ns(), ns(20.0));
}

/// A timed-out write is possibly committed: a later read may see its
/// version (it took effect) or the previous one (it did not) — both
/// linearizable. Reads far *before* it could have started are still
/// protected: a version nothing could have written stays a violation.
#[test]
fn open_interval_timed_out_write_may_or_may_not_have_taken_effect() {
    for seen in [Some(1), Some(11)] {
        let mut wt = write(2, 7, 11, 10.0, None);
        wt.finish = None; // client timed out; version known (blocking path)
        let h = history(vec![
            write(1, 7, 1, 0.0, Some(5.0)),
            wt,
            read(3, 7, seen, 20.0, 21.0),
        ]);
        let agg = check_lin(&h, &LinOptions::default());
        assert!(
            agg.all_linearizable(),
            "timed-out write may or may not be visible (saw {seen:?}): {agg:?}"
        );
    }
    // The open interval never reaches backwards: a read that finished
    // before the timed-out write even started cannot see its version.
    let mut wt = write(2, 7, 11, 10.0, None);
    wt.finish = None;
    let h = history(vec![
        write(1, 7, 1, 0.0, Some(5.0)),
        read(3, 7, Some(11), 6.0, 7.0), // before wt's invocation at 10
        wt,
    ]);
    let keys = check_lin_keys(&h, &LinOptions::default());
    assert_eq!(keys[0].verdict, KeyLinVerdict::Violation);
    assert_eq!(keys[0].violations[0].op_id, 3);
}

/// Open-loop client timeouts lose the version too (`seq: None`): any
/// orphan version a read then returns is attributed to the unknown write
/// rather than convicted — but only when such a write exists.
#[test]
fn unknown_version_timeouts_absorb_orphan_reads() {
    let mut unknown = write(2, 7, 0, 10.0, None);
    unknown.finish = None;
    unknown.seq = None;
    unknown.writer = None;
    let h = history(vec![
        write(1, 7, 1, 0.0, Some(5.0)),
        unknown,
        read(3, 7, Some(12), 20.0, 21.0), // version no recorded write produced
    ]);
    let agg = check_lin(&h, &LinOptions::default());
    assert!(agg.all_linearizable(), "orphan attributed to the unknown write: {agg:?}");

    // Without an unknown write the orphan version is a genuine phantom.
    let h = history(vec![
        write(1, 7, 1, 0.0, Some(5.0)),
        read(3, 7, Some(12), 20.0, 21.0),
    ]);
    let keys = check_lin_keys(&h, &LinOptions::default());
    assert_eq!(keys[0].verdict, KeyLinVerdict::Violation);
    assert_eq!(keys[0].violations[0].op_id, 3);
    // No committed write above (12, 0) precedes the read, so the window
    // falls back to the read's own interval.
    assert_eq!(keys[0].violations[0].window_start_ns, ns(20.0));
    assert_eq!(keys[0].violations[0].window_end_ns, ns(21.0));
}

/// Removing one offender and continuing the prefix scan yields one
/// window per independent anomaly, not one per key.
#[test]
fn multiple_stale_reads_yield_multiple_windows() {
    let h = history(vec![
        write(1, 7, 1, 0.0, Some(5.0)),
        read(2, 7, None, 10.0, 11.0), // missed v1: window [5, 10]
        write(3, 7, 2, 15.0, Some(18.0)),
        read(4, 7, Some(1), 30.0, 31.0), // missed v2: window [18, 30]
        read(5, 7, Some(2), 40.0, 41.0), // fine
    ]);
    let keys = check_lin_keys(&h, &LinOptions::default());
    assert_eq!(keys[0].verdict, KeyLinVerdict::Violation);
    let windows: Vec<(u64, u64)> = keys[0]
        .violations
        .iter()
        .map(|v| (v.window_start_ns, v.window_end_ns))
        .collect();
    assert_eq!(windows, vec![(ns(5.0), ns(10.0)), (ns(18.0), ns(30.0))]);
}

/// Crossing the node budget is `Exhausted` — a distinct, non-failing
/// verdict, never misreported as a violation or a pass.
#[test]
fn budget_exhaustion_is_a_distinct_verdict() {
    // Eight mutually-overlapping committed writes and a read that saw
    // none of them: proving infeasibility must enumerate (subset, last)
    // states, which a 10-node budget cannot.
    let mut ops: Vec<CompletedOp> = (0..8)
        .map(|i| write(i + 1, 7, i + 1, 0.0, Some(100.0)))
        .collect();
    ops.push(read(100, 7, None, 200.0, 201.0));
    let h = history(ops);
    let tiny = LinOptions { max_nodes_per_key: 10, ..Default::default() };
    let keys = check_lin_keys(&h, &tiny);
    assert_eq!(keys[0].verdict, KeyLinVerdict::Exhausted);
    let agg = check_lin(&h, &tiny);
    assert_eq!(agg.exhausted_keys, 1);
    assert_eq!(agg.violated_keys, 0, "exhaustion is not a violation");
    assert!(!agg.all_linearizable(), "but it is not a verified pass either");

    // The default budget settles the same key conclusively.
    let keys = check_lin_keys(&h, &LinOptions::default());
    assert_eq!(keys[0].verdict, KeyLinVerdict::Violation);

    // The op-count ceiling is the same verdict.
    let capped = LinOptions { max_ops_per_key: 3, ..Default::default() };
    assert_eq!(check_lin(&h, &capped).exhausted_keys, 1);
}

/// Keys are independent: a violation on one never bleeds into another,
/// and aggregate counters tally per-key verdicts.
#[test]
fn keys_are_checked_independently() {
    let h = history(vec![
        write(1, 1, 1, 0.0, Some(5.0)),
        read(2, 1, Some(1), 10.0, 11.0), // key 1 clean
        write(3, 2, 1, 0.0, Some(5.0)),
        read(4, 2, None, 10.0, 11.0), // key 2 stale
    ]);
    let agg = check_lin(&h, &LinOptions::default());
    assert_eq!(agg.keys_checked, 2);
    assert_eq!(agg.linearizable_keys, 1);
    assert_eq!(agg.violated_keys, 1);
    assert_eq!(agg.first_violation().map(|v| v.key), Some(2));
}

/// "Regular, not linearizable, the moment a write goes partial", as one
/// history: w2 reaches one replica and fails; r1 meets that replica and
/// sees v2, r2 (after r1) misses it and sees v1 — a new-old inversion.
/// Each read alone is regular ([`CheckReport::regular`]'s two counts are
/// zero): neither is older than the newest write committed before it
/// began, and v2 was written by a write invoked before r1 finished.
/// Together they are not linearizable: w2 took effect for r1, and nothing
/// wrote v1 after it.
///
/// [`CheckReport::regular`]: pbs::kvs::CheckReport::regular
#[test]
fn new_old_inversion_after_a_partial_write_is_regular_not_linearizable() {
    let consistent = ReadLabel { consistent: true, versions_behind: 0 };
    let mut partial = write(2, 7, 11, 10.0, None);
    partial.finish = Some(t(60.0)); // the coordinator reported failure
    let mut h = OpHistory::new();
    h.push(write(1, 7, 1, 0.0, Some(5.0)), None);
    h.push(partial, None);
    h.push(read(3, 7, Some(11), 20.0, 21.0), Some(consistent));
    h.push(read(4, 7, Some(1), 30.0, 31.0), Some(consistent));

    let labels = relabel_reads(&h);
    assert_eq!((labels.labelled_reads, labels.stale_reads, labels.mismatches), (2, 0, 0));
    assert_eq!(check_order(&h, 3).phantoms, 0);

    let keys = check_lin_keys(&h, &LinOptions::default());
    assert_eq!(keys[0].verdict, KeyLinVerdict::Violation);
    assert_eq!(keys[0].violations.len(), 1);
    assert_eq!(keys[0].violations[0].op_id, 4, "the read that went back is the culprit");
}
