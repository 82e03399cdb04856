//! Reference tests for how the WGL checker *localises* violations and for
//! what a search costs.
//!
//! The checker names every culprit of a key from one exhaustive search
//! (the furthest response any visited state got past; see the *Violation
//! windows* section of `kvs::checker::lin`). The reference here shares
//! none of that: it rebuilds the interval model from the raw history,
//! decides feasibility by trying every permutation, and finds culprits by
//! the definition — the smallest response-ordered prefix with no valid
//! permutation; remove its last op; repeat. Seeded micro-histories small
//! enough for the brute force (≤ 8 ops) cover overlapping writes,
//! open-interval timed-out writes, version-less timeouts with orphan
//! reads, equal instants, and several independent stale reads per key.
//!
//! The second test pins the search's *cost* as a count: DFS nodes per
//! audited op on a history of the benchmark's `storm_audit` shape. It
//! repeats exactly for a seed, so it can gate where a timing cannot.

mod common;

use common::storm_history;
use pbs::kvs::checker::lin::{check_lin, check_lin_keys, KeyLinVerdict, LinOptions};
use pbs::kvs::{CompletedOp, OpHistory};
use pbs::sim::SimTime;
use pbs::workload::OpKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEY: u64 = 7;

/// One op of the reference's interval model. `resp: None` is an open
/// interval: the op may or may not have taken effect.
#[derive(Debug, Clone, Copy)]
struct Op {
    id: u64,
    write: bool,
    version: (u64, u32),
    start: u64,
    resp: Option<u64>,
}

/// The interval model, rebuilt from the recorded fields: committed writes
/// and completed reads are closed; writes without a commit are open;
/// timed-out reads observed nothing; and when some write lost its version
/// too, every version only reads know becomes an open write starting with
/// the earliest such write.
fn model(history: &[CompletedOp]) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut unknown_start: Option<u64> = None;
    for op in history {
        let start = op.start.as_nanos();
        match (op.kind, op.seq) {
            (OpKind::Write, Some(seq)) => ops.push(Op {
                id: op.op_id,
                write: true,
                version: (seq, op.writer.unwrap()),
                start,
                resp: op.commit.map(|c| c.as_nanos()),
            }),
            (OpKind::Write, None) => {
                unknown_start = Some(unknown_start.map_or(start, |s| s.min(start)));
            }
            (OpKind::Read, seq) => {
                if let Some(finish) = op.finish {
                    ops.push(Op {
                        id: op.op_id,
                        write: false,
                        version: (seq.unwrap_or(0), op.writer.unwrap_or(0)),
                        start,
                        resp: Some(finish.as_nanos()),
                    });
                }
            }
        }
    }
    if let Some(start) = unknown_start {
        let mut orphans: Vec<(u64, u32)> = ops
            .iter()
            .filter(|r| !r.write && r.version != (0, 0))
            .filter(|r| !ops.iter().any(|w| w.write && w.version == r.version))
            .map(|r| r.version)
            .collect();
        orphans.sort_unstable();
        orphans.dedup();
        for (i, version) in orphans.into_iter().enumerate() {
            ops.push(Op { id: u64::MAX - i as u64, write: true, version, start, resp: None });
        }
    }
    ops
}

/// Brute force: is there an order of all closed ops plus any subset of the
/// open ones in which no op precedes one that responded before it was
/// invoked, and every read returns the latest write before it?
fn has_valid_permutation(ops: &[Op], placed: &mut [bool], register: (u64, u32)) -> bool {
    if ops.iter().zip(placed.iter()).all(|(o, &p)| p || o.resp.is_none()) {
        return true;
    }
    for i in 0..ops.len() {
        let blocked = (0..ops.len())
            .any(|j| j != i && !placed[j] && ops[j].resp.is_some_and(|r| r < ops[i].start));
        if placed[i] || blocked || (!ops[i].write && ops[i].version != register) {
            continue;
        }
        placed[i] = true;
        let next = if ops[i].write { ops[i].version } else { register };
        let found = has_valid_permutation(ops, placed, next);
        placed[i] = false;
        if found {
            return true;
        }
    }
    false
}

/// Culprits by the definition. The prefix at a response keeps the
/// responses up to it closed; every other write invoked by then is open
/// and every other read has observed nothing yet. Removing a culprit
/// takes its response out of the sequence, which does exactly that to it.
fn reference_culprits(ops: &[Op]) -> Vec<u64> {
    let mut events: Vec<Op> = ops.iter().copied().filter(|o| o.resp.is_some()).collect();
    events.sort_by_key(|o| (o.resp, o.id));
    let mut culprits = Vec::new();
    loop {
        let first_infeasible = (0..events.len()).find(|&k| {
            let horizon = events[k].resp.unwrap();
            let prefix: Vec<Op> = ops
                .iter()
                .filter_map(|o| {
                    if events[..=k].iter().any(|e| e.id == o.id) {
                        Some(*o)
                    } else if o.write && o.start <= horizon {
                        Some(Op { resp: None, ..*o })
                    } else {
                        None
                    }
                })
                .collect();
            !has_valid_permutation(&prefix, &mut vec![false; prefix.len()], (0, 0))
        });
        match first_infeasible {
            Some(k) => culprits.push(events.remove(k).id),
            None => return culprits,
        }
    }
}

fn completed(op_id: u64, kind: OpKind, start_ms: u64) -> CompletedOp {
    CompletedOp {
        op_id,
        client: 0,
        kind,
        key: KEY,
        start: SimTime::from_ms(start_ms as f64),
        finish: None,
        seq: None,
        commit: None,
        writer: None,
        source: None,
        quorum_mask: 0,
    }
}

/// A random per-key micro-history of 2–8 ops on a coarse millisecond grid
/// (so equal instants happen), and whether it holds a version-less write.
fn micro_history(rng: &mut StdRng) -> (Vec<CompletedOp>, bool) {
    let n = rng.gen_range(2..=8u64);
    let mut ops: Vec<CompletedOp> = Vec::new();
    let mut written: Vec<(u64, u64)> = Vec::new(); // (seq, start)
    let mut unknown = false;
    for id in 1..=n {
        let start = rng.gen_range(0..16u64);
        let resp = SimTime::from_ms((start + rng.gen_range(1..7u64)) as f64);
        let roll = rng.gen_range(0..100u32);
        if roll < 55 {
            let mut op = completed(id, OpKind::Write, start);
            if roll < 10 {
                unknown = true; // client timeout: no version, no commit
            } else {
                op.seq = Some(id);
                op.writer = Some(0);
                written.push((id, start));
                if roll >= 20 {
                    op.commit = Some(resp); // else timed out with its version known
                    op.finish = Some(resp);
                }
            }
            ops.push(op);
        } else {
            let mut op = completed(id, OpKind::Read, start);
            op.finish = Some(resp);
            let pick = rng.gen_range(0..100u32);
            op.seq = if pick < 15 || (written.is_empty() && pick < 90) {
                None
            } else if pick < 65 {
                // The write invoked last: usually what a fresh read returns.
                written.iter().max_by_key(|&&(seq, at)| (at, seq)).map(|&(seq, _)| seq)
            } else if pick < 90 {
                Some(written[rng.gen_range(0..written.len())].0)
            } else {
                Some(100 + rng.gen_range(0..2u64)) // a version no write here carries
            };
            op.writer = op.seq.map(|_| 0);
            ops.push(op);
        }
    }
    (ops, unknown)
}

#[test]
fn verdicts_and_culprits_match_a_brute_force_permutation_checker() {
    let mut rng = StdRng::seed_from_u64(0x11ea);
    let (mut clean, mut multi, mut absorbed, mut open_seen) = (0, 0, 0, 0);
    for case in 0..3_000 {
        let (ops, unknown) = micro_history(&mut rng);
        let expected = reference_culprits(&model(&ops));

        let mut history = OpHistory::new();
        for op in &ops {
            history.push(*op, None);
        }
        let keys = check_lin_keys(&history, &LinOptions::default());
        assert_eq!(keys.len(), 1, "case {case}: one key per micro-history");
        let got: Vec<u64> = keys[0].violations.iter().map(|v| v.op_id).collect();
        assert_eq!(got, expected, "case {case}: culprits differ on {ops:#?}");
        let verdict = if expected.is_empty() {
            KeyLinVerdict::Linearizable
        } else {
            KeyLinVerdict::Violation
        };
        assert_eq!(keys[0].verdict, verdict, "case {case}: verdict differs on {ops:#?}");

        let reads_of = |seq: u64| ops.iter().any(|o| o.kind == OpKind::Read && o.seq == Some(seq));
        clean += usize::from(expected.is_empty());
        multi += usize::from(expected.len() >= 2);
        absorbed += usize::from(unknown && (100..102).any(reads_of) && expected.is_empty());
        open_seen += usize::from(ops.iter().any(|o| {
            o.kind == OpKind::Write && o.commit.is_none() && o.seq.is_some_and(reads_of)
        }));
    }
    // The generator must keep reaching every kind of case it exists for.
    assert!(clean >= 300, "only {clean} linearizable cases");
    assert!(multi >= 300, "only {multi} cases with several culprits");
    assert!(absorbed >= 20, "only {absorbed} orphan reads absorbed by a version-less write");
    assert!(open_seen >= 100, "only {open_seen} cases reading an open write's version");
}

/// The search's cost as a count. After each culprit the search resumes at
/// its frontier instead of searching the key again from the root, so the
/// whole audit of a stormy partial-quorum history stays under two thirds
/// of a DFS node per op: 10,246 nodes for 20,042 ops (0.51) when this was
/// written; 0.76 restarting after each culprit, 2.25 with a binary search
/// over prefixes.
#[test]
fn a_storm_audit_spends_less_than_two_thirds_of_a_search_node_per_op() {
    let lin = check_lin(&storm_history(11), &LinOptions::default());
    assert_eq!(lin.keys_checked, 256);
    assert!(lin.ops_checked > 15_000, "history too small to mean anything: {}", lin.ops_checked);
    assert!(lin.violation_count() > 100, "the storm must leave stale reads to localise");
    assert_eq!(lin.exhausted_keys, 0);
    assert!(
        3 * lin.nodes_explored < 2 * lin.ops_checked,
        "{} nodes for {} ops",
        lin.nodes_explored,
        lin.ops_checked
    );
}
