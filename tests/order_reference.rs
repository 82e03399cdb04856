//! The order oracle's time sweep against the scan it replaced.
//!
//! `check_order` walks each key once in time order, keeping per replica
//! the strongest version acked and the strongest version served so far.
//! The reference below is the oracle as it stood before the sweep: for
//! every read, a scan of every committed write and of every exposure of
//! the key. Both must return `==` `OrderCheck`s — counts and the first
//! example of each violation class — on histories of the benchmark's
//! `storm_audit` shape, clean and corrupted, and on seeded random
//! micro-histories built to collide: repeated versions, equal instants,
//! several mask bits, bits outside the node range, wipes, version-less
//! timed-out writes.
//!
//! The last test gates what the sweep is for: the cost of a read must not
//! grow with the number of ops on its key.

mod common;

use common::storm_history;
use pbs::kvs::{check_order, CompletedOp, CrashRecord, OpHistory, OrderCheck, OrderViolation};
use pbs::sim::SimTime;
use pbs::workload::OpKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct TrackedWrite {
    op_id: u64,
    seq: u64,
    writer: u32,
    commit_nanos: u64,
    acked: u64,
}

#[derive(Debug, Clone, Copy)]
struct TrackedRead {
    op_id: u64,
    start_nanos: u64,
    finish_nanos: u64,
    seen: (u64, u32),
    source: Option<u32>,
    responders: u64,
}

#[derive(Debug, Default)]
struct KeyAudit {
    known: Vec<(u64, u32)>,
    incomplete: bool,
    committed: Vec<TrackedWrite>,
    reads: Vec<TrackedRead>,
}

/// `check_order` as it stood before the sweep (the private `FxHashMap`
/// swapped for the std one; keys are still visited through `order`).
fn reference_check_order(history: &OpHistory, nodes: u32) -> OrderCheck {
    let wiped: u64 = history
        .crashes()
        .iter()
        .filter(|c| c.wipe && c.node < 64)
        .fold(0, |m, c| m | (1u64 << c.node));
    let mut keys: HashMap<u64, KeyAudit> = HashMap::new();
    let mut order: Vec<u64> = Vec::new(); // deterministic key iteration
    let mut check = OrderCheck::default();
    for h in history.ops() {
        let op = &h.op;
        let audit = keys.entry(op.key).or_insert_with(|| {
            order.push(op.key);
            KeyAudit::default()
        });
        match op.kind {
            OpKind::Write => match op.seq {
                None => audit.incomplete = true,
                Some(seq) => {
                    let writer = op.writer.expect("writes with a sequence carry their writer");
                    audit.known.push((seq, writer));
                    if let Some(ct) = op.commit {
                        check.writes_tracked += 1;
                        audit.committed.push(TrackedWrite {
                            op_id: op.op_id,
                            seq,
                            writer,
                            commit_nanos: ct.as_nanos(),
                            acked: op.quorum_mask & !wiped,
                        });
                    }
                }
            },
            OpKind::Read => {
                let Some(finish) = op.finish else {
                    continue; // timed out: nothing was exposed
                };
                check.reads_checked += 1;
                audit.reads.push(TrackedRead {
                    op_id: op.op_id,
                    start_nanos: op.start.as_nanos(),
                    finish_nanos: finish.as_nanos(),
                    seen: match op.seq {
                        Some(seq) => (seq, op.writer.expect("non-empty reads carry a writer")),
                        None => (0, 0),
                    },
                    source: op.source,
                    responders: op.quorum_mask & !wiped,
                });
            }
        }
    }

    for key in order {
        let audit = keys.get_mut(&key).expect("key was just inserted");
        audit.reads.sort_by_key(|r| (r.start_nanos, r.op_id));
        audit.known.sort_unstable();
        // Exposures: (replica, version, finish-of-exposing-read).
        let mut exposures: Vec<(u32, (u64, u32), u64)> = Vec::new();
        for r in &audit.reads {
            let (seen_seq, seen_writer) = r.seen;
            if seen_seq > 0 {
                let impossible_writer = seen_writer >= nodes;
                let from_the_future = seen_seq > r.finish_nanos + 1;
                let unknown_version =
                    !audit.incomplete && audit.known.binary_search(&r.seen).is_err();
                if impossible_writer || from_the_future || unknown_version {
                    check.phantoms += 1;
                    check.first_phantom = check.first_phantom.or(Some(
                        OrderViolation::PhantomVersion {
                            key,
                            op_id: r.op_id,
                            seen_seq,
                            writer: seen_writer,
                        },
                    ));
                    continue;
                }
            }
            let mut lu_floor: Option<(u64, u32, u32, u64)> = None; // (seq, writer, replica, op)
            for w in &audit.committed {
                if w.commit_nanos < r.start_nanos
                    && w.acked & r.responders != 0
                    && lu_floor.is_none_or(|(s, wr, _, _)| (w.seq, w.writer) > (s, wr))
                {
                    let replica = (w.acked & r.responders).trailing_zeros();
                    lu_floor = Some((w.seq, w.writer, replica, w.op_id));
                }
            }
            if let Some((floor_seq, floor_writer, replica, _)) = lu_floor {
                if r.seen < (floor_seq, floor_writer) {
                    check.lost_updates += 1;
                    check.first_lost_update =
                        check.first_lost_update.or(Some(OrderViolation::LostUpdate {
                            key,
                            op_id: r.op_id,
                            replica,
                            seen_seq,
                            expected_seq: floor_seq,
                        }));
                    continue; // one violation per read, strongest class
                }
            }
            let mut nm_floor: Option<((u64, u32), u32)> = None;
            for &(replica, version, exposed_finish) in &exposures {
                if exposed_finish <= r.start_nanos
                    && r.responders & (1u64 << replica) != 0
                    && nm_floor.is_none_or(|(v, _)| version > v)
                {
                    nm_floor = Some((version, replica));
                }
            }
            if let Some((floor, replica)) = nm_floor {
                if r.seen < floor {
                    check.non_monotone += 1;
                    check.first_non_monotone =
                        check.first_non_monotone.or(Some(OrderViolation::NonMonotoneExposure {
                            key,
                            op_id: r.op_id,
                            replica,
                            seen_seq,
                            expected_seq: floor.0,
                        }));
                    continue;
                }
            }
            if let Some(source) = r.source {
                if seen_seq > 0 && source < 64 && wiped & (1u64 << source) == 0 {
                    exposures.push((source, r.seen, r.finish_nanos));
                }
            }
        }
    }
    check
}

/// The same history with every fifth completed read rolled back to the
/// version its key's reads returned before the one they returned last —
/// what a replica that un-applied a write would have served — and every
/// second committed write stripped of its ack mask, so that some rollbacks
/// are convicted by what the replica had served, not by what it had acked.
fn rolled_back(history: &OpHistory) -> OpHistory {
    // key → the last two distinct versions its reads returned, older first.
    let mut seen: HashMap<u64, [Option<(u64, u32)>; 2]> = HashMap::new();
    let mut out = OpHistory::new();
    let (mut reads, mut writes) = (0, 0);
    for h in history.ops() {
        let mut op = h.op;
        if op.kind == OpKind::Read && op.finish.is_some() {
            reads += 1;
            let last_two = seen.entry(op.key).or_default();
            let returned = op.seq.zip(op.writer);
            if let (0, Some((seq, writer))) = (reads % 5, last_two[0]) {
                (op.seq, op.writer) = (Some(seq), Some(writer));
            }
            if returned.is_some() && returned != last_two[1] {
                *last_two = [last_two[1], returned];
            }
        } else if op.commit.is_some() {
            writes += 1;
            op.quorum_mask *= writes % 2;
        }
        out.push(op, h.label);
    }
    out.set_crashes(history.crashes().to_vec());
    out
}

#[test]
fn the_sweep_matches_the_scan_on_storm_histories() {
    let (mut lost, mut non_monotone) = (0, 0);
    for seed in 1..=8 {
        let history = storm_history(seed);
        let clean = check_order(&history, 8);
        assert_eq!(clean, reference_check_order(&history, 8), "seed {seed}");
        assert!(clean.reads_checked > 7_000 && clean.writes_tracked > 7_000, "seed {seed}");
        assert_eq!(clean.violations(), 0, "seed {seed}: the protocol is clean under the storm");

        let broken = rolled_back(&history);
        let check = check_order(&broken, 8);
        assert_eq!(check, reference_check_order(&broken, 8), "seed {seed}, rolled back");
        lost += check.lost_updates;
        non_monotone += check.non_monotone;
    }
    assert!(lost >= 1_000, "only {lost} lost updates on the rolled-back histories");
    assert!(non_monotone >= 1_000, "only {non_monotone} non-monotone exposures");
}

const NODES: u32 = 3;

/// A mask over the three nodes with one to three bits set — and, now and
/// then, a bit no node of the cluster owns.
fn mask(rng: &mut StdRng) -> u64 {
    let stray = match rng.gen_range(0..20u32) {
        0 => 1 << 5,
        1 => 1 << 63,
        _ => 0,
    };
    rng.gen_range(1..8u64) | stray
}

/// A random micro-history: 2–40 ops over 1–3 keys on an integer-millisecond
/// grid a few ops wide, so starts, commits and finishes tie; sequences from
/// 1..8, so versions repeat across writes.
fn micro_history(rng: &mut StdRng) -> OpHistory {
    let n = rng.gen_range(2..=40u64);
    let keys = rng.gen_range(1..=3u64);
    let window = rng.gen_range(4..=60u64);
    let mut history = OpHistory::new();
    let mut written: Vec<(u64, u64, u32)> = Vec::new(); // (key, seq, writer)
    for op_id in 1..=n {
        let key = rng.gen_range(0..keys);
        let start = rng.gen_range(0..window);
        let end = SimTime::from_ms((start + rng.gen_range(0..8u64)) as f64);
        let mut op = CompletedOp {
            op_id,
            client: 0,
            kind: OpKind::Write,
            key,
            start: SimTime::from_ms(start as f64),
            finish: None,
            seq: None,
            commit: None,
            writer: None,
            source: None,
            quorum_mask: 0,
        };
        let roll = rng.gen_range(0..100u32);
        if roll < 4 {
            // A write that timed out client-side: no version, no commit.
        } else if roll < 45 {
            let (seq, writer) = (rng.gen_range(1..8u64), rng.gen_range(0..NODES));
            written.push((key, seq, writer));
            (op.seq, op.writer) = (Some(seq), Some(writer));
            if roll >= 10 {
                (op.finish, op.commit) = (Some(end), Some(end)); // else failed, version known
                op.quorum_mask = mask(rng);
            }
        } else {
            op.kind = OpKind::Read;
            if roll >= 48 {
                op.finish = Some(end); // else timed out
                op.quorum_mask = mask(rng);
            }
            let own: Vec<(u64, u32)> =
                written.iter().filter(|w| w.0 == key).map(|w| (w.1, w.2)).collect();
            let version = match rng.gen_range(0..100u32) {
                0..15 => None,
                15..85 if !own.is_empty() => Some(own[rng.gen_range(0..own.len())]),
                15..97 => Some((rng.gen_range(1..8u64), rng.gen_range(0..NODES))),
                97..99 => Some((rng.gen_range(1..8u64), NODES + 4)), // no such writer
                _ => Some((1 << 40, 0)),                             // minted in the future
            };
            if op.finish.is_some() {
                (op.seq, op.writer) = (version.map(|v| v.0), version.map(|v| v.1));
                op.source = match (version, rng.gen_range(0..10u32)) {
                    (None, _) | (_, 0..2) => None,
                    (_, 2) => Some(64 + rng.gen_range(0..4u32)), // beyond the masks
                    _ => Some(rng.gen_range(0..NODES)),
                };
            }
        }
        history.push(op, None);
    }
    if rng.gen_range(0..3u32) == 0 {
        history.set_crashes(vec![CrashRecord {
            node: rng.gen_range(0..NODES),
            at: SimTime::from_ms(rng.gen_range(0..window) as f64),
            down_ms: 1.0,
            wipe: rng.gen_bool(0.5),
        }]);
    }
    history
}

#[test]
fn the_sweep_matches_the_scan_on_random_micro_histories() {
    let mut rng = StdRng::seed_from_u64(0x0bde5);
    let (mut lost, mut non_monotone, mut phantoms) = (0, 0, 0);
    for case in 0..24_000 {
        let history = micro_history(&mut rng);
        let check = check_order(&history, NODES);
        let expected = reference_check_order(&history, NODES);
        assert_eq!(check, expected, "case {case} differs on {history:#?}");
        lost += check.lost_updates;
        non_monotone += check.non_monotone;
        phantoms += check.phantoms;
    }
    // Each class must keep being convicted, or the comparison of its
    // counts and first examples compares nothing.
    assert!(lost >= 1_000, "only {lost} lost updates convicted");
    assert!(non_monotone >= 1_000, "only {non_monotone} non-monotone exposures convicted");
    assert!(phantoms >= 1_000, "only {phantoms} phantom versions convicted");
}

/// A clean register history of `ops` alternating writes and reads spread
/// round-robin over `keys` keys, one op per millisecond: every read returns
/// its key's newest committed write, so every write anchors a floor and
/// every read becomes an exposure.
fn register_history(ops: u64, keys: u64) -> OpHistory {
    let mut history = OpHistory::new();
    let mut newest: HashMap<u64, (u64, u32)> = HashMap::new();
    for i in 0..ops {
        let key = (i / 2) % keys;
        let start = SimTime::from_ms(i as f64);
        let end = SimTime::from_ms(i as f64 + 0.5);
        let replica = (i % u64::from(NODES)) as u32;
        let mut op = CompletedOp {
            op_id: i + 1,
            client: 0,
            kind: OpKind::Write,
            key,
            start,
            finish: Some(end),
            seq: Some(start.as_nanos() + 1),
            commit: Some(end),
            writer: Some(replica),
            source: None,
            quorum_mask: 0b011 << (i / 2 % 2),
        };
        if i % 2 == 0 {
            newest.insert(key, (start.as_nanos() + 1, replica));
        } else {
            let (seq, writer) = newest[&key];
            op.kind = OpKind::Read;
            (op.seq, op.writer, op.commit) = (Some(seq), Some(writer), None);
            op.source = Some(replica);
            op.quorum_mask = 1 << replica | 0b010;
        }
        history.push(op, None);
    }
    history
}

#[test]
fn a_read_costs_the_same_on_a_hot_key() {
    let best_of_3 = |history: &OpHistory| {
        let time = |_| {
            let started = Instant::now();
            let check = check_order(history, NODES);
            let elapsed = started.elapsed();
            assert_eq!((check.reads_checked, check.violations()), (8_192, 0));
            elapsed
        };
        (0..3).map(time).min().expect("three runs")
    };
    let hot = best_of_3(&register_history(16_384, 1));
    let spread = best_of_3(&register_history(16_384, 256));
    // The scan read 5× at 2,500 ops per key and grew linearly from there;
    // the sweep reads ~1.6× at 16,384 (a longer sort, a deeper heap).
    assert!(hot <= 4 * spread, "1 key: {hot:?}, 256 keys: {spread:?}");
}
