//! Mutation testing for the order oracle: each test flips one
//! [`ProtocolMutations`] flag that deliberately breaks a convergence
//! mechanism (read repair, version merge, hint replay) and asserts the
//! checker catches it with **exactly** the expected violation type, while
//! the identical scenario with the mutation off stays fully clean.
//!
//! Scenarios are engineered deterministic: with constant leg delays every
//! replica's response arrives at the same instant, and the engine breaks
//! equal-time ties in origin-id order — so an `R = 1` read always sources
//! the lowest-id replica, the "victim" each scenario arranges to be
//! stale.
//!
//! Each scenario also pins down how the WGL linearizability checker
//! relates to the order oracle (neither subsumes the other):
//!
//! * WGL is **stronger on reads**: it convicts plain staleness (a read
//!   missing a committed write) that the order oracle deliberately
//!   permits under partial quorums, and it catches every read-visible
//!   mutation here — lost updates and rollbacks surface as stale reads,
//!   phantoms as unattributable versions.
//! * The order oracle is **stronger on silent divergence**: a mutation
//!   with no read to expose it (`swallow_hints`' never-replayed hint) is
//!   invisible to WGL — a history with no reads is trivially
//!   linearizable — and only the final-state lost-update rule flags it.

use pbs::dist::{Constant, Exponential};
use pbs::kvs::checker::{check_run, OrderViolation};
use pbs::kvs::cluster::{Cluster, ClusterOptions};
use pbs::kvs::{CheckReport, ClientOptions, FaultProfile, NetworkModel, ProtocolMutations};
use pbs::math::ReplicaConfig;
use pbs::sim::SimTime;
use pbs::workload::{OpMix, OpStream, Poisson, UniformKeys};
use std::sync::Arc;

fn net_const(ms: f64) -> NetworkModel {
    NetworkModel::w_ars(Arc::new(Constant::new(ms)), Arc::new(Constant::new(ms)))
}

fn ms(t: f64) -> SimTime {
    SimTime::from_ms(t)
}

/// Base config: N=3 nodes, R=W=1, reliable constant-latency network.
fn opts(seed: u64, mutations: ProtocolMutations) -> ClusterOptions {
    let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
    let mut o = ClusterOptions::validation(cfg, seed);
    o.mutations = mutations;
    o
}

/// Crash the first-responding replica of `key` through a write, recover
/// it, then read twice. With read repair on, the second read must see the
/// repaired (healed) value; the mutations break that healing in two
/// distinct ways.
///
/// Returns `(report, write seq, read2 seq, victim's stored seq)`.
fn read_repair_scenario(
    mutations: ProtocolMutations,
    convergence: bool,
) -> (CheckReport, u64, Option<u64>, u64) {
    let mut o = opts(41, mutations);
    o.read_repair = true;
    let mut cluster = Cluster::new(o, net_const(1.0));
    cluster.enable_history();
    let key = 7u64;
    let victim = *cluster.replicas_of(key).iter().min().unwrap();
    let coord = (0..3).find(|&n| n != victim).unwrap();

    // The victim misses the write outright (down, store kept on recovery).
    cluster.crash_node_at(victim, ms(0.0), 300.0);
    cluster.advance_to(ms(10.0));
    let w = cluster.write_from(coord, key);
    assert!(w.commit.is_some(), "two healthy replicas commit W=1");

    // r1 sources the recovered (empty) victim and triggers read repair
    // once the fresher responses arrive; r2 then re-reads the victim.
    let r1 = cluster.read_at_from(coord, key, ms(350.0));
    assert_eq!(r1.op.seq, None, "victim responds first and is empty");
    let r2 = cluster.read_at_from(coord, key, ms(500.0));
    cluster.advance_to(ms(1_000.0));

    let history = cluster.take_history();
    let check = check_run(&history, &cluster, convergence);
    let stored = cluster.node(victim).stored_version(key).map(|v| v.seq).unwrap_or(0);
    (check, w.seq.expect("committed"), r2.op.seq, stored)
}

/// `skip_read_repair`: the stale replica is never healed, and with no
/// other anti-entropy path the run ends divergent — the final-state audit
/// reports it as a lost update on the victim.
#[test]
fn skip_read_repair_is_caught_as_lost_update() {
    let mutations = ProtocolMutations { skip_read_repair: true, ..Default::default() };
    let (check, w_seq, r2_seq, stored) = read_repair_scenario(mutations, true);
    assert_eq!(r2_seq, None, "victim still empty: repair never ran");
    assert_eq!(stored, 0, "mutation held: victim never received the write");
    assert!(check.order.lost_updates >= 1, "oracle missed the regression: {check:?}");
    assert_eq!(check.order.non_monotone, 0);
    assert_eq!(check.order.phantoms, 0);
    match check.order.first_lost_update {
        Some(OrderViolation::LostUpdate { expected_seq, .. }) => assert_eq!(expected_seq, w_seq),
        other => panic!("expected a LostUpdate example, got {other:?}"),
    }
    // WGL sees the same regression from the read side: both empty reads
    // started long after the write committed, so both are stale.
    assert_eq!(check.lin.violation_count(), 2, "WGL must convict r1 and r2: {:?}", check.lin);
    assert_eq!(check.lin.violated_keys, 1);
}

/// `corrupt_read_repair`: repair installs a fabricated version far in the
/// future of any real write; the next read exposes it and the oracle must
/// flag a phantom — a version no client ever wrote.
#[test]
fn corrupt_read_repair_is_caught_as_phantom_version() {
    let mutations = ProtocolMutations { corrupt_read_repair: true, ..Default::default() };
    let (check, w_seq, r2_seq, stored) = read_repair_scenario(mutations, true);
    assert_eq!(r2_seq, Some(stored), "r2 sources the corrupt victim");
    assert!(stored > w_seq, "repair installed a fabricated future version");
    assert!(check.order.phantoms >= 1, "oracle missed the phantom: {check:?}");
    assert_eq!(check.order.lost_updates, 0);
    assert_eq!(check.order.non_monotone, 0);
    match check.order.first_phantom {
        Some(OrderViolation::PhantomVersion { seen_seq, .. }) => assert_eq!(seen_seq, stored),
        other => panic!("expected a PhantomVersion example, got {other:?}"),
    }
    // WGL convicts both reads: r1 for missing the committed write, r2 for
    // returning a version no recorded write produced (no timed-out write
    // exists on the key, so the orphan absorption rule does not apply).
    assert_eq!(check.lin.violation_count(), 2, "WGL must convict r1 and r2: {:?}", check.lin);
}

/// Control: the identical scenario with all mutations off heals the
/// victim and passes every audit, convergence included.
#[test]
fn read_repair_scenario_is_clean_without_mutations() {
    let (check, w_seq, r2_seq, stored) = read_repair_scenario(ProtocolMutations::default(), true);
    assert_eq!(r2_seq, Some(w_seq), "repair healed the victim before r2");
    assert_eq!(stored, w_seq);
    assert!(check.is_clean(), "clean build must stay clean: {check:?}");
    // WGL is deliberately stronger than `is_clean()`: r1's engineered
    // staleness (the empty victim responds first under R=1) is legal
    // partial-quorum behaviour, yet still a linearizability violation.
    assert_eq!(check.lin.violation_count(), 1, "exactly r1's staleness: {:?}", check.lin);
    assert!(!check.lin.all_linearizable());
}

/// Two writes from two coordinators while the victim is down, so each
/// stashes a hint; the flush phases (stash time + interval) deliver the
/// *newer* version first and the *older* one second. A sound store
/// max-merges the late old hint into a no-op; `drop_version_merge`
/// overwrites and rolls the victim back between two reads that source it.
///
/// Returns `(report, seq1, seq2, r1 seq, r2 seq)`.
fn hint_rollback_scenario(
    mutations: ProtocolMutations,
    convergence: bool,
) -> (CheckReport, u64, u64, Option<u64>, Option<u64>) {
    let mut o = opts(43, mutations);
    o.hinted_handoff = true;
    o.hint_timeout_ms = 50.0;
    o.hint_flush_interval_ms = 200.0;
    let mut cluster = Cluster::new(o, net_const(1.0));
    cluster.enable_history();
    let key = 9u64;
    let victim = *cluster.replicas_of(key).iter().min().unwrap();
    let coords: Vec<usize> = (0..3).filter(|&n| n != victim).collect();

    cluster.crash_node_at(victim, ms(0.0), 350.0);
    // w1 at t=10: hint stashed at ~60, flush ticks at ~260, ~460, ...
    cluster.advance_to(ms(10.0));
    let w1 = cluster.write_from(coords[0], key);
    assert!(w1.commit.is_some());
    // w2 at t=150: hint stashed at ~200, flush ticks at ~400, ...
    cluster.advance_to(ms(150.0));
    let w2 = cluster.write_from(coords[1], key);
    assert!(w2.commit.is_some());
    assert!(w2.seq > w1.seq);

    // Victim recovers at 350. The ~400 flush delivers v2; r1 exposes it.
    // The ~460 flush then delivers the *older* v1; r2 re-reads the victim.
    let r1 = cluster.read_at_from(coords[1], key, ms(410.0));
    let r2 = cluster.read_at_from(coords[1], key, ms(470.0));
    cluster.advance_to(ms(1_000.0));

    let history = cluster.take_history();
    let check = check_run(&history, &cluster, convergence);
    (check, w1.seq.expect("committed"), w2.seq.expect("committed"), r1.op.seq, r2.op.seq)
}

/// `drop_version_merge`: the late old hint rolls the victim back, and the
/// second read goes backwards in time relative to the first — a
/// non-monotone exposure, with no phantoms (both versions are real).
#[test]
fn drop_version_merge_is_caught_as_non_monotone_exposure() {
    let mutations = ProtocolMutations { drop_version_merge: true, ..Default::default() };
    let (check, seq1, seq2, r1, r2) = hint_rollback_scenario(mutations, false);
    assert_eq!(r1, Some(seq2), "r1 sees the newer version the early flush delivered");
    assert_eq!(r2, Some(seq1), "mutation held: the late old hint rolled the victim back");
    assert!(check.order.non_monotone >= 1, "oracle missed the rollback: {check:?}");
    assert_eq!(check.order.phantoms, 0, "both exposed versions were really written");
    assert_eq!(check.order.lost_updates, 0, "neither write was acked by the victim");
    match check.order.first_non_monotone {
        Some(OrderViolation::NonMonotoneExposure { seen_seq, expected_seq, .. }) => {
            assert_eq!(seen_seq, seq1);
            assert_eq!(expected_seq, seq2);
        }
        other => panic!("expected a NonMonotoneExposure example, got {other:?}"),
    }
    // The rollback is also a WGL violation — r2 misses the committed v2 —
    // with a real window (v2's commit to r2's start).
    assert_eq!(check.lin.violation_count(), 1, "WGL must convict r2: {:?}", check.lin);
    assert!(check.lin.first_violation().unwrap().window_ns() > 0);
}

/// Control: with max-merge intact the late old hint is a no-op, both
/// reads see v2, and the full audit (convergence included) is clean.
#[test]
fn hint_rollback_scenario_is_clean_without_mutations() {
    let (check, _seq1, seq2, r1, r2) = hint_rollback_scenario(ProtocolMutations::default(), true);
    assert_eq!(r1, Some(seq2));
    assert_eq!(r2, Some(seq2), "max-merge ignores the stale hint");
    assert!(check.is_clean(), "clean build must stay clean: {check:?}");
    assert!(check.lin.all_linearizable(), "both reads saw the newest commit: {:?}", check.lin);
}

/// A hint is stashed for the crashed victim; replay should heal it after
/// recovery. Returns `(report, coordinator hint count, victim stored seq,
/// write seq)`.
fn hint_replay_scenario(
    mutations: ProtocolMutations,
    convergence: bool,
) -> (CheckReport, usize, u64, u64) {
    let mut o = opts(47, mutations);
    o.hinted_handoff = true;
    o.hint_timeout_ms = 50.0;
    o.hint_flush_interval_ms = 100.0;
    let mut cluster = Cluster::new(o, net_const(1.0));
    cluster.enable_history();
    let key = 5u64;
    let victim = *cluster.replicas_of(key).iter().min().unwrap();
    let coord = (0..3).find(|&n| n != victim).unwrap();

    cluster.crash_node_at(victim, ms(0.0), 300.0);
    cluster.advance_to(ms(10.0));
    let w = cluster.write_from(coord, key);
    assert!(w.commit.is_some());
    // Recovery at 300; flush ticks every 100 ms redeliver until acked.
    cluster.advance_to(ms(1_000.0));

    let history = cluster.take_history();
    let check = check_run(&history, &cluster, convergence);
    let hints = cluster.node(coord).hint_count();
    let stored = cluster.node(victim).stored_version(key).map(|v| v.seq).unwrap_or(0);
    (check, hints, stored, w.seq.expect("committed"))
}

/// `swallow_hints`: the flush timer fires but delivers nothing, so the
/// victim never converges — a final-state lost update, with the undying
/// hint still queued as the smoking gun.
#[test]
fn swallow_hints_is_caught_as_lost_update() {
    let mutations = ProtocolMutations { swallow_hints: true, ..Default::default() };
    let (check, hints, stored, w_seq) = hint_replay_scenario(mutations, true);
    assert_eq!(stored, 0, "mutation held: hint never replayed");
    assert_eq!(hints, 1, "the swallowed hint is never acked and never cleared");
    assert!(check.order.lost_updates >= 1, "oracle missed the regression: {check:?}");
    assert_eq!(check.order.non_monotone, 0);
    assert_eq!(check.order.phantoms, 0);
    match check.order.first_lost_update {
        Some(OrderViolation::LostUpdate { expected_seq, seen_seq, .. }) => {
            assert_eq!(expected_seq, w_seq);
            assert_eq!(seen_seq, 0);
        }
        other => panic!("expected a LostUpdate example, got {other:?}"),
    }
    // The subsumption gap, pinned: no read ever exposes the divergence,
    // so the history is trivially linearizable and WGL cannot catch this
    // mutation — only the final-state lost-update rule above does.
    assert!(check.lin.all_linearizable(), "a read-free history is vacuously linearizable");
}

/// Control: hint replay heals the victim and clears the hint; the full
/// audit is clean.
#[test]
fn hint_replay_scenario_is_clean_without_mutations() {
    let (check, hints, stored, w_seq) = hint_replay_scenario(ProtocolMutations::default(), true);
    assert_eq!(stored, w_seq, "hint replay healed the victim");
    assert_eq!(hints, 0, "delivered hint was acked and cleared");
    assert!(check.is_clean(), "clean build must stay clean: {check:?}");
    assert!(check.lin.all_linearizable(), "{:?}", check.lin);
}

/// A strict quorum (N=3, R=W=2) under nothing but message duplication:
/// 16 open-loop clients over 8 keys on exponential legs, every other
/// message delivered twice with the copies racing. Not engineered — the
/// regularity gate needs no victim, any read will do. With `healing`, read
/// repair and hinted handoff are on and node 0 is down from 800 to 1,200
/// ms, its store kept.
fn duplicated_strict_run(mutations: ProtocolMutations, healing: bool) -> CheckReport {
    let mut o = opts(53, mutations);
    o.replication = ReplicaConfig::new(3, 2, 2).unwrap();
    o.read_repair = healing;
    o.hinted_handoff = healing;
    let exp = |mean| Arc::new(Exponential::from_mean(mean));
    let mut cluster = Cluster::new(o, NetworkModel::w_ars(exp(5.0), exp(1.0)));
    cluster.enable_history();
    cluster.network().set_fault_profile(FaultProfile::new(53).with_duplicate(0.5)).unwrap();
    if healing {
        cluster.crash_node_at(0, ms(800.0), 400.0);
    }
    for _ in 0..16 {
        let source =
            OpStream::new(Poisson::per_second(100.0), UniformKeys::new(8), OpMix::new(0.5), 1);
        cluster.add_client(Box::new(source), ClientOptions::default());
    }
    cluster.start_clients();
    cluster.drain_window(ms(2_000.0));
    cluster.stop_clients();
    cluster.drain_window(ms(3_000.0));
    let history = cluster.take_history();
    check_run(&history, &cluster, false)
}

/// `drop_version_merge` breaks regularity on a strict quorum: the late
/// copy of an old replica write overwrites a newer version, a read quorum
/// then misses a write that committed before it began, and the report is
/// unclean on that count. Intact, the same run is regular — and clean.
#[test]
fn drop_version_merge_breaks_regularity_on_a_strict_quorum() {
    let mutations = ProtocolMutations { drop_version_merge: true, ..Default::default() };
    let check = duplicated_strict_run(mutations, false);
    assert!(check.labels.stale_reads > 0, "the rollback never surfaced: {check:?}");
    assert_eq!(check.regular(), Some(false));
    assert!(!check.is_clean());

    let check = duplicated_strict_run(ProtocolMutations::default(), false);
    assert!(check.labels.labelled_reads > 1_000, "{:?}", check.labels);
    assert_eq!(check.regular(), Some(true), "{check:?}");
    assert!(check.is_clean(), "clean build must stay clean: {check:?}");
}

/// The mutation matrix on a strict quorum whose healing paths are all live:
/// the duplicated run above with read repair, hinted handoff and one crash
/// that keeps the store, under each mutation. Every mutation changes the
/// run; what each breaks, both ways:
///
/// * **Regular but not order-clean: none.** `corrupt_read_repair` breaks
///   regularity *through* the order oracle — its fabricated versions are
///   read back as phantoms, the oracle's own class, while every label stays
///   fresh — and `drop_version_merge` through both halves at once: stale
///   labels, and the lost updates and rollbacks the oracle names.
/// * **Order-clean but not regular: none.** `skip_read_repair` and
///   `swallow_hints` are invisible to both: overlapping `R = W = 2` quorums
///   need neither a repair nor a hint to serve the newest committed
///   version, and every key is written again after the crash heals. (The
///   engineered scenarios above, where no later write covers the victim,
///   are where the order oracle convicts them.)
/// * **WGL convicts every cell**, the clean build included: under message
///   duplication a strict quorum is regular, not linearizable.
#[test]
fn the_mutation_matrix_on_a_healing_strict_quorum() {
    let clean = duplicated_strict_run(ProtocolMutations::default(), true);
    assert!(clean.labels.labelled_reads > 1_000, "{:?}", clean.labels);
    assert_eq!(clean.regular(), Some(true), "{clean:?}");
    assert!(clean.is_clean(), "clean build must stay clean: {clean:?}");
    assert!(!clean.lin.all_linearizable(), "{:?}", clean.lin);

    let flag = |set: fn(&mut ProtocolMutations)| {
        let mut m = ProtocolMutations::default();
        set(&mut m);
        m
    };
    // (mutation, regular(), [lost updates, rollbacks, phantoms] are zero,
    // all_linearizable())
    let matrix = [
        (flag(|m| m.skip_read_repair = true), Some(true), [true, true, true], false),
        (flag(|m| m.corrupt_read_repair = true), Some(false), [true, true, false], false),
        (flag(|m| m.drop_version_merge = true), Some(false), [false, false, true], false),
        (flag(|m| m.swallow_hints = true), Some(true), [true, true, true], false),
    ];
    for (mutations, regular, zero, linearizable) in matrix {
        let check = duplicated_strict_run(mutations, true);
        assert_ne!(check, clean, "{mutations:?} left the run untouched");
        let o = &check.order;
        let zeros = [o.lost_updates == 0, o.non_monotone == 0, o.phantoms == 0];
        let cell = (check.regular(), zeros, check.lin.all_linearizable());
        assert_eq!(cell, (regular, zero, linearizable), "{mutations:?}: {check:?}");
    }
}

/// The mutation struct itself: defaults are all-off and `any()` reflects
/// each flag, so a production config can assert it carries no mutations.
#[test]
fn default_mutations_are_inert() {
    let m = ProtocolMutations::default();
    assert!(!m.any());
    assert!(ProtocolMutations { skip_read_repair: true, ..Default::default() }.any());
    assert!(ProtocolMutations { corrupt_read_repair: true, ..Default::default() }.any());
    assert!(ProtocolMutations { drop_version_merge: true, ..Default::default() }.any());
    assert!(ProtocolMutations { swallow_hints: true, ..Default::default() }.any());
}

