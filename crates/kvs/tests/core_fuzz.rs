//! The protocol core, fuzzed with no simulator around it.
//!
//! Three to five bare [`Node`] cores, and a host that is the delivery list
//! below and nothing else: every `Send` is dropped, duplicated or delayed
//! (so reordered) by a seeded roll, a replica write may meet a lagging
//! disk, every timer fires early or late, and one node may crash without
//! losing its store. What must hold however the inputs interleave:
//!
//! * no panic;
//! * a replica's stored version of a key never goes back;
//! * a delivered read names at least `R` distinct responders, a committed
//!   write at least `W` distinct ackers — the quorums count replicas, not
//!   messages;
//! * with `R + W > N` and no crash, a read invoked after a write's commit
//!   was delivered never returns an older version.

use pbs_core::ReplicaConfig;
use pbs_kvs::messages::{ClientToNode, NodeControl, NodeToClient, NodeToNode};
use pbs_kvs::node::{Input, Node, Output};
use pbs_kvs::{ClusterOptions, Ring, Version};
use pbs_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Who issues every operation: not a node id, so results are `Deliver`ed
/// here.
const CLIENT: usize = 64;
const HORIZON_MS: f64 = 1_500.0;

struct Case {
    seed: u64,
    nodes: usize,
    r: u32,
    w: u32,
    keys: u64,
    crash: bool,
    drop_version_merge: bool,
}

/// The host: pending inputs in `(time, seq)` order, and the chaos rolls.
struct Host {
    pending: BTreeMap<(SimTime, u64), (usize, Input)>,
    seq: u64,
    chaos: StdRng,
}

impl Host {
    fn post(&mut self, at: SimTime, to: usize, input: Input) {
        self.seq += 1;
        self.pending.insert((at, self.seq), (to, input));
    }

    fn after(&mut self, now: SimTime, lo_ms: f64, hi_ms: f64) -> SimTime {
        now + SimDuration::from_ms(self.chaos.gen_range(lo_ms..hi_ms))
    }

    /// Apply what `node` emitted at `now` as a lossy, duplicating,
    /// reordering network with jittery timers would; finished operations
    /// go to `delivered`.
    fn apply(
        &mut self,
        now: SimTime,
        node: usize,
        out: Vec<Output>,
        delivered: &mut Vec<NodeToClient>,
    ) {
        for output in out {
            match output {
                Output::Send { to, msg, .. } => {
                    let copies = match self.chaos.gen_range(0..10u32) {
                        0 => 0,
                        1 | 2 => 2,
                        _ => 1,
                    };
                    for _ in 0..copies {
                        let lags = matches!(msg, NodeToNode::ReplicaWrite { .. })
                            && self.chaos.gen_bool(0.1);
                        let disk_lag_ms = if lags { self.chaos.gen_range(0.1..30.0) } else { 0.0 };
                        let at = self.after(now, 0.05, 20.0);
                        self.post(at, to, Input::Peer { msg: msg.clone(), disk_lag_ms });
                    }
                }
                Output::SendSelf { after_ms, msg } => {
                    let at = now + SimDuration::from_ms(after_ms);
                    self.post(at, node, Input::Peer { msg, disk_lag_ms: 0.0 });
                }
                Output::Timer { after_ms, timer, .. } => {
                    let at = self.after(now, 0.5 * after_ms, 1.5 * after_ms + 0.001);
                    self.post(at, node, Input::Timer(timer));
                }
                Output::Deliver { to, result } => {
                    assert_eq!(to, CLIENT, "a result goes back to who asked");
                    delivered.push(result);
                }
                Output::Liveness { .. } => {}
            }
        }
    }
}

fn fuzz(case: &Case) {
    let replication = ReplicaConfig::new(3, case.r, case.w).unwrap();
    let mut opts = ClusterOptions::validation(replication, case.seed);
    opts.nodes = case.nodes as u32;
    opts.read_repair = case.seed & 1 == 0;
    opts.hinted_handoff = case.seed & 2 == 0;
    opts.hint_timeout_ms = 40.0;
    opts.hint_flush_interval_ms = 60.0;
    opts.sync_interval_ms = (case.seed & 4 == 0).then_some(150.0);
    opts.op_timeout_ms = 300.0;
    opts.mutations.drop_version_merge = case.drop_version_merge;
    let ring = Arc::new(Ring::new(opts.nodes, 16, 3));
    let mut cores: Vec<Node> =
        (0..case.nodes).map(|id| Node::new(id, opts, Arc::clone(&ring))).collect();
    let mut rngs: Vec<StdRng> =
        (0..case.nodes).map(|id| StdRng::seed_from_u64(case.seed ^ id as u64)).collect();
    let mut host =
        Host { pending: BTreeMap::new(), seq: 0, chaos: StdRng::seed_from_u64(!case.seed) };

    // The script: lifecycle controls, a stream of client operations with
    // unique ids, and perhaps one crash that keeps the store.
    for id in 0..case.nodes {
        host.post(SimTime::ZERO, id, Input::Control(NodeControl::StartSync));
        host.post(SimTime::ZERO, id, Input::Control(NodeControl::StartGc));
    }
    let mut at = SimTime::ZERO;
    for op_id in 1..=80u64 {
        at = host.after(at, 0.0, 12.0);
        let key = host.chaos.gen_range(0..case.keys);
        let req = if host.chaos.gen_bool(0.5) {
            ClientToNode::Write { op_id, key }
        } else {
            ClientToNode::Read { op_id, key }
        };
        let coordinator = host.chaos.gen_range(0..case.nodes);
        host.post(at, coordinator, Input::Client { from: CLIENT, req });
    }
    if case.crash {
        let at = host.after(SimTime::ZERO, 50.0, 600.0);
        let victim = host.chaos.gen_range(0..case.nodes);
        let crash = NodeControl::Crash { down_ms: host.chaos.gen_range(20.0..400.0), wipe: false };
        host.post(at, victim, Input::Control(crash));
    }

    let strict = !case.crash && case.r + case.w > 3;
    let mut stored: Vec<Vec<Option<Version>>> = vec![vec![None; case.keys as usize]; case.nodes];
    let mut committed: Vec<Option<Version>> = vec![None; case.keys as usize];
    let mut floor_at_invoke: HashMap<u64, Option<Version>> = HashMap::new();
    let mut delivered = Vec::new();
    while let Some(((now, _), (node, input))) = host.pending.pop_first() {
        if now > SimTime::from_ms(HORIZON_MS) {
            break;
        }
        if let Input::Client { req: ClientToNode::Read { op_id, key }, .. } = input {
            floor_at_invoke.insert(op_id, committed[key as usize]);
        }
        let mut out = Vec::new();
        cores[node].handle(now, input, &mut rngs[node], &mut out);
        for (key, seen) in stored[node].iter_mut().enumerate() {
            let now_stored = cores[node].stored_version(key as u64);
            assert!(now_stored >= *seen, "node {node}: stored version of key {key} went backwards");
            *seen = now_stored;
        }
        host.apply(now, node, out, &mut delivered);
        for result in delivered.drain(..) {
            match result {
                NodeToClient::Read { op_id, version, responders, .. } => {
                    assert!(
                        responders.count_ones() >= case.r,
                        "read {op_id} completed on responders {responders:#b}, R = {}",
                        case.r
                    );
                    if strict {
                        assert!(
                            version >= floor_at_invoke[&op_id],
                            "read {op_id} returned {version:?}, older than a write committed \
                             before it was invoked ({:?})",
                            floor_at_invoke[&op_id]
                        );
                    }
                }
                NodeToClient::Write { op_id, key, version, commit: Some(_), acked, .. } => {
                    assert!(
                        acked.count_ones() >= case.w,
                        "write {op_id} committed on ackers {acked:#b}, W = {}",
                        case.w
                    );
                    let newest = &mut committed[key as usize];
                    *newest = (*newest).max(Some(version));
                }
                NodeToClient::Write { commit: None, .. } => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn quorums_count_replicas_and_stores_only_move_forward(
        seed in any::<u64>(),
        nodes in 3usize..=5,
        r in 1u32..=3,
        w in 1u32..=3,
        keys in 1u64..=3,
        crash in any::<bool>(),
    ) {
        fuzz(&Case { seed, nodes, r, w, keys, crash, drop_version_merge: false });
    }
}

/// The monotone-store assertion has teeth: a replica that overwrites
/// blindly instead of keeping the newest version trips it.
#[test]
#[should_panic(expected = "went backwards")]
fn a_store_that_drops_the_version_merge_is_caught() {
    for seed in 0..16 {
        fuzz(&Case { seed, nodes: 3, r: 1, w: 1, keys: 1, crash: false, drop_version_merge: true });
    }
}
