//! The node's shell: what hosts a protocol core ([`Node`]) in the
//! simulator. It turns a message into an [`Input`], lends the core the
//! node's RNG, and applies the [`Output`]s in the order the core emitted
//! them. Everything the core does not know lives here and nowhere else in
//! the node layer: the network model and its fault decisions, disk lag,
//! clock skew, leg recording, the shared liveness map and the blocking
//! harness's mailbox. What the core defers — a timer, a lagging disk
//! apply — comes back as a typed message the node sends itself.

use crate::buggify::Delivery;
use crate::cluster::ClusterOptions;
use crate::fxhash::FxHashMap;
use crate::messages::{ClientIn, Msg, NodeIn, NodeToClient, NodeToNode};
use crate::network::{Leg, NetworkModel};
use crate::node::{Input, Node, Output};
use crate::ring::Ring;
use pbs_sim::{ActorId, Context};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared liveness map: nodes mark themselves down/up on crash/recovery,
/// and operation issuers (the blocking harness and in-sim client actors
/// alike) consult it to avoid handing an operation to a crashed
/// coordinator — which would silently become an op timeout.
#[derive(Debug)]
pub(crate) struct DownTracker {
    down: Vec<AtomicBool>,
}

impl DownTracker {
    /// All-up tracker over `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        Self { down: (0..nodes).map(|_| AtomicBool::new(false)).collect() }
    }

    /// Mark `node` down or up.
    pub(crate) fn set_down(&self, node: usize, down: bool) {
        self.down[node].store(down, Ordering::Relaxed);
    }

    /// Whether `node` is currently marked down.
    pub(crate) fn is_down(&self, node: usize) -> bool {
        self.down[node].load(Ordering::Relaxed)
    }

    /// Pick a coordinator uniformly at random among the **up** nodes of the
    /// `count` starting at `base`, falling back to the raw draw when every
    /// one is down (the op will then time out, as it must). Under the
    /// parallel engine a client may only address nodes of its own
    /// partition; everyone else passes `base = 0, count = nodes`. Consumes
    /// exactly one RNG draw regardless of crash state (one draw, then a
    /// linear probe), so healthy-cluster RNG streams are unchanged by this
    /// check.
    pub(crate) fn pick_up_node_in(&self, rng: &mut dyn RngCore, base: usize, count: usize) -> usize {
        let start = rng.gen_range(0..count);
        for probe in 0..count {
            let candidate = base + (start + probe) % count;
            if !self.is_down(candidate) {
                return candidate;
            }
        }
        base + start
    }
}

/// Recorded one-way delays per WARS leg.
#[derive(Debug, Clone, Default)]
pub struct LegSamples {
    /// Write-propagation delays (`W`).
    pub w: Vec<f64>,
    /// Write-ack delays (`A`).
    pub a: Vec<f64>,
    /// Read-request delays (`R`).
    pub r: Vec<f64>,
    /// Read-response delays (`S`).
    pub s: Vec<f64>,
}

impl LegSamples {
    /// Merge another node's samples into this one.
    pub fn merge(&mut self, other: &mut LegSamples) {
        self.w.append(&mut other.w);
        self.a.append(&mut other.a);
        self.r.append(&mut other.r);
        self.s.append(&mut other.s);
    }

    /// Total samples across the four legs.
    pub fn len(&self) -> usize {
        self.w.len() + self.a.len() + self.r.len() + self.s.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A protocol core and the simulator-side state around it.
pub(crate) struct NodeShell {
    id: ActorId,
    /// The protocol state machine.
    pub(crate) core: Node,
    net: Arc<NetworkModel>,
    /// The node's one random stream: the network's fault / latency
    /// decision per send, the disk-lag decision per replica write, and
    /// (lent to the core) the anti-entropy peer pick.
    rng: StdRng,
    down_map: Arc<DownTracker>,
    /// The core's effects for the event being handled (kept for its
    /// capacity).
    out: Vec<Output>,
    /// Results of operations the blocking harness injected — it poses as
    /// this node, so they are delivered here and it polls for them.
    pub(crate) mailbox: FxHashMap<u64, NodeToClient>,
    /// Per-leg one-way latency samples (WARS instrumentation, §5.5's
    /// "easily collected" measurements). Populated when
    /// [`ClusterOptions::record_leg_samples`] is set.
    pub(crate) leg_samples: LegSamples,
}

impl NodeShell {
    /// Host node `id` with its own deterministic RNG stream, derived from
    /// `opts.seed`. The down-tracker is shared cluster-wide.
    pub(crate) fn new(
        id: ActorId,
        opts: ClusterOptions,
        net: Arc<NetworkModel>,
        ring: Arc<Ring>,
        down_map: Arc<DownTracker>,
    ) -> Self {
        let rng_seed = opts.seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Self {
            id,
            core: Node::new(id, opts, ring),
            net,
            rng: StdRng::seed_from_u64(rng_seed),
            down_map,
            out: Vec::new(),
            mailbox: FxHashMap::default(),
            leg_samples: LegSamples::default(),
        }
    }

    /// A message addressed to this node has arrived — a timer it set on
    /// itself included. Hand it to the core, lending it the RNG, and apply
    /// what the core emits, in order.
    pub(crate) fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ActorId, msg: NodeIn) {
        let now_ms = ctx.now().as_ms();
        let input = match msg {
            NodeIn::Client(req) => Input::Client { from, req },
            NodeIn::Control(control) => Input::Control(control),
            NodeIn::Timer(timer) => Input::Timer(timer),
            NodeIn::Peer(msg) => {
                // A crashed node's disk does nothing, so it draws nothing.
                let lags = matches!(msg, NodeToNode::ReplicaWrite { .. }) && !self.core.is_down();
                let disk_lag_ms =
                    if lags { self.net.disk_lag_ms(self.id, now_ms, &mut self.rng) } else { 0.0 };
                Input::Peer { msg, disk_lag_ms }
            }
        };
        let mut out = std::mem::take(&mut self.out);
        self.core.handle(ctx.now(), input, &mut self.rng, &mut out);
        for output in out.drain(..) {
            match output {
                Output::Send { leg, to, msg } => self.send(ctx, leg, to, msg),
                Output::SendSelf { after_ms, msg } => {
                    ctx.send(self.id, after_ms, Msg::Node(NodeIn::Peer(msg)));
                }
                Output::Timer { after_ms, protocol_clock, timer } => {
                    // A protocol interval is local time: under the node's
                    // buggify clock skew the simulator waits the global
                    // delay it corresponds to (identity without a fault
                    // profile).
                    let delay = if protocol_clock {
                        self.net.clock_of(self.id, now_ms).global_delay_ms(after_ms)
                    } else {
                        after_ms
                    };
                    ctx.send(self.id, delay, Msg::Node(NodeIn::Timer(timer)));
                }
                Output::Deliver { to, result } if to == self.id => {
                    self.mailbox.insert(result.op_id(), result);
                }
                Output::Deliver { to, result } => {
                    ctx.send(to, 0.0, Msg::Clients(ClientIn::Reply(result)));
                }
                Output::Liveness { down } => self.down_map.set_down(self.id, down),
            }
        }
        self.out = out;
    }

    /// Send on `leg`: whether the message arrives, when, and how often is
    /// the network model's decision alone (partition, latency regime, and
    /// the fault-schedule segment active at the sender's current time).
    fn send(&mut self, ctx: &mut Context<'_, Msg>, leg: Leg, to: ActorId, msg: NodeToNode) {
        let now_ms = ctx.now().as_ms();
        let msg = Msg::Node(NodeIn::Peer(msg));
        match self.net.transmit_buggified(leg, self.id, to, now_ms, &mut self.rng) {
            Delivery::Dropped => {} // partitioned away or buggify drop
            Delivery::Once(delay) => {
                self.record_leg(leg, delay);
                ctx.send(to, delay, msg);
            }
            Delivery::Twice(first, second) => {
                // An at-least-once network delivered the message twice;
                // both copies are real deliveries with real delays.
                self.record_leg(leg, first);
                self.record_leg(leg, second);
                ctx.send(to, first, msg.clone());
                ctx.send(to, second, msg);
            }
        }
    }

    fn record_leg(&mut self, leg: Leg, delay: f64) {
        if self.core.opts.record_leg_samples {
            match leg {
                Leg::W => self.leg_samples.w.push(delay),
                Leg::A => self.leg_samples.a.push(delay),
                Leg::R => self.leg_samples.r.push(delay),
                Leg::S => self.leg_samples.s.push(delay),
            }
        }
    }
}
