//! Operation mixes and streaming operation sources.
//!
//! The streaming layer is the workload side of the open-loop concurrency
//! engine: an [`OpStream`] yields one time-stamped [`Op`] at a time (O(1)
//! memory), so in-sim client actors can pull arrivals lazily instead of
//! pre-materialising a `Vec<Op>`.

use crate::arrivals::{ArrivalProcess, StationaryArrivals};
use crate::keys::KeyChooser;
use rand::Rng;
use rand::RngCore;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Quorum read.
    Read,
    /// Quorum write.
    Write,
}

/// One operation in a generated trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Issue time (ms since trace start).
    pub at_ms: f64,
    /// Read or write.
    pub kind: OpKind,
    /// Target key.
    pub key: u64,
    /// Issuing client id.
    pub client: u32,
}

/// Read/write mix (e.g. LinkedIn's 60% read / 40% read-modify-write
/// traffic, §5.4).
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    read_fraction: f64,
}

impl OpMix {
    /// `read_fraction ∈ [0, 1]` of operations are reads.
    pub fn new(read_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&read_fraction));
        Self { read_fraction }
    }

    /// The LinkedIn mix from §5.4: 60% reads.
    pub fn linkedin() -> Self {
        Self::new(0.6)
    }

    /// All writes — e.g. the probe half of a write→read probe pair.
    pub fn writes_only() -> Self {
        Self::new(0.0)
    }

    /// Sample an operation kind.
    pub fn sample(&self, rng: &mut dyn RngCore) -> OpKind {
        if rng.gen::<f64>() < self.read_fraction {
            OpKind::Read
        } else {
            OpKind::Write
        }
    }
}

/// A streaming source of time-ordered operations.
///
/// This is the interface the open-loop client actors in `pbs-kvs` pull
/// from: one operation at a time, deterministic given the RNG, with no
/// buffering — memory stays O(1) regardless of how long the workload runs.
/// Sources must be `Send`: a client actor (and the source inside it) may
/// execute on any worker thread of the parallel engine.
pub trait OpSource: Send {
    /// Produce the next operation. `at_ms` values are nondecreasing and
    /// relative to the stream's own clock (its first call starts at 0 plus
    /// the first inter-arrival gap).
    fn next_op(&mut self, rng: &mut dyn RngCore) -> Op;
}

impl<S: OpSource + ?Sized> OpSource for Box<S> {
    fn next_op(&mut self, rng: &mut dyn RngCore) -> Op {
        (**self).next_op(rng)
    }
}

/// The canonical [`OpSource`]: arrivals × key popularity × read/write mix,
/// spread round-robin across `clients` logical client ids.
#[derive(Debug, Clone)]
pub struct OpStream<A, K> {
    arrivals: A,
    keys: K,
    mix: OpMix,
    clients: u32,
    now_ms: f64,
    idx: u64,
}

impl<A: ArrivalProcess, K: KeyChooser> OpStream<A, K> {
    /// Assemble a stream from its three ingredients.
    pub fn new(arrivals: A, keys: K, mix: OpMix, clients: u32) -> Self {
        assert!(clients >= 1);
        Self { arrivals, keys, mix, clients, now_ms: 0.0, idx: 0 }
    }
}

impl<A: ArrivalProcess, K: KeyChooser> OpSource for OpStream<A, K> {
    fn next_op(&mut self, rng: &mut dyn RngCore) -> Op {
        self.now_ms += self.arrivals.next_gap(rng);
        let op = Op {
            at_ms: self.now_ms,
            kind: self.mix.sample(rng),
            key: self.keys.choose(rng),
            client: (self.idx % self.clients as u64) as u32,
        };
        self.idx += 1;
        op
    }
}

/// A thread-shareable operation source: one immutable value serves any
/// number of clients, each of which carries only its own stream clock and
/// RNG.
///
/// This is the million-client face of [`OpSource`]: where a boxed
/// `OpStream` costs a heap allocation plus ~64 bytes *per client*, a
/// `SharedOpSource` is one `Arc` per worker — per-client marginal cost is
/// the 8-byte clock the caller already stores. Implementations must be
/// pure functions of `(now_ms, rng)` so that draws stay bit-reproducible
/// and clients cannot observe each other.
pub trait SharedOpSource: Send + Sync {
    /// Produce the next operation for a client whose stream clock (the
    /// `at_ms` of its previous operation, 0 initially) is `now_ms`.
    ///
    /// Must consume RNG draws in the exact order `gap, kind, key` so a
    /// shared stream replays bit-identically to a per-client
    /// [`OpStream`] over the same RNG. The returned `client` field is 0;
    /// the caller owns client identity.
    fn next_op_after(&self, now_ms: f64, rng: &mut dyn RngCore) -> Op;
}

/// The canonical [`SharedOpSource`]: arrivals × key popularity × read/write
/// mix, like [`OpStream`] but immutable. Requires [`StationaryArrivals`]
/// (Poisson / fixed-rate) because the arrival process is copied per draw.
#[derive(Debug, Clone, Copy)]
pub struct SharedStream<A, K> {
    arrivals: A,
    keys: K,
    mix: OpMix,
}

impl<A: StationaryArrivals, K: KeyChooser> SharedStream<A, K> {
    /// Assemble a shared stream from its three ingredients.
    pub fn new(arrivals: A, keys: K, mix: OpMix) -> Self {
        Self { arrivals, keys, mix }
    }
}

impl<A: StationaryArrivals, K: KeyChooser> SharedOpSource for SharedStream<A, K> {
    fn next_op_after(&self, now_ms: f64, rng: &mut dyn RngCore) -> Op {
        // Identical draw order to `OpStream::next_op`: gap, kind, key.
        let mut arrivals = self.arrivals;
        let at_ms = now_ms + arrivals.next_gap(rng);
        Op { at_ms, kind: self.mix.sample(rng), key: self.keys.choose(rng), client: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::Poisson;
    use crate::keys::UniformKeys;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mix_fraction_respected() {
        let mix = OpMix::new(0.75);
        let mut rng = StdRng::seed_from_u64(0);
        let n = 100_000;
        let reads = (0..n).filter(|_| mix.sample(&mut rng) == OpKind::Read).count();
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "{frac}");
    }

    #[test]
    fn degenerate_mixes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(OpMix::new(1.0).sample(&mut rng), OpKind::Read);
        assert_eq!(OpMix::writes_only().sample(&mut rng), OpKind::Write);
    }

    #[test]
    fn trace_is_time_ordered_and_round_robins_clients() {
        let mk = || {
            OpStream::new(Poisson::per_second(1000.0), UniformKeys::new(16), OpMix::linkedin(), 4)
        };
        let mut stream = mk();
        let mut rng = StdRng::seed_from_u64(2);
        let trace: Vec<Op> = (0..100).map(|_| stream.next_op(&mut rng)).collect();
        for w in trace.windows(2) {
            assert!(w[1].at_ms >= w[0].at_ms);
        }
        for (i, op) in trace.iter().enumerate() {
            assert_eq!(op.client, (i % 4) as u32, "client ids go round-robin");
        }
        assert!(trace.iter().all(|o| o.key < 16));
        // The collected trace is what a client pulling the same stream
        // through `dyn OpSource` sees, op for op.
        let mut boxed: Box<dyn OpSource> = Box::new(mk());
        let mut rng = StdRng::seed_from_u64(2);
        let pulled: Vec<Op> = (0..100).map(|_| boxed.next_op(&mut rng)).collect();
        assert_eq!(trace, pulled);
    }

    #[test]
    fn stream_is_o1_memory_and_monotone() {
        let mut stream = OpStream::new(
            Poisson::per_ms(1.0),
            UniformKeys::new(4),
            OpMix::linkedin(),
            2,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut last = 0.0;
        for _ in 0..10_000 {
            let op = stream.next_op(&mut rng);
            assert!(op.at_ms >= last);
            last = op.at_ms;
        }
    }

    /// The shared stream is a drop-in for a 1-client `OpStream`: same RNG,
    /// same clock, bit-identical ops — the contract the compact client
    /// table's shared-source mode rests on.
    #[test]
    fn shared_stream_replays_op_stream_bit_identically() {
        let mut boxed = OpStream::new(
            Poisson::per_second(750.0),
            UniformKeys::new(32),
            OpMix::linkedin(),
            1,
        );
        let shared = SharedStream::new(
            Poisson::per_second(750.0),
            UniformKeys::new(32),
            OpMix::linkedin(),
        );
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        let mut clock = 0.0;
        for _ in 0..512 {
            let a = boxed.next_op(&mut rng_a);
            let b = shared.next_op_after(clock, &mut rng_b);
            clock = b.at_ms;
            assert_eq!(a, b);
        }
    }
}
