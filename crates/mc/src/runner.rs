//! The deterministic sharded trial runner.
//!
//! Every Monte-Carlo workload in the workspace funnels through [`Runner`]:
//! `trials` are split across `threads` shards, shard `i` derives its RNG
//! seed as `rand::child(seed, i)`, and per-shard accumulators are merged in
//! ascending shard order. The result is therefore **bit-reproducible for a
//! fixed `(seed, threads)` pair** — independent of scheduling, core count,
//! or whether shards actually ran concurrently — and two base seeds draw
//! two independent samples.
//!
//! Determinism contract:
//!
//! 1. shard `i` runs `trials/threads` trials, plus one extra for the first
//!    `trials % threads` shards (so shard sizes depend only on
//!    `(trials, threads)`);
//! 2. shard `i` seeds a fresh [`StdRng`] from `rand::child(seed, i)` (shard
//!    0 therefore replays the unsharded `seed` stream exactly);
//! 3. accumulators merge left-to-right in shard order, regardless of
//!    completion order.
//!
//! Changing `threads` changes which RNG stream produces which trial, so
//! results for different thread counts agree only *statistically* (within
//! Monte-Carlo error), not bitwise.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-shard accumulators that can be folded into one result.
///
/// `merge` must be associative with respect to the sample streams it
/// absorbs; the runner always folds shards left-to-right in shard order,
/// so implementations need not be commutative.
pub trait Mergeable {
    /// Fold `other` (a later shard's accumulator) into `self`.
    fn merge(&mut self, other: Self);
}

impl<A: Mergeable, B: Mergeable> Mergeable for (A, B) {
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
    }
}

/// Fallible shards: accumulators merge while every shard succeeds, and the
/// first failing shard's error is the result.
impl<A: Mergeable, E> Mergeable for Result<A, E> {
    fn merge(&mut self, other: Self) {
        match (self.as_mut(), other) {
            (Ok(a), Ok(b)) => a.merge(b),
            (Ok(_), Err(e)) => *self = Err(e),
            (Err(_), _) => {}
        }
    }
}

impl<A: Mergeable, B: Mergeable, C: Mergeable> Mergeable for (A, B, C) {
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
        self.2.merge(other.2);
    }
}

impl Mergeable for Vec<u64> {
    /// Element-wise sum; length mismatches extend with the longer tail.
    fn merge(&mut self, other: Self) {
        if self.len() < other.len() {
            self.resize(other.len(), 0);
        }
        for (a, b) in self.iter_mut().zip(other) {
            *a += b;
        }
    }
}

/// Everything a shard closure may want to know about its slice of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// Shard index in `0..threads`.
    pub index: usize,
    /// Trials assigned to this shard (may be 0 when `threads > trials`).
    pub trials: usize,
    /// The shard's derived seed, `rand::child(runner_seed, index)` — already
    /// used to seed the `StdRng` handed to the closure, exposed for
    /// workloads that seed their own sub-generators (e.g. whole-cluster
    /// simulations).
    pub seed: u64,
}

/// A deterministic sharded Monte-Carlo runner (see module docs for the
/// determinism contract).
///
/// ```
/// use pbs_mc::{Mergeable, Runner, ShardInfo};
/// use rand::rngs::StdRng;
/// use rand::Rng;
///
/// // Estimate P(u < 0.3) over 100k trials on 4 shards. The counts are
/// // bit-reproducible for this (seed, threads) pair.
/// struct Hits(u64);
/// impl Mergeable for Hits {
///     fn merge(&mut self, other: Self) { self.0 += other.0; }
/// }
///
/// let runner = Runner::new(100_000, 42, 4);
/// let count = |rng: &mut StdRng, info: ShardInfo| {
///     Hits((0..info.trials).filter(|_| rng.gen::<f64>() < 0.3).count() as u64)
/// };
/// let hits = runner.run(count);
/// let p = hits.0 as f64 / runner.trials() as f64;
/// assert!((p - 0.3).abs() < 0.01);
/// assert_eq!(hits.0, runner.run(count).0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    trials: usize,
    seed: u64,
    threads: usize,
}

impl Runner {
    /// Configure a run of `trials` total trials over `threads` shards.
    ///
    /// Panics if `threads == 0`. `trials == 0` is allowed (every shard
    /// sees zero trials and accumulators merge empty).
    pub fn new(trials: usize, seed: u64, threads: usize) -> Self {
        assert!(threads > 0, "need at least one shard");
        Self { trials, seed, threads }
    }

    /// Total trials across all shards.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Base seed of the run.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of shards.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The number of trials shard `i` executes: an even split with the
    /// remainder spread over the lowest-indexed shards.
    pub fn shard_trials(&self, index: usize) -> usize {
        assert!(index < self.threads);
        let base = self.trials / self.threads;
        let extra = usize::from(index < self.trials % self.threads);
        base + extra
    }

    /// Shard `i`'s derived RNG seed: `rand::child(seed, i)`.
    pub fn shard_seed(&self, index: usize) -> u64 {
        assert!(index < self.threads);
        rand::child(self.seed, index as u64)
    }

    /// The host's available parallelism (≥ 1) — a command line's default
    /// for `--threads`. Library code takes `threads` from its caller and
    /// never calls this: a result must not depend on the host it ran on.
    pub fn available_threads() -> usize {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    }

    /// Run one closure invocation per shard and fold the accumulators in
    /// shard order.
    ///
    /// The closure receives a freshly seeded [`StdRng`] (from
    /// [`shard_seed`](Self::shard_seed)) and the shard's [`ShardInfo`]; it
    /// must execute exactly `info.trials` trials to honour the determinism
    /// contract. With `threads == 1` the shard runs inline on the calling
    /// thread — no spawn, identical results.
    pub fn run<A, F>(&self, shard_fn: F) -> A
    where
        A: Mergeable + Send,
        F: Fn(&mut StdRng, ShardInfo) -> A + Sync,
    {
        let shard = |index: usize| -> A {
            let info = ShardInfo {
                index,
                trials: self.shard_trials(index),
                seed: self.shard_seed(index),
            };
            let mut rng = StdRng::seed_from_u64(info.seed);
            shard_fn(&mut rng, info)
        };
        if self.threads == 1 {
            return shard(0);
        }
        let mut results: Vec<A> = Vec::with_capacity(self.threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..self.threads).map(|i| scope.spawn(move || shard(i))).collect();
            for h in handles {
                results.push(h.join().expect("Monte-Carlo shard panicked"));
            }
        });
        let mut folded = results.remove(0);
        for acc in results {
            folded.merge(acc);
        }
        folded
    }

    /// Whole-run replication over [`run`](Self::run): each trial is one
    /// independent run, and the run with global index `j` (its shard's first
    /// index plus its place in the shard) is handed the seed
    /// `rand::child(seed, j)`, so the set of run seeds depends on
    /// `(seed, trials)` alone, not on `threads`. Each shard folds its runs
    /// into `init()` in run order.
    pub fn run_replicas<A, FI, FR>(&self, init: FI, replica: FR) -> A
    where
        A: Mergeable + Send,
        FI: Fn() -> A + Sync,
        FR: Fn(u64) -> A + Sync,
    {
        self.run(|_rng, info| {
            let first: usize = (0..info.index).map(|i| self.shard_trials(i)).sum();
            let mut acc = init();
            for j in first..first + info.trials {
                acc.merge(replica(rand::child(self.seed, j as u64)));
            }
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[derive(Default)]
    struct Sum(f64, u64);
    impl Mergeable for Sum {
        fn merge(&mut self, other: Self) {
            self.0 += other.0;
            self.1 += other.1;
        }
    }

    /// Each shard sums its `info.trials` uniform draws.
    fn sum_uniforms(rng: &mut StdRng, info: ShardInfo) -> Sum {
        let mut acc = Sum::default();
        for _ in 0..info.trials {
            acc.0 += rng.gen::<f64>();
            acc.1 += 1;
        }
        acc
    }

    #[test]
    fn shard_sizes_partition_trials() {
        let r = Runner::new(10, 0, 4);
        let sizes: Vec<usize> = (0..4).map(|i| r.shard_trials(i)).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        // More shards than trials: trailing shards are empty.
        let r = Runner::new(2, 0, 5);
        let sizes: Vec<usize> = (0..5).map(|i| r.shard_trials(i)).collect();
        assert_eq!(sizes, vec![1, 1, 0, 0, 0]);
    }

    #[test]
    fn fallible_shards_merge_until_the_first_error() {
        let run = |fail_from: usize| {
            Runner::new(8, 0, 4).run(|_rng, info| {
                if info.index >= fail_from {
                    Err(info.index)
                } else {
                    Ok(Sum(1.0, info.trials as u64))
                }
            })
        };
        let all_ok = run(4).expect("no shard failed");
        assert_eq!((all_ok.0, all_ok.1), (4.0, 8));
        assert_eq!(run(2).map(|s| s.1), Err(2), "first failing shard wins");
        assert_eq!(run(0).map(|s| s.1), Err(0));
    }

    #[test]
    fn shard_seed_is_the_child_seed() {
        let r = Runner::new(8, 0b1010, 4);
        assert_eq!(r.shard_seed(0), 0b1010);
        for i in 1..4 {
            assert_eq!(r.shard_seed(i), rand::child(0b1010, i as u64));
        }
    }

    /// No derived seed of one base seed equals a derived seed of another
    /// (or another of its own): shard seeds at 2, 4, 8 and 64 threads and
    /// replica seeds of up to 16 runs are all `child(base, stream)` with
    /// `stream < 64`.
    #[test]
    fn child_seeds_of_nearby_bases_are_distinct() {
        let mut seeds: Vec<u64> =
            (0..4096u64).flat_map(|base| (0..64).map(move |s| rand::child(base, s))).collect();
        seeds.sort_unstable();
        let total = seeds.len();
        seeds.dedup();
        assert_eq!(seeds.len(), total, "two (base, stream) pairs share a seed");
    }

    #[test]
    fn identical_seed_and_threads_bitwise_identical() {
        let run = || Runner::new(10_000, 99, 4).run(sum_uniforms);
        let (a, b) = (run(), run());
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "must be bit-reproducible");
        assert_eq!(a.1, 10_000);
        assert_eq!(b.1, 10_000);
    }

    #[test]
    fn single_thread_matches_shard_zero_stream() {
        // threads=1 must replay the plain `seed` stream (shard 0, seed^0).
        let sharded = Runner::new(1_000, 7, 1).run(sum_uniforms);
        let mut rng = StdRng::seed_from_u64(7);
        let direct: f64 = (0..1_000).map(|_| rng.gen::<f64>()).sum();
        assert_eq!(sharded.0.to_bits(), direct.to_bits());
    }

    #[test]
    fn thread_counts_agree_statistically() {
        let mean = |threads: usize| {
            let s = Runner::new(200_000, 1, threads).run(sum_uniforms);
            s.0 / s.1 as f64
        };
        let (m1, m4) = (mean(1), mean(4));
        assert!((m1 - 0.5).abs() < 0.005, "{m1}");
        assert!((m4 - 0.5).abs() < 0.005, "{m4}");
    }

    #[test]
    fn merge_order_is_shard_order() {
        // A non-commutative accumulator (records shard indices in order).
        struct Order(Vec<u64>);
        impl Mergeable for Order {
            fn merge(&mut self, other: Self) {
                self.0.extend(other.0);
            }
        }
        let order = Runner::new(8, 0, 8).run(|_rng, info| Order(vec![info.index as u64]));
        assert_eq!(order.0, (0..8).collect::<Vec<u64>>());
    }

    struct Seeds(Vec<u64>);
    impl Mergeable for Seeds {
        fn merge(&mut self, other: Self) {
            self.0.extend(other.0);
        }
    }

    fn replica_seeds(trials: usize, seed: u64, threads: usize) -> Vec<u64> {
        Runner::new(trials, seed, threads)
            .run_replicas(|| Seeds(Vec::new()), |seed| Seeds(vec![seed]))
            .0
    }

    #[test]
    fn replica_seeds_follow_the_global_index() {
        let want: Vec<u64> = (0..3).map(|j| rand::child(0b1010, j)).collect();
        assert_eq!(replica_seeds(3, 0b1010, 2), want);
        assert_eq!(want[0], 0b1010, "run 0 keeps the base seed");
    }

    #[test]
    fn replica_seeds_do_not_depend_on_threads() {
        let mut one = replica_seeds(13, 7, 1);
        one.sort_unstable();
        for threads in [2, 3, 8] {
            let mut seeds = replica_seeds(13, 7, threads);
            seeds.sort_unstable();
            assert_eq!(seeds, one, "{threads} threads");
        }
    }

    #[test]
    fn vec_u64_merge_sums_elementwise() {
        let mut a = vec![1, 2];
        a.merge(vec![10, 20, 30]);
        assert_eq!(a, vec![11, 22, 30]);
    }

    #[test]
    fn zero_trials_allowed() {
        let s = Runner::new(0, 3, 4).run(|rng, info| {
            assert_eq!(info.trials, 0);
            sum_uniforms(rng, info)
        });
        assert_eq!(s.1, 0);
    }
}
