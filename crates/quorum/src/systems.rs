//! Quorum-system constructions: the counted R-of-N / W-of-N system
//! ([`ReplicaConfig`]), grid and tree.

use crate::nodeset::NodeSet;
use pbs_core::ReplicaConfig;
use rand::Rng;
use rand::RngCore;

/// A (possibly probabilistic) quorum system over a universe of `n`
/// replicas: its read and write quorum families, given as predicates over
/// who answered, and a rule for drawing a member of each.
///
/// The families are upward-closed: adding a replica to a quorum keeps it a
/// quorum. A system is strict when every set that satisfies
/// [`is_read_quorum`](Self::is_read_quorum) intersects every set that
/// satisfies [`is_write_quorum`](Self::is_write_quorum); a partial system
/// allows a read quorum that misses a write quorum (§2.1). Every drawn
/// quorum satisfies its own predicate.
pub trait QuorumSystem: Send + Sync {
    /// Number of replicas in the universe (≤ 64).
    fn universe(&self) -> u32;

    /// Draw a read quorum.
    fn sample_read(&self, rng: &mut dyn RngCore) -> NodeSet;

    /// Draw a write quorum.
    fn sample_write(&self, rng: &mut dyn RngCore) -> NodeSet;

    /// Whether `answered` contains a read quorum.
    fn is_read_quorum(&self, answered: NodeSet) -> bool;

    /// Whether `answered` contains a write quorum.
    fn is_write_quorum(&self, answered: NodeSet) -> bool;

    /// The exact probabilities `(read, write)` that
    /// [`sample_read`](Self::sample_read) and
    /// [`sample_write`](Self::sample_write) put `node` (`< universe()`) in
    /// their quorum: the node's access probabilities under the strategy the
    /// samplers draw from. Summed over the universe they are the mean
    /// quorum sizes; [`analysis::load`](crate::analysis::load) is the
    /// busiest node's mean of the two.
    fn inclusion(&self, node: u32) -> (f64, f64);
}

/// Sample a uniformly random subset of size `k` from `0..n` (partial
/// Fisher–Yates over a stack buffer).
///
/// # Panics
///
/// If `n > 64`: a [`NodeSet`] holds at most 64 replicas.
pub(crate) fn random_subset(rng: &mut dyn RngCore, n: u32, k: u32) -> NodeSet {
    assert!(n <= 64, "quorum sampling supports at most 64 replicas (NodeSet), got N = {n}");
    debug_assert!(k <= n);
    let mut pool: [u32; 64] = [0; 64];
    for (i, slot) in pool.iter_mut().enumerate().take(n as usize) {
        *slot = i as u32;
    }
    let mut set = NodeSet::EMPTY;
    for i in 0..k as usize {
        let j = rng.gen_range(i..n as usize);
        pool.swap(i, j);
        set.insert(pool[i]);
    }
    set
}

/// The PBS probabilistic model: uniformly random read quorums of size `R`
/// and write quorums of size `W` over `N` replicas (Equation 1's setting).
/// [`ReplicaConfig::majority`] is its strict majority case.
impl QuorumSystem for ReplicaConfig {
    fn universe(&self) -> u32 {
        self.n()
    }

    fn sample_read(&self, rng: &mut dyn RngCore) -> NodeSet {
        random_subset(rng, self.n(), self.r())
    }

    fn sample_write(&self, rng: &mut dyn RngCore) -> NodeSet {
        random_subset(rng, self.n(), self.w())
    }

    #[inline]
    fn is_read_quorum(&self, answered: NodeSet) -> bool {
        answered.len() >= self.r()
    }

    #[inline]
    fn is_write_quorum(&self, answered: NodeSet) -> bool {
        answered.len() >= self.w()
    }

    fn inclusion(&self, _node: u32) -> (f64, f64) {
        let n = self.n() as f64;
        (self.r() as f64 / n, self.w() as f64 / n)
    }
}

/// Naor–Wool grid quorums: nodes arranged in a `side × side` grid; a quorum
/// is one full row plus one full column (chosen uniformly). Any two such
/// quorums intersect (one's row crosses the other's column), with quorum
/// size `2·side − 1 = O(√N)` — the classic low-load strict construction
/// referenced in §2.1.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    side: u32,
}

impl Grid {
    /// Build a `side × side` grid (`side² ≤ 64`, i.e. `side ≤ 8`).
    pub fn new(side: u32) -> Self {
        assert!(side >= 1 && side * side <= 64, "side² must be ≤ 64");
        Self { side }
    }

    fn node(&self, row: u32, col: u32) -> u32 {
        row * self.side + col
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> NodeSet {
        let row = rng.gen_range(0..self.side);
        let col = rng.gen_range(0..self.side);
        let mut set = NodeSet::EMPTY;
        for c in 0..self.side {
            set.insert(self.node(row, c));
        }
        for r in 0..self.side {
            set.insert(self.node(r, col));
        }
        set
    }

    /// Whether `set` holds a full row and a full column.
    fn is_quorum(&self, set: NodeSet) -> bool {
        let side = self.side;
        let row = (0..side).any(|r| (0..side).all(|c| set.contains(self.node(r, c))));
        let col = (0..side).any(|c| (0..side).all(|r| set.contains(self.node(r, c))));
        row && col
    }
}

impl QuorumSystem for Grid {
    fn universe(&self) -> u32 {
        self.side * self.side
    }

    fn sample_read(&self, rng: &mut dyn RngCore) -> NodeSet {
        self.sample_quorum(rng)
    }

    fn sample_write(&self, rng: &mut dyn RngCore) -> NodeSet {
        self.sample_quorum(rng)
    }

    fn is_read_quorum(&self, answered: NodeSet) -> bool {
        self.is_quorum(answered)
    }

    fn is_write_quorum(&self, answered: NodeSet) -> bool {
        self.is_quorum(answered)
    }

    /// A node is in the quorum when its row or its column is drawn:
    /// `2/side − 1/side²`.
    fn inclusion(&self, _node: u32) -> (f64, f64) {
        let p = (2 * self.side - 1) as f64 / (self.side * self.side) as f64;
        (p, p)
    }
}

/// Agrawal–El Abbadi tree quorums over a complete binary tree of `depth`
/// levels (`2^depth − 1 ≤ 63` nodes).
///
/// A quorum is formed recursively: take the subtree root plus a quorum of
/// one child, or (modeling an unavailable root) quorums of *both* children.
/// Any two tree quorums intersect; in the best case a quorum is a
/// root-to-leaf path of `O(log N)` nodes.
#[derive(Debug, Clone, Copy)]
pub struct TreeQuorum {
    depth: u32,
    /// Probability that a recursion step routes around the subtree root.
    skip_root_prob: f64,
}

impl TreeQuorum {
    /// Build with `1 ≤ depth ≤ 6` (≤ 63 nodes) and the probability of
    /// bypassing a subtree root (0 ⇒ always root+path, the minimum quorum).
    pub fn new(depth: u32, skip_root_prob: f64) -> Self {
        assert!((1..=6).contains(&depth));
        assert!((0.0..=1.0).contains(&skip_root_prob));
        Self { depth, skip_root_prob }
    }

    fn sample_subtree(&self, rng: &mut dyn RngCore, root: u32, level: u32, set: &mut NodeSet) {
        let leaf = level + 1 == self.depth;
        if leaf {
            set.insert(root);
            return;
        }
        let left = 2 * root + 1;
        let right = 2 * root + 2;
        if rng.gen::<f64>() < self.skip_root_prob {
            // Root unavailable: need quorums of both children.
            self.sample_subtree(rng, left, level + 1, set);
            self.sample_subtree(rng, right, level + 1, set);
        } else {
            set.insert(root);
            let child = if rng.gen::<bool>() { left } else { right };
            self.sample_subtree(rng, child, level + 1, set);
        }
    }

    /// Whether `set` holds a quorum of the subtree at `root`: the
    /// recursion [`sample_subtree`](Self::sample_subtree) draws from.
    fn is_subtree_quorum(&self, set: NodeSet, root: u32, level: u32) -> bool {
        if level + 1 == self.depth {
            return set.contains(root);
        }
        let left = self.is_subtree_quorum(set, 2 * root + 1, level + 1);
        let right = self.is_subtree_quorum(set, 2 * root + 2, level + 1);
        (set.contains(root) && (left || right)) || (left && right)
    }
}

impl QuorumSystem for TreeQuorum {
    fn universe(&self) -> u32 {
        (1u32 << self.depth) - 1
    }

    fn sample_read(&self, rng: &mut dyn RngCore) -> NodeSet {
        let mut set = NodeSet::EMPTY;
        self.sample_subtree(rng, 0, 0, &mut set);
        set
    }

    fn sample_write(&self, rng: &mut dyn RngCore) -> NodeSet {
        self.sample_read(rng)
    }

    fn is_read_quorum(&self, answered: NodeSet) -> bool {
        self.is_subtree_quorum(answered, 0, 0)
    }

    fn is_write_quorum(&self, answered: NodeSet) -> bool {
        self.is_read_quorum(answered)
    }

    /// The recursion enters a child of an entered subtree with probability
    /// `skip + (1 − skip)/2`, so a node at `level` is entered with
    /// probability `e = ((1 + skip)/2)^level`. A leaf is in the quorum once
    /// entered; an inner node unless its root is skipped: `(1 − skip)·e`.
    fn inclusion(&self, node: u32) -> (f64, f64) {
        debug_assert!(node < self.universe());
        let level = (node + 1).ilog2();
        let entered = ((1.0 + self.skip_root_prob) / 2.0).powi(level as i32);
        let leaf = level + 1 == self.depth;
        let p = if leaf { entered } else { (1.0 - self.skip_root_prob) * entered };
        (p, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every construction's samplers put each node in a quorum as often as
    /// [`QuorumSystem::inclusion`] says: over 20,000 read and 20,000 write
    /// draws per system, each node's frequency lies within six binomial
    /// standard deviations of its inclusion (about 2·10⁻⁹ per comparison,
    /// over some 1,200 comparisons); an inclusion of 0 or 1 is met exactly.
    /// The counted system draws through `random_subset`, so this also holds
    /// its subsets to size and uniformity.
    #[test]
    fn random_subset_sizes_and_uniformity() {
        const DRAWS: usize = 20_000;
        type Row = (String, Box<dyn QuorumSystem>);
        fn row<S: QuorumSystem + std::fmt::Debug + 'static>(sys: S) -> Row {
            (format!("{sys:?}"), Box::new(sys))
        }
        let grids = (1..=8).map(|side| row(Grid::new(side)));
        let trees =
            (1..=6).flat_map(|depth| [0.0, 0.3, 1.0].map(|skip| row(TreeQuorum::new(depth, skip))));
        let counted = [(9, 3, 3), (9, 1, 1)]
            .map(|(n, r, w)| ReplicaConfig::new(n, r, w).unwrap())
            .into_iter()
            .chain([ReplicaConfig::majority(25).unwrap()])
            .map(row);
        let mut rng = StdRng::seed_from_u64(1);
        for (label, sys) in grids.chain(trees).chain(counted) {
            let n = sys.universe() as usize;
            let (mut reads, mut writes) = (vec![0usize; n], vec![0usize; n]);
            for _ in 0..DRAWS {
                sys.sample_read(&mut rng).iter().for_each(|i| reads[i as usize] += 1);
                sys.sample_write(&mut rng).iter().for_each(|i| writes[i as usize] += 1);
            }
            for node in 0..n {
                let (read, write) = sys.inclusion(node as u32);
                for (kind, p, hits) in [("read", read, reads[node]), ("write", write, writes[node])]
                {
                    let freq = hits as f64 / DRAWS as f64;
                    let bound = 6.0 * (p * (1.0 - p) / DRAWS as f64).sqrt();
                    assert!(
                        (freq - p).abs() <= bound,
                        "{label}, node {node}: {kind} frequency {freq}, inclusion {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn majority_always_intersects() {
        for n in [1u32, 2, 3, 4, 5, 8, 15] {
            let sys = ReplicaConfig::majority(n).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..2000 {
                let a = sys.sample_read(&mut rng);
                let b = sys.sample_write(&mut rng);
                assert!(a.intersects(b), "N={n}");
            }
            if n <= 6 {
                assert!(exhaustively_strict(&sys), "N={n}");
            }
        }
    }

    #[test]
    fn grid_quorums_intersect_and_have_sqrt_size() {
        let sys = Grid::new(5);
        assert_eq!(sys.universe(), 25);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let a = sys.sample_read(&mut rng);
            let b = sys.sample_write(&mut rng);
            assert_eq!(a.len(), 9, "2·side − 1");
            assert!(a.intersects(b));
        }
    }

    #[test]
    fn tree_quorums_intersect() {
        for skip in [0.0, 0.3, 0.7] {
            let sys = TreeQuorum::new(4, skip);
            assert_eq!(sys.universe(), 15);
            let mut rng = StdRng::seed_from_u64(11);
            for _ in 0..3000 {
                let a = sys.sample_read(&mut rng);
                let b = sys.sample_write(&mut rng);
                assert!(a.intersects(b), "skip={skip}: {a:?} vs {b:?}");
            }
        }
    }

    /// With the root never skipped a quorum is a root-to-leaf path, and a
    /// minimal one: without any of its members it is no quorum.
    #[test]
    fn tree_minimum_quorum_is_a_path() {
        let mut rng = StdRng::seed_from_u64(0);
        for depth in 1..=6 {
            let sys = TreeQuorum::new(depth, 0.0);
            for _ in 0..50 {
                let q = sys.sample_read(&mut rng);
                assert_eq!(q.len(), depth, "root-to-leaf path length = depth");
                for m in q.iter() {
                    let without: NodeSet = q.iter().filter(|&x| x != m).collect();
                    assert!(!sys.is_read_quorum(without), "{q:?} without {m}");
                }
            }
        }
    }

    #[test]
    fn replica_config_draws_are_random_subset_draws() {
        let grid = [(1, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (5, 2, 4), (9, 3, 3)]
            .into_iter()
            .chain([(16, 1, 16), (25, 7, 19), (64, 1, 1), (64, 64, 33)])
            .map(|(n, r, w)| ReplicaConfig::new(n, r, w).unwrap());
        let majorities = [1, 2, 9, 25, 64].map(|n| ReplicaConfig::majority(n).unwrap());
        for (seed, cfg) in grid.chain(majorities).enumerate() {
            let mut ours = StdRng::seed_from_u64(seed as u64);
            let mut direct = StdRng::seed_from_u64(seed as u64);
            assert_eq!(cfg.universe(), cfg.n());
            for call in 0..200 {
                let (got, want) = if call % 3 == 0 {
                    (cfg.sample_read(&mut ours), random_subset(&mut direct, cfg.n(), cfg.r()))
                } else {
                    (cfg.sample_write(&mut ours), random_subset(&mut direct, cfg.n(), cfg.w()))
                };
                assert_eq!(got, want, "{cfg}, call {call}");
            }
        }
    }

    /// Every subset of `0..n`.
    fn subsets(n: u32) -> impl Iterator<Item = NodeSet> {
        (0..1u64 << n).map(move |bits| (0..n).filter(|i| (bits >> i) & 1 == 1).collect())
    }

    /// Panics unless adding any replica to each of `sets` keeps every
    /// quorum among them a quorum of the same kind.
    fn assert_upward_closed(sys: &dyn QuorumSystem, sets: impl IntoIterator<Item = NodeSet>) {
        for set in sets {
            for m in 0..sys.universe() {
                let mut grown = set;
                grown.insert(m);
                assert!(!sys.is_read_quorum(set) || sys.is_read_quorum(grown), "{set:?} + {m}");
                assert!(!sys.is_write_quorum(set) || sys.is_write_quorum(grown), "{set:?} + {m}");
            }
        }
    }

    /// Whether every read-quorum set over `sys`' universe intersects every
    /// write-quorum set, by exhaustion; panics unless both families are
    /// upward-closed.
    fn exhaustively_strict(sys: &dyn QuorumSystem) -> bool {
        let n = sys.universe();
        assert_upward_closed(sys, subsets(n));
        let writes: Vec<NodeSet> = subsets(n).filter(|&s| sys.is_write_quorum(s)).collect();
        subsets(n)
            .filter(|&s| sys.is_read_quorum(s))
            .all(|read| writes.iter().all(|&write| read.intersects(write)))
    }

    /// The counted system's predicates are popcount thresholds, and they
    /// make it strict exactly when `R + W > N`.
    #[test]
    fn replica_config_predicates_count_members() {
        for n in 1..=6 {
            for (r, w) in (1..=n).flat_map(|r| (1..=n).map(move |w| (r, w))) {
                let cfg = ReplicaConfig::new(n, r, w).unwrap();
                for s in subsets(n) {
                    assert_eq!(cfg.is_read_quorum(s), s.len() >= r, "{cfg}, {s:?}");
                    assert_eq!(cfg.is_write_quorum(s), s.len() >= w, "{cfg}, {s:?}");
                }
                assert_eq!(exhaustively_strict(&cfg), cfg.is_strict(), "{cfg}");
            }
        }
    }

    #[test]
    fn grid_and_tree_predicates_accept_their_draws_and_are_upward_closed() {
        let grids = (1..=8).map(|side| Box::new(Grid::new(side)) as Box<dyn QuorumSystem>);
        let trees = (1..=6).flat_map(|depth| {
            [0.0, 0.3, 1.0].map(|skip| Box::new(TreeQuorum::new(depth, skip)) as Box<_>)
        });
        let mut rng = StdRng::seed_from_u64(5);
        for sys in grids.chain(trees) {
            for _ in 0..200 {
                let (read, write) = (sys.sample_read(&mut rng), sys.sample_write(&mut rng));
                assert!(sys.is_read_quorum(read), "{read:?}");
                assert!(sys.is_write_quorum(write), "{write:?}");
                assert_upward_closed(sys.as_ref(), [read, write]);
            }
        }
    }

    #[test]
    fn no_grid_quorum_is_smaller_than_a_row_and_a_column() {
        for side in 1..=4 {
            let sys = Grid::new(side);
            let sizes = subsets(side * side).filter(|&s| sys.is_read_quorum(s)).map(|s| s.len());
            assert_eq!(sizes.min(), Some(2 * side - 1), "side {side}");
        }
    }

    /// Strictness judged on the predicates, over every subset of a small
    /// universe (512 for the 3 × 3 grid, 128 for the depth-3 tree).
    #[test]
    fn grid_and_tree_predicates_are_strict() {
        assert!(exhaustively_strict(&Grid::new(3)));
        assert!(exhaustively_strict(&TreeQuorum::new(3, 0.5)));
    }
}
