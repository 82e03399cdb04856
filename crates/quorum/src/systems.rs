//! Quorum-system constructions: the counted R-of-N / W-of-N system
//! ([`ReplicaConfig`]), grid and tree.

use crate::nodeset::NodeSet;
use pbs_core::ReplicaConfig;
use rand::Rng;
use rand::RngCore;

/// A (possibly probabilistic) quorum system: a rule for drawing read and
/// write quorums over a universe of `n` replicas.
///
/// Strict systems guarantee every sampled read quorum intersects every
/// sampled write quorum; partial systems do not (§2.1).
pub trait QuorumSystem: Send + Sync {
    /// Number of replicas in the universe (≤ 64).
    fn universe(&self) -> u32;

    /// Draw a read quorum.
    fn sample_read(&self, rng: &mut dyn RngCore) -> NodeSet;

    /// Draw a write quorum.
    fn sample_write(&self, rng: &mut dyn RngCore) -> NodeSet;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_subset_sizes_and_uniformity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 5];
        let trials = 50_000;
        for _ in 0..trials {
            let s = random_subset(&mut rng, 5, 2);
            assert_eq!(s.len(), 2);
            for i in s.iter() {
                counts[i as usize] += 1;
            }
        }
        // Each node appears in a 2-of-5 subset with probability 2/5.
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / trials as f64;
            assert!((frac - 0.4).abs() < 0.02, "node {i}: {frac}");
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

    #[test]
    fn tree_minimum_quorum_is_a_path() {
        let sys = TreeQuorum::new(5, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let q = sys.sample_read(&mut rng);
        assert_eq!(q.len(), 5, "root-to-leaf path length = depth");
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
}
