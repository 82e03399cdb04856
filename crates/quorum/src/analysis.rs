//! Analysis of quorum systems: intersection probability and k-staleness by
//! Monte Carlo, and load computed exactly from each node's inclusion
//! probability.

use crate::systems::QuorumSystem;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Estimate the probability that a random read quorum intersects a random
/// write quorum — `1 − p_s` in Equation 1's terms.
pub fn intersection_probability<S: QuorumSystem + ?Sized>(
    sys: &S,
    trials: usize,
    seed: u64,
) -> f64 {
    assert!(trials > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0usize;
    for _ in 0..trials {
        let w = sys.sample_write(&mut rng);
        let r = sys.sample_read(&mut rng);
        if r.intersects(w) {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

/// Monte-Carlo PBS k-staleness violation for an arbitrary quorum system:
/// probability that a read quorum misses all of the last `k` independent
/// write quorums (the general form of Equation 2, frozen quorums).
pub fn k_staleness_mc<S: QuorumSystem + ?Sized>(
    sys: &S,
    k: u32,
    trials: usize,
    seed: u64,
) -> f64 {
    assert!(k >= 1 && trials > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut misses_all = 0usize;
    for _ in 0..trials {
        let r = sys.sample_read(&mut rng);
        let mut missed = true;
        for _ in 0..k {
            let w = sys.sample_write(&mut rng);
            if r.intersects(w) {
                missed = false;
                break;
            }
        }
        if missed {
            misses_all += 1;
        }
    }
    misses_all as f64 / trials as f64
}

/// Load of a quorum system *under its own sampling strategy*: the access
/// probability of its busiest replica, reads and writes weighted equally —
/// the largest `(read + write)/2` of [`QuorumSystem::inclusion`] over the
/// universe. Nothing is sampled, so any universe size is allowed.
///
/// This is an upper bound on the Naor–Wool load (which optimises over all
/// access strategies); for symmetric systems — the R-of-N / W-of-N
/// [`ReplicaConfig`](pbs_core::ReplicaConfig) system, majority included, and
/// [`crate::Grid`] with uniform row/column choice — uniform sampling is
/// optimal and the two are equal. A [`crate::TreeQuorum`]'s sampler is not
/// optimal in general: at depth 2 the tree is the 2-of-3 majority, load
/// 2/3, which the sampler reaches only at skip probability 1/3.
pub fn load<S: QuorumSystem + ?Sized>(sys: &S) -> f64 {
    (0..sys.universe())
        .map(|node| {
            let (read, write) = sys.inclusion(node);
            (read + write) / 2.0
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{Grid, TreeQuorum};
    use pbs_core::{staleness, ReplicaConfig};

    #[test]
    fn random_fixed_matches_eq1_closed_form() {
        for (n, r, w) in [(3u32, 1u32, 1u32), (3, 1, 2), (5, 2, 1), (10, 3, 2)] {
            let cfg = ReplicaConfig::new(n, r, w).unwrap();
            let mc = 1.0 - intersection_probability(&cfg, 200_000, 42);
            let exact = staleness::non_intersection_probability(cfg);
            assert!(
                (mc - exact).abs() < 0.005,
                "N={n} R={r} W={w}: MC {mc} vs exact {exact}"
            );
        }
    }

    #[test]
    fn random_fixed_k_staleness_matches_eq2() {
        let cfg = ReplicaConfig::new(3, 1, 1).unwrap();
        for k in [1u32, 2, 3, 5] {
            let mc = k_staleness_mc(&cfg, k, 200_000, 7);
            let exact = staleness::k_staleness_violation(cfg, k);
            assert!((mc - exact).abs() < 0.005, "k={k}: MC {mc} vs exact {exact}");
        }
    }

    #[test]
    fn strict_systems_always_intersect() {
        let systems: Vec<(Box<dyn QuorumSystem>, &str)> = vec![
            (Box::new(ReplicaConfig::majority(7).unwrap()), "majority N=7"),
            (Box::new(Grid::new(4)), "grid 4×4"),
            (Box::new(TreeQuorum::new(4, 0.25)), "tree depth 4"),
            (Box::new(ReplicaConfig::new(5, 3, 3).unwrap()), "N=5, R=W=3"),
        ];
        for (sys, label) in &systems {
            let p = intersection_probability(sys.as_ref(), 20_000, 3);
            assert_eq!(p, 1.0, "{label}");
        }
    }

    #[test]
    fn grid_load_is_near_two_over_sqrt_n() {
        // Row∪column quorums of size 2√N−1 under uniform choice give each
        // node access probability (2√N−1)/N ≈ 2/√N.
        let load = load(&Grid::new(5));
        assert!((load - 9.0 / 25.0).abs() < 1e-12, "load {load}");
    }

    #[test]
    fn majority_load_is_about_half() {
        let load = load(&ReplicaConfig::majority(9).unwrap());
        assert!((load - 5.0 / 9.0).abs() < 1e-12, "load {load}");
    }

    #[test]
    fn partial_quorum_load_beats_strict_bound() {
        // §3.3's point: a partial system's busiest node can fall below the
        // strict 1/√N floor.
        let n = 16u32;
        let load = load(&ReplicaConfig::new(n, 1, 1).unwrap());
        assert!((load - 1.0 / 16.0).abs() < 1e-12, "load {load}");
        let strict_floor = pbs_core::load::strict_load_lower_bound(n);
        assert!(load < strict_floor, "partial load {load}, strict floor {strict_floor}");
    }

    #[test]
    fn tree_quorum_root_is_the_bottleneck() {
        // Root-path tree quorums are small (O(log N)) but concentrate load
        // on the root: with skip=0 every quorum contains it → load 1.
        let tl = load(&TreeQuorum::new(4, 0.0));
        assert!((tl - 1.0).abs() < 1e-12, "root load {tl}");
        // Routing around the root with some probability spreads the load,
        // and the root, in 1 − skip of the quorums, is still the busiest.
        let sl = load(&TreeQuorum::new(4, 0.4));
        assert!((sl - 0.6).abs() < 1e-12, "skip=0.4 load {sl}");
        // The depth-2 tree is the 2-of-3 majority: skip 1/3 balances the
        // root (2/3) against each leaf ((1 + 1/3)/2) at its load 2/3.
        let balanced = load(&TreeQuorum::new(2, 1.0 / 3.0));
        assert!((balanced - 2.0 / 3.0).abs() < 1e-12, "depth-2 load {balanced}");
    }

    /// Sampling needs a 64-replica [`NodeSet`](crate::NodeSet); the load
    /// does not.
    #[test]
    fn load_is_computed_beyond_64_replicas() {
        assert_eq!(load(&ReplicaConfig::new(100, 30, 30).unwrap()), 0.3);
    }

    #[test]
    #[should_panic(expected = "at most 64 replicas")]
    fn intersection_probability_refuses_more_than_64_replicas() {
        intersection_probability(&ReplicaConfig::new(65, 1, 1).unwrap(), 1, 0);
    }
}
