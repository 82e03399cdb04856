//! Monte-Carlo analysis of quorum systems: intersection probability,
//! k-staleness, and load.

use crate::nodeset::NodeSet;
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

/// Measured load of a quorum system *under its own sampling strategy*: the
/// access frequency of the busiest replica across `trials` quorum draws
/// (reads and writes weighted equally).
///
/// This is an upper bound on the Naor–Wool load (which optimises over all
/// access strategies); for symmetric systems — the R-of-N / W-of-N
/// [`ReplicaConfig`](pbs_core::ReplicaConfig) system, majority included, and
/// [`crate::Grid`] with uniform row/column choice — uniform sampling is
/// optimal and the measured value converges to the true load.
pub fn measure_load<S: QuorumSystem + ?Sized>(sys: &S, trials: usize, seed: u64) -> f64 {
    assert!(trials > 0);
    let n = sys.universe() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = vec![0u64; n];
    let mut total_quorums = 0u64;
    let record = |q: NodeSet, counts: &mut Vec<u64>| {
        for i in q.iter() {
            counts[i as usize] += 1;
        }
    };
    for _ in 0..trials {
        record(sys.sample_read(&mut rng), &mut counts);
        record(sys.sample_write(&mut rng), &mut counts);
        total_quorums += 2;
    }
    let busiest = counts.iter().copied().max().unwrap_or(0);
    busiest as f64 / total_quorums as f64
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
        // node access probability ≈ (2√N−1)/N ≈ 2/√N.
        let sys = Grid::new(5);
        let load = measure_load(&sys, 100_000, 1);
        let expected = (2.0 * 5.0 - 1.0) / 25.0;
        assert!((load - expected).abs() < 0.01, "load {load} vs {expected}");
    }

    #[test]
    fn majority_load_is_about_half() {
        let sys = ReplicaConfig::majority(9).unwrap();
        let load = measure_load(&sys, 100_000, 2);
        assert!((load - 5.0 / 9.0).abs() < 0.01, "load {load}");
    }

    #[test]
    fn partial_quorum_load_beats_strict_bound() {
        // §3.3's point: a partial system's busiest node can fall below the
        // strict 1/√N floor.
        let n = 16u32;
        let partial = ReplicaConfig::new(n, 1, 1).unwrap();
        let load = measure_load(&partial, 100_000, 5);
        let strict_floor = pbs_core::load::strict_load_lower_bound(n);
        assert!(
            load < strict_floor,
            "partial load {load} should beat strict floor {strict_floor}"
        );
    }

    #[test]
    fn tree_quorum_root_is_the_bottleneck() {
        // Root-path tree quorums are small (O(log N)) but concentrate load
        // on the root: with skip=0 every quorum contains it → load 1.
        let tree = TreeQuorum::new(4, 0.0);
        let tl = measure_load(&tree, 20_000, 8);
        assert!((tl - 1.0).abs() < 1e-12, "root load {tl}");
        // Routing around the root with some probability spreads the load.
        let spread = TreeQuorum::new(4, 0.4);
        let sl = measure_load(&spread, 50_000, 8);
        assert!(sl < 0.9, "skip=0.4 load {sl} should fall below root-always");
    }

    #[test]
    #[should_panic(expected = "at most 64 replicas")]
    fn intersection_probability_refuses_more_than_64_replicas() {
        intersection_probability(&ReplicaConfig::new(65, 1, 1).unwrap(), 1, 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 replicas")]
    fn measure_load_refuses_more_than_64_replicas() {
        measure_load(&ReplicaConfig::new(65, 1, 1).unwrap(), 1, 0);
    }
}
