//! Consistent-hashing ring with virtual nodes (§2.2: "Dynamo-style quorum
//! systems employ one quorum system per key, typically maintaining the
//! mapping of keys to quorum systems using a consistent-hashing scheme").

/// FNV-1a 64-bit hash — small, deterministic, dependency-free. Quality is
/// ample for ring placement (keys are already opaque identifiers).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A consistent-hashing ring mapping keys to ordered replica lists
/// ("preference lists" in Dynamo terms).
///
/// Preference lists are **precomputed per ring segment** at construction:
/// a key's list depends only on which inter-vnode segment its hash lands
/// in, so [`replicas`](Self::replicas) is a binary search plus a slice
/// borrow — no allocation and no clockwise walk on the per-operation
/// path.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(position, node)` pairs sorted by position.
    positions: Vec<(u64, u32)>,
    /// Flattened preference lists, `replication` entries per vnode
    /// position: `pref[i * replication ..][.. replication]` is the
    /// ordered replica list for keys landing on segment `i`.
    pref: Vec<u32>,
    nodes: u32,
    replication: u32,
}

impl Ring {
    /// Build a ring over `nodes` physical nodes, each owning `vnodes`
    /// virtual positions, with `replication ≤ nodes` replicas per key.
    pub fn new(nodes: u32, vnodes: u32, replication: u32) -> Self {
        assert!(nodes >= 1, "need at least one node");
        assert!(vnodes >= 1, "need at least one virtual node");
        assert!(
            (1..=nodes).contains(&replication),
            "replication factor {replication} must be in 1..={nodes}"
        );
        let mut positions = Vec::with_capacity((nodes * vnodes) as usize);
        for node in 0..nodes {
            for v in 0..vnodes {
                let mut buf = [0u8; 12];
                buf[..4].copy_from_slice(&node.to_le_bytes());
                buf[4..8].copy_from_slice(&v.to_le_bytes());
                buf[8..].copy_from_slice(b"ring");
                positions.push((fnv1a64(&buf), node));
            }
        }
        positions.sort_unstable();
        // Precompute the preference list of every segment: the first
        // `replication` distinct physical nodes clockwise from each vnode.
        let mut pref = Vec::with_capacity(positions.len() * replication as usize);
        for start in 0..positions.len() {
            let base = pref.len();
            for i in 0..positions.len() {
                let (_, node) = positions[(start + i) % positions.len()];
                if !pref[base..].contains(&node) {
                    pref.push(node);
                    if pref.len() - base == replication as usize {
                        break;
                    }
                }
            }
            debug_assert_eq!(pref.len() - base, replication as usize);
        }
        Self { positions, pref, nodes, replication }
    }

    /// Number of physical nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// The ordered preference list for `key`: the first `N` *distinct*
    /// physical nodes clockwise from the key's position. Borrowed from the
    /// precomputed per-segment table — allocation-free.
    pub fn replicas(&self, key: u64) -> &[u32] {
        let pos = fnv1a64(&key.to_le_bytes());
        let start = self.positions.partition_point(|&(p, _)| p < pos) % self.positions.len();
        &self.pref[start * self.replication as usize..][..self.replication as usize]
    }

    /// Whether `node` replicates `key`.
    pub fn is_replica(&self, key: u64, node: u32) -> bool {
        self.replicas(key).contains(&node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_are_distinct_and_sized_n() {
        let ring = Ring::new(10, 16, 3);
        for key in 0..500u64 {
            let reps = ring.replicas(key);
            assert_eq!(reps.len(), 3);
            let mut sorted = reps.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "distinct physical nodes");
            assert!(reps.iter().all(|&n| n < 10));
        }
    }

    #[test]
    fn deterministic_across_constructions() {
        let a = Ring::new(8, 32, 3);
        let b = Ring::new(8, 32, 3);
        for key in 0..100u64 {
            assert_eq!(a.replicas(key), b.replicas(key));
        }
    }

    #[test]
    fn full_replication_covers_all_nodes() {
        let ring = Ring::new(4, 8, 4);
        for key in 0..50u64 {
            let mut reps = ring.replicas(key).to_vec();
            reps.sort_unstable();
            assert_eq!(reps, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        let ring = Ring::new(5, 64, 1);
        let mut counts = [0usize; 5];
        for key in 0..20_000u64 {
            counts[ring.replicas(key)[0] as usize] += 1;
        }
        for (node, &c) in counts.iter().enumerate() {
            let share = c as f64 / 20_000.0;
            assert!(
                (share - 0.2).abs() < 0.08,
                "node {node} owns {share:.3} of keys (expect ~0.2)"
            );
        }
    }

    #[test]
    fn is_replica_consistent_with_replicas() {
        let ring = Ring::new(6, 16, 2);
        for key in 0..100u64 {
            let reps = ring.replicas(key);
            for n in 0..6 {
                assert_eq!(ring.is_replica(key, n), reps.contains(&n));
            }
        }
    }

    #[test]
    fn fnv_known_vectors() {
        // FNV-1a 64 reference values.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn oversized_replication_panics() {
        let _ = Ring::new(3, 8, 4);
    }
}
