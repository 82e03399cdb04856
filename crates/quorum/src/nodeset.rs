//! Compact replica sets over at most 64 nodes.
//!
//! Quorum analysis samples millions of quorums; a `u64` bitmask keeps that
//! allocation-free. Replication factors above 64 never occur in the paper's
//! domain (production N is 1–3, the theory example uses N=100 only for the
//! *closed form*, which `pbs-core` computes combinatorially).

/// A set of node indices in `0..64`, stored as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeSet {
    bits: u64,
}

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet { bits: 0 };

    /// Singleton set.
    pub fn singleton(node: u32) -> Self {
        assert!(node < 64);
        NodeSet { bits: 1u64 << node }
    }

    /// Insert `node`.
    #[inline]
    pub fn insert(&mut self, node: u32) {
        assert!(node < 64, "node index {node} out of range");
        self.bits |= 1u64 << node;
    }

    /// Whether `node` is present.
    #[inline]
    pub fn contains(&self, node: u32) -> bool {
        node < 64 && (self.bits >> node) & 1 == 1
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn len(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Whether the two sets share any node — the quorum intersection test.
    pub fn intersects(&self, other: NodeSet) -> bool {
        self.bits & other.bits != 0
    }

    /// Iterate over member indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let bits = self.bits;
        (0..64u32).filter(move |i| (bits >> i) & 1 == 1)
    }
}

impl FromIterator<u32> for NodeSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut s = NodeSet::EMPTY;
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_membership() {
        let mut s = NodeSet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        assert!(s.contains(0) && s.contains(63) && !s.contains(5));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63]);
    }

    #[test]
    fn set_algebra() {
        let a: NodeSet = [0u32, 1, 2].into_iter().collect();
        let b: NodeSet = [2u32, 3].into_iter().collect();
        assert!(a.intersects(b));
        let c = NodeSet::singleton(9);
        assert!(!a.intersects(c));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_index_panics() {
        let mut s = NodeSet::EMPTY;
        s.insert(64);
    }
}
