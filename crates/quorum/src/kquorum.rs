//! Deterministic k-quorums (Aiyer, Alvisi, Bazzi — §2.1 of the paper).
//!
//! In the single-writer setting, sending each write to `⌈N/k⌉` replicas in
//! round-robin order guarantees every replica is at most `k` versions
//! out of date, so *any* nonempty read quorum returns a value within `k`
//! versions — a deterministic counterpart to PBS k-staleness. The paper
//! contrasts this guarantee with the probabilistic behaviour of
//! Dynamo-style stores; this module provides the construction as a baseline
//! and verifies its bound.

use crate::nodeset::NodeSet;

/// Single-writer round-robin k-quorum scheduler.
#[derive(Debug, Clone)]
pub struct RoundRobinWriter {
    n: u32,
    group_size: u32,
    cursor: u32,
    /// Version currently stored at each replica (0 = never written).
    replica_versions: Vec<u64>,
    /// Last committed version number.
    version: u64,
}

impl RoundRobinWriter {
    /// Build over `n ≤ 64` replicas with staleness tolerance `k ≥ 1`.
    ///
    /// Each write lands on `⌈n/k⌉` consecutive replicas (mod `n`).
    pub fn new(n: u32, k: u32) -> Self {
        assert!((1..=64).contains(&n));
        assert!(k >= 1);
        let group_size = n.div_ceil(k);
        Self { n, group_size, cursor: 0, replica_versions: vec![0; n as usize], version: 0 }
    }

    /// Replicas in the universe.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The write-set size `⌈n/k⌉`.
    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    /// Perform the next write; returns the replica set it covered.
    pub fn write(&mut self) -> NodeSet {
        self.version += 1;
        let mut set = NodeSet::EMPTY;
        for i in 0..self.group_size {
            let node = (self.cursor + i) % self.n;
            set.insert(node);
            self.replica_versions[node as usize] = self.version;
        }
        self.cursor = (self.cursor + self.group_size) % self.n;
        set
    }

    /// Read from an arbitrary replica set, returning the newest version any
    /// member holds (0 if the set members were never written).
    pub fn read(&self, quorum: NodeSet) -> u64 {
        quorum
            .iter()
            .map(|i| self.replica_versions[i as usize])
            .max()
            .unwrap_or(0)
    }

    /// Staleness (in versions) a read of `quorum` observes right now.
    pub fn staleness(&self, quorum: NodeSet) -> u64 {
        self.version - self.read(quorum)
    }

    /// The k-quorum guarantee for this configuration: once every replica has
    /// been written at least once, any single replica is at most
    /// `ceil(n / group_size) − 1` versions behind — which is `< k` whenever
    /// `k` divides the schedule evenly and `≤ k − 1` in general.
    pub fn worst_case_staleness_bound(&self) -> u64 {
        (self.n.div_ceil(self.group_size) - 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_size_is_ceil_n_over_k() {
        assert_eq!(RoundRobinWriter::new(9, 3).group_size(), 3);
        assert_eq!(RoundRobinWriter::new(10, 3).group_size(), 4);
        assert_eq!(RoundRobinWriter::new(5, 1).group_size(), 5);
        assert_eq!(RoundRobinWriter::new(5, 5).group_size(), 1);
    }

    /// For every `n ≤ 64` and `k ≤ n`: after one cursor period of warm-up,
    /// no replica is ever more than the bound behind across the next
    /// period (`n` writes, a whole number of cursor cycles), and some
    /// replica is exactly that far behind.
    #[test]
    fn staleness_never_exceeds_bound() {
        for n in 1..=64u32 {
            for k in 1..=n {
                let mut writer = RoundRobinWriter::new(n, k);
                for _ in 0..n {
                    writer.write();
                }
                let bound = writer.worst_case_staleness_bound();
                assert!(bound < k as u64, "n={n} k={k}: bound {bound}");
                let mut worst = 0;
                for _ in 0..n {
                    writer.write();
                    for node in 0..n {
                        let staleness = writer.version - writer.replica_versions[node as usize];
                        assert!(
                            staleness <= bound,
                            "n={n} k={k}: replica {node} is {staleness} behind (bound {bound})"
                        );
                        worst = worst.max(staleness);
                    }
                }
                assert_eq!(worst, bound, "n={n} k={k}: the bound is never attained");
            }
        }
    }

    #[test]
    fn k1_writes_everywhere() {
        let mut writer = RoundRobinWriter::new(6, 1);
        let set = writer.write();
        assert_eq!(set.len(), 6);
        assert_eq!(writer.staleness(NodeSet::singleton(3)), 0);
    }

    #[test]
    fn reads_return_newest_in_quorum() {
        let mut writer = RoundRobinWriter::new(6, 3);
        let first = writer.write(); // version 1 → replicas 0,1
        assert_eq!(first.iter().collect::<Vec<_>>(), vec![0, 1]);
        writer.write(); // version 2 → replicas 2,3
        let q: NodeSet = [0u32, 2].into_iter().collect();
        assert_eq!(writer.read(q), 2);
        let q0: NodeSet = [0u32, 1].into_iter().collect();
        assert_eq!(writer.read(q0), 1);
        let unwritten: NodeSet = [4u32, 5].into_iter().collect();
        assert_eq!(writer.read(unwritten), 0);
    }

    #[test]
    fn cursor_wraps_evenly() {
        let mut writer = RoundRobinWriter::new(4, 2);
        let a = writer.write();
        let b = writer.write();
        let c = writer.write();
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![0, 1]);
    }
}
