//! Version metadata: totally ordered versions.
//!
//! The paper assumes a total order over versions (§2.1, footnote 2:
//! globally synchronized clocks *or* a causal order with commutative
//! merge). The experiments use write-start timestamps as sequence numbers
//! (the simulator's global clock is exact, so this *is* the paper's
//! "globally synchronized clocks" assumption), with the coordinator id
//! breaking ties between simultaneous writes — the equivalent of the
//! paper's "insert increasing versions of a key" methodology (§5.2) and of
//! Cassandra's last-writer-wins timestamps. A timestamp needs no shared
//! allocator, so coordinators on different partitions of the parallel
//! engine assign identical versions to identical schedules.

/// A totally ordered version of a key: `(seq, writer)` with lexicographic
/// order. `seq` is the write's start instant in nanoseconds + 1; `writer`
/// breaks ties between simultaneous coordinators (mirroring
/// last-writer-wins timestamps in Cassandra).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version {
    /// Write-start timestamp in nanoseconds + 1 (0 is reserved for
    /// "absent"), monotone in write-start order per key.
    pub seq: u64,
    /// Coordinator that assigned the version (tiebreak).
    pub writer: u32,
}

impl Version {
    /// Construct a version.
    pub fn new(seq: u64, writer: u32) -> Self {
        Self { seq, writer }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_total_order() {
        let a = Version::new(1, 0);
        let b = Version::new(2, 0);
        let c = Version::new(2, 1);
        assert!(a < b);
        assert!(b < c, "writer breaks ties");
        assert_eq!(b.max(c), c);
    }
}
