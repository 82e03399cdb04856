//! Replication configuration `(N, R, W)` shared by every PBS model.

use crate::error::ConfigError;
use std::fmt;

/// A Dynamo-style replication configuration.
///
/// `N` is the replication factor, `R` the number of replica responses a read
/// coordinator waits for, and `W` the number of acknowledgments a write
/// coordinator waits for (§2.2 of the paper). The type enforces
/// `1 ≤ R ≤ N` and `1 ≤ W ≤ N` at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaConfig {
    n: u32,
    r: u32,
    w: u32,
}

impl ReplicaConfig {
    /// Validate and build a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any of `N`, `R`, `W` is zero or when a
    /// quorum exceeds the replication factor.
    pub fn new(n: u32, r: u32, w: u32) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::ZeroReplicas);
        }
        if r == 0 {
            return Err(ConfigError::ZeroReadQuorum);
        }
        if w == 0 {
            return Err(ConfigError::ZeroWriteQuorum);
        }
        if r > n {
            return Err(ConfigError::ReadQuorumTooLarge { r, n });
        }
        if w > n {
            return Err(ConfigError::WriteQuorumTooLarge { w, n });
        }
        Ok(Self { n, r, w })
    }

    /// Replication factor `N`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Read quorum size `R`.
    #[inline]
    pub fn r(&self) -> u32 {
        self.r
    }

    /// Write quorum size `W`.
    #[inline]
    pub fn w(&self) -> u32 {
        self.w
    }

    /// A *strict* quorum: `R + W > N`, so any read quorum intersects any
    /// write quorum and reads are regular (§2.2).
    #[inline]
    pub fn is_strict(&self) -> bool {
        self.r + self.w > self.n
    }

    /// A *partial* quorum: `R + W ≤ N`; reads may miss the latest write.
    #[inline]
    pub fn is_partial(&self) -> bool {
        !self.is_strict()
    }

    /// Majority quorums for a given `N`: `R = W = ⌊N/2⌋ + 1`, the strict
    /// case of the random `R`-of-`N` / `W`-of-`N` model (`pbs-quorum`
    /// samples it as a `QuorumSystem`).
    ///
    /// The paper writes the majority size as `⌈N/2⌉`, which coincides for
    /// odd `N`; for even `N` intersection requires `⌊N/2⌋ + 1`, which is
    /// what this uses.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroReplicas`] for `n == 0`.
    pub fn majority(n: u32) -> Result<Self, ConfigError> {
        let q = n / 2 + 1;
        Self::new(n, q, q)
    }

    /// Enumerate every valid `(R, W)` pair for this `N`, in lexicographic
    /// order. Useful for SLA optimizers (`pbs-predictor`), which search the
    /// whole `O(N²)` space as §6 suggests.
    pub fn all_for_n(n: u32) -> impl Iterator<Item = ReplicaConfig> {
        (1..=n).flat_map(move |r| (1..=n).map(move |w| ReplicaConfig { n, r, w }))
    }
}

impl fmt::Display for ReplicaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N={}, R={}, W={}", self.n, self.r, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid() {
        assert_eq!(ReplicaConfig::new(0, 1, 1), Err(ConfigError::ZeroReplicas));
        assert_eq!(ReplicaConfig::new(3, 0, 1), Err(ConfigError::ZeroReadQuorum));
        assert_eq!(ReplicaConfig::new(3, 1, 0), Err(ConfigError::ZeroWriteQuorum));
        assert_eq!(
            ReplicaConfig::new(3, 4, 1),
            Err(ConfigError::ReadQuorumTooLarge { r: 4, n: 3 })
        );
        assert_eq!(
            ReplicaConfig::new(3, 1, 4),
            Err(ConfigError::WriteQuorumTooLarge { w: 4, n: 3 })
        );
    }

    #[test]
    fn strictness() {
        assert!(ReplicaConfig::new(3, 2, 2).unwrap().is_strict());
        assert!(ReplicaConfig::new(3, 1, 3).unwrap().is_strict());
        assert!(ReplicaConfig::new(3, 1, 1).unwrap().is_partial());
        assert!(ReplicaConfig::new(3, 1, 2).unwrap().is_partial());
        assert!(ReplicaConfig::new(2, 1, 1).unwrap().is_partial());
    }

    #[test]
    fn majority_sizes() {
        assert_eq!(ReplicaConfig::majority(3).unwrap().r(), 2);
        assert_eq!(ReplicaConfig::majority(4).unwrap().r(), 3);
        assert_eq!(ReplicaConfig::majority(5).unwrap().w(), 3);
        assert!(ReplicaConfig::majority(1).unwrap().is_strict());
        for n in 1..32 {
            assert!(ReplicaConfig::majority(n).unwrap().is_strict(), "n={n}");
        }
    }

    #[test]
    fn all_for_n_covers_grid() {
        let all: Vec<_> = ReplicaConfig::all_for_n(3).collect();
        assert_eq!(all.len(), 9);
        assert!(all.iter().all(|c| c.n() == 3));
        assert!(all.contains(&ReplicaConfig::new(3, 2, 1).unwrap()));
    }

    #[test]
    fn display_round_trip() {
        let c = ReplicaConfig::new(5, 2, 3).unwrap();
        assert_eq!(c.to_string(), "N=5, R=2, W=3");
    }
}
