//! A fast, non-cryptographic hasher for the simulator's hot-path maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, whose
//! HashDoS resistance costs ~1–2 ns per `u64` key — measurable when every
//! simulated operation touches half a dozen maps (pending-op tables,
//! per-key stores, session state). The keys here are internal op ids and
//! opaque key identifiers chosen by the harness itself, so DoS hardening
//! buys nothing; an FxHash-style multiply-xor hash (the scheme rustc uses
//! for its interners) is ~5× cheaper and mixes well enough for these
//! integer keys.
//!
//! What "well enough" has to mean: std's `HashMap` (hashbrown) takes the
//! **bucket from the hash's low bits** and a 7-bit control **tag from its
//! top bits**, so both ends must vary across the keys in use. A bare
//! multiply fails the first for packed ids — the low 32 bits of
//! `k × SEED` depend only on the low 32 bits of `k`, and the client tables'
//! op ids are `(client + 1) << 32 | local` with a handful of distinct
//! `local` values live at once, which put a 10⁵-entry map into a few dozen
//! probe chains. [`FxHasher::finish`] therefore folds the product's high
//! half into its low half: the low bits then see every input bit, the top
//! bits are the product's own (already well mixed), and sequential keys
//! keep spreading.
//!
//! No new dependencies: the hasher is ~20 lines and lives here.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiplicative mixing constant (π's fractional bits, the same
/// constant family rustc's FxHash uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style multiply-xor hasher: each 8-byte chunk is rotated,
/// xored into the state, and multiplied by the mixing constant; `finish`
/// folds the high half of the state into the low half (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`] — drop-in for the default map
/// on hot paths with internal (non-adversarial) keys.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed through [`FxHasher`] (the linearizability checker's
/// version sets; its memo of dead states hashes through [`FxHasher`]
/// itself).
pub(crate) type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..1_000u64 {
            m.insert(k, k * 3);
        }
        assert_eq!(m.len(), 1_000);
        for k in 0..1_000u64 {
            assert_eq!(m.get(&k), Some(&(k * 3)));
        }
    }

    #[test]
    fn deterministic_across_instances() {
        use std::hash::BuildHasher;
        let a = FxBuildHasher::default().hash_one(42u64);
        let b = FxBuildHasher::default().hash_one(42u64);
        assert_eq!(a, b, "no per-instance randomness (determinism contract)");
    }

    #[test]
    fn sequential_keys_spread() {
        // Low-entropy keys (sequential op ids) must not collide in the low
        // bits HashMap uses for bucketing.
        use std::hash::BuildHasher;
        let h = FxBuildHasher::default();
        let mut low_bits: Vec<u64> = (0..64u64).map(|k| h.hash_one(k) & 0x3f).collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert!(low_bits.len() > 32, "low bits collapse: {} distinct", low_bits.len());
    }

    /// Distinct values of `hash & (buckets − 1)` (hashbrown's bucket) and
    /// of `hash >> 57` (its 7-bit control tag) over `keys`.
    fn buckets_and_tags(keys: impl Iterator<Item = u64>, buckets: u64) -> (usize, usize) {
        use std::hash::BuildHasher;
        let h = FxBuildHasher::default();
        let (mut low, mut top) = (FxHashSet::default(), FxHashSet::default());
        for k in keys {
            let hash = h.hash_one(k);
            low.insert(hash & (buckets - 1));
            top.insert(hash >> 57);
        }
        (low.len(), top.len())
    }

    #[test]
    fn packed_op_ids_spread_over_buckets_and_tags() {
        // The client tables' op ids: many clients, a few live local
        // counters each. A bare multiply puts these in ≤ 4 buckets.
        let ids = (0..4096u64).flat_map(|c| (0..4u64).map(move |l| ((c + 1) << 32) | l));
        let (buckets, tags) = buckets_and_tags(ids, 4096);
        assert!(buckets >= 2048, "packed ids occupy {buckets} of 4096 buckets");
        assert!(tags >= 64, "packed ids show {tags} of 128 tags");
    }

    #[test]
    fn timer_tag_keys_spread_over_buckets_and_tags() {
        // Op ids under a kind in the top byte: structure above bit 56 must
        // not cost the spread.
        let tags_of = |kind: u64| {
            (0..4096u64)
                .flat_map(move |c| (0..4u64).map(move |l| (kind << 56) | ((c + 1) << 32) | l))
        };
        for kind in 1..=3u64 {
            let (buckets, tags) = buckets_and_tags(tags_of(kind), 4096);
            assert!(buckets >= 2048, "kind {kind}: {buckets} of 4096 buckets");
            assert!(tags >= 64, "kind {kind}: {tags} of 128 tags");
        }
    }
}
