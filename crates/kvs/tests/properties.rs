//! Property tests for the store's structural components: ring placement,
//! ground-truth labelling, and Merkle digests.

use pbs_kvs::merkle;
use pbs_kvs::staleness::GroundTruth;
use pbs_kvs::{Ring, Version};
use pbs_sim::SimTime;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Preference lists always contain exactly N distinct live nodes,
    /// stable across queries.
    #[test]
    fn ring_preference_lists(
        nodes in 1u32..20,
        vnodes in 1u32..32,
        key in any::<u64>(),
    ) {
        let replication = 1 + key as u32 % nodes;
        let ring = Ring::new(nodes, vnodes, replication);
        let reps = ring.replicas(key).to_vec();
        prop_assert_eq!(reps.len(), replication as usize);
        let mut sorted = reps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), replication as usize, "duplicate replicas");
        prop_assert!(reps.iter().all(|&n| n < nodes));
        prop_assert_eq!(ring.replicas(key), reps, "stable");
    }

    /// Online (incremental watermark) labelling agrees **exactly** with the
    /// settle-then-label batch path on randomized interleaved traces —
    /// including timed-out writes (sequence numbers that never commit) and
    /// staleness deeper than the `versions_behind` cap.
    #[test]
    fn online_watermark_labelling_matches_batch(
        writes in prop::collection::vec(
            // (key, commit_time_ms, commit_roll) — seq is assigned densely
            // per key in vector order; rolls ≥ 8 model timed-out writes
            // whose seq never commits. Out-of-order commit times and
            // uncommitted seqs both occur.
            (0u64..3, 1u64..20_000, 0u32..10),
            1..120,
        ),
        reads in prop::collection::vec(
            (0u64..3, 0u64..22_000, prop::option::of(1u64..100)),
            1..40,
        ),
        chunks in 2usize..6,
    ) {
        // Assign dense per-key seqs in issue order; keep only committed
        // writes as ground-truth commits.
        let mut next_seq = [0u64; 3];
        let mut commits: Vec<(u64, u64, u64)> = Vec::new(); // (key, seq, time)
        for &(key, time, roll) in &writes {
            next_seq[key as usize] += 1;
            if roll < 8 {
                commits.push((key, next_seq[key as usize], time));
            }
        }

        // Batch path: settle, sort by commit time, record in order.
        let mut sorted = commits.clone();
        sorted.sort_by_key(|&(_, _, t)| t);
        let mut batch = GroundTruth::new();
        for &(key, seq, t) in &sorted {
            batch.record_commit(key, seq, SimTime::from_ms(t as f64));
        }
        let expected: Vec<_> = reads
            .iter()
            .map(|&(key, start, ret)| batch.label_read(key, SimTime::from_ms(start as f64), ret))
            .collect();

        // Online path: ingest commits in *reverse* issue order (maximally
        // out of time order) in `chunks` watermark steps; label each read
        // as soon as the watermark passes its start.
        let horizon = 25_000u64;
        let mut online = GroundTruth::new();
        let mut pending_commits: Vec<(u64, u64, u64)> = commits.clone();
        pending_commits.reverse();
        let mut labelled: Vec<Option<pbs_kvs::staleness::ReadLabel>> = vec![None; reads.len()];
        let mut watermark = 0u64;
        for step in 1..=chunks {
            let to = if step == chunks { horizon } else { horizon * step as u64 / chunks as u64 };
            // Everything committing in (watermark, to] must be ingested
            // before the watermark passes it — order is free.
            pending_commits.retain(|&(key, seq, t)| {
                if t > watermark && t <= to {
                    online.ingest_commit(key, seq, SimTime::from_ms(t as f64));
                    false
                } else {
                    true
                }
            });
            online.advance_watermark(SimTime::from_ms(to as f64));
            for (i, &(key, start, ret)) in reads.iter().enumerate() {
                if labelled[i].is_none() && start <= to {
                    labelled[i] =
                        Some(online.label_read(key, SimTime::from_ms(start as f64), ret));
                }
            }
            watermark = to;
        }
        prop_assert!(pending_commits.is_empty());
        prop_assert_eq!(online.pending_commits(), 0);
        for (i, exp) in expected.iter().enumerate() {
            prop_assert_eq!(labelled[i].expect("all reads labelled"), *exp, "read {}", i);
        }
    }

    /// Ground-truth labelling agrees with a brute-force reference on random
    /// commit histories and probes.
    #[test]
    fn ground_truth_matches_bruteforce(
        commit_times in prop::collection::vec(0u64..10_000, 1..60),
        probe_ms in 0u64..12_000,
        returned in prop::option::of(0u64..70),
    ) {
        // Build a history: commit i (seq shuffled deterministically) at the
        // sorted times.
        let mut times = commit_times;
        times.sort_unstable();
        let n = times.len() as u64;
        let mut gt = GroundTruth::new();
        let mut history: Vec<(u64, u64)> = Vec::new(); // (time, seq)
        for (i, &t) in times.iter().enumerate() {
            // Permuted-but-deterministic seq assignment exercises
            // out-of-order commits.
            let seq = 1 + ((i as u64 * 7 + 3) % n);
            gt.record_commit(1, seq, SimTime::from_ms(t as f64));
            history.push((t, seq));
        }
        let returned = returned.filter(|r| *r >= 1);
        let label = gt.label_read(1, SimTime::from_ms(probe_ms as f64), returned);

        // Brute force.
        let ret = returned.unwrap_or(0);
        let committed: Vec<u64> = history
            .iter()
            .filter(|(t, _)| *t <= probe_ms)
            .map(|(_, s)| *s)
            .collect();
        let newest = committed.iter().copied().max().unwrap_or(0);
        let expect_consistent = ret >= newest;
        let expect_behind =
            committed.iter().filter(|&&s| s > ret).count().min(64) as u64;
        prop_assert_eq!(label.consistent, expect_consistent);
        if !label.consistent {
            prop_assert_eq!(label.versions_behind, expect_behind);
        }
    }

    /// Merkle digests: identical stores always match; single-entry edits
    /// always produce a nonempty diff confined to the edited key's bucket.
    #[test]
    fn merkle_digest_detects_edits(
        entries in prop::collection::btree_map(any::<u64>(), 1u64..1000, 1..50),
        edit_idx in any::<prop::sample::Index>(),
    ) {
        let store: Vec<(u64, Version)> =
            entries.iter().map(|(&k, &s)| (k, Version::new(s, 0))).collect();
        let a = merkle::digest(store.clone());
        let b = merkle::digest(store.clone());
        prop_assert!(merkle::differing_buckets(&a, &b).is_empty());

        let mut edited = store.clone();
        let i = edit_idx.index(edited.len());
        edited[i].1 = Version::new(edited[i].1.seq + 1, 0);
        let c = merkle::digest(edited);
        let diff = merkle::differing_buckets(&a, &c);
        prop_assert_eq!(diff, vec![merkle::bucket_of(store[i].0)]);
    }

    /// Versions order by (seq, writer) — the store's max-merge never
    /// regresses.
    #[test]
    fn version_merge_is_monotone(
        seq_a in 0u64..100, wr_a in 0u32..8,
        seq_b in 0u64..100, wr_b in 0u32..8,
    ) {
        let a = Version::new(seq_a, wr_a);
        let b = Version::new(seq_b, wr_b);
        let m = a.max(b);
        prop_assert!(m >= a && m >= b);
        prop_assert!(m == a || m == b);
    }

    /// Bucketed digests are a group homomorphism under XOR: the digest of
    /// a disjoint union is the pointwise XOR of the parts' digests, and a
    /// doubled store cancels to the empty digest.
    #[test]
    fn merkle_digest_xor_composition_and_cancellation(
        entries in prop::collection::btree_map(any::<u64>(), 1u64..1000, 1..60),
    ) {
        let store: Vec<(u64, Version)> =
            entries.iter().map(|(&k, &s)| (k, Version::new(s, 0))).collect();
        let (left, right): (Vec<_>, Vec<_>) =
            store.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let left: Vec<(u64, Version)> = left.into_iter().map(|(_, &e)| e).collect();
        let right: Vec<(u64, Version)> = right.into_iter().map(|(_, &e)| e).collect();
        let whole = merkle::digest(store.clone());
        let xored: Vec<u64> = merkle::digest(left)
            .iter()
            .zip(&merkle::digest(right))
            .map(|(x, y)| x ^ y)
            .collect();
        prop_assert_eq!(whole, xored, "digest must compose over disjoint key sets");
        // Pair cancellation: every entry hashed twice XORs itself away.
        let doubled: Vec<(u64, Version)> =
            store.iter().chain(store.iter()).copied().collect();
        prop_assert_eq!(merkle::digest(doubled), merkle::digest(std::iter::empty()));
    }

    /// Removing keys perturbs only the removed keys' buckets, so an
    /// anti-entropy exchange never fetches an untouched bucket.
    #[test]
    fn merkle_diff_confined_to_touched_buckets(
        entries in prop::collection::btree_map(any::<u64>(), 1u64..1000, 2..60),
        removed in 1usize..8,
    ) {
        let store: Vec<(u64, Version)> =
            entries.iter().map(|(&k, &s)| (k, Version::new(s, 0))).collect();
        let removed = removed.min(store.len());
        let partial: Vec<(u64, Version)> = store[removed..].to_vec();
        let diff =
            merkle::differing_buckets(&merkle::digest(store.clone()), &merkle::digest(partial));
        let touched: Vec<u32> = store[..removed].iter().map(|&(k, _)| merkle::bucket_of(k)).collect();
        prop_assert!(
            diff.iter().all(|b| touched.contains(b)),
            "diff {:?} must stay within the removed keys' buckets {:?}", diff, touched
        );
    }
}
