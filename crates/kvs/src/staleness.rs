//! Ground-truth staleness labelling — batch and online.
//!
//! The simulator records every commit `(key, seq, commit time)`; a read that
//! started at `t` and returned `seq_r` is **consistent** (Definition 3) iff
//! `seq_r ≥ max{seq committed at or before t}`. Returning a newer,
//! not-yet-committed (in-flight) version also counts as consistent, matching
//! §3.1's k-regular semantics — such versions always have larger `seq`.
//!
//! Two ingestion paths feed the same history:
//!
//! * **Batch** — [`GroundTruth::record_commit`] requires nondecreasing
//!   commit times per key (the blocking harness serialises operations, so
//!   this holds trivially).
//! * **Online** — the open-loop engine completes thousands of overlapping
//!   writes whose results drain window by window, out of per-key time
//!   order. [`GroundTruth::ingest_commit`] buffers them, and
//!   [`GroundTruth::advance_watermark`] folds everything at or before the
//!   watermark into the history once the caller can guarantee no earlier
//!   commit is still outstanding (in the simulator: after `run_until(t)`,
//!   every commit ≤ `t` has been drained). Reads with `start ≤ watermark`
//!   then label identically to the batch path — labels depend only on the
//!   committed history at or before the read's start.
//!
//! # Watermark GC
//!
//! Without garbage collection a per-key history grows one entry per
//! committed write forever — O(workload length), the one unbounded
//! structure in the open-loop engine. [`GroundTruth::enable_gc`] bounds it
//! **without changing a single label**. The insight: once the watermark
//! has passed `t`, the only reads still awaiting labels started *after*
//! `t − lag` (with `lag` = the client op-timeout, a read completing in a
//! later window cannot have started earlier than that). For such reads,
//! every commit at or before the horizon `t − lag` contributes only
//! through two order statistics:
//!
//! * the **maximum** sequence below the horizon (drives the consistent /
//!   stale verdict), and
//! * whether at least [`MAX_TRACKED_STALENESS`] below-horizon commits
//!   exceed the returned sequence (the `versions_behind` count is capped
//!   there anyway).
//!
//! So each advance drops all but the `MAX_TRACKED_STALENESS` largest-seq
//! commits at or below the horizon, remembering per key how many were
//! dropped and their maximum sequence. Because every retained
//! below-horizon sequence is ≥ every dropped one, a read that any dropped
//! commit could have made stale already finds `MAX_TRACKED_STALENESS`
//! retained commits newer than its returned version — the capped count is
//! bit-identical to the un-GC'd label, and the running maxima are rebuilt
//! on the dropped maximum so the verdict is too. Per-key memory becomes
//! O(commits within one op-timeout + the cap), independent of run length.
//!
//! # Per-key layout
//!
//! A key is one map entry — its retained commits, the dropped count and
//! the dropped maximum — and one allocation: a `Vec` of 24-byte
//! `(commit time, seq, running max)` entries in commit order. The running
//! max answers the verdict with one binary search by time, and it stops
//! the versions-behind count at the first commit whose running max is at
//! or below the returned sequence. The `Vec` grows by about half its
//! length, not by doubling: most keys retain one to three commits, and
//! `Vec`'s own first growth would give each of them four slots.

use crate::fxhash::FxHashMap;
use pbs_sim::{SimDuration, SimTime};

/// Cap on the reported versions-behind count; deeper staleness is reported
/// as this value. Keeps labelling O(staleness) per read instead of
/// O(history).
pub const MAX_TRACKED_STALENESS: u64 = 64;

/// One finalised commit: `(commit_time, seq, running max of seq)`. The
/// running max is taken along the key's commits in commit order, seeded
/// with `dropped_max_seq`, so it is the true all-time maximum at that
/// commit (monotone, enabling binary search by time + O(1) max lookup).
type Commit = (SimTime, u64, u64);

#[derive(Debug, Default)]
struct KeyHistory {
    /// Retained commits in commit order.
    commits: Vec<Commit>,
    /// Commits garbage-collected below the horizon.
    dropped: u64,
    /// Maximum sequence among dropped commits. Invariant: ≤ every retained
    /// below-horizon sequence (top-`MAX_TRACKED_STALENESS` retention).
    dropped_max_seq: u64,
}

impl KeyHistory {
    fn push(&mut self, commit: SimTime, seq: u64) {
        debug_assert!(self.commits.last().is_none_or(|&(last, _, _)| commit >= last));
        let max = self.commits.last().map_or(self.dropped_max_seq, |&(_, _, m)| m).max(seq);
        if self.commits.len() == self.commits.capacity() {
            // Most keys retain one to three commits: grow by about half,
            // not by doubling from `Vec`'s minimum of four slots.
            self.commits.reserve_exact(self.commits.len() / 2 + 1);
        }
        self.commits.push((commit, seq, max));
    }

    /// Drop all but the `MAX_TRACKED_STALENESS` largest-seq commits at or
    /// below the horizon (`time + lag ≤ anchor`), preserving time order
    /// and rebuilding the running maxima on the new dropped maximum.
    fn trim(&mut self, anchor: SimTime, lag: SimDuration) {
        let cap = MAX_TRACKED_STALENESS as usize;
        let below = self.commits.partition_point(|&(t, _, _)| t + lag <= anchor);
        if below <= cap {
            return;
        }
        // Threshold = the cap-th largest sequence below the horizon; keep
        // everything at or above it (sequence ties keep a few extra, which
        // is harmless — the invariant only needs dropped ≤ kept).
        let mut seqs: Vec<u64> = self.commits[..below].iter().map(|&(_, s, _)| s).collect();
        let (_, &mut threshold, _) = seqs.select_nth_unstable_by(cap - 1, |a, b| b.cmp(a));
        let (mut i, mut dropped, mut dropped_max) = (0, self.dropped, self.dropped_max_seq);
        self.commits.retain(|&(_, s, _)| {
            let keep = i >= below || s >= threshold;
            i += 1;
            if !keep {
                dropped += 1;
                dropped_max = dropped_max.max(s);
            }
            keep
        });
        self.dropped = dropped;
        self.dropped_max_seq = dropped_max;
        let mut max = dropped_max;
        for (_, s, m) in &mut self.commits {
            max = max.max(*s);
            *m = max;
        }
    }
}

/// The verdict for one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadLabel {
    /// Whether the read satisfied t-visibility (saw the newest committed
    /// version as of its start, or newer).
    pub consistent: bool,
    /// How many committed versions newer than the returned one existed at
    /// read start (0 when consistent; capped at
    /// [`MAX_TRACKED_STALENESS`]).
    pub versions_behind: u64,
}

/// Ground-truth commit history across all keys.
#[derive(Debug, Default)]
pub struct GroundTruth {
    keys: FxHashMap<u64, KeyHistory>,
    /// Commits seen by [`ingest_commit`](Self::ingest_commit) but not yet
    /// folded into the per-key histories: `(commit, key, seq)`.
    pending: Vec<(SimTime, u64, u64)>,
    /// Everything at or before this instant is final (folded into the
    /// histories); labels for reads starting at or before it are exact.
    watermark: SimTime,
    /// Watermark GC (see the module docs): commits older than `watermark −
    /// gc_lag` are compacted to order statistics. `None` = keep everything.
    gc_lag: Option<SimDuration>,
    /// Scratch: keys touched by the current watermark advance (only they
    /// can have grown, so only they are trim candidates).
    touched: Vec<u64>,
}

impl GroundTruth {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable watermark GC: on every
    /// [`advance_watermark`](Self::advance_watermark), per-key histories
    /// are compacted below the horizon `previous watermark − lag_ms`.
    /// Labels for reads starting after the horizon — every read the
    /// open-loop engine can still deliver, when `lag_ms` is the client
    /// op-timeout — are **bit-identical** to the un-GC'd history's.
    /// Queries below the horizon ([`label_read`](Self::label_read) with an
    /// old `start`) become approximate;
    /// [`latest_committed_at`](Self::latest_committed_at) stays exact at
    /// or above the horizon.
    pub fn enable_gc(&mut self, lag_ms: f64) {
        assert!(lag_ms > 0.0, "GC lag must be positive");
        self.gc_lag = Some(SimDuration::from_ms(lag_ms));
    }

    /// Whether watermark GC is enabled.
    pub fn gc_enabled(&self) -> bool {
        self.gc_lag.is_some()
    }

    /// Finalised commits currently retained across all keys (the GC'd
    /// memory footprint).
    pub fn retained_commits(&self) -> usize {
        self.keys.values().map(|h| h.commits.len()).sum()
    }

    /// Commits garbage-collected so far across all keys.
    pub fn dropped_commits(&self) -> u64 {
        self.keys.values().map(|h| h.dropped).sum()
    }

    /// The commit watermark: reads starting at or before it can be
    /// labelled exactly (every commit that can affect them is in the
    /// history).
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Buffer a commit observed out of per-key time order (the open-loop
    /// path). It becomes visible to labelling when
    /// [`advance_watermark`](Self::advance_watermark) passes its commit
    /// time. The commit must lie beyond the current watermark — older ones
    /// would have been finalised already.
    pub fn ingest_commit(&mut self, key: u64, seq: u64, commit: SimTime) {
        assert!(
            commit > self.watermark,
            "commit at {commit} arrived at or below the watermark {}",
            self.watermark
        );
        self.pending.push((commit, key, seq));
    }

    /// Declare that every commit at or before `to` has been ingested:
    /// fold the buffered commits ≤ `to` into the per-key histories (in
    /// commit-time order — ties resolve in ingestion order, which in the
    /// deterministic simulator is event order) and advance the watermark.
    pub fn advance_watermark(&mut self, to: SimTime) {
        if to <= self.watermark {
            return;
        }
        // GC horizon: anchored at the watermark *before* this advance —
        // reads labelled after it started within `lag` of the previous
        // drain, never below this horizon.
        let anchor = self.watermark;
        self.watermark = to;
        if self.pending.is_empty() {
            return;
        }
        // Stable sort keeps ingestion order for equal commit times.
        self.pending.sort_by_key(|&(t, _, _)| t);
        let split = self.pending.partition_point(|&(t, _, _)| t <= to);
        for (commit, key, seq) in self.pending.drain(..split) {
            self.keys.entry(key).or_default().push(commit, seq);
            if self.gc_lag.is_some() {
                self.touched.push(key);
            }
        }
        // Only keys that just grew can newly exceed the retention cap.
        if let Some(lag) = self.gc_lag {
            self.touched.sort_unstable();
            self.touched.dedup();
            for key in self.touched.drain(..) {
                self.keys.get_mut(&key).expect("pushed above").trim(anchor, lag);
            }
        }
    }

    /// Commits ingested but not yet finalised by the watermark.
    pub fn pending_commits(&self) -> usize {
        self.pending.len()
    }

    /// Record a committed write directly into the history (the batch
    /// path). Calls must be in nondecreasing commit-time order per key
    /// (the blocking harness serialises operations; the method asserts
    /// this). Advances the watermark to the commit time.
    pub fn record_commit(&mut self, key: u64, seq: u64, commit: SimTime) {
        let h = self.keys.entry(key).or_default();
        if let Some(&(last, _, _)) = h.commits.last() {
            assert!(commit >= last, "commits must be recorded in time order");
        }
        h.push(commit, seq);
        self.watermark = self.watermark.max(commit);
    }

    /// Every key with at least one finalised commit, in ascending order
    /// (sorted so downstream iteration — e.g. the convergence checker —
    /// is deterministic despite the hash-map storage).
    pub fn tracked_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.keys.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// The newest committed `seq` at or before `t` (None when nothing had
    /// committed yet). Exact for `t` at or above the GC horizon; below it,
    /// compacted commits are summarised by their maximum.
    pub fn latest_committed_at(&self, key: u64, t: SimTime) -> Option<u64> {
        let h = self.keys.get(&key)?;
        let idx = h.commits.partition_point(|&(ct, _, _)| ct <= t);
        if idx == 0 {
            (h.dropped > 0).then_some(h.dropped_max_seq)
        } else {
            Some(h.commits[idx - 1].2)
        }
    }

    /// Label a read that started at `start` on `key` and returned
    /// `returned_seq` (`None` = key absent / empty read).
    pub fn label_read(&self, key: u64, start: SimTime, returned_seq: Option<u64>) -> ReadLabel {
        let returned = returned_seq.unwrap_or(0);
        let Some(h) = self.keys.get(&key) else {
            return ReadLabel { consistent: true, versions_behind: 0 };
        };
        let prefix = h.commits.partition_point(|&(ct, _, _)| ct <= start);
        let newest = if prefix == 0 { h.dropped_max_seq } else { h.commits[prefix - 1].2 };
        if newest <= returned {
            return ReadLabel { consistent: true, versions_behind: 0 };
        }
        // Count committed versions newer than the returned one, scanning
        // backwards. The scan stops at the cap, or at the first commit
        // whose running max is at or below the returned sequence: nothing
        // at or before it can be newer. On store histories that is
        // O(staleness) per read.
        let mut behind = 0u64;
        for &(_, seq, max) in h.commits[..prefix].iter().rev() {
            if max <= returned {
                break;
            }
            if seq > returned {
                behind += 1;
                if behind >= MAX_TRACKED_STALENESS {
                    break;
                }
            }
        }
        // Reads starting below the GC horizon only (the open-loop engine
        // never produces one): compacted commits are invisible to the scan
        // above; account for them up to the cap. At or above the horizon
        // this never fires — `dropped_max_seq > returned` implies the
        // retained below-horizon commits alone already reach the cap.
        if behind < MAX_TRACKED_STALENESS && h.dropped_max_seq > returned {
            behind = (behind + h.dropped).min(MAX_TRACKED_STALENESS);
        }
        ReadLabel { consistent: false, versions_behind: behind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn fresh_read_is_consistent() {
        let mut gt = GroundTruth::new();
        gt.record_commit(1, 1, t(10.0));
        gt.record_commit(1, 2, t(20.0));
        let label = gt.label_read(1, t(25.0), Some(2));
        assert!(label.consistent);
        assert_eq!(label.versions_behind, 0);
    }

    #[test]
    fn stale_read_counts_versions() {
        let mut gt = GroundTruth::new();
        for seq in 1..=5 {
            gt.record_commit(1, seq, t(seq as f64 * 10.0));
        }
        // Read at t=45 (versions 1–4 committed) returning version 2 is two
        // versions behind (3 and 4).
        let label = gt.label_read(1, t(45.0), Some(2));
        assert!(!label.consistent);
        assert_eq!(label.versions_behind, 2);
    }

    #[test]
    fn in_flight_newer_read_is_consistent() {
        let mut gt = GroundTruth::new();
        gt.record_commit(1, 1, t(10.0));
        // Version 2 is in flight (not yet committed); a read returning it is
        // non-stale per §3.1.
        let label = gt.label_read(1, t(15.0), Some(2));
        assert!(label.consistent);
    }

    #[test]
    fn read_before_any_commit_is_consistent() {
        let mut gt = GroundTruth::new();
        gt.record_commit(1, 1, t(10.0));
        assert!(gt.label_read(1, t(5.0), None).consistent);
        assert!(gt.label_read(99, t(5.0), None).consistent, "unknown key");
    }

    #[test]
    fn empty_read_after_commit_is_stale() {
        let mut gt = GroundTruth::new();
        gt.record_commit(1, 1, t(10.0));
        let label = gt.label_read(1, t(15.0), None);
        assert!(!label.consistent);
        assert_eq!(label.versions_behind, 1);
    }

    #[test]
    fn out_of_order_commits_handled() {
        // Concurrent writes can commit out of seq order: seq 3 commits
        // before seq 2.
        let mut gt = GroundTruth::new();
        gt.record_commit(1, 1, t(10.0));
        gt.record_commit(1, 3, t(20.0));
        gt.record_commit(1, 2, t(30.0));
        // At t=25, the newest committed is 3 → returning 2 is stale by one.
        let label = gt.label_read(1, t(25.0), Some(2));
        assert!(!label.consistent);
        assert_eq!(label.versions_behind, 1);
        // Returning 3 is consistent even though 2 commits later.
        assert!(gt.label_read(1, t(35.0), Some(3)).consistent);
    }

    #[test]
    fn latest_committed_at_boundary_inclusive() {
        let mut gt = GroundTruth::new();
        gt.record_commit(7, 4, t(10.0));
        assert_eq!(gt.latest_committed_at(7, t(10.0)), Some(4));
        assert_eq!(gt.latest_committed_at(7, t(9.999)), None);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_recording_panics() {
        let mut gt = GroundTruth::new();
        gt.record_commit(1, 1, t(10.0));
        gt.record_commit(1, 2, t(5.0));
    }

    #[test]
    fn online_ingestion_matches_batch() {
        // Commits ingested out of time order, watermark advanced in two
        // steps — labels must match the batch path exactly.
        let mut online = GroundTruth::new();
        online.ingest_commit(1, 2, t(20.0));
        online.ingest_commit(1, 1, t(10.0));
        online.ingest_commit(1, 3, t(45.0));
        online.advance_watermark(t(30.0));
        assert_eq!(online.pending_commits(), 1, "commit at 45 still pending");
        assert_eq!(online.watermark(), t(30.0));

        let mut batch = GroundTruth::new();
        batch.record_commit(1, 1, t(10.0));
        batch.record_commit(1, 2, t(20.0));
        for (start, ret) in [(5.0, None), (15.0, Some(1)), (25.0, Some(1)), (25.0, Some(2))] {
            assert_eq!(
                online.label_read(1, t(start), ret),
                batch.label_read(1, t(start), ret),
                "start {start}, returned {ret:?}"
            );
        }

        // Passing the third commit's time folds it in.
        online.advance_watermark(t(50.0));
        assert_eq!(online.pending_commits(), 0);
        assert!(!online.label_read(1, t(46.0), Some(2)).consistent);
    }

    #[test]
    fn equal_time_commits_fold_in_ingestion_order() {
        let mut gt = GroundTruth::new();
        gt.ingest_commit(7, 5, t(10.0));
        gt.ingest_commit(7, 4, t(10.0));
        gt.advance_watermark(t(10.0));
        assert_eq!(gt.retained_commits(), 2);
        assert_eq!(gt.latest_committed_at(7, t(10.0)), Some(5));
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn ingest_below_watermark_panics() {
        let mut gt = GroundTruth::new();
        gt.advance_watermark(t(100.0));
        gt.ingest_commit(1, 1, t(99.0));
    }

    #[test]
    fn gc_labels_are_bit_identical_to_the_unbounded_history() {
        use rand::{Rng, SeedableRng};
        // Feed two histories the same long out-of-order commit stream —
        // one GC'd at a 50 ms lag, one unbounded — and label the reads the
        // open-loop engine can actually produce (start after the previous
        // watermark minus the lag). Every label must match exactly, even
        // though the GC'd history drops almost everything.
        let lag_ms = 50.0;
        let window_ms = 20.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB1A5);
        let mut gc = GroundTruth::new();
        gc.enable_gc(lag_ms);
        let mut full = GroundTruth::new();
        let mut seq = 1u64;
        let mut prev_until = 0.0f64;
        for w in 1..=400usize {
            let until = w as f64 * window_ms;
            // A hot key (0) plus a handful of cool ones, commits scattered
            // through the window out of order.
            for _ in 0..40 {
                let key = if rng.gen::<f64>() < 0.8 { 0 } else { rng.gen_range(1..5u64) };
                let commit = prev_until + rng.gen::<f64>() * window_ms;
                // Sequences are write-start times: commit-lagged, shuffled.
                let s = seq + rng.gen_range(0..7u64);
                seq += 3;
                gc.ingest_commit(key, s, t(commit));
                full.ingest_commit(key, s, t(commit));
            }
            gc.advance_watermark(t(until));
            full.advance_watermark(t(until));
            // Label reads across the whole reachable zone, with returned
            // sequences old enough to probe deep staleness (the cap path).
            for _ in 0..30 {
                let key = if rng.gen::<f64>() < 0.8 { 0 } else { rng.gen_range(1..5u64) };
                let lo = (prev_until - lag_ms * 0.999).max(0.0);
                let start = lo + rng.gen::<f64>() * (until - lo);
                let returned = match rng.gen_range(0..4u32) {
                    0 => None,
                    1 => Some(seq),
                    2 => Some(seq.saturating_sub(rng.gen_range(0..40u64))),
                    _ => Some(rng.gen_range(0..seq)),
                };
                assert_eq!(
                    gc.label_read(key, t(start), returned),
                    full.label_read(key, t(start), returned),
                    "window {w}, key {key}, start {start}, returned {returned:?}"
                );
            }
            prev_until = until;
        }
        assert!(
            gc.dropped_commits() > 10_000,
            "GC must actually compact ({} dropped)",
            gc.dropped_commits()
        );
        assert_eq!(gc.dropped_commits() + gc.retained_commits() as u64, 400 * 40);
        // The convergence oracle's query stays exact too.
        for key in full.tracked_keys() {
            assert_eq!(
                gc.latest_committed_at(key, SimTime::MAX),
                full.latest_committed_at(key, SimTime::MAX),
            );
        }
    }

    #[test]
    fn gc_keeps_hot_key_memory_flat() {
        // One key written every ms forever: the un-GC'd history grows one
        // entry per write; the GC'd one stays bounded by the lag window
        // plus the staleness cap.
        let lag_ms = 100.0;
        let mut gc = GroundTruth::new();
        gc.enable_gc(lag_ms);
        let mut peak = 0usize;
        for i in 0..50_000u64 {
            let commit = (i + 1) as f64;
            gc.ingest_commit(7, i + 1, t(commit));
            if (i + 1) % 20 == 0 {
                gc.advance_watermark(t(commit));
                peak = peak.max(gc.retained_commits());
            }
        }
        // Bound: one commit/ms × (lag + one 20 ms fold granule) + the cap,
        // with slack for the trim threshold.
        assert!(
            peak <= (lag_ms as usize + 20 + MAX_TRACKED_STALENESS as usize) * 2,
            "retained history should stay flat, peaked at {peak}"
        );
        assert_eq!(gc.latest_committed_at(7, SimTime::MAX), Some(50_000));
    }

    #[test]
    fn the_early_stop_counts_what_a_full_scan_counts() {
        use rand::{Rng, SeedableRng};
        // One key, 4,000 commits one ms apart whose sequences commit out of
        // order: 1..=4000, each swapped with a neighbour up to 5 ahead.
        let n = 4_000usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CA7);
        let mut seqs: Vec<u64> = (1..=n as u64).collect();
        for i in 0..n {
            let j = (i + rng.gen_range(0..6usize)).min(n - 1);
            seqs.swap(i, j);
        }
        let mut gt = GroundTruth::new();
        for (i, &seq) in seqs.iter().enumerate() {
            gt.record_commit(1, seq, t((i + 1) as f64));
        }
        // The reference counts every commit at or before the start, with
        // no early stop.
        let full_scan = |start: f64, returned: u64| {
            let seen = &seqs[..(start as usize).min(n)];
            let newest = seen.iter().copied().max().unwrap_or(0);
            let behind = seen.iter().filter(|&&s| s > returned).count() as u64;
            ReadLabel {
                consistent: newest <= returned,
                versions_behind: behind.min(MAX_TRACKED_STALENESS),
            }
        };
        let mut stale = 0;
        for _ in 0..3_000 {
            let start = rng.gen_range(1..=n) as f64 + 0.5;
            let mut seen: Vec<u64> = seqs[..start as usize].to_vec();
            seen.sort_unstable_by(|a, b| b.cmp(a));
            for behind in [0usize, 1, 70] {
                let Some(&returned) = seen.get(behind) else { continue };
                let label = gt.label_read(1, t(start), Some(returned));
                assert_eq!(label, full_scan(start, returned), "start {start}, seq {returned}");
                assert_eq!(label.versions_behind, (behind as u64).min(MAX_TRACKED_STALENESS));
                stale += usize::from(!label.consistent);
            }
        }
        assert!(stale > 3_000, "most probes must be stale ({stale})");
    }
}
