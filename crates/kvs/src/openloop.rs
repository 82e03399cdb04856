//! The open-loop concurrency engine: drive a cluster of in-sim client
//! actors window by window and aggregate a streaming report.
//!
//! * arrivals are generated lazily inside the simulation (the event queue
//!   stays O(clients + in-flight), not O(workload));
//! * reads are labelled **online** as the
//!   [`GroundTruth`](crate::staleness::GroundTruth) commit watermark
//!   passes each window boundary;
//! * completed operations stream out through bounded per-client buffers
//!   and fold into O(1)-memory `pbs-mc` summaries.
//!
//! One value, [`OpenLoopRun`], describes a run; [`OpenLoopRun::drive`] is
//! the only open-loop drive, and every execution consumes it: plain,
//! audited by the offline [`checker`], replicated over the deterministic
//! `pbs-mc` runner (bit-reproducible per `(seed, threads)`), or as
//! `pbs-scenario`'s §6 closed loop.

use crate::checker::{self, CheckReport, OpHistory};
use crate::client::{ClientOptions, ClientStats};
use crate::cluster::{Cluster, ClusterOptions, DetectorStats, EngineKind, WindowDrain, WindowOp};
use crate::network::NetworkModel;
use pbs_mc::{Mergeable, Runner, Summary};
use pbs_sim::{PdesError, SimTime};
use pbs_workload::OpSource;

/// Run timing (per-client knobs live in [`ClientOptions`]).
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOptions {
    /// Workload length: clients generate arrivals in `[0, duration_ms)`.
    pub duration_ms: f64,
    /// Drain cadence (also the reporting-window width).
    pub window_ms: f64,
    /// Extra time after `duration_ms` for in-flight operations to finish
    /// or time out before the final drain.
    pub settle_ms: f64,
}

impl OpenLoopOptions {
    /// Validated options: finite, positive duration and window; finite,
    /// non-negative settle.
    pub fn new(duration_ms: f64, window_ms: f64, settle_ms: f64) -> Self {
        for (field, value) in [("duration_ms", duration_ms), ("window_ms", window_ms)] {
            assert!(
                value.is_finite() && value > 0.0,
                "OpenLoopOptions::{field} must be finite and > 0, got {value}"
            );
        }
        assert!(
            settle_ms.is_finite() && settle_ms >= 0.0,
            "OpenLoopOptions::settle_ms must be finite and >= 0, got {settle_ms}"
        );
        Self { duration_ms, window_ms, settle_ms }
    }

    /// Number of reporting windows.
    pub fn window_count(&self) -> usize {
        (self.duration_ms / self.window_ms).ceil() as usize
    }
}

/// Per-window counts (merge element-wise across replica runs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpenWindow {
    /// Window start (ms).
    pub start_ms: f64,
    /// Committed writes whose op started in this window.
    pub writes: u64,
    /// Writes that failed or timed out.
    pub failed_writes: u64,
    /// Labelled reads that started in this window.
    pub reads: u64,
    /// Labelled reads that were consistent.
    pub consistent: u64,
    /// Reads that timed out client-side.
    pub incomplete_reads: u64,
}

impl OpenWindow {
    /// Measured `P(consistent)` in this window (`None` with no reads).
    pub fn measured(&self) -> Option<f64> {
        (self.reads > 0).then(|| self.consistent as f64 / self.reads as f64)
    }

    /// Count one drained op — a write as committed or failed, a read as
    /// consistent, stale or timed out — and return its latency (ms) when
    /// it completed: a committed write or a labelled read. Every window
    /// fold classes an op here and nowhere else.
    pub fn count(&mut self, op: WindowOp<'_>) -> Option<f64> {
        match op {
            WindowOp::Write(w) if w.commit.is_some() => {
                self.writes += 1;
                Some(w.latency_ms().expect("a committed write finished"))
            }
            WindowOp::Write(_) => {
                self.failed_writes += 1;
                None
            }
            WindowOp::Read(r) => match r.label {
                Some(label) => {
                    self.reads += 1;
                    self.consistent += u64::from(label.consistent);
                    Some(r.op.latency_ms().expect("a labelled read finished"))
                }
                None => {
                    self.incomplete_reads += 1;
                    None
                }
            },
        }
    }
}

impl Mergeable for OpenWindow {
    fn merge(&mut self, other: Self) {
        assert_eq!(self.start_ms, other.start_ms, "window grids differ");
        self.writes += other.writes;
        self.failed_writes += other.failed_writes;
        self.reads += other.reads;
        self.consistent += other.consistent;
        self.incomplete_reads += other.incomplete_reads;
    }
}

/// The merged result of one or more open-loop runs. Operation counts live
/// in `windows` alone; the run totals are their sums.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenLoopReport {
    /// Windowed consistency/availability time-series.
    pub windows: Vec<OpenWindow>,
    /// The cluster's client counters: issued, shed, and the empirical
    /// monotonic-reads / read-your-writes violations (§3.2).
    pub clients: ClientStats,
    /// Total versions-behind over stale reads (capped per read).
    pub versions_behind_total: u64,
    /// Commit latencies of committed writes (ms).
    pub write_latency: Summary,
    /// Latencies of completed reads (ms).
    pub read_latency: Summary,
    /// Staleness-detector performance (§4.3) vs. online ground truth.
    pub detector: DetectorStats,
    /// Peak scheduler-queue length observed at window boundaries — the
    /// memory-boundedness witness (O(clients + in-flight), not O(trace)).
    pub peak_pending_events: u64,
    /// Simulated duration per run (ms).
    pub sim_ms: f64,
    /// Replica runs folded into this report.
    pub runs: u64,
}

impl OpenLoopReport {
    fn total(&self, count: impl Fn(&OpenWindow) -> u64) -> u64 {
        self.windows.iter().map(count).sum()
    }

    /// Committed writes.
    pub fn commits(&self) -> u64 {
        self.total(|w| w.writes)
    }

    /// Failed or timed-out writes.
    pub fn failed_writes(&self) -> u64 {
        self.total(|w| w.failed_writes)
    }

    /// Labelled (completed) reads.
    pub fn reads(&self) -> u64 {
        self.total(|w| w.reads)
    }

    /// Labelled reads that were consistent.
    pub fn consistent(&self) -> u64 {
        self.total(|w| w.consistent)
    }

    /// Reads that timed out client-side.
    pub fn incomplete_reads(&self) -> u64 {
        self.total(|w| w.incomplete_reads)
    }

    /// Fraction of labelled reads that were consistent.
    pub fn consistency_rate(&self) -> f64 {
        let reads = self.reads();
        if reads == 0 {
            return 1.0;
        }
        self.consistent() as f64 / reads as f64
    }

    /// Completed operations (commits + labelled reads) per simulated
    /// second, per run.
    pub fn achieved_ops_per_sec(&self) -> f64 {
        if self.sim_ms <= 0.0 || self.runs == 0 {
            return 0.0;
        }
        (self.commits() + self.reads()) as f64 / self.runs as f64 / (self.sim_ms / 1000.0)
    }

    /// Monotonic-reads violation rate over session-checked reads.
    pub fn monotonic_violation_rate(&self) -> f64 {
        let reads = self.reads();
        if reads == 0 {
            return 0.0;
        }
        self.clients.monotonic_violations as f64 / reads as f64
    }
}

impl Mergeable for OpenLoopReport {
    fn merge(&mut self, other: Self) {
        if other.runs == 0 {
            return;
        }
        if self.runs == 0 {
            *self = other;
            return;
        }
        assert_eq!(self.windows.len(), other.windows.len(), "window grids differ");
        for (a, b) in self.windows.iter_mut().zip(other.windows) {
            a.merge(b);
        }
        self.clients.merge(other.clients);
        self.versions_behind_total += other.versions_behind_total;
        self.write_latency.merge(other.write_latency);
        self.read_latency.merge(other.read_latency);
        self.detector.merge(other.detector);
        self.peak_pending_events = self.peak_pending_events.max(other.peak_pending_events);
        self.sim_ms = self.sim_ms.max(other.sim_ms);
        self.runs += other.runs;
    }
}

/// What [`OpenLoopRun::drive`] hands its step around each window drain.
#[derive(Debug, Clone, Copy)]
pub enum DriveStep<'a> {
    /// The drive is about to drain up to this instant (ms); the step may
    /// act on the cluster at or before it first.
    Before(f64),
    /// What the drain just made collected and labelled.
    After(&'a WindowDrain),
}

/// One open-loop run, described as a value: which engine, which cluster,
/// which network, how long, how many clients. Every way of executing it
/// ([`run`](Self::run), [`run_checked`](Self::run_checked),
/// [`run_sharded`](Self::run_sharded), and the `pbs-scenario` closed
/// loop) consumes one drive, [`drive`](Self::drive).
#[derive(Debug, Clone)]
pub struct OpenLoopRun {
    /// Event engine. [`EngineKind::Parallel`] runs the cluster on a
    /// partitioned [`Simulation`](pbs_sim::Simulation::partitioned): nodes
    /// and clients split across worker threads (see
    /// [`Cluster::partition_plan`]), bit-reproducibly per
    /// `(seed, workers)`; running it over the same workload as
    /// [`EngineKind::SerialPartitioned`] with equal `workers` must yield
    /// identical histories and reports.
    pub kind: EngineKind,
    /// Cluster shape, replication and seed.
    pub opts: ClusterOptions,
    /// Latency/fault model; each run forks its own copy.
    pub network: NetworkModel,
    /// Duration, window cadence and settle.
    pub timing: OpenLoopOptions,
    /// Client actors (≥ 1).
    pub clients: usize,
    /// Per-client knobs, shared by every client.
    pub copts: ClientOptions,
}

impl OpenLoopRun {
    /// A run on the serial engine.
    pub fn new(
        opts: ClusterOptions,
        network: NetworkModel,
        timing: OpenLoopOptions,
        clients: usize,
        copts: ClientOptions,
    ) -> Self {
        Self { kind: EngineKind::Serial, opts, network, timing, clients, copts }
    }

    /// The same run on another engine.
    pub fn on(self, kind: EngineKind) -> Self {
        Self { kind, ..self }
    }

    /// The one open-loop drive every execution of the run shares. It builds
    /// the cluster on `kind`, runs `prepare` on it once before load starts
    /// (schedule crashes, partitions, …), adds `clients` clients — client
    /// `i` pulls from `make_source(i)` — and starts them. It then drains at
    /// every `window_ms` multiple below `duration_ms`, at `duration_ms`
    /// itself, where the clients stop, and at every window multiple after
    /// it up to `duration_ms + settle_ms`, the last drain. `step` sees each
    /// drain twice: [`DriveStep::Before`] with its instant, then
    /// [`DriveStep::After`] with what it drained. Returns the settled
    /// cluster.
    ///
    /// The drive is engine-agnostic — drains happen at `run_until`
    /// boundaries, which on the parallel engine are global barriers, so
    /// labelling, history and detector plumbing are shared verbatim.
    /// Only [`EngineKind::Parallel`] can fail: a latency model whose
    /// support minimum is zero (e.g. exponential legs) is
    /// [`PdesError::DegenerateLookahead`].
    pub fn drive<F, P, S>(
        &self,
        make_source: F,
        prepare: P,
        mut step: S,
    ) -> Result<Cluster, PdesError>
    where
        F: Fn(u32) -> Box<dyn OpSource>,
        P: FnOnce(&mut Cluster),
        S: FnMut(&mut Cluster, DriveStep<'_>),
    {
        assert!(self.clients >= 1);
        let OpenLoopOptions { duration_ms, window_ms, settle_ms } = self.timing;
        let mut cluster = Cluster::with_engine(self.opts, self.network.clone(), self.kind)?;
        prepare(&mut cluster);
        for i in 0..self.clients {
            cluster.add_client(make_source(i as u32), self.copts);
        }
        cluster.start_clients();

        // One drain buffer for the whole run: window plumbing reuses its
        // capacity instead of allocating per window.
        let mut drain = WindowDrain::default();
        let mut drained = None;
        let mut drain_to = |cluster: &mut Cluster, until_ms: f64| {
            if drained == Some(until_ms) {
                return; // a window boundary at `duration_ms`, drained already
            }
            step(cluster, DriveStep::Before(until_ms));
            cluster.drain_window_into(SimTime::from_ms(until_ms), &mut drain);
            step(cluster, DriveStep::After(&drain));
            drained = Some(until_ms);
        };
        let mut next = window_ms;
        while next < duration_ms {
            drain_to(&mut cluster, next);
            next += window_ms;
        }
        // Stop arrivals exactly at the workload end, then settle.
        drain_to(&mut cluster, duration_ms);
        cluster.stop_clients();
        let end = duration_ms + settle_ms;
        while next < end {
            drain_to(&mut cluster, next);
            next += window_ms;
        }
        drain_to(&mut cluster, end);
        Ok(cluster)
    }

    /// Execute the run on [`drive`](Self::drive), folding every drain into
    /// an [`OpenLoopReport`]; returns it beside the settled cluster
    /// (node-level stats, history).
    pub fn run<F, P>(
        &self,
        make_source: F,
        prepare: P,
    ) -> Result<(OpenLoopReport, Cluster), PdesError>
    where
        F: Fn(u32) -> Box<dyn OpSource>,
        P: FnOnce(&mut Cluster),
    {
        let window_ms = self.timing.window_ms;
        let mut report = OpenLoopReport {
            windows: (0..self.timing.window_count())
                .map(|i| OpenWindow { start_ms: i as f64 * window_ms, ..OpenWindow::default() })
                .collect(),
            sim_ms: self.timing.duration_ms,
            runs: 1,
            ..OpenLoopReport::default()
        };
        let last_window = report.windows.len() - 1;
        let cluster = self.drive(make_source, prepare, |cluster, step| {
            let DriveStep::After(drain) = step else { return };
            report.peak_pending_events =
                report.peak_pending_events.max(cluster.pending_events() as u64);
            drain.fold(window_ms, last_window, |idx, op| {
                let Some(latency) = report.windows[idx].count(op) else { return };
                match op {
                    WindowOp::Write(_) => report.write_latency.record(latency),
                    WindowOp::Read(r) => {
                        // A consistent label is 0 versions behind.
                        report.versions_behind_total +=
                            r.label.map_or(0, |l| l.versions_behind);
                        report.read_latency.record(latency);
                    }
                }
            });
        })?;

        report.clients = cluster.client_stats();
        report.detector = cluster.detector_stats();
        assert_eq!(
            report.clients.dropped_results, 0,
            "driver drained too rarely for the result buffers"
        );
        report.write_latency.seal();
        report.read_latency.seal();
        Ok((report, cluster))
    }

    /// [`run`](Self::run) with the offline [`checker`] as a post-pass:
    /// the cluster records its full op history, and after the final drain
    /// the history is replayed against the streaming session counters and
    /// the online staleness labels. Returns the report, the verdict and
    /// the history the verdict was reached on. Replica convergence is not
    /// audited, since `prepare` may leave a fault active past the settle.
    pub fn run_checked<F, P>(
        &self,
        make_source: F,
        prepare: P,
    ) -> Result<(OpenLoopReport, CheckReport, OpHistory), PdesError>
    where
        F: Fn(u32) -> Box<dyn OpSource>,
        P: FnOnce(&mut Cluster),
    {
        let (report, mut cluster) = self.run(make_source, |cluster| {
            cluster.enable_history();
            prepare(cluster);
        })?;
        let history = cluster.take_history();
        let check = checker::check_run(&history, &cluster, false);
        Ok((report, check, history))
    }

    /// Replicate the run across `trials` independent runs sharded over
    /// `threads` on the deterministic `pbs-mc` runner
    /// ([`Runner::run_replicas`]): each run seeds the cluster with its
    /// replica seed, which `make_source` also gets as its second argument,
    /// and reports merge in shard order — bit-reproducible for a fixed
    /// `(seed, threads)` pair.
    pub fn run_sharded<F, P>(
        &self,
        trials: usize,
        threads: usize,
        make_source: F,
        prepare: P,
    ) -> Result<OpenLoopReport, PdesError>
    where
        F: Fn(u32, u64) -> Box<dyn OpSource> + Sync,
        P: Fn(&mut Cluster) + Sync,
    {
        assert!(trials > 0 && threads > 0);
        Runner::new(trials, self.opts.seed, threads).run_replicas(
            || Ok(OpenLoopReport::default()),
            |run_seed| {
                let mut one = self.clone();
                one.opts.seed = run_seed;
                Ok(one.run(|client| make_source(client, run_seed), &prepare)?.0)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_core::ReplicaConfig;
    use pbs_dist::Exponential;
    use pbs_workload::{OpKind, OpMix, OpStream, Poisson, UniformKeys, Zipf};
    use std::sync::Arc;

    fn exp_net(w_rate: f64, ars_rate: f64) -> NetworkModel {
        NetworkModel::w_ars(
            Arc::new(Exponential::from_rate(w_rate)),
            Arc::new(Exponential::from_rate(ars_rate)),
        )
    }

    fn source(rate_per_sec: f64, keys: u64, read_frac: f64) -> Box<dyn OpSource> {
        Box::new(OpStream::new(
            Poisson::per_second(rate_per_sec),
            UniformKeys::new(keys),
            OpMix::new(read_frac),
            1,
        ))
    }

    fn small_opts(seed: u64) -> ClusterOptions {
        let mut o = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).unwrap(), seed);
        o.op_timeout_ms = 2_000.0;
        o
    }

    /// An infinite duration would saturate `window_count` and die in
    /// `run` on a capacity overflow.
    #[test]
    #[should_panic(expected = "OpenLoopOptions::duration_ms must be finite and > 0, got inf")]
    fn an_infinite_duration_is_rejected() {
        OpenLoopOptions::new(f64::INFINITY, 100.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "OpenLoopOptions::settle_ms must be finite and >= 0, got NaN")]
    fn a_nan_settle_is_rejected() {
        OpenLoopOptions::new(1_000.0, 100.0, f64::NAN);
    }

    #[test]
    fn open_loop_reports_consistency_and_detector() {
        let report = OpenLoopRun::new(
            small_opts(9),
            exp_net(0.05, 1.0),
            OpenLoopOptions::new(3_000.0, 500.0, 2_000.0),
            4,
            ClientOptions { op_timeout_ms: 2_000.0, ..ClientOptions::default() },
        )
        .run(|_| source(50.0, 4, 2.0 / 3.0), |_| {})
        .unwrap()
        .0;
        assert_eq!(report.runs, 1);
        let issued = report.clients.issued;
        assert!(issued > 400, "~600 ops expected, got {issued}");
        assert_eq!(report.failed_writes(), 0);
        assert_eq!(report.incomplete_reads(), 0);
        assert_eq!(report.clients.shed, 0);
        assert_eq!(issued, report.commits() + report.reads(), "every issued op is counted once");
        let rate = report.consistency_rate();
        assert!(rate > 0.3 && rate < 1.0, "consistency rate {rate}");
        // Detector bookkeeping is internally consistent.
        let d = report.detector;
        assert_eq!(d.flagged, d.true_positives + d.false_positives);
        let stale = report.reads() - report.consistent();
        assert_eq!(stale as usize, d.true_positives + d.missed_stale);
        assert!(report.read_latency.count() == report.reads());
        assert_eq!(report.write_latency.count(), report.commits());
    }

    /// A 1 000 ms run with a 400 ms settle on `window_ms` windows.
    fn short_run(window_ms: f64) -> OpenLoopRun {
        OpenLoopRun::new(
            small_opts(23),
            exp_net(0.1, 0.5),
            OpenLoopOptions::new(1_000.0, window_ms, 400.0),
            2,
            ClientOptions { op_timeout_ms: 400.0, ..ClientOptions::default() },
        )
    }

    /// Every drain `step` saw, as (instant, ops drained), and the ops that
    /// started at or after the workload's end.
    fn drains(run: &OpenLoopRun, advance_first: bool) -> (Vec<(f64, usize)>, usize) {
        let (mut seen, mut late, mut pending) = (Vec::new(), 0, None);
        run.drive(
            |_| source(40.0, 4, 0.5),
            |_| {},
            |cluster, step| match step {
                DriveStep::Before(until_ms) => {
                    assert_eq!(pending.replace(until_ms), None, "one After per Before");
                    if advance_first {
                        cluster.advance_to(SimTime::from_ms(until_ms));
                    }
                }
                DriveStep::After(drain) => {
                    let until_ms = pending.take().expect("After follows a Before");
                    seen.push((until_ms, drain.writes.len() + drain.reads.len()));
                    let ends = |start: SimTime| start.as_ms() >= run.timing.duration_ms;
                    late += drain.writes.iter().filter(|w| ends(w.start)).count();
                    late += drain.reads.iter().filter(|r| ends(r.op.start)).count();
                }
            },
        )
        .unwrap();
        (seen, late)
    }

    #[test]
    fn the_drive_drains_each_window_then_the_end_then_the_settle() {
        for (window_ms, expected) in [
            (250.0, vec![250.0, 500.0, 750.0, 1_000.0, 1_250.0, 1_400.0]),
            (300.0, vec![300.0, 600.0, 900.0, 1_000.0, 1_200.0, 1_400.0]),
        ] {
            let (seen, late) = drains(&short_run(window_ms), false);
            let instants: Vec<f64> = seen.iter().map(|&(at, _)| at).collect();
            assert_eq!(instants, expected, "drain instants on {window_ms} ms windows");
            assert_eq!(late, 0, "clients stop at the workload's end");
        }
    }

    /// A step that moves the cluster to the boundary itself must not cost
    /// the window its drain.
    #[test]
    fn a_step_that_advances_to_the_boundary_keeps_its_window() {
        let run = short_run(250.0);
        let (plain, _) = drains(&run, false);
        let (advanced, _) = drains(&run, true);
        assert!(plain[..4].iter().all(|&(_, ops)| ops > 0), "every window drains ops: {plain:?}");
        assert_eq!(advanced, plain);
    }

    /// `run` is a fold over the drive: the same report comes out of a
    /// hand-rolled `drain_window` loop over the same instants.
    #[test]
    fn run_matches_a_hand_rolled_drain_loop() {
        let run = short_run(250.0);
        let (report, _) = run.run(|_| source(40.0, 4, 0.5), |_| {}).unwrap();

        let mut cluster = Cluster::new(run.opts, run.network.clone());
        for _ in 0..run.clients {
            cluster.add_client(source(40.0, 4, 0.5), run.copts);
        }
        cluster.start_clients();
        let mut expected = OpenLoopReport {
            windows: (0..4)
                .map(|i| OpenWindow { start_ms: i as f64 * 250.0, ..OpenWindow::default() })
                .collect(),
            sim_ms: 1_000.0,
            runs: 1,
            ..OpenLoopReport::default()
        };
        for until in [250.0, 500.0, 750.0, 1_000.0, 1_250.0, 1_400.0] {
            let drain = cluster.drain_window(SimTime::from_ms(until));
            expected.peak_pending_events =
                expected.peak_pending_events.max(cluster.pending_events() as u64);
            drain.fold(250.0, 3, |idx, op| {
                let Some(latency) = expected.windows[idx].count(op) else { return };
                match op {
                    WindowOp::Write(_) => expected.write_latency.record(latency),
                    WindowOp::Read(r) => {
                        expected.versions_behind_total += r.label.map_or(0, |l| l.versions_behind);
                        expected.read_latency.record(latency);
                    }
                }
            });
            if until == 1_000.0 {
                cluster.stop_clients();
            }
        }
        expected.clients = cluster.client_stats();
        expected.detector = cluster.detector_stats();
        expected.write_latency.seal();
        expected.read_latency.seal();
        assert!(expected.reads() > 0 && expected.commits() > 0);
        assert_eq!(report, expected);
    }

    #[test]
    fn sharded_open_loop_is_bit_reproducible() {
        let run = || {
            OpenLoopRun::new(
                small_opts(11),
                exp_net(0.1, 0.5),
                OpenLoopOptions::new(1_000.0, 250.0, 1_000.0),
                2,
                ClientOptions { op_timeout_ms: 1_000.0, ..ClientOptions::default() },
            )
            .run_sharded(6, 3, |_, run_seed| source(40.0 + (run_seed % 3) as f64, 4, 0.5), |_| {})
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same (seed, threads) must be bit-identical");
        assert_eq!(a.runs, 6);
    }

    #[test]
    fn stopped_clients_resume_immediately_on_restart() {
        use pbs_sim::SimTime;
        let mut cluster = Cluster::new(small_opts(21), exp_net(0.5, 1.0));
        cluster.add_client(
            Box::new(OpStream::new(
                pbs_workload::FixedRate::new(10.0),
                UniformKeys::new(4),
                OpMix::new(0.5),
                1,
            )),
            ClientOptions { op_timeout_ms: 1_000.0, ..ClientOptions::default() },
        );
        cluster.start_clients();
        cluster.drain_window(SimTime::from_ms(500.0));
        let after_first = cluster.client_stats().issued;
        assert!(after_first >= 45, "~50 arrivals in 500ms, got {after_first}");
        cluster.stop_clients();
        // A long quiet gap: nothing should be generated.
        cluster.drain_window(SimTime::from_ms(5_000.0));
        let during_stop = cluster.client_stats().issued;
        assert!(during_stop <= after_first + 1, "stopped client kept generating");
        // Restart: arrivals must resume immediately, not replay the
        // consumed stream time as dead air.
        cluster.start_clients();
        cluster.drain_window(SimTime::from_ms(5_500.0));
        let after_restart = cluster.client_stats().issued;
        assert!(
            after_restart >= during_stop + 45,
            "restart should resume at full rate: {during_stop} -> {after_restart}"
        );
    }

    #[test]
    fn many_stop_start_cycles_within_one_gap_revive_no_stale_arrival() {
        use pbs_sim::SimTime;
        // One op per second; every restart re-bases the stream, so the ten
        // seconds after the last start hold exactly ten arrivals however
        // many stop→start cycles came before — as long as no arrival queued
        // by an earlier start fires again.
        for cycles in [0, 1, 127, 128, 256] {
            let mut cluster = Cluster::new(small_opts(21), exp_net(0.5, 1.0));
            cluster.add_client(
                Box::new(OpStream::new(
                    pbs_workload::FixedRate::new(1_000.0),
                    UniformKeys::new(4),
                    OpMix::new(0.5),
                    1,
                )),
                ClientOptions { op_timeout_ms: 1_000.0, ..ClientOptions::default() },
            );
            let mut now_ms = 0.0;
            let mut drain = |cluster: &mut Cluster, ms: f64| {
                now_ms += ms;
                cluster.drain_window(SimTime::from_ms(now_ms));
            };
            cluster.start_clients();
            for _ in 0..cycles {
                cluster.stop_clients();
                drain(&mut cluster, 1.0);
                cluster.start_clients();
                drain(&mut cluster, 1.0);
            }
            drain(&mut cluster, 10_000.0);
            assert_eq!(cluster.client_stats().issued, 10, "after {cycles} stop/start cycles");
        }
    }

    #[test]
    fn checked_fault_free_run_is_clean() {
        // The history checker must agree with the streaming machinery on
        // every count and find zero violations on a fault-free run — any
        // disagreement here is a checker (or engine) bug, not a fault.
        let (report, check, _) = OpenLoopRun::new(
            small_opts(17),
            exp_net(0.1, 0.5),
            OpenLoopOptions::new(2_000.0, 500.0, 2_000.0),
            4,
            ClientOptions { op_timeout_ms: 2_000.0, ..ClientOptions::default() },
        )
        .run_checked(|_| source(40.0, 4, 0.5), |_| {})
        .unwrap();
        assert!(check.is_clean(), "fault-free run failed cross-checks: {check:?}");
        assert!(check.sessions.agrees());
        assert_eq!(check.labels.mismatches, 0);
        assert_eq!(check.labels.labelled_reads, report.reads());
        assert_eq!(check.sessions.monotonic_violations, report.clients.monotonic_violations);
        assert_eq!(check.sessions.ryw_violations, report.clients.ryw_violations);
        assert_eq!(
            check.labels.stale_reads,
            report.reads() - report.consistent(),
            "offline staleness count must match the online one"
        );
    }

    /// R = W = 1 with W legs of 200 ms mean, and many clients over a large
    /// Zipf universe: most reads return nothing, so most leave no session
    /// state in the client table, while the offline replay keeps a zeroed
    /// entry for every pair. The two must still count the same violations.
    #[test]
    fn session_counts_agree_when_most_reads_see_nothing() {
        let (report, check, history) = OpenLoopRun::new(
            small_opts(44),
            exp_net(0.005, 1.0),
            OpenLoopOptions::new(2_000.0, 500.0, 1_000.0),
            200,
            ClientOptions { op_timeout_ms: 2_000.0, ..ClientOptions::default() },
        )
        .run_checked(
            |_| {
                Box::new(OpStream::new(
                    Poisson::per_second(40.0),
                    Zipf::new(100_000, 0.99),
                    OpMix::new(0.8),
                    1,
                ))
            },
            |_| {},
        )
        .unwrap();
        let reads = history.ops().iter().map(|h| &h.op);
        let reads = reads.filter(|op| op.kind == OpKind::Read && op.finish.is_some());
        let (count, empty) = (reads.clone().count(), reads.filter(|op| op.seq.is_none()).count());
        assert!(2 * empty > count, "{empty} of {count} reads returned nothing");
        assert!(check.sessions.agrees(), "{:?}", check.sessions);
        assert_eq!(check.sessions.reads_checked, count as u64);
        let clients = report.clients;
        assert!(clients.monotonic_violations + clients.ryw_violations > 0, "{clients:?}");
    }

    #[test]
    fn strict_quorums_stay_consistent_under_open_loop_load() {
        let mut opts = ClusterOptions::validation(ReplicaConfig::new(3, 2, 2).unwrap(), 13);
        opts.op_timeout_ms = 2_000.0;
        let report = OpenLoopRun::new(
            opts,
            exp_net(0.1, 0.5),
            OpenLoopOptions::new(2_000.0, 500.0, 2_000.0),
            8,
            ClientOptions { op_timeout_ms: 2_000.0, ..ClientOptions::default() },
        )
        .run(|_| source(25.0, 8, 0.6), |_| {})
        .unwrap()
        .0;
        assert!(report.reads() > 100);
        assert_eq!(report.consistency_rate(), 1.0, "R+W>N must never go stale");
        assert_eq!(report.clients.monotonic_violations, 0);
        assert_eq!(report.clients.ryw_violations, 0);
    }
}
