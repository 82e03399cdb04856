//! CI seed-sweep chaos gate: many seeded adversarial runs — scheduled
//! fault storms plus per-seed crash timelines, on the serial **and** the
//! parallel engine — each audited by the full offline checker (session
//! replay, label recount, per-key order oracle). Any unclean report, or
//! any serial/parallel divergence, dumps the offending op history as an
//! artifact and fails the process.
//!
//! ```text
//! chaos_sweep [--seeds N] [--seed BASE] [--workers W] [--out DIR] [--quick] [--lin]
//! ```
//!
//! Defaults: 32 seeds from base 1, 2 PDES workers, artifacts under
//! `target/chaos-artifacts`. `--quick` trims to 8 seeds for local smoke.
//! `--seeds 0`, and a `--workers` outside `1..=8` (one node per worker at
//! least), exit 2 before anything runs.
//!
//! Seed `i` of the sweep is `rand::child(BASE, i)`, so sweeps from nearby
//! bases are independent samples. Each per-seed line and each `FAIL seed …`
//! line prints that derived seed, and `--seed <printed> --seeds 1` replays
//! it alone: stream 0 of a base is the base itself.
//!
//! `--lin` adds the WGL linearizability gate: each seed also runs a
//! **fault-free** strict-quorum (N=3, R=W=2) pair, which must verify
//! `Linearizable` on every key on both engines (`Exhausted` keys are
//! reported but never fail the gate — an exhausted search is an unproven
//! key, not a violation); and the base R=W=1 chaos runs' violation
//! windows are aggregated across the sweep, asserted nonzero (the checker
//! must have teeth under partial quorums) and summarized as p50/p90.
//!
//! The WGL pair is deliberately *not* run under the storm: a write that
//! times out or loses its coordinator mid-flight is applied on some
//! replicas but never reaches a full `W` quorum, and its version can
//! legally appear to one read and vanish from the next — Dynamo-style
//! quorums are regular, not linearizable, the moment writes go partial.
//! The checker flagging that is correct behaviour, not a regression, so
//! gating it would only teach people to ignore the gate. What a strict
//! quorum does owe under faults is regularity, so `--lin` runs the same
//! configuration once more per seed **under** the storm and the seed's
//! crash (serial engine) and fails on anything but
//! `CheckReport::regular() == Some(true)`.

use pbs_bench::cli;
use pbs_dist::Pareto;
use pbs_kvs::checker::{CheckReport, LinCheck, OpHistory, OrderViolation};
use pbs_kvs::cluster::EngineKind;
use pbs_kvs::{
    ClientOptions, ClusterOptions, FaultProfile, FaultSchedule, NetworkModel, OpenLoopOptions,
    OpenLoopRun,
};
use pbs_core::ReplicaConfig;
use pbs_mc::Mergeable;
use pbs_sim::SimTime;
use pbs_workload::{OpMix, OpSource, OpStream, Poisson, UniformKeys};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const KNOWN: &[&str] = &["seeds", "seed", "workers", "out", "quick", "lin"];

const NODES: u32 = 8;

fn pareto_net() -> NetworkModel {
    NetworkModel::w_ars(Arc::new(Pareto::new(1.5, 1.2)), Arc::new(Pareto::new(0.8, 2.0)))
}

fn opts(cfg: ReplicaConfig, seed: u64) -> ClusterOptions {
    let mut o = ClusterOptions::validation(cfg, seed);
    o.nodes = NODES;
    o.op_timeout_ms = 2_000.0;
    o
}

fn source() -> Box<dyn OpSource> {
    Box::new(OpStream::new(Poisson::per_second(30.0), UniformKeys::new(8), OpMix::new(0.5), 1))
}

/// Per-seed crash timeline: which node goes down, when, for how long, and
/// whether mid-storm or mid-calm — so the sweep covers crash-during-storm
/// and crash-after-storm interleavings without per-seed hand-tuning.
fn crash_plan(seed: u64) -> (usize, f64, f64) {
    let node = (seed % NODES as u64) as usize;
    let at = 300.0 + (seed % 5) as f64 * 150.0; // 300..900: inside or after the storm
    let down = 200.0 + (seed % 3) as f64 * 100.0;
    (node, at, down)
}

/// One audited run. With `faults` on, the storm schedule ramps in at
/// 300 ms and clears at 900 ms and the crash comes from [`crash_plan`];
/// with it off (the strict-quorum WGL gate) the workload runs unfaulted.
fn run(kind: EngineKind, cfg: ReplicaConfig, seed: u64, faults: bool) -> (OpHistory, CheckReport) {
    let (node, at, down) = crash_plan(seed);
    let (_, check, history) = OpenLoopRun::new(
        opts(cfg, seed),
        pareto_net(),
        OpenLoopOptions::new(1_200.0, 300.0, 1_500.0),
        6,
        ClientOptions { op_timeout_ms: 2_000.0, ..ClientOptions::default() },
    )
    .on(kind)
    .run_checked(
        |_| source(),
        |cluster| {
            if faults {
                cluster
                    .network()
                    .set_fault_schedule(FaultSchedule::calm_storm_calm(
                        FaultProfile::storm(seed),
                        300.0,
                        900.0,
                    ))
                    .unwrap();
                cluster.crash_node_at(node, SimTime::from_ms(at), down);
            }
        },
    )
    .expect("positive-minimum model partitions cleanly");
    (history, check)
}

fn violation_key(v: &OrderViolation) -> u64 {
    match v {
        OrderViolation::LostUpdate { key, .. }
        | OrderViolation::NonMonotoneExposure { key, .. }
        | OrderViolation::PhantomVersion { key, .. } => *key,
    }
}

/// Dump the history for offline replay — minimized to the keys named by
/// the order-oracle violations (plus, when `lin_keys` is set, the keys of
/// the WGL violations) when there are any, full otherwise (a
/// session/label disagreement has no single offending key). `lin_keys`
/// stays off for base partial-quorum dumps, where WGL violations are
/// expected behaviour and would minimize away the real offender.
fn dump_history(
    dir: &Path,
    tag: &str,
    seed: u64,
    history: &OpHistory,
    check: &CheckReport,
    lin_keys: bool,
) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create artifact dir");
    let path = dir.join(format!("seed-{seed}-{tag}.history.txt"));
    let mut f = std::fs::File::create(&path).expect("create artifact");
    writeln!(f, "# chaos_sweep failing run: seed={seed} engine={tag}").unwrap();
    writeln!(f, "# verdict: {check:?}").unwrap();
    for c in history.crashes() {
        writeln!(
            f,
            "crash node={} at_ms={} down_ms={} wipe={}",
            c.node,
            c.at.as_ms(),
            c.down_ms,
            c.wipe
        )
        .unwrap();
    }
    let mut bad_keys: Vec<u64> = [
        check.order.first_lost_update,
        check.order.first_non_monotone,
        check.order.first_phantom,
    ]
    .iter()
    .flatten()
    .map(violation_key)
    .collect();
    if lin_keys {
        bad_keys.extend(check.lin.violations.iter().map(|v| v.key));
        bad_keys.sort_unstable();
        bad_keys.dedup();
    }
    let mut dumped = 0usize;
    for hop in history.ops() {
        let op = &hop.op;
        if !bad_keys.is_empty() && !bad_keys.contains(&op.key) {
            continue;
        }
        dumped += 1;
        writeln!(
            f,
            "op id={} client={} kind={:?} key={} start_ms={:.6} finish_ms={:?} seq={:?} \
             writer={:?} source={:?} mask={:#x} commit_ms={:?} label={:?}",
            op.op_id,
            op.client,
            op.kind,
            op.key,
            op.start.as_ms(),
            op.finish.map(|t| t.as_ms()),
            op.seq,
            op.writer,
            op.source,
            op.quorum_mask,
            op.commit.map(|t| t.as_ms()),
            hop.label,
        )
        .unwrap();
    }
    writeln!(f, "# {} ops dumped ({} total in run)", dumped, history.ops().len()).unwrap();
    path
}

fn main() {
    let args = cli::Args::parse();
    args.reject_unknown(KNOWN);

    let seeds: u64 = args.parsed("seeds").unwrap_or(if args.flag("quick") { 8 } else { 32 });
    let base: u64 = args.parsed("seed").unwrap_or(1);
    let workers: usize = args.parsed("workers").unwrap_or(2);
    // A sweep of no seeds would pass having audited nothing, and every PDES
    // worker must own at least one of the NODES nodes.
    if seeds == 0 {
        eprintln!("--seeds must be at least 1");
        std::process::exit(2);
    }
    if !(1..=NODES as usize).contains(&workers) {
        eprintln!("--workers must be between 1 and {NODES}");
        std::process::exit(2);
    }
    let lin_gate = args.flag("lin");
    let out = PathBuf::from(args.value_of("out").unwrap_or("target/chaos-artifacts"));

    println!(
        "chaos sweep: {seeds} seeds from {base}, scheduled storm 300-900ms + per-seed crash, \
         serial vs {workers}-worker PDES, full checker audit per run{}",
        if lin_gate { ", strict-quorum WGL gate on" } else { "" }
    );

    let partial = ReplicaConfig::new(3, 1, 1).unwrap();
    let strict = ReplicaConfig::new(3, 2, 2).unwrap();
    let mut failures = 0usize;
    let mut reads_audited = 0u64;
    let mut windows = LinCheck::default();
    let mut exhausted_keys = 0u64;
    for i in 0..seeds {
        let seed = rand::child(base, i);
        let (node, at, down) = crash_plan(seed);
        let (serial_hist, serial_check) =
            run(EngineKind::SerialPartitioned { workers }, partial, seed, true);
        let (par_hist, par_check) = run(EngineKind::Parallel { workers }, partial, seed, true);
        reads_audited += serial_check.order.reads_checked;
        windows.merge(serial_check.lin.clone());

        // Report a failed check, dump each named history (`lin` also keeps
        // the WGL violations' keys) and mark the seed bad.
        let mut bad = false;
        let mut fail = |why: String, dumps: &[(&str, &OpHistory, &CheckReport, bool)]| {
            eprintln!("FAIL seed {seed}: {why}");
            let paths = dumps.iter().map(|&(tag, hist, check, lin)| {
                dump_history(&out, tag, seed, hist, check, lin).display().to_string()
            });
            let noun = if dumps.len() == 1 { "history" } else { "histories" };
            eprintln!("  {noun} dumped to {}", paths.collect::<Vec<_>>().join(" and "));
            bad = true;
        };
        let serial = ("serial", &serial_hist, &serial_check, false);
        let parallel = ("parallel", &par_hist, &par_check, false);
        if !serial_check.is_clean() {
            fail(format!("serial checker unclean: {serial_check:?}"), &[serial]);
        }
        if !par_check.is_clean() {
            fail(format!("parallel checker unclean: {par_check:?}"), &[parallel]);
        }
        if serial_hist != par_hist || serial_check != par_check {
            fail("serial vs parallel divergence".into(), &[serial, parallel]);
        }
        let mut lin_note = String::new();
        if lin_gate {
            // Fault-free strict R+W>N quorums: every key must verify
            // Linearizable on both engines (see the module docs for why
            // the storm stays off here).
            for (tag, kind) in [
                ("serial-lin", EngineKind::SerialPartitioned { workers }),
                ("parallel-lin", EngineKind::Parallel { workers }),
            ] {
                let (hist, check) = run(kind, strict, seed, false);
                exhausted_keys += check.lin.exhausted_keys;
                if check.lin.violated_keys > 0 {
                    let why = format!(
                        "strict-quorum {tag} not linearizable: {:?} (first violation key {:?})",
                        check.lin,
                        check.lin.first_violation().map(|v| v.key),
                    );
                    fail(why, &[(tag, &hist, &check, true)]);
                }
            }
            // The same quorum under the storm and the crash: regular, and
            // clean on every other count.
            let (hist, check) = run(EngineKind::Serial, strict, seed, true);
            if !check.is_clean() || check.regular() != Some(true) {
                let why = format!(
                    "strict quorum under the storm is not regular (regular() = {:?}): {:?} {:?}",
                    check.regular(),
                    check.labels,
                    check.order
                );
                fail(why, &[("serial-strict-storm", &hist, &check, false)]);
            }
            lin_note = format!(
                "; strict under storm regular over {} reads; {} partial-quorum windows so far",
                check.labels.labelled_reads,
                windows.violation_count()
            );
        }
        if bad {
            failures += 1;
        } else {
            println!(
                "  seed {seed:>4}: clean ({} reads, {} writes audited; crash node {node} \
                 at {at}ms for {down}ms{lin_note})",
                serial_check.order.reads_checked, serial_check.order.writes_tracked
            );
        }
    }

    println!(
        "sweep done: {}/{} seeds clean, {} reads order-audited",
        seeds as usize - failures,
        seeds,
        reads_audited
    );
    if lin_gate {
        if exhausted_keys > 0 {
            println!(
                "note: {exhausted_keys} strict-quorum key(s) exhausted the WGL budget \
                 (unproven, not failing)"
            );
        }
        // The base R=W=1 runs must surface violation windows — a sweep
        // with zero windows means the checker lost its teeth, not that
        // partial quorums became linearizable.
        if windows.violation_count() == 0 {
            eprintln!("FAIL: no WGL violation windows across {seeds} partial-quorum seeds");
            std::process::exit(1);
        }
        let pct = |p| windows.window_percentile_ms(p).expect("the sweep found windows");
        let (p50, p90) = (pct(50.0), pct(90.0));
        println!(
            "partial-quorum WGL windows: {} total, p50 {p50:.2}ms, p90 {p90:.2}ms",
            windows.violation_count()
        );
    }
    if failures > 0 {
        eprintln!("{failures} seed(s) FAILED — artifacts in {}", out.display());
        std::process::exit(1);
    }
}
