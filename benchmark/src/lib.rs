//! The repo's benchmark: one host-calibrated perf record.
//!
//! Two binaries share this library: `perf-record` (uninstrumented; the only
//! source of end-to-end numbers) and `perf-trace` (same workload code, with a
//! counting global allocator and in-memory spans; the source of per-layer
//! numbers). Both time only calls into the public API of the repo's crates.
//! See `benchmark/README.md` for the metric glossary and how calibration
//! works, and `BENCHMARK.json` at the repo root for the contract with the
//! driver.

pub mod alloc;
pub mod calib;
pub mod cli;
pub mod harness;
pub mod metrics;
pub mod noise;
pub mod probes;
pub mod trace;
pub mod workloads;

use harness::{Harness, Report, RunSpec};
use std::path::PathBuf;
use trace::Tracer;

/// Run one workload to completion: set-up, measured loop, gate, and (in an
/// instrumented binary asked for a trace) the priced micro-loops.
pub fn run(spec: RunSpec, instrumented: bool) -> Result<(Report, Tracer), String> {
    let trace = spec.trace;
    let mut h = Harness::new(spec, instrumented);
    let root = h.tr.begin("run");
    let outcome = (h.spec().workload.run)(&mut h)?;
    if trace {
        probes::run_all(&mut h)?;
    }
    h.tr.end(root);
    h.finish(outcome)
}

/// Where a traced run leaves its artefacts when `--out` is not given: under
/// Cargo's target directory, which is never committed.
fn default_out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/target"));
    target.join("perf-trace")
}

fn write_trace_artefacts(
    report: &Report,
    tracer: &Tracer,
    out: Option<PathBuf>,
) -> Result<(), String> {
    let dir = out.unwrap_or_else(default_out_dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", report.workload, report.seed);
    for (suffix, body) in [
        ("trace.json", tracer.chrome_trace_json()),
        ("self-time.txt", tracer.self_time_table()),
    ] {
        let path = dir.join(format!("{stem}.{suffix}"));
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// `main` of both binaries. `instrumented` says whether the caller installed
/// the counting allocator (and so whether spans are recorded). Returns the
/// process exit code: 0 on success, 1 on a failed gate (nothing that looks
/// like a result is printed), 2 on a malformed command line.
pub fn main_with(instrumented: bool) -> i32 {
    let args = match cli::Args::parse_from(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            return 2;
        }
    };
    if let Some(runs) = args.noise {
        return noise::main(&args, runs, instrumented);
    }
    let name = args.workload.as_deref().expect("checked by the parser");
    let Some(workload) = workloads::by_name(name) else {
        eprintln!("unknown workload {name:?}\n{}", cli::USAGE);
        return 2;
    };
    if args.trace && !instrumented {
        eprintln!("--trace 1 needs the perf-trace binary (run through benchmark/run.sh)");
        return 2;
    }
    let spec = RunSpec {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        rounds: args.rounds,
    };
    match run(spec, instrumented) {
        Ok((report, tracer)) => {
            print!("{}", report.text());
            if instrumented {
                println!("{}", tracer.self_time_table());
                if let Err(e) = write_trace_artefacts(&report, &tracer, args.out) {
                    eprintln!("FAILED: {e}");
                    return 1;
                }
            }
            println!("{}", report.result_line());
            0
        }
        Err(e) => {
            eprintln!("FAILED [{name} seed {}]: {e}", args.seed);
            1
        }
    }
}
