//! The benchmark against its contract with the driver: `BENCHMARK.json` is
//! exactly what the metric and workload tables render to, and every workload
//! prints every metric the file lists, through the real binaries.
//!
//! The binary-driving tests run whole (short) workloads; they are quick with
//! `cargo test --release` and take a minute or two in a debug build.

use pbs_perf::metrics::{self, MetricDef};
use pbs_perf::workloads;
use std::process::Command;

/// The run length `BENCHMARK.json` asks the driver for, in seconds.
const RUN_SECONDS: u32 = 20;

fn render_metric(m: &MetricDef) -> String {
    let bound = m
        .bound
        .map(|b| format!(", \"bound\": {b}"))
        .unwrap_or_default();
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name,
        m.unit,
        m.better.as_str()
    )
}

/// `BENCHMARK.json` as the tables in `metrics.rs` and `workloads/mod.rs`
/// define it.
fn render_benchmark_json() -> String {
    let list = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        list(
            workloads::ALL
                .iter()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        ),
        list(metrics::END_TO_END.iter().map(render_metric).collect()),
        list(metrics::PER_LAYER.iter().map(render_metric).collect()),
    )
}

#[test]
fn benchmark_json_is_rendered_from_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let rendered = render_benchmark_json();
    assert!(
        on_disk == rendered,
        "BENCHMARK.json is out of step with src/metrics.rs / src/workloads/mod.rs; it should read:\n{rendered}"
    );
    assert!(on_disk.len() <= 64 * 1024);
    assert!(
        !on_disk.contains('\\'),
        "no escapes needed, so none must creep in"
    );
}

#[test]
fn run_budget_fits_the_drivers_cap() {
    // 4 + 22 × workloads runs, each: ramp + set-ups + the measured loop +
    // gate (+ probes in a traced run), plus two builds, within 3420 s.
    let runs = 4 + 22 * workloads::ALL.len() as u32;
    let per_run_overhead_s = 9; // measured worst case (scale100k, traced) ≈ 7 s
    let builds_s = 2 * 60;
    assert!(runs * (RUN_SECONDS + per_run_overhead_s) + builds_s <= 3_420);
    assert!((1..=60).contains(&RUN_SECONDS));
}

fn run_binary(exe: &str, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The result line must be a JSON object with exactly the four contract
/// keys; checked structurally without a JSON parser.
fn check_result_line(line: &str, defs: &[MetricDef]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.ends_with("}}"), "{line}");
    let top_level_keys = line.matches("\": ").count();
    // correct, attempted, failed, metrics + (name, value, unit) per metric.
    assert_eq!(
        top_level_keys,
        4 + 3 * defs.len(),
        "unexpected keys in {line}"
    );
    for m in defs {
        let key = format!("\"{}\": {{\"value\": ", m.name);
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{} missing from {line}", m.name));
        let rest = &line[at + key.len()..];
        let number: f64 = rest[..rest.find(',').expect("unit follows")]
            .parse()
            .expect("a number");
        assert!(number.is_finite(), "{}: {number}", m.name);
        assert!(rest.contains(&format!("\"unit\": \"{}\"", m.unit)));
    }
}

#[test]
fn every_workload_prints_every_listed_metric() {
    let out_dir = std::env::temp_dir().join(format!("pbs-perf-contract-{}", std::process::id()));
    let out = out_dir.to_str().expect("utf-8 temp dir");
    for w in workloads::ALL {
        // Untraced: every end-to-end metric, never zero.
        let (ok, stdout, stderr) = run_binary(
            env!("CARGO_BIN_EXE_perf-record"),
            &[
                "--workload",
                w.name,
                "--seed",
                "3",
                "--quick",
                "--rounds",
                "2",
                "--trace",
                "0",
            ],
        );
        assert!(ok, "{} failed its gate:\n{stderr}", w.name);
        let line = stdout.lines().last().expect("a result line");
        check_result_line(line, metrics::END_TO_END);
        assert!(
            stdout.contains("\"quick\": true"),
            "quick runs must be flagged"
        );
        for m in metrics::END_TO_END {
            assert!(
                !line.contains(&format!("\"{}\": {{\"value\": 0,", m.name)),
                "{} is 0",
                m.name
            );
        }
        // Traced: every per-layer metric.
        let (ok, stdout, stderr) = run_binary(
            env!("CARGO_BIN_EXE_perf-trace"),
            &[
                "--workload",
                w.name,
                "--seed",
                "3",
                "--quick",
                "--rounds",
                "2",
                "--trace",
                "1",
                "--out",
                out,
            ],
        );
        assert!(ok, "{} (traced) failed:\n{stderr}", w.name);
        check_result_line(
            stdout.lines().last().expect("a result line"),
            metrics::PER_LAYER,
        );
        let trace = std::fs::read_to_string(out_dir.join(format!("{}-seed3.trace.json", w.name)))
            .expect("chrome trace written");
        assert!(trace.starts_with("{\"displayTimeUnit\"") && trace.ends_with("]}"));
        assert!(out_dir
            .join(format!("{}-seed3.self-time.txt", w.name))
            .exists());
    }
    std::fs::remove_dir_all(&out_dir).expect("clean up the trace artefacts");
}

#[test]
fn misuse_exits_non_zero_without_a_result() {
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_perf-record"),
            &["--workload", "nope"][..],
        ),
        (
            env!("CARGO_BIN_EXE_perf-record"),
            &["--workload", "steady64", "--trace", "1"][..],
        ),
        (env!("CARGO_BIN_EXE_perf-record"), &["--seconds", "5"][..]),
        (env!("CARGO_BIN_EXE_perf-trace"), &["--noise", "2"][..]),
    ] {
        let (ok, stdout, _) = run_binary(exe, args);
        assert!(!ok, "{args:?} should fail");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result");
    }
}
