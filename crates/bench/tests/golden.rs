//! Golden stdout of every `pbs-bench` program.
//!
//! Each case runs one binary with a fixed `--seed` and `--threads`, so its
//! output depends on neither the clock nor the host's core count. It must
//! exit 0 and print, byte for byte, `tests/golden/<case>.txt`. A usage-error
//! case must exit 2 with nothing on stdout and its one complaint on stderr.
//! Every case is its own `#[test]`, so the harness runs them in parallel.
//!
//! `GOLDEN_UPDATE=1 cargo test -p pbs-bench --test golden` rewrites the
//! golden files from the current build. A change that rewrites one names the
//! file and the reason in `CHANGES.md`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `exe` with `args` split on whitespace; `{tmp}` in an argument stands
/// for this test target's scratch directory.
fn run(exe: &str, args: &str) -> Output {
    Command::new(exe)
        .args(args.split_whitespace().map(|a| a.replace("{tmp}", env!("CARGO_TARGET_TMPDIR"))))
        .output()
        .unwrap_or_else(|e| panic!("{exe} did not start: {e}"))
}

fn golden_path(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{case}.txt"))
}

fn read_golden(case: &str) -> String {
    let path = golden_path(case);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (`GOLDEN_UPDATE=1 cargo test -p pbs-bench --test golden` writes it)",
            path.display()
        )
    })
}

/// The first line (1-based) where `actual` departs from `expected`, with
/// each side's text there (`None` past its end); `None` when they are equal.
fn first_difference<'a>(
    expected: &'a str,
    actual: &'a str,
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    let (mut want, mut got) = (expected.split('\n'), actual.split('\n'));
    let mut line = 0;
    loop {
        line += 1;
        match (want.next(), got.next()) {
            (None, None) => return None,
            (w, g) if w != g => return Some((line, w, g)),
            _ => {}
        }
    }
}

fn check_golden(case: &str, bin: &str, exe: &str, args: &str, never: &[&str]) {
    let out = run(exe, args);
    assert!(
        out.status.success(),
        "`{bin} {args}` exited with {}; stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout)
        .unwrap_or_else(|e| panic!("`{bin} {args}` printed non-UTF-8 output: {e}"));
    for text in never {
        assert!(!stdout.contains(text), "`{bin} {args}` printed {text:?}");
    }
    if std::env::var("GOLDEN_UPDATE").as_deref() == Ok("1") {
        // Write, then rename: the README test may be reading the old file.
        let (path, new) = (golden_path(case), golden_path(&format!("{case}.new")));
        std::fs::write(&new, &stdout).unwrap_or_else(|e| panic!("{}: {e}", new.display()));
        std::fs::rename(&new, &path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    if let Some((line, want, got)) = first_difference(&read_golden(case), &stdout) {
        let show = |text: Option<&str>| text.map_or("<end of output>".into(), |t| format!("{t:?}"));
        panic!(
            "`{bin} {args}` no longer prints tests/golden/{case}.txt; first difference at line \
             {line}:\n  expected: {}\n  actual:   {}",
            show(want),
            show(got)
        );
    }
}

fn check_usage_error(bin: &str, exe: &str, args: &str, complaint: &str) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "`{bin} {args}` exit status; stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "`{bin} {args}` printed to stdout before refusing");
    assert_eq!(stderr, format!("{complaint}\n"), "`{bin} {args}` stderr");
}

/// `case: "bin" "args" [never "text"];` — one `#[test]` per case. `never`
/// names a line fragment the program must not print, whatever the golden
/// file says (so `GOLDEN_UPDATE=1` cannot bless it either).
macro_rules! golden {
    ($($case:ident: $bin:literal $args:literal $(never $never:literal)?;)*) => {$(
        #[test]
        fn $case() {
            let exe = env!(concat!("CARGO_BIN_EXE_", $bin));
            check_golden(stringify!($case), $bin, exe, $args, &[$($never)?]);
        }
    )*};
}

/// `case: "bin" "args" => "complaint";` — exit 2, empty stdout, and the
/// complaint as the one line on stderr.
macro_rules! usage_errors {
    ($($case:ident: $bin:literal $args:literal => $complaint:literal;)*) => {$(
        #[test]
        fn $case() {
            check_usage_error($bin, env!(concat!("CARGO_BIN_EXE_", $bin)), $args, $complaint);
        }
    )*};
}

golden! {
    // At fixed trial counts.
    validation_trials30: "validation" "--trials=30 --threads=2 --seed=7";
    fig5_trials3000: "fig5" "--trials=3000 --threads=2 --seed=7";
    table4_trials20000: "table4" "--trials 20000 --threads 2 --seed 7";
    sla_trials20000: "sla" "--trials 20000 --threads 2 --seed 7";
    fig7_trials20000: "fig7" "--trials 20000 --threads 2 --seed 7";
    read_delay_trials20000: "read_delay" "--trials 20000 --threads 2 --seed 7";
    kstaleness_trials20000: "kstaleness" "--trials 20000 --threads 2 --seed 7";
    quorum_systems_trials20000: "quorum_systems" "--trials 20000 --threads 2 --seed 7";
    load_bounds_trials20000: "load_bounds" "--trials 20000 --threads 2 --seed 7";
    throughput_quick_trials2: "throughput" "--quick --trials 2 --threads 2 --seed 7";
    scenario_latency_spike_trials4:
        "scenarios" "--scenario latency-spike --trials 4 --threads 2 --seed 7";
    scenario_buggify_storm_chaos_trials2_quick:
        "scenarios" "--scenario buggify-storm --chaos --trials 2 --threads 2 --seed 7 --quick";
    scenario_crash_storm_chaos_trials2:
        "scenarios" "--scenario crash-storm --chaos --trials 2 --threads 2 --seed 7";
    // A failing seed dumps its minimized history under the --out directory.
    chaos_sweep_lin: "chaos_sweep" "--seeds 32 --lin --out {tmp}/chaos-artifacts"
        never "exhausted the WGL budget";
    // The last seed that sweep prints, replayed alone (see
    // `chaos_sweep_replays_a_printed_seed`).
    chaos_sweep_replay:
        "chaos_sweep" "--seeds 1 --seed 11028426030083068036 --out {tmp}/chaos-artifacts";

    // The other bins, at --quick.
    detector_quick: "detector" "--quick --seed 7 --threads 2";
    failures_quick: "failures" "--quick --seed 7 --threads 2";
    fig4_quick: "fig4" "--quick --seed 7 --threads 2";
    fig6_quick: "fig6" "--quick --seed 7 --threads 2";
    monotonic_quick: "monotonic" "--quick --seed 7 --threads 2";
    table1_2_3_quick: "table1_2_3" "--quick --seed 7 --threads 2";
    validation_quick: "validation" "--quick --seed 7 --threads 2";

    // The smallest count: a bin that splits --trials rounds each share up,
    // so every part of it still runs at least once.
    kstaleness_trials1: "kstaleness" "--trials 1 --threads 2 --seed 7";
    quorum_systems_trials1: "quorum_systems" "--trials 1 --threads 2 --seed 7";
    detector_trials1: "detector" "--trials 1 --threads 2 --seed 7";
    failures_trials1: "failures" "--trials 1 --threads 2 --seed 7";

    // Every built-in scenario, at --quick (latency-spike's --quick is its
    // --trials 4 case above: --quick sets only the run count).
    scenario_diurnal_load_quick:
        "scenarios" "--scenario diurnal-load --quick --seed 7 --threads 2";
    scenario_rolling_partition_quick:
        "scenarios" "--scenario rolling-partition --quick --seed 7 --threads 2";
    scenario_buggify_storm_quick:
        "scenarios" "--scenario buggify-storm --quick --seed 7 --threads 2";
    scenario_crash_storm_quick: "scenarios" "--scenario crash-storm --quick --seed 7 --threads 2";

    // The other renderings of `scenarios`: CSV, JSON with the checker's
    // object, and the list of built-ins.
    scenario_diurnal_load_csv_quick:
        "scenarios" "--scenario diurnal-load --format csv --quick --seed 7 --threads 2";
    scenario_buggify_storm_chaos_json_trials2_quick: "scenarios"
        "--scenario buggify-storm --chaos --format json --trials 2 --quick --seed 7 --threads 2";
    scenarios_list: "scenarios" "--list";

    // The largest seed: whatever a bin derives from it wraps.
    load_bounds_trials1_max_seed:
        "load_bounds" "--trials 1 --threads 2 --seed 18446744073709551615";
}

usage_errors! {
    usage_chaos_sweep_zero_seeds: "chaos_sweep" "--seeds 0" => "--seeds must be at least 1";
    usage_chaos_sweep_nine_workers:
        "chaos_sweep" "--workers 9" => "--workers must be between 1 and 8";
    usage_fig6_zero_trials: "fig6" "--trials 0" => "--trials must be at least 1";
    usage_table4_zero_threads: "table4" "--threads 0" => "--threads must be at least 1";
    usage_fig4_quick_with_a_value:
        "fig4" "--quick 3000" => "--quick takes no value (got \"3000\")";
    usage_scenarios_unknown_format: "scenarios" "--scenario diurnal-load --format xml --quick"
        => "unknown --format \"xml\" (supported: table csv json)";
    usage_validation_unknown_flag: "validation" "--bogus"
        => "unknown argument: --bogus (supported: --quick --trials --seed --threads)";
}

/// The golden case each ```` ```text ```` sample block of README.md quotes,
/// in the order the blocks appear.
const README_SAMPLES: [&str; 2] = ["scenario_latency_spike_trials4", "throughput_quick_trials2"];

/// Every line of a README sample, except one elided with `…` or `...`, is a
/// whole line its golden case prints.
#[test]
fn readme_samples_are_golden_lines() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(&path).expect("README.md is readable");
    let blocks: Vec<&str> = readme
        .split("```text\n")
        .skip(1)
        .map(|rest| rest.split("```").next().expect("split yields one piece"))
        .collect();
    assert_eq!(blocks.len(), README_SAMPLES.len(), "README.md's ```text blocks vs README_SAMPLES");
    for (block, case) in blocks.into_iter().zip(README_SAMPLES) {
        let golden = read_golden(case);
        for line in block.lines().filter(|l| !l.contains('…') && !l.contains("...")) {
            assert!(
                golden.lines().any(|g| g == line),
                "README.md quotes {line:?}, which tests/golden/{case}.txt does not print"
            );
        }
    }
}

/// `chaos_sweep --seed <printed> --seeds 1` replays the printed seed: the
/// replay's one seed line (reads, writes, crash plan) opens that seed's
/// line of the 32-seed sweep, which goes on with the `--lin` fields.
#[test]
fn chaos_sweep_replays_a_printed_seed() {
    let replay = read_golden("chaos_sweep_replay");
    let line = replay.lines().find(|l| l.trim_start().starts_with("seed ")).expect("a seed line");
    let fields = line.strip_suffix(')').expect("the seed line ends its fields with ')'");
    let sweep = read_golden("chaos_sweep_lin");
    assert!(
        sweep.lines().any(|l| l.strip_prefix(fields).is_some_and(|rest| rest.starts_with("; "))),
        "tests/golden/chaos_sweep_lin.txt has no line that opens with {fields:?}"
    );
}

#[test]
fn first_difference_names_the_line_and_both_sides() {
    assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
    assert_eq!(first_difference("a\nb\n", "a\nc\n"), Some((2, Some("b"), Some("c"))));
    assert_eq!(first_difference("a\n", "a\nb\n"), Some((2, Some(""), Some("b"))));
    assert_eq!(first_difference("a\nb", "a\n"), Some((2, Some("b"), Some(""))));
    assert_eq!(first_difference("a\n", "a"), Some((2, Some(""), None)));
}
