//! `perf-record --noise K`: how steady is the benchmark on this host, now?
//!
//! Runs every workload K times back to back with the same seed — identical
//! code, identical inputs, so any spread is the host's — and prints, per
//! end-to-end metric, min / median / max and `(max − min) / median` against
//! the metric's bound, with the uncalibrated twin beside it so the reader
//! can see what calibration buys. Exits non-zero when a spread exceeds its
//! bound: on such a host a regression of that size could not be told from
//! noise.
//!
//! Each run is a child process (this same executable), because `VmHWM` is a
//! per-process high-water mark.

use crate::cli::Args;
use crate::harness::median;
use crate::metrics::{self, MetricDef};
use crate::workloads;
use std::process::Command;

/// Raw (uncalibrated) twin of an end-to-end metric, where one exists.
fn raw_twin(name: &str) -> Option<&'static str> {
    match name {
        metrics::WORK_PER_CAL_S => Some("work_per_s_raw"),
        metrics::STEP_CAL_MS => Some("step_ms_raw"),
        _ => None,
    }
}

/// Extract `"name": {"value": <number>` from a result line.
fn value_in_result_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Extract `~ name  <number>` from the text block above the result line.
fn value_in_text(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let mut words = l.split_whitespace();
        (words.next() == Some("~") && words.next() == Some(name))
            .then(|| words.next()?.parse().ok())
            .flatten()
    })
}

/// min, median, max and (max − min) / median of `values`.
fn spread(values: &[f64]) -> (f64, f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (min, mid, max) = (v[0], median(&v), v[v.len() - 1]);
    (min, mid, max, (max - min) / mid)
}

fn row(workload: &str, m: &MetricDef, label: &str, values: &[f64], gated: bool) -> (String, bool) {
    let (min, median, max, rel) = spread(values);
    let bound = m.bound.expect("end-to-end metric");
    let over = gated && rel > bound;
    let verdict = match (gated, over) {
        (false, _) => "(raw twin)".to_string(),
        (true, false) => format!("≤ {:.0}% ok", bound * 100.0),
        (true, true) => format!("> {:.0}% NOISY", bound * 100.0),
    };
    (
        format!(
            "| {workload} | {label} | {min:.4} | {median:.4} | {max:.4} | {:.2}% | {verdict} |",
            rel * 100.0
        ),
        over,
    )
}

/// Entry point of noise mode; returns the process exit code.
pub fn main(args: &Args, runs: u32, instrumented: bool) -> i32 {
    if instrumented {
        eprintln!("--noise measures end-to-end metrics: run it with perf-record");
        return 2;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return 1;
        }
    };
    println!(
        "noise: {runs} back-to-back runs per workload, seed {}, {} s each{}",
        args.seed,
        args.seconds,
        if args.quick { " (quick)" } else { "" }
    );
    println!("| workload | metric | min | median | max | (max−min)/median | vs bound |");
    println!("|---|---|---|---|---|---|---|");
    let mut noisy = 0;
    for w in workloads::ALL {
        let mut cal: Vec<Vec<f64>> = vec![Vec::new(); metrics::END_TO_END.len()];
        let mut raw: Vec<Vec<f64>> = vec![Vec::new(); metrics::END_TO_END.len()];
        for _ in 0..runs {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", "0"])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child to end before returning.
            let out = match cmd.output() {
                Ok(out) if out.status.success() => out,
                Ok(out) => {
                    eprintln!(
                        "{} failed:\n{}",
                        w.name,
                        String::from_utf8_lossy(&out.stderr)
                    );
                    return 1;
                }
                Err(e) => {
                    eprintln!("cannot start {}: {e}", exe.display());
                    return 1;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().last().unwrap_or_default();
            for (i, m) in metrics::END_TO_END.iter().enumerate() {
                match value_in_result_line(line, m.name) {
                    Some(v) => cal[i].push(v),
                    None => {
                        eprintln!("{}: no {} in {line:?}", w.name, m.name);
                        return 1;
                    }
                }
                if let Some(v) = raw_twin(m.name).and_then(|t| value_in_text(&text, t)) {
                    raw[i].push(v);
                }
            }
        }
        for (i, m) in metrics::END_TO_END.iter().enumerate() {
            let (line, over) = row(w.name, m, m.name, &cal[i], true);
            println!("{line}");
            noisy += over as u32;
            if let Some(twin) = raw_twin(m.name).filter(|_| raw[i].len() == cal[i].len()) {
                println!("{}", row(w.name, m, twin, &raw[i], false).0);
            }
        }
    }
    if noisy > 0 {
        eprintln!("{noisy} metric(s) spread wider than their bound on this host");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_its_own_output_formats() {
        let line = "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
                    {\"work_per_cal_s\": {\"value\": 816064.8096, \"unit\": \"1/cal_s\"}, \
                    \"setup_s\": {\"value\": 1.5e-1, \"unit\": \"s\"}}}";
        assert_eq!(
            value_in_result_line(line, "work_per_cal_s"),
            Some(816064.8096)
        );
        assert_eq!(value_in_result_line(line, "setup_s"), Some(0.15));
        assert_eq!(value_in_result_line(line, "missing"), None);
        let text = "  work_per_cal_s  1.0 1/cal_s\n  ~ work_per_s_raw      450364.85\n";
        assert_eq!(value_in_text(text, "work_per_s_raw"), Some(450364.85));
        assert_eq!(
            value_in_text(text, "work_per_cal_s"),
            None,
            "only ~ rows are twins"
        );
    }

    #[test]
    fn spread_is_range_over_median() {
        let (min, median, max, rel) = spread(&[10.0, 12.0, 11.0, 9.0]);
        assert_eq!((min, median, max), (9.0, 10.5, 12.0));
        assert!((rel - 3.0 / 10.5).abs() < 1e-12);
    }

    #[test]
    fn verdict_flags_only_gated_rows() {
        let m = &metrics::END_TO_END[0];
        let wide = [100.0, 100.0, 150.0];
        assert!(row("w", m, m.name, &wide, true).1);
        assert!(!row("w", m, "twin", &wide, false).1);
        assert!(!row("w", m, m.name, &[100.0, 101.0, 102.0], true).1);
    }
}
