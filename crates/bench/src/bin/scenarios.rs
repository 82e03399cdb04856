//! §6 closed loop — run a named chaos scenario (`pbs-scenario`): a
//! declarative fault/load timeline drives a live cluster while the
//! in-loop adaptive controller refits measured WARS latencies and
//! (optionally) retunes `(R, W)`. Emits a windowed time-series of
//! predicted vs. measured consistency and latency as a table, CSV, or
//! JSON.
//!
//! ```text
//! cargo run --release --bin scenarios -- --scenario latency-spike --trials 64 --seed 7
//! cargo run --release --bin scenarios -- --list
//! cargo run --release --bin scenarios -- --scenario diurnal-load --format csv
//! cargo run --release --bin scenarios -- --scenario buggify-storm --chaos --seed 7
//! ```
//!
//! `--trials` is the number of **whole-scenario replica runs** (default 16,
//! 4 with `--quick`, which changes nothing else; sharded deterministically
//! over `--threads`, bit-reproducible per `(seed, threads)`), not per-point
//! Monte-Carlo trials. An unknown `--format` exits 2 before anything runs.
//!
//! `--chaos` turns the run into a checked chaos run: a seeded buggify
//! storm opens the timeline (unless the scenario opens with its own), the
//! full op history is recorded, and the offline checker replays it
//! against the streaming session counters and online staleness labels.
//! The process exits nonzero if any cross-check fails — the CI smoke
//! gate.

use pbs_bench::{cli, report, HarnessOptions};
use pbs_mc::Summary;
use pbs_scenario::{
    run_scenario_sharded, Scenario, ScenarioEvent, ScenarioRun, TimedEvent, WindowRecord,
};

use Format::{Csv, Json, Table};

const KNOWN: &[&str] = &[
    "scenario", "trials", "seed", "threads", "format", "adaptive", "list", "quick", "chaos",
];

/// The three renderings of a run.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    Table,
    Csv,
    Json,
}

impl Format {
    /// The one rule for a cell that may be blank: a number to `digits`
    /// decimals (in JSON, its shortest exact form), or, when there is none
    /// or it is not finite, this format's blank.
    fn cell(self, v: Option<f64>, digits: usize) -> String {
        match (self, v.filter(|x| x.is_finite())) {
            (Json, Some(x)) => format!("{x}"),
            (_, Some(x)) => format!("{x:.digits$}"),
            (Table, None) => "-".into(),
            (Csv, None) => String::new(),
            (Json, None) => "null".into(),
        }
    }
}

/// A latency percentile of a window, blank when it recorded no such op.
fn latency(s: &Summary, pct: f64) -> Option<f64> {
    (!s.is_empty()).then(|| s.percentile(pct))
}

fn print_table(scenario: &Scenario, run: &ScenarioRun) {
    report::header(&format!("{} — predicted vs. measured, {} runs", run.name, run.runs));
    let rows: Vec<Vec<String>> = run
        .windows
        .iter()
        .map(|w| {
            let c = &w.counts;
            vec![
                format!("{:.0}", c.start_ms),
                c.reads.to_string(),
                Table.cell(c.measured(), 4),
                Table.cell(w.predicted(), 4),
                Table.cell(w.tracking_error(), 4),
                Table.cell(latency(&w.read_latency, 50.0), 3),
                Table.cell(latency(&w.write_latency, 99.0), 3),
                c.failed_writes.to_string(),
                w.reconfigs.to_string(),
            ]
        })
        .collect();
    report::table(
        &[
            "t (ms)",
            "probes",
            "measured",
            "predicted",
            "|err|",
            "read p50",
            "write p99",
            "failed",
            "reconfigs",
        ],
        &rows,
    );
    if !run.reconfigs.is_empty() {
        report::header(&format!(
            "Reconfigurations applied by the in-loop controller ({} total)",
            run.reconfigs.len()
        ));
        const SHOWN: usize = 24;
        for r in run.reconfigs.iter().take(SHOWN) {
            println!("  t={:6.0}ms  run seed {:>20}  {} → {}", r.at_ms, r.run_seed, r.from, r.to);
        }
        if run.reconfigs.len() > SHOWN {
            println!("  … and {} more (see --format json)", run.reconfigs.len() - SHOWN);
        }
    }
    match run.stationary_tracking_error(scenario) {
        Some(err) => {
            println!();
            println!(
                "max |predicted − measured| on stationary segments: {err:.4} (target ≤ 0.05)"
            );
        }
        None => println!("\n(no stationary window had both series)"),
    }
}

fn print_csv(run: &ScenarioRun) {
    println!(
        "window_start_ms,window_end_ms,probes,consistent,measured,predicted,abs_error,\
         read_p50_ms,read_p99_ms,write_p50_ms,write_p99_ms,failed_writes,incomplete_reads,reconfigs"
    );
    for w in &run.windows {
        let lat = |s, pct| Csv.cell(latency(s, pct), 4);
        let c = &w.counts;
        println!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            c.start_ms,
            w.end_ms,
            c.reads,
            c.consistent,
            Csv.cell(c.measured(), 6),
            Csv.cell(w.predicted(), 6),
            Csv.cell(w.tracking_error(), 6),
            lat(&w.read_latency, 50.0),
            lat(&w.read_latency, 99.0),
            lat(&w.write_latency, 50.0),
            lat(&w.write_latency, 99.0),
            c.failed_writes,
            c.incomplete_reads,
            w.reconfigs,
        );
    }
}

fn print_json(scenario: &Scenario, run: &ScenarioRun) {
    let num = |v| Json.cell(v, 0);
    let windows: Vec<String> = run
        .windows
        .iter()
        .map(|w: &WindowRecord| {
            let c = &w.counts;
            format!(
                "{{\"start_ms\":{},\"end_ms\":{},\"probes\":{},\"consistent\":{},\
                 \"measured\":{},\"predicted\":{},\"failed_writes\":{},\
                 \"incomplete_reads\":{},\"reconfigs\":{},\"read_p50_ms\":{},\
                 \"write_p99_ms\":{}}}",
                c.start_ms,
                w.end_ms,
                c.reads,
                c.consistent,
                num(c.measured()),
                num(w.predicted()),
                c.failed_writes,
                c.incomplete_reads,
                w.reconfigs,
                num(latency(&w.read_latency, 50.0)),
                num(latency(&w.write_latency, 99.0)),
            )
        })
        .collect();
    let reconfigs: Vec<String> = run
        .reconfigs
        .iter()
        .map(|r| {
            format!(
                "{{\"at_ms\":{},\"run_seed\":{},\"from\":\"{}\",\"to\":\"{}\"}}",
                r.at_ms, r.run_seed, r.from, r.to
            )
        })
        .collect();
    let check = match &run.check {
        Some(c) => format!(
            "{{\"clean\":{},\"reads_checked\":{},\"monotonic\":{},\"ryw\":{},\
             \"labelled_reads\":{},\"stale_reads\":{},\"mismatches\":{},\
             \"lost_updates\":{},\"non_monotone\":{},\"phantoms\":{},\
             \"lin_keys_checked\":{},\"lin_violated_keys\":{},\"lin_violations\":{},\
             \"lin_exhausted_keys\":{},\"lin_window_p50_ms\":{},\"lin_window_p90_ms\":{}}}",
            c.is_clean(),
            c.sessions.reads_checked,
            c.sessions.monotonic_violations,
            c.sessions.ryw_violations,
            c.labels.labelled_reads,
            c.labels.stale_reads,
            c.labels.mismatches,
            c.order.lost_updates,
            c.order.non_monotone,
            c.order.phantoms,
            c.lin.keys_checked,
            c.lin.violated_keys,
            c.lin.violation_count(),
            c.lin.exhausted_keys,
            num(c.lin.window_percentile_ms(50.0)),
            num(c.lin.window_percentile_ms(90.0)),
        ),
        None => "null".into(),
    };
    println!(
        "{{\"scenario\":\"{}\",\"runs\":{},\"stationary_tracking_error\":{},\
         \"windows\":[{}],\"reconfigs\":[{}],\"check\":{},\"event_errors\":{}}}",
        run.name,
        run.runs,
        num(run.stationary_tracking_error(scenario)),
        windows.join(","),
        reconfigs.join(","),
        check,
        run.event_errors,
    );
}

fn main() {
    let args = cli::Args::parse();
    args.reject_unknown(KNOWN);

    if args.flag("list") {
        println!("built-in scenarios:");
        for name in Scenario::builtin_names() {
            let s = Scenario::by_name(name, 0).expect("builtin");
            println!("  {:<18} {}", s.name, s.description);
        }
        return;
    }

    let HarnessOptions { trials, seed, threads } = HarnessOptions::from_args(&args, 16, 4);
    let name = args.value_of("scenario").unwrap_or_else(|| {
        eprintln!("--scenario NAME is required (see --list)");
        std::process::exit(2);
    });
    let Some(mut scenario) = Scenario::by_name(name, seed) else {
        eprintln!(
            "unknown scenario {name:?}; built-ins: {}",
            Scenario::builtin_names().join(", ")
        );
        std::process::exit(2);
    };
    if let Some(adaptive) = args.parsed::<bool>("adaptive") {
        scenario.control.adaptive = adaptive;
    }
    let chaos = args.flag("chaos");
    if chaos {
        let opens_with_faults = scenario
            .events
            .iter()
            .any(|e| e.at_ms == 0.0 && matches!(e.event, ScenarioEvent::InjectFaults(_)));
        if !opens_with_faults {
            let storm = pbs_kvs::FaultSchedule::constant(pbs_kvs::FaultProfile::storm(seed));
            scenario.events.insert(0, TimedEvent::new(0.0, ScenarioEvent::InjectFaults(storm)));
        }
        scenario.check_history = true;
    }
    let format = match args.value_of("format").unwrap_or("table") {
        "table" => Table,
        "csv" => Csv,
        "json" => Json,
        other => {
            eprintln!("unknown --format {other:?} (supported: table csv json)");
            std::process::exit(2);
        }
    };

    if format == Table {
        println!("Scenario {:?}: {}", scenario.name, scenario.description);
        println!(
            "cluster N={} start config {}, {} replica runs over {} threads, seed {}, \
             adaptive {}",
            scenario.cluster.nodes,
            scenario.cluster.replication,
            trials,
            threads,
            seed,
            if scenario.control.adaptive { "on" } else { "off" },
        );
        report::header("Timeline");
        println!("  {:>8}  probe load (piecewise{})", "", match scenario.load_period_ms {
            Some(p) => format!(", period {p}ms"),
            None => String::new(),
        });
        for &(at, rate) in &scenario.load {
            println!("  {at:>7.0}ms  {rate} probes/s");
        }
        for ev in &scenario.events {
            println!("  {:>7.0}ms  {}", ev.at_ms, ev.event.describe());
        }
    }

    let run = run_scenario_sharded(&scenario, trials, seed, threads);

    match format {
        Table => print_table(&scenario, &run),
        Csv => print_csv(&run),
        Json => print_json(&scenario, &run),
    }

    if let Some(check) = run.check {
        if format == Table {
            report::header("History checker (offline oracle vs. streaming machinery)");
            let s = check.sessions;
            println!(
                "  session replay : {} reads, {} monotonic / {} RYW violations \
                 (streaming: {} reads, {} / {}) — {}",
                s.reads_checked,
                s.monotonic_violations,
                s.ryw_violations,
                s.streaming_reads_checked,
                s.streaming_monotonic,
                s.streaming_ryw,
                if s.agrees() { "AGREE" } else { "DISAGREE" },
            );
            let l = check.labels;
            println!(
                "  label recount  : {} labelled reads, {} stale, {} mismatches",
                l.labelled_reads, l.stale_reads, l.mismatches
            );
            let o = &check.order;
            println!(
                "  order oracle   : {} reads vs {} writes — {} lost updates, \
                 {} non-monotone, {} phantoms",
                o.reads_checked, o.writes_tracked, o.lost_updates, o.non_monotone, o.phantoms
            );
            let lin = &check.lin;
            println!(
                "  linearizability: {} keys / {} ops — {} ok, {} violated \
                 ({} windows, p90 {}), {} exhausted",
                lin.keys_checked,
                lin.ops_checked,
                lin.linearizable_keys,
                lin.violated_keys,
                lin.violation_count(),
                match lin.window_percentile_ms(90.0) {
                    Some(ms) => format!("{ms:.2}ms"),
                    None => "-".into(),
                },
                lin.exhausted_keys,
            );
            if let Some(c) = check.convergence {
                println!(
                    "  convergence    : {} keys, {} divergent, {} stale replicas — {}",
                    c.keys_checked,
                    c.divergent_keys,
                    c.stale_replicas,
                    if c.converged() { "CONVERGED" } else { "DIVERGED" },
                );
            }
            println!("  event errors   : {}", run.event_errors);
        }
        if !check.is_clean() || run.event_errors > 0 {
            eprintln!(
                "history checker FAILED: {check:?} (event errors: {})",
                run.event_errors
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_latency_cell_is_blank_exactly_when_its_window_recorded_no_such_op() {
        // A window whose probes read but whose writes all failed.
        let mut w = WindowRecord::default();
        w.counts.reads = 1;
        w.read_latency.record(2.5);
        let write_p99 = latency(&w.write_latency, 99.0);
        assert_eq!([Table, Csv, Json].map(|f| f.cell(write_p99, 3)), ["-", "", "null"]);
        let read_p50 = latency(&w.read_latency, 50.0);
        assert_eq!([Table, Csv, Json].map(|f| f.cell(read_p50, 3)), ["2.500", "2.500", "2.5"]);
        assert_eq!(Csv.cell(Some(f64::NAN), 6), "", "a number that is not finite is blank");
    }
}
