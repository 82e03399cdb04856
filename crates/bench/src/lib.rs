//! # pbs-bench — harnesses regenerating every table and figure of the paper
//!
//! Each binary regenerates one artifact from the evaluation (the paper-side
//! index, with commands and expected headlines, is `docs/paper-map.md`):
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `kstaleness` | §3.1 k-staleness closed form (+ MC cross-checks) |
//! | `monotonic` | §3.2 monotonic reads (Eq. 3 vs. session simulation) |
//! | `load_bounds` | §3.3 load/capacity bounds |
//! | `table1_2_3` | Tables 1–3: production percentiles & mixture fits |
//! | `fig4` | Figure 4: t-visibility under exponential latencies |
//! | `fig5` | Figure 5: operation-latency CDFs for production fits |
//! | `fig6` | Figure 6: t-visibility for production fits |
//! | `fig7` | Figure 7: t-visibility vs. replication factor |
//! | `table4` | Table 4: latency vs. t-visibility across (R, W) |
//! | `validation` | §5.2: WARS vs. the simulated Dynamo-style store |
//! | `quorum_systems` | §2.1 context: classic quorum constructions |
//! | `failures` | §6: staleness under crashes & hinted handoff |
//! | `sla` | §6: SLA-driven configuration search |
//! | `detector` | §4.3: asynchronous staleness detector quality |
//! | `read_delay` | §5.3 ablation: delaying reads vs. raising R |
//! | `scenarios` | §6 closed loop: chaos timelines + adaptive reconfiguration (`pbs-scenario`) |
//! | `throughput` | open-loop arrival-rate × (N,R,W) sweep: ops/sec, latency quantiles, consistency vs. load |
//! | `chaos_sweep` | CI seed-sweep chaos gate: scheduled storms + crashes, serial ≡ parallel, full checker audit (`--lin` adds the WGL gate) |
//!
//! Performance is measured elsewhere: the `benchmark/` package (see
//! `docs/performance.md`).
//!
//! What the binaries print is pinned by `tests/golden.rs`: each case runs
//! one binary with fixed `--seed` and `--threads` and compares its stdout,
//! byte for byte, with `tests/golden/<case>.txt`.
//! `GOLDEN_UPDATE=1 cargo test -p pbs-bench --test golden` rewrites the
//! files. A change that rewrites a golden file names the file and the
//! reason in `CHANGES.md`.
//!
//! Run one with `cargo run -p pbs-bench --release --bin fig6`. Every binary
//! but `chaos_sweep` (which counts `--seeds`) accepts `--quick` (reduced
//! trial counts for smoke runs), `--trials N`, `--seed N`, and
//! `--threads N` (shards for the deterministic `pbs-mc` runner; output is
//! bit-reproducible for a fixed `(seed, threads)` pair and defaults to all
//! available cores), all read by [`HarnessOptions`]; both `--key value` and
//! `--key=value` spellings are accepted (see [`cli`]).
//!
//! Each job the binaries share is done one way, here: every WARS Monte
//! Carlo is [`HarnessOptions::wars`] (one trial stream, read at each
//! `(R, W)` asked for), and every open-loop run of the store is
//! [`store_run`] (serial engine; clients time out, and the run settles,
//! by the cluster's op timeout).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pbs_kvs::{ClientOptions, ClusterOptions, NetworkModel, OpenLoopOptions, OpenLoopRun};
use pbs_sim::PdesError;
use pbs_wars::{LatencyModel, TVisibility};

/// Log-spaced sample points from `lo` to `hi` (inclusive), matching the
/// paper's log-x-axis figures.
pub fn log_spaced(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && points >= 2);
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..points)
        .map(|i| (llo + (lhi - llo) * i as f64 / (points - 1) as f64).exp())
        .collect()
}

/// Linearly spaced sample points from `lo` to `hi` inclusive.
pub fn lin_spaced(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(hi >= lo && points >= 2);
    (0..points)
        .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
        .collect()
}

/// Simple fixed-width table printer shared by all harness binaries.
pub mod report {
    /// Print a section header.
    pub fn header(title: &str) {
        println!();
        println!("== {title} ==");
    }

    /// Print a table: `cols` are right-aligned headers; each row must match.
    pub fn table(cols: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = cols.iter().map(|c| c.len()).collect();
        for row in rows {
            assert_eq!(row.len(), cols.len(), "row arity mismatch");
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: Vec<String>| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            padded.join("  ")
        };
        println!("{}", fmt_row(cols.iter().map(|s| s.to_string()).collect()));
        println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in rows {
            println!("{}", fmt_row(row.clone()));
        }
    }

    /// Format a probability as a percentage with 2–4 significant decimals.
    pub fn pct(p: f64) -> String {
        if p >= 0.9999 {
            format!("{:.4}%", p * 100.0)
        } else {
            format!("{:.2}%", p * 100.0)
        }
    }

    /// Format milliseconds compactly.
    pub fn ms(v: f64) -> String {
        if v >= 100.0 {
            format!("{v:.1}")
        } else {
            format!("{v:.3}")
        }
    }

    /// The figure bins' "P(consistency) vs t" table: a row per `t` (printed
    /// to `t_digits` decimals), a column per run (to `p_digits`).
    pub fn consistency_vs_t<'a, S: AsRef<str>>(
        labels: &[S],
        runs: impl Iterator<Item = &'a pbs_wars::TVisibility> + Clone,
        ts: &[f64],
        (t_digits, p_digits): (usize, usize),
    ) {
        let row = |&t: &f64| {
            let cells = runs.clone().map(|tv| format!("{:.p_digits$}", tv.prob_consistent(t)));
            std::iter::once(format!("{t:.t_digits$}")).chain(cells).collect()
        };
        table(&labeled_cols("t", labels), &ts.iter().map(row).collect::<Vec<Vec<String>>>());
    }

    /// A header row: a fixed first column, then one label per series
    /// (`&[String]` and `&[&str]` alike).
    pub fn labeled_cols<'a, S: AsRef<str>>(first: &'a str, labels: &'a [S]) -> Vec<&'a str> {
        let mut cols = vec![first];
        cols.extend(labels.iter().map(|s| s.as_ref()));
        cols
    }
}

/// Minimal argv parsing shared by the harness binaries: `--key value`,
/// `--key=value`, and bare `--flag` spellings are all accepted.
pub mod cli {
    /// Print the one-line complaint about a malformed command line and
    /// exit with status 2.
    pub(crate) fn usage_error(message: &str) -> ! {
        eprintln!("{message}");
        std::process::exit(2);
    }

    /// Parsed command-line flags, in order of appearance.
    #[derive(Debug, Clone, Default)]
    pub struct Args {
        pairs: Vec<(String, Option<String>)>,
    }

    impl Args {
        /// Parse the process's arguments (skipping `argv[0]`). Exits with
        /// status 2 on a token that is not a `--flag`.
        pub fn parse() -> Self {
            Self::from_tokens(std::env::args().skip(1))
        }

        /// Parse from an explicit token stream.
        pub(crate) fn from_tokens<I: IntoIterator<Item = String>>(tokens: I) -> Self {
            let mut pairs: Vec<(String, Option<String>)> = Vec::new();
            for token in tokens {
                if let Some(flag) = token.strip_prefix("--") {
                    match flag.split_once('=') {
                        Some((k, v)) => pairs.push((k.to_string(), Some(v.to_string()))),
                        None => pairs.push((flag.to_string(), None)),
                    }
                } else if let Some((_, slot @ None)) = pairs.last_mut() {
                    // A bare token becomes the value of the preceding flag.
                    *slot = Some(token);
                } else {
                    eprintln!("unexpected argument: {token} (flags look like --key value)");
                    std::process::exit(2);
                }
            }
            Self { pairs }
        }

        /// The value of `--key` (last occurrence wins), if present.
        pub fn value_of(&self, key: &str) -> Option<&str> {
            self.pairs
                .iter()
                .rev()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_deref())
        }

        /// Whether `--key` appeared at all (with or without a value).
        pub(crate) fn has(&self, key: &str) -> bool {
            self.pairs.iter().any(|(k, _)| k == key)
        }

        /// Whether the boolean flag `--key` is set. Exits with status 2 if
        /// it was given a value (e.g. a stray positional token after it:
        /// `--quick 3000` is a forgotten `--trials`, not a quick run).
        pub fn flag(&self, key: &str) -> bool {
            match self.pairs.iter().rev().find(|(k, _)| k == key) {
                None => false,
                Some((_, None)) => true,
                Some((_, Some(v))) => {
                    eprintln!("--{key} takes no value (got {v:?})");
                    std::process::exit(2);
                }
            }
        }

        /// Parse `--key`'s value, exiting with status 2 on a missing or
        /// malformed value. `None` when the flag is absent.
        pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
            self.try_parsed(key).unwrap_or_else(|message| usage_error(&message))
        }

        /// [`parsed`](Self::parsed), with the complaint returned instead
        /// of printed.
        pub(crate) fn try_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
            if !self.has(key) {
                return Ok(None);
            }
            match self.value_of(key).and_then(|v| v.parse().ok()) {
                Some(v) => Ok(Some(v)),
                None => {
                    Err(format!("--{key} requires a value of type {}", std::any::type_name::<T>()))
                }
            }
        }

        /// Exit with status 2 if any flag is not in `known`.
        pub fn reject_unknown(&self, known: &[&str]) {
            for (k, _) in &self.pairs {
                if !known.contains(&k.as_str()) {
                    eprintln!(
                        "unknown argument: --{k} (supported: {})",
                        known.iter().map(|k| format!("--{k}")).collect::<Vec<_>>().join(" ")
                    );
                    std::process::exit(2);
                }
            }
        }
    }
}

/// Harness CLI options, parsed from `std::env::args`.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Monte-Carlo trials per data point, or whole replica runs for the
    /// bins that replicate a simulation (`scenarios`, `throughput`).
    pub trials: usize,
    /// Seed for all RNGs.
    pub seed: u64,
    /// Shards for the deterministic `pbs-mc` runner. Defaults to the
    /// host's available parallelism; results are bit-reproducible for a
    /// fixed `(seed, threads)` pair.
    pub threads: usize,
}

impl HarnessOptions {
    /// Parse `--quick`, `--trials N`, `--seed N`, and `--threads N`
    /// (`--key=value` works too) for a Monte-Carlo bin with a default trial
    /// budget (chosen per binary to balance fidelity and runtime);
    /// `--quick` takes a twentieth of it, but no fewer than 1,000 (a bin
    /// whose default is smaller passes its own counts to
    /// [`from_args`](Self::from_args)).
    pub fn parse(default_trials: usize) -> Self {
        let args = cli::Args::parse();
        args.reject_unknown(&["quick", "trials", "seed", "threads"]);
        Self::from_args(&args, default_trials, (default_trials / 20).max(1_000))
    }

    /// Extract the shared options from pre-parsed [`cli::Args`] — for
    /// binaries with extra flags of their own. `trials` is `full_trials`,
    /// or `quick_trials` under `--quick`, unless `--trials` says otherwise.
    /// Exits with status 2 on a malformed value, or a `--trials` /
    /// `--threads` of zero. Panics if `quick_trials` exceeds `full_trials`:
    /// a smoke run that does more work than a full one is the bin's bug.
    pub fn from_args(args: &cli::Args, full_trials: usize, quick_trials: usize) -> Self {
        Self::try_from_args(args, full_trials, quick_trials)
            .unwrap_or_else(|message| cli::usage_error(&message))
    }

    fn try_from_args(
        args: &cli::Args,
        full_trials: usize,
        quick_trials: usize,
    ) -> Result<Self, String> {
        assert!(
            quick_trials <= full_trials,
            "--quick must not run more than a full run ({quick_trials} > {full_trials} trials)"
        );
        let default_trials = if args.flag("quick") { quick_trials } else { full_trials };
        let trials = args.try_parsed::<usize>("trials")?.unwrap_or(default_trials);
        let seed = args.try_parsed::<u64>("seed")?.unwrap_or(42);
        let threads = match args.try_parsed::<usize>("threads")? {
            Some(t) => t,
            None => pbs_mc::Runner::available_threads(),
        };
        for (key, count) in [("trials", trials), ("threads", threads)] {
            if count == 0 {
                return Err(format!("--{key} must be at least 1"));
            }
        }
        Ok(Self { trials, seed, threads })
    }

    /// `trials` WARS trials of `model` at `seed` over `threads` shards,
    /// read at every `(R, W)` of `pairs` off the one trial stream
    /// ([`TVisibility::simulate_grid`]); one result per pair, in order. A
    /// figure of one configuration passes its one pair. A comparison run
    /// changes the count or the seed with struct-update syntax.
    pub fn wars<M: LatencyModel + Sync + ?Sized>(
        &self,
        model: &M,
        pairs: &[(u32, u32)],
    ) -> Vec<TVisibility> {
        TVisibility::simulate_grid(model, pairs, self.trials, self.seed, self.threads)
    }
}

/// Build and execute an open-loop run of the store on the serial engine,
/// which accepts every latency model. `clients` clients issue ops for
/// `duration_ms`, drained every `window_ms`; then in-flight ops settle for
/// the cluster's op timeout, which is the clients' timeout too. With
/// `probe_read_offset_ms`, each committed write is read back that many ms
/// after its commit. `execute` runs the built run, once
/// ([`OpenLoopRun::run`]) or sharded ([`OpenLoopRun::run_sharded`]).
pub fn store_run<T>(
    cluster: ClusterOptions,
    network: NetworkModel,
    (duration_ms, window_ms): (f64, f64),
    clients: usize,
    probe_read_offset_ms: Option<f64>,
    execute: impl FnOnce(&OpenLoopRun) -> Result<T, PdesError>,
) -> T {
    let op_timeout_ms = cluster.op_timeout_ms;
    let timing = OpenLoopOptions::new(duration_ms, window_ms, op_timeout_ms);
    let client = ClientOptions { op_timeout_ms, probe_read_offset_ms, ..ClientOptions::default() };
    execute(&OpenLoopRun::new(cluster, network, timing, clients, client))
        .expect("the serial engine accepts every latency model")
}

#[cfg(test)]
mod tests {
    use super::cli::Args;
    use super::report;

    fn args(tokens: &[&str]) -> Args {
        Args::from_tokens(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_accepts_both_spellings() {
        let a = args(&["--trials=30", "--seed", "7", "--quick"]);
        assert_eq!(a.parsed::<usize>("trials"), Some(30));
        assert_eq!(a.parsed::<u64>("seed"), Some(7));
        assert!(a.has("quick"));
        assert!(a.flag("quick"), "bare flag is set");
        assert!(!a.has("threads"));
        assert_eq!(a.value_of("threads"), None);
    }

    #[test]
    fn cli_last_occurrence_wins() {
        let a = args(&["--seed", "1", "--seed=9"]);
        assert_eq!(a.parsed::<u64>("seed"), Some(9));
    }

    /// A Monte-Carlo bin's counts: what `HarnessOptions::parse` passes on
    /// for a 100,000-trial default (`--quick`: a twentieth, at least 1,000).
    const MONTE_CARLO: (usize, usize) = (100_000, 5_000);
    /// A replica-run bin's counts: `scenarios` runs 16 whole scenarios, 4
    /// under `--quick`.
    const REPLICA_RUNS: (usize, usize) = (16, 4);

    fn options(tokens: &[&str], rule: (usize, usize)) -> Result<(usize, u64, usize), String> {
        let o = super::HarnessOptions::try_from_args(&args(tokens), rule.0, rule.1)?;
        Ok((o.trials, o.seed, o.threads))
    }

    #[test]
    fn harness_options_from_args() {
        let a = args(&["--trials", "64", "--seed", "7", "--threads", "2"]);
        let o = super::HarnessOptions::from_args(&a, 1_000, 1_000);
        assert_eq!((o.trials, o.seed, o.threads), (64, 7, 2));
        assert_eq!(super::HarnessOptions::from_args(&args(&[]), 16, 4).seed, 42);
    }

    #[test]
    fn both_kinds_of_bin_count_their_runs_by_one_rule() {
        for rule @ (full, quick) in [MONTE_CARLO, REPLICA_RUNS] {
            let trials = |tokens: &[&str]| options(tokens, rule).unwrap().0;
            assert_eq!(trials(&["--threads", "2"]), full);
            assert_eq!(trials(&["--quick", "--threads", "2"]), quick);
            // An explicit --trials overrides either default.
            assert_eq!(trials(&["--trials", "12", "--threads", "2"]), 12);
            assert_eq!(trials(&["--quick", "--trials", "12", "--threads", "2"]), 12);
            for zero in [&["--trials", "0"][..], &["--quick", "--trials=0"], &["--threads", "0"]] {
                assert!(options(zero, rule).unwrap_err().ends_with("must be at least 1"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "--quick must not run more than a full run (1000 > 500 trials)")]
    fn a_quick_count_above_the_full_count_is_a_programming_error() {
        let _ = options(&["--threads", "2"], (500, 1_000));
    }

    #[test]
    fn a_zero_count_or_a_malformed_value_is_a_usage_error() {
        let parse = |tokens: &[&str]| options(tokens, REPLICA_RUNS);
        assert_eq!(parse(&["--threads", "0"]).unwrap_err(), "--threads must be at least 1");
        assert_eq!(parse(&["--trials=0"]).unwrap_err(), "--trials must be at least 1");
        assert!(parse(&["--trials", "abc"]).unwrap_err().contains("--trials requires a value"));
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed requires a value"));
        assert!(parse(&["--threads", "1", "--trials", "1"]).is_ok());
    }

    #[test]
    fn log_spacing_endpoints_and_monotonicity() {
        let pts = super::log_spaced(0.1, 1000.0, 9);
        assert_eq!(pts.len(), 9);
        assert!((pts[0] - 0.1).abs() < 1e-9);
        assert!((pts[8] - 1000.0).abs() < 1e-6);
        for w in pts.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn lin_spacing_endpoints() {
        let pts = super::lin_spaced(0.0, 10.0, 11);
        assert_eq!(pts[3], 3.0);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(report::pct(0.5), "50.00%");
        assert_eq!(report::pct(0.99999), "99.9990%");
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(report::ms(1.2345), "1.234");
        assert_eq!(report::ms(1234.5), "1234.5");
    }

    #[test]
    fn labeled_cols_prepends_first() {
        let labels = vec!["a".to_string(), "b".to_string()];
        assert_eq!(report::labeled_cols("t", &labels), vec!["t", "a", "b"]);
    }
}
