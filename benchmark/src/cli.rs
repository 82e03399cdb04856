//! Command line of `perf-record` / `perf-trace`.
//!
//! The driver's contract is `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`; the rest are for people and for the package's own tests.

use std::path::PathBuf;

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (`None` only in `--noise` mode, which runs all four).
    pub workload: Option<String>,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Wall seconds the measured loop lasts.
    pub seconds: f64,
    /// Print the per-layer metrics (traced run) instead of the end-to-end.
    pub trace: bool,
    /// 1/20 of the work, flagged, never comparable.
    pub quick: bool,
    /// Fixed-work override: stop after exactly this many rounds, whatever
    /// the clock says (tests compare digests at equal rounds).
    pub rounds: Option<u32>,
    /// Where the traced run writes its Chrome trace and self-time table.
    pub out: Option<PathBuf>,
    /// `--noise K`: K back-to-back runs of every workload, spread table.
    pub noise: Option<u32>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            workload: None,
            seed: 7,
            seconds: 15.0,
            trace: false,
            quick: false,
            rounds: None,
            out: None,
            noise: None,
        }
    }
}

/// Usage text printed on a malformed command line.
pub const USAGE: &str =
    "usage: perf-record --workload <steady64|scale100k|storm_audit|wars_predict> \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--rounds N] [--out DIR]\n       \
perf-record --noise K [--seed N] [--seconds S]";

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

impl Args {
    /// Parse `args` (without the program name). Accepts `--flag value` and
    /// `--flag=value`; anything unknown is an error, not ignored.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            if flag == "--quick" {
                if inline.is_some() {
                    return Err("--quick takes no value".into());
                }
                out.quick = true;
                continue;
            }
            let value = match inline.or_else(|| it.next()) {
                Some(v) => v,
                None => return Err(format!("{flag}: missing value")),
            };
            match flag.as_str() {
                "--workload" => out.workload = Some(value),
                "--seed" => out.seed = parse(&flag, &value)?,
                "--seconds" => out.seconds = parse(&flag, &value)?,
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                    }
                }
                "--rounds" => out.rounds = Some(parse(&flag, &value)?),
                "--out" => out.out = Some(PathBuf::from(value)),
                "--noise" => out.noise = Some(parse(&flag, &value)?),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if !(out.seconds.is_finite() && out.seconds > 0.0 && out.seconds <= 600.0) {
            return Err(format!("--seconds: {} is outside (0, 600]", out.seconds));
        }
        if out.rounds == Some(0) || out.noise == Some(0) {
            return Err("--rounds / --noise must be at least 1".into());
        }
        if out.noise.is_none() && out.workload.is_none() {
            return Err("--workload is required".into());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload steady64 --seed 11 --seconds 15 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("steady64"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (11, 15.0, true, false)
        );
    }

    #[test]
    fn equals_form_and_extras_parse() {
        let a = parse("--workload=wars_predict --quick --rounds=3 --out /tmp/x").unwrap();
        assert!(a.quick);
        assert_eq!(a.rounds, Some(3));
        assert_eq!(a.seed, 7, "default seed");
        assert_eq!(a.out, Some(PathBuf::from("/tmp/x")));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "--workload",
            "--workload x --seed abc",
            "--workload x --trace 2",
            "--workload x --seconds 0",
            "--workload x --seconds inf",
            "--workload x --bogus 1",
            "--workload x --rounds 0",
            "--quick=1 --workload x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        assert!(parse("--noise 5").is_ok(), "noise mode needs no workload");
    }
}
