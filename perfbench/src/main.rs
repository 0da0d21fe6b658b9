//! `perfbench` — runs one workload of the PAM benchmark and prints its
//! result as one JSON line on stdout.
//!
//! ```text
//! perfbench --workload matrix|crowd_state|wave32_sharded
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--seed` defaults to 2018, the seed `BENCH_baseline.json` covers;
//! `--seconds` (default 10) is the host time spent measuring; `--trace 1`
//! reports the per-layer ledger instead of the end-to-end metrics. Progress
//! and failed checks go to stderr. A run whose checks fail still prints its
//! result, with `"correct": false`.

use std::process::ExitCode;

use pam_perfbench::{Options, Workload};

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut options = Options {
        workload: Workload::Matrix,
        seed: pam_experiments::fleet::DEFAULT_FLEET_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload matrix|crowd_state|wave32_sharded \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match pam_perfbench::run(&options) {
        Ok(outcome) => {
            for metric in &outcome.metrics {
                eprintln!(
                    "perfbench: {:<32} {:>16.4} {}",
                    metric.name, metric.value, metric.unit
                );
            }
            eprintln!(
                "perfbench: {} cell run(s), {} failed",
                outcome.attempted, outcome.failed
            );
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
