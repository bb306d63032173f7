//! `perfbench` — the repository benchmark.
//!
//! Runs one workload for a wall-clock budget through the library's public
//! API and prints, as the last line of stdout, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//!
//! ```text
//! perfbench --workload bid_sweep|repair_churn|quorum_requests
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           [--scale full|tiny] [--fingerprints]
//! ```
//!
//! `--scale tiny` shrinks every workload for the smoke test;
//! `--fingerprints` prints the per-cell / per-rung lines that
//! `pinned/*.txt` hold for the default seed. See README.md.

mod quorum;
mod report;
mod sweep;

use std::process::ExitCode;

use report::{calibration_ms, host_line, peak_rss_mb};

/// The seed whose outputs are pinned in `pinned/`.
pub const DEFAULT_SEED: u64 = 2014;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub fingerprints: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        fingerprints: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--fingerprints" {
            args.fingerprints = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let calibration = calibration_ms();
    let mut outcome = match args.workload.as_str() {
        "bid_sweep" => sweep::run(sweep::Sweep::Bid, &args),
        "repair_churn" => sweep::run(sweep::Sweep::Churn, &args),
        "quorum_requests" => quorum::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    outcome.set("peak_rss_mb", peak_rss_mb());
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", host_line(calibration));
    println!("{}", outcome.to_json(args.trace));
    ExitCode::SUCCESS
}
