//! Closed-loop serving benchmark for the lixto HTTP gateway.
//!
//! ```text
//! servebench --workload <hit_mix|drift_watch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run restarts the full stack (spooled registry, durable pool,
//! gateway) several times, each in a fresh process on a fresh copy of a
//! data directory seeded from `--seed`, then starts it once more and
//! drives one workload for `--seconds`, checks
//! every response against an in-process extraction, and prints one
//! JSON result line last. `--trace 1` prints the per-layer ledger
//! instead of the end-to-end metrics. See README.md beside this file.

mod data;
mod fleet;
mod inputs;
mod load;
mod replay;
mod run;
mod stack;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Args, Workload};

enum Mode {
    /// Build the seeded data directory in `dir`.
    Build {
        dir: PathBuf,
        seed: u64,
    },
    /// Start the stack on `dir` once and print the set-up seconds.
    Probe {
        dir: PathBuf,
        seed: u64,
    },
    Run(Args),
}

fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut build, mut probe) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--build-data" => build = Some(PathBuf::from(value)),
            "--probe-setup" => probe = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if let Some(dir) = build {
        return Ok(Mode::Build { dir, seed });
    }
    if let Some(dir) = probe {
        return Ok(Mode::Probe { dir, seed });
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    match parse_args() {
        Err(e) => {
            eprintln!(
                "servebench: {e}\nusage: servebench --workload <hit_mix|drift_watch> --seed <n> --seconds <s> --trace <0|1>"
            );
            ExitCode::from(2)
        }
        Ok(Mode::Build { dir, seed }) => {
            data::build(&dir, seed);
            ExitCode::SUCCESS
        }
        Ok(Mode::Probe { dir, seed }) => {
            println!("{}", run::probe_setup(&dir, seed));
            ExitCode::SUCCESS
        }
        Ok(Mode::Run(args)) => {
            let report = run::run(&args);
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
