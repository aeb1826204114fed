//! The tristream benchmark. Run it through `perfbench/run.py`, which
//! builds `tristream-cli` and this binary first:
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics. See README.md.

mod daemon;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Settings, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <offline-orkut|serve-small-frames|serve-durable> \
                     --seed <n> --seconds <s> --trace <0|1> --cli <tristream-cli> --data <dir>";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut cli, mut data) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            "--cli" => cli = Some(PathBuf::from(value)),
            "--data" => data = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Settings {
        workload,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
        cli: cli.ok_or("--cli is required")?,
        data: data.ok_or("--data is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workloads::run(&settings) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                settings.workload, settings.seed
            );
            return ExitCode::FAILURE;
        }
    };
    let defs = if settings.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let line = match report.json(defs) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} window {} s trace {}",
        settings.workload,
        settings.seed,
        settings.window.as_secs(),
        u8::from(settings.trace)
    );
    for l in &report.lines {
        println!("{l}");
    }
    print!("{}", report.table(defs));
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
