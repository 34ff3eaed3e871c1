//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints context and every metric by name and unit, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero on bad arguments.

use dex_perfbench::bench::{self, Options};
use dex_perfbench::report::render_json;
use dex_perfbench::workload::{find, WORKLOADS};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Options {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = find(&name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {name:?} (one of {names:?})");
        return ExitCode::from(2);
    };
    let report = bench::run(&workload, &opts);
    for note in &report.notes {
        println!("{note}");
    }
    for metric in &report.metrics {
        println!("{}", metric.line());
    }
    println!(
        "{}",
        render_json(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    ExitCode::SUCCESS
}
