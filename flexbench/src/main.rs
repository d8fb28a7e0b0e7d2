//! Command-line entry point of the flexprot benchmark.
//!
//! ```text
//! flexbench --workload <protect|simulate|tamper> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name and unit, the operation and failure counts,
//! then one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when an operation failed or a correctness check did not hold,
//! and 2 on a usage error.

use std::process::ExitCode;

use flexbench::{per_layer, run, END_TO_END, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flexbench: {e}");
            eprintln!(
                "usage: flexbench --workload <protect|simulate|tamper> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = run(&args.workload, args.seed, args.seconds, args.trace);
    let names: Vec<String> = if args.trace {
        per_layer().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect()
    };
    let missing: Vec<&String> = names.iter().filter(|n| report.get(n).is_none()).collect();
    if !missing.is_empty() {
        report.error(format!("metrics not measured: {missing:?}"));
    }
    if report.attempted == 0 {
        report.error("no operation was attempted");
    }
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    println!("{}", report.render(&refs));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
