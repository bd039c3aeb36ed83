//! Benchmark entry point; `run.py` beside this crate builds and calls it.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--serve PATH] [--out DIR]
//! ```
//!
//! `--serve` names the `serve` binary, which `serve_mixed` and every
//! traced run need; `--out` is where a traced run writes its spans.
//! Prints diagnostics, then the result as one JSON object on the last
//! line. Exits 1 when a correctness check failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Backend, Opts, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--serve PATH] [--out DIR]";

fn parse() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: None,
        backend: Backend::InProcess,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--serve" => opts.backend = Backend::Child(PathBuf::from(value)),
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if (workload == "serve_mixed" || opts.trace) && matches!(opts.backend, Backend::InProcess) {
        return Err("serve_mixed and every traced run need --serve PATH".to_string());
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = perfbench::run(&workload, &opts).expect("workload name was validated");
    for (name, value, unit) in &report.diagnostics {
        println!("# {workload} {name} = {value} {unit}");
    }
    for failure in &report.failures {
        println!("# {workload} FAILED: {failure}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
