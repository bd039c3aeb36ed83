//! Command-line front end shared by every experiment binary.
//!
//! One flag surface drives the whole registry:
//!
//! ```text
//! experiment --experiment fig4 [--ticks N] [--seed S] [--threads T]
//!            [--campaign-threads C] [--csv]
//!            [--telemetry out.jsonl] [--telemetry-csv out.csv]
//! experiment --list
//! ```
//!
//! The historical per-figure binaries (`fig4`, `table1`, …) are thin
//! shims over [`main_named`] that pre-select their experiment; the
//! `experiment` binary exposes the full registry through
//! `--experiment <name>` (including the pseudo-name `all`, which computes
//! one shared campaign and renders every campaign-backed report from it).
//!
//! `--telemetry` / `--telemetry-csv` switch the run from the no-op
//! recorder to an in-memory [`MemoryRecorder`] and write the export to
//! the given path after the run.

use std::fmt::Write as _;

use mobigrid_telemetry::{MemoryRecorder, NoopRecorder, Recorder};

use crate::config::ExperimentConfig;
use crate::experiment::{self, Experiment, Report};

/// Parsed command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    /// The experiment configuration after flag overrides.
    pub config: ExperimentConfig,
    /// Emit machine-readable CSV instead of the text report.
    pub csv: bool,
    /// Selected experiment name (`--experiment`), if any.
    pub experiment: Option<String>,
    /// List the registry and exit (`--list`).
    pub list: bool,
    /// Write a JSONL telemetry export to this path after the run.
    pub telemetry: Option<String>,
    /// Write a CSV telemetry export to this path after the run.
    pub telemetry_csv: Option<String>,
    /// Event-ring capacity for the recorder (`--events`); the default
    /// keeps only the newest 4096 events.
    pub events: Option<usize>,
}

const USAGE: &str = "usage: [--experiment NAME | --list] [--ticks N] [--seed S] \
                     [--threads T] [--campaign-threads C] [--driver dense|sparse] \
                     [--csv] [--telemetry FILE.jsonl] [--telemetry-csv FILE.csv] \
                     [--events N]";

/// Parses a flag list (without the program name).
///
/// # Errors
///
/// Returns a usage message on unknown flags, missing values or
/// non-numeric numbers.
pub fn parse_args<I>(args: I) -> Result<Cli, String>
where
    I: IntoIterator<Item = String>,
{
    let mut cli = Cli::default();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--ticks" => cli.config.duration_ticks = take_u64(&mut args, "--ticks")?,
            "--seed" => cli.config.seed = take_u64(&mut args, "--seed")?,
            "--threads" => {
                cli.config.runtime.threads = take_u64(&mut args, "--threads")?.max(1) as usize;
            }
            "--campaign-threads" => {
                cli.config.campaign_threads =
                    take_u64(&mut args, "--campaign-threads")?.max(1) as usize;
            }
            "--driver" => {
                cli.config.runtime.driver = take_value(&mut args, "--driver")?
                    .parse()
                    .map_err(|e| format!("{e}; {USAGE}"))?;
            }
            "--csv" => cli.csv = true,
            "--list" => cli.list = true,
            "--experiment" => cli.experiment = Some(take_value(&mut args, "--experiment")?),
            "--telemetry" => cli.telemetry = Some(take_value(&mut args, "--telemetry")?),
            "--telemetry-csv" => {
                cli.telemetry_csv = Some(take_value(&mut args, "--telemetry-csv")?)
            }
            "--events" => cli.events = Some(take_u64(&mut args, "--events")? as usize),
            other => return Err(format!("unknown flag {other}; {USAGE}")),
        }
    }
    Ok(cli)
}

fn take_value(args: &mut dyn Iterator<Item = String>, name: &str) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("{name} needs a value; {USAGE}"))
}

fn take_u64(args: &mut dyn Iterator<Item = String>, name: &str) -> Result<u64, String> {
    take_value(args, name)?
        .parse()
        .map_err(|_| format!("{name} needs an integer; {USAGE}"))
}

/// The registry listing printed by `--list`.
#[must_use]
pub fn listing() -> String {
    let mut out = String::from("available experiments:\n");
    let width = experiment::all()
        .iter()
        .map(|e| e.name().len())
        .max()
        .unwrap_or(0)
        .max("all".len());
    let _ = writeln!(
        out,
        "  {:width$}  every campaign-backed report from one shared campaign",
        "all"
    );
    for exp in experiment::all() {
        let _ = writeln!(out, "  {:width$}  {}", exp.name(), exp.description());
    }
    out
}

/// Runs one experiment (or the pseudo-experiment `all`) with the
/// telemetry recorder the CLI asked for, and returns the rendered
/// reports.
///
/// # Errors
///
/// Returns an error message for unknown experiment names.
pub fn execute(cli: &Cli, name: &str) -> Result<Vec<Report>, String> {
    let wants_telemetry = cli.telemetry.is_some() || cli.telemetry_csv.is_some();
    let mut memory = match cli.events {
        Some(events) => MemoryRecorder::with_capacity(4096, events),
        None => MemoryRecorder::new(),
    };
    let mut noop = NoopRecorder;
    let rec: &mut dyn Recorder = if wants_telemetry {
        &mut memory
    } else {
        &mut noop
    };

    let reports = if name == "all" {
        let data = crate::campaign::run_campaign_recorded(&cli.config, rec);
        let mut reports: Vec<Report> = experiment::all()
            .iter()
            .filter_map(|exp| exp.run_on(&data))
            .collect();
        let mut accounting = format!(
            "network accounting (ideal run): {} messages / {} bytes\n",
            data.ideal.network_messages, data.ideal.network_bytes
        );
        for (factor, run) in &data.adf {
            let _ = writeln!(
                accounting,
                "network accounting (adf {factor:.2}av): {} messages / {} bytes",
                run.network_messages, run.network_bytes
            );
        }
        reports.push(Report {
            name: "network-accounting",
            text: accounting,
            csv: None,
        });
        reports
    } else {
        let exp: &dyn Experiment = experiment::find(name)
            .ok_or_else(|| format!("unknown experiment {name:?}; try --list"))?;
        vec![exp.run(&cli.config, rec)]
    };

    if wants_telemetry {
        if let Some(path) = &cli.telemetry {
            std::fs::write(path, memory.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        }
        if let Some(path) = &cli.telemetry_csv {
            std::fs::write(path, memory.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    Ok(reports)
}

/// Entry point shared by every binary: parses `std::env::args`, runs the
/// selected experiment (`default` pre-selects one for the thin per-figure
/// shims; `--experiment` overrides it) and prints the reports.
///
/// Exits the process with status 2 on a CLI error.
pub fn main_named(default: Option<&str>) {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if cli.list {
        print!("{}", listing());
        return;
    }
    let name = match cli.experiment.as_deref().or(default) {
        Some(name) => name.to_string(),
        None => {
            eprintln!("no experiment selected; {USAGE}");
            std::process::exit(2);
        }
    };
    match execute(&cli, &name) {
        Ok(reports) => {
            for report in reports {
                if cli.csv {
                    if let Some(csv) = &report.csv {
                        print!("{csv}");
                        continue;
                    }
                }
                println!("{}", report.text);
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Cli, String> {
        parse_args(flags.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_full_flag_surface() {
        let cli = parse(&[
            "--experiment",
            "fig4",
            "--ticks",
            "60",
            "--seed",
            "7",
            "--threads",
            "2",
            "--campaign-threads",
            "3",
            "--driver",
            "sparse",
            "--csv",
            "--telemetry",
            "out.jsonl",
            "--telemetry-csv",
            "out.csv",
            "--events",
            "99",
        ])
        .unwrap();
        assert_eq!(cli.events, Some(99));
        assert_eq!(cli.experiment.as_deref(), Some("fig4"));
        assert_eq!(cli.config.duration_ticks, 60);
        assert_eq!(cli.config.seed, 7);
        assert_eq!(cli.config.runtime.threads, 2);
        assert_eq!(cli.config.campaign_threads, 3);
        assert_eq!(cli.config.runtime.driver, mobigrid_adf::TickDriver::Sparse);
        assert!(cli.csv);
        assert_eq!(cli.telemetry.as_deref(), Some("out.jsonl"));
        assert_eq!(cli.telemetry_csv.as_deref(), Some("out.csv"));
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--ticks"]).unwrap_err().contains("--ticks"));
        assert!(parse(&["--ticks", "abc"]).unwrap_err().contains("integer"));
        assert!(parse(&["--driver", "eager"])
            .unwrap_err()
            .contains("unknown tick driver"));
    }

    #[test]
    fn listing_covers_the_registry() {
        let listing = listing();
        for exp in crate::experiment::all() {
            assert!(listing.contains(exp.name()), "missing {}", exp.name());
        }
        assert!(listing.contains("all"));
    }

    #[test]
    fn execute_rejects_unknown_experiments() {
        let cli = Cli::default();
        // Names retired from the registry stay unknown.
        for name in ["nope", "scalability", "serve_bench"] {
            assert!(execute(&cli, name)
                .unwrap_err()
                .contains("unknown experiment"));
        }
        assert_eq!(crate::experiment::all().len(), 13);
    }

    #[test]
    fn execute_writes_parseable_jsonl_telemetry() {
        let dir = std::env::temp_dir().join("mobigrid-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig4.jsonl");
        let cli = Cli {
            config: ExperimentConfig {
                duration_ticks: 30,
                ..ExperimentConfig::default()
            },
            telemetry: Some(path.to_string_lossy().into_owned()),
            ..Cli::default()
        };
        let reports = execute(&cli, "fig4").unwrap();
        assert_eq!(reports.len(), 1);
        let exported = std::fs::read_to_string(&path).unwrap();
        let lines = mobigrid_telemetry::json::validate_jsonl(&exported).unwrap();
        assert!(lines > 0, "telemetry export is empty");
        std::fs::remove_file(&path).ok();
    }

    /// `--experiment all --telemetry FILE` must export ONE merged
    /// recorder covering every campaign arm — not just the last arm's.
    #[test]
    fn execute_all_merges_every_arm_into_one_export() {
        let dir = std::env::temp_dir().join("mobigrid-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("all.jsonl");
        let cli = Cli {
            config: ExperimentConfig {
                duration_ticks: 20,
                ..ExperimentConfig::default()
            },
            telemetry: Some(path.to_string_lossy().into_owned()),
            // A ring big enough to retain more than one arm's events.
            events: Some(1 << 20),
            ..Cli::default()
        };
        execute(&cli, "all").unwrap();
        let exported = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            exported.matches("\"type\":\"meta\"").count(),
            1,
            "expected exactly one merged export"
        );
        let trace = crate::trace::parse_trace(&exported).unwrap();
        assert_eq!(trace.events_dropped, 0, "ring too small for the pin test");
        // The campaign records the ideal arm plus three ADF arms in arm
        // order; each restarts its tick clock, so the merged stream
        // splits into one segment per arm.
        assert!(
            trace.segments().len() >= 4,
            "expected one segment per campaign arm, got {}",
            trace.segments().len()
        );
    }
}
