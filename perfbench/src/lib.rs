//! The mobigrid benchmark: three workloads, their end-to-end metrics, and
//! a traced run that splits them into per-layer metrics by timing calls
//! into each layer's public API. See `README.md` beside this crate.

pub mod procstat;
pub mod report;
pub mod serve_mixed;
pub mod sim_city;
pub mod sim_idle;
pub mod sims;
pub mod stats;
pub mod tracer;

use std::path::PathBuf;
use std::time::Duration;

use report::Report;
use tracer::Tracer;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["sim_city", "sim_idle", "serve_mixed"];

/// Where `serve_mixed` finds its server.
#[derive(Debug, Clone)]
pub enum Backend {
    /// The `serve` binary at this path, run as a child process.
    Child(PathBuf),
    /// The same server core and TCP front-ends on threads of this
    /// process (for the benchmark's own tests).
    InProcess,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed part of the run lasts, in seconds.
    pub seconds: f64,
    /// Run the traced variant, which reports per-layer metrics.
    pub trace: bool,
    /// Directory the traced run writes its spans to.
    pub out: Option<PathBuf>,
    /// The server `serve_mixed` drives.
    pub backend: Backend,
}

impl Opts {
    /// The timed duration.
    #[must_use]
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Writes the traced run's spans as `spans-<workload>-seed<n>.jsonl`
    /// under [`Opts::out`]; a failed write is a failed operation.
    pub fn write_spans(&self, workload: &str, tracer: &Tracer, report: &mut Report) {
        let Some(dir) = &self.out else { return };
        let path = dir.join(format!("spans-{workload}-seed{}.jsonl", self.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        report.check(written.is_ok(), || {
            format!("writing {}: {:?}", path.display(), written.err())
        });
    }
}

/// Runs workload `name`, or returns `None` for an unknown name.
///
/// Every workload reports the same metrics. A traced run splits the
/// workload's own operation into its layers for the whole run, then
/// makes the shortest traced run of each other workload for the layers
/// it does not pass through, so that every traced run reports every
/// layer. Where two workloads report a metric of the same name, the
/// workload's own value is kept.
#[must_use]
pub fn run(name: &str, opts: &Opts) -> Option<Report> {
    let mut report = run_one(name, opts)?;
    if opts.trace {
        // Only the workload's own part writes its spans.
        let short = Opts {
            seconds: 0.0,
            out: None,
            ..opts.clone()
        };
        for other in WORKLOADS.iter().filter(|w| **w != name) {
            report.absorb(run_one(other, &short).expect("a listed workload"));
        }
    }
    Some(report)
}

fn run_one(name: &str, opts: &Opts) -> Option<Report> {
    match name {
        "sim_city" => Some(sim_city::run(opts)),
        "sim_idle" => Some(sim_idle::run(opts)),
        "serve_mixed" => Some(serve_mixed::run(opts)),
        _ => None,
    }
}
