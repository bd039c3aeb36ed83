//! One run's result: named metrics with units, operations attempted and
//! failed, and the one-line JSON object the benchmark prints last.

use std::fmt::Write as _;

use crate::procstat::Sched;

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics of this run, in emission order: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Diagnostics printed beside, not inside, the result of an untraced
    /// run: `(name, value, unit)`.
    pub diagnostics: Vec<(String, f64, &'static str)>,
    /// Operations attempted: timed ticks, batches, RPCs and checks.
    pub attempted: u64,
    /// Operations that failed, checks included.
    pub failed: u64,
    /// One line per failed operation kind, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a diagnostic.
    pub fn diagnostic(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.diagnostics.push((name.into(), value, unit));
    }

    /// Counts `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one checked operation; a failed check is logged as `what`.
    pub fn check(&mut self, passed: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !passed {
            self.fail(what());
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(what);
        }
    }

    /// Folds in `other`: its operations and failures, and each of its
    /// metrics and diagnostics whose name this report does not carry yet.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(32);
        for (name, value, unit) in other.metrics {
            if !self.metrics.iter().any(|(n, _, _)| *n == name) {
                self.metrics.push((name, value, unit));
            }
        }
        for (name, value, unit) in other.diagnostics {
            if !self.diagnostics.iter().any(|(n, _, _)| *n == name) {
                self.diagnostics.push((name, value, unit));
            }
        }
    }

    /// Records where the run's time went since `start`, per operation:
    /// CPU time, runqueue wait and host steal. They go into the metrics of
    /// a traced run and into the diagnostics of an untraced one.
    pub fn hygiene(&mut self, start: &Sched, ops: u64, traced: bool) {
        let (cpu_us, wait_us, steal_pct) = Sched::now().since(start);
        let per_op = |v: f64| v / ops.max(1) as f64;
        let rows = [
            ("sched.cpu_us_per_op", per_op(cpu_us), "us"),
            ("sched.wait_us_per_op", per_op(wait_us), "us"),
            ("host.steal_pct", steal_pct, "%"),
        ];
        for (name, value, unit) in rows {
            if traced {
                self.metric(name, value, unit);
            } else {
                self.diagnostic(name, value, unit);
            }
        }
    }

    /// True when nothing failed and every metric is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result object, on one line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; such a metric makes the run
            // incorrect (see `correct`) and is printed as null.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_metric_and_the_counts() {
        let mut r = Report::default();
        r.metric("tick_us_p50", 301.25, "us");
        r.ok(10);
        r.check(false, || "digest mismatch".to_string());
        assert_eq!(
            r.to_json(),
            "{\"correct\": false, \"attempted\": 11, \"failed\": 1, \"metrics\": \
             {\"tick_us_p50\": {\"value\": 301.25, \"unit\": \"us\"}}}"
        );
        assert_eq!(r.failures, vec!["digest mismatch".to_string()]);
    }

    #[test]
    fn a_non_finite_metric_is_not_correct() {
        let mut r = Report::default();
        r.metric("x", f64::NAN, "us");
        assert!(!r.correct());
        assert!(r.to_json().contains("null"));
    }
}
