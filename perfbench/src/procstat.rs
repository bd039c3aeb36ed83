//! Run hygiene from `/proc`: peak resident memory, the process's CPU time
//! and runqueue wait, and the host's steal time. A run whose steal or wait
//! is high is a noisy run, not a regression; these readings make that
//! visible. On a system without `/proc` every reading is absent.

use std::fs;

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// process), in MiB.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reading of where this process's and the host's time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    /// CPU time of this process, all threads, dead ones included, in µs.
    pub cpu_us: f64,
    /// Time this process's live threads spent runnable but waiting for a
    /// CPU, in µs.
    pub wait_us: f64,
    /// Host-wide steal time, in clock ticks.
    pub steal: u64,
    /// Host-wide total CPU time, in clock ticks.
    pub total: u64,
}

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

impl Sched {
    /// Reads the current values; fields that cannot be read stay 0.
    #[must_use]
    pub fn now() -> Self {
        let mut s = Sched::default();
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            if let Some(rest) = stat.rsplit(')').next() {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
                s.cpu_us = (ticks(11) + ticks(12)) / USER_HZ * 1e6;
            }
        }
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let path = task.path().join("schedstat");
                if let Ok(text) = fs::read_to_string(path) {
                    let wait_ns: f64 = text
                        .split_whitespace()
                        .nth(1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0.0);
                    s.wait_us += wait_ns / 1e3;
                }
            }
        }
        if let Ok(stat) = fs::read_to_string("/proc/stat") {
            if let Some(cpu) = stat.lines().next() {
                let v: Vec<u64> = cpu
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|x| x.parse().ok())
                    .collect();
                // user nice system idle iowait irq softirq steal [guest..]
                s.total = v.iter().take(8).sum();
                s.steal = v.get(7).copied().unwrap_or(0);
            }
        }
        s
    }

    /// The interval from `start` to `self`: `(cpu_us, wait_us, steal_pct)`.
    #[must_use]
    pub fn since(&self, start: &Sched) -> (f64, f64, f64) {
        let total = self.total.saturating_sub(start.total);
        let steal = self.steal.saturating_sub(start.steal);
        let steal_pct = if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64 * 100.0
        };
        (
            self.cpu_us - start.cpu_us,
            (self.wait_us - start.wait_us).max(0.0),
            steal_pct,
        )
    }
}
