//! What the two simulator workloads share: timed segments, the
//! deterministic traffic and accuracy window, and the end-of-run checks.

use std::time::Instant;

use mobigrid_adf::{MobileGridSim, TickStats};

use crate::report::Report;
use crate::stats::us;

/// Timed ticks per segment. An untraced run is a series of segments, each
/// on freshly built sims that replay the same ticks of the seed, so every
/// segment does the same work and a faster build only runs more of them.
/// `lu_sent_pct` and `rmse_le_m` are taken over one segment, which keeps
/// them a pure function of the seed. A traced run steps at least this many
/// ticks.
pub const SEGMENT_TICKS: u64 = 1000;

/// Segments a run makes however short `--seconds` is.
pub const MIN_SEGMENTS: usize = 3;

/// Traffic and accuracy summed over the ticks of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Ticks summed.
    pub ticks: u64,
    /// Location updates sent.
    pub sent: u64,
    /// Location updates observed (sent + filtered).
    pub observed: u64,
    /// Sum of the per-tick `rmse_with_le`.
    pub rmse_le_sum: f64,
}

impl Window {
    /// Adds one tick.
    pub fn add(&mut self, s: &TickStats) {
        self.ticks += 1;
        self.sent += u64::from(s.sent);
        self.observed += u64::from(s.observed);
        self.rmse_le_sum += s.rmse_with_le;
    }

    /// Sent ÷ observed, in percent.
    #[must_use]
    pub fn sent_pct(&self) -> f64 {
        self.sent as f64 / self.observed as f64 * 100.0
    }

    /// Mean `rmse_with_le`, in metres.
    #[must_use]
    pub fn rmse_le_mean(&self) -> f64 {
        self.rmse_le_sum / self.ticks as f64
    }

    /// Bitwise equality, so that a NaN or a last-bit difference in the
    /// RMSE sum counts as a mismatch.
    #[must_use]
    pub fn same_bits(&self, other: &Window) -> bool {
        self.ticks == other.ticks
            && self.sent == other.sent
            && self.observed == other.observed
            && self.rmse_le_sum.to_bits() == other.rmse_le_sum.to_bits()
    }
}

/// Times `ticks` ticks of `sim`: each tick's wall time in µs, and the
/// traffic and accuracy they summed to.
pub fn time_segment(sim: &mut MobileGridSim, ticks: u64) -> (Vec<f64>, Window) {
    let mut times = Vec::with_capacity(ticks as usize);
    let mut window = Window::default();
    for _ in 0..ticks {
        let a = Instant::now();
        let stats = sim.step();
        times.push(us(a.elapsed()));
        window.add(&stats);
    }
    (times, window)
}

/// Both brokers' state digests: `(with LE, without LE)`.
#[must_use]
pub fn digests(sim: &MobileGridSim) -> (u64, u64) {
    (
        sim.broker_with_le().state_digest(),
        sim.broker_without_le().state_digest(),
    )
}

/// Checks that the sim's online invariant monitors found nothing.
pub fn check_invariants(report: &mut Report, sim: &MobileGridSim, label: &str) {
    let violations = sim.invariant_violations();
    report.check(violations.is_empty(), || {
        format!(
            "{label}: {} invariant violations, first {:?}",
            violations.len(),
            violations.first()
        )
    });
}

/// Checks that two sims that ran the same ticks end in the same state:
/// equal broker digests and equal traffic and RMSE sums.
pub fn check_same_run(
    report: &mut Report,
    a: (&MobileGridSim, &Window),
    b: (&MobileGridSim, &Window),
    label: &str,
) {
    let (da, db) = (digests(a.0), digests(b.0));
    report.check(da == db, || {
        format!("{label}: broker digests differ: {da:016x?} vs {db:016x?}")
    });
    report.check(a.1.same_bits(b.1), || {
        format!("{label}: sent/RMSE sums differ: {:?} vs {:?}", a.1, b.1)
    });
}
