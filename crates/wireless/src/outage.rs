//! Gateway outage schedules.
//!
//! The paper lists "frequent disconnectivity" among the mobile grid's
//! defining constraints. This module models it at the infrastructure side:
//! gateways go down for scheduled windows, during which the nodes they
//! cover cannot deliver location updates — the broker must ride out the gap
//! on its estimator, exactly like a filtered update.

use serde::{Deserialize, Serialize};

use crate::{GatewayId, WirelessError};

/// A per-gateway schedule of downtime windows.
///
/// # Examples
///
/// ```
/// use mobigrid_wireless::{GatewayId, OutageSchedule};
///
/// let mut sched = OutageSchedule::new();
/// sched.add_window(GatewayId::new(0), 10.0, 20.0).unwrap();
/// assert!(sched.is_down(GatewayId::new(0), 15.0));
/// assert!(!sched.is_down(GatewayId::new(0), 25.0));
/// assert!(!sched.is_down(GatewayId::new(1), 15.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OutageSchedule {
    /// `(gateway, start_s, end_s)` windows; half-open `[start, end)`.
    windows: Vec<(GatewayId, f64, f64)>,
}

impl OutageSchedule {
    /// Creates an empty schedule (all gateways always up).
    #[must_use]
    pub fn new() -> Self {
        OutageSchedule::default()
    }

    /// Adds a downtime window `[start_s, end_s)` for `gateway`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::NonFiniteOutageWindow`] when either bound
    /// is NaN or infinite, and [`WirelessError::EmptyOutageWindow`] when
    /// the window is empty or reversed.
    pub fn add_window(
        &mut self,
        gateway: GatewayId,
        start_s: f64,
        end_s: f64,
    ) -> Result<(), WirelessError> {
        if !(start_s.is_finite() && end_s.is_finite()) {
            return Err(WirelessError::NonFiniteOutageWindow { start_s, end_s });
        }
        if end_s <= start_s {
            return Err(WirelessError::EmptyOutageWindow { start_s, end_s });
        }
        self.windows.push((gateway, start_s, end_s));
        Ok(())
    }

    /// Appends every window of `other` to this schedule — used to overlay
    /// compiled gateway-flapping windows onto a hand-written schedule.
    pub fn extend(&mut self, other: &OutageSchedule) {
        self.windows.extend_from_slice(&other.windows);
    }

    /// Whether `gateway` is down at `time_s`.
    #[must_use]
    pub fn is_down(&self, gateway: GatewayId, time_s: f64) -> bool {
        self.windows
            .iter()
            .any(|(g, s, e)| *g == gateway && time_s >= *s && time_s < *e)
    }

    /// Number of scheduled windows.
    #[must_use]
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Total scheduled downtime for `gateway`, in seconds (overlapping
    /// windows are double-counted; schedules are expected to be disjoint).
    #[must_use]
    pub fn total_downtime(&self, gateway: GatewayId) -> f64 {
        self.windows
            .iter()
            .filter(|(g, _, _)| *g == gateway)
            .map(|(_, s, e)| e - s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let mut s = OutageSchedule::new();
        s.add_window(GatewayId::new(2), 5.0, 8.0).unwrap();
        assert!(!s.is_down(GatewayId::new(2), 4.999));
        assert!(s.is_down(GatewayId::new(2), 5.0));
        assert!(s.is_down(GatewayId::new(2), 7.999));
        assert!(!s.is_down(GatewayId::new(2), 8.0));
    }

    #[test]
    fn schedules_are_per_gateway() {
        let mut s = OutageSchedule::new();
        s.add_window(GatewayId::new(0), 0.0, 100.0).unwrap();
        assert!(s.is_down(GatewayId::new(0), 50.0));
        assert!(!s.is_down(GatewayId::new(1), 50.0));
    }

    #[test]
    fn downtime_totals() {
        let mut s = OutageSchedule::new();
        s.add_window(GatewayId::new(0), 0.0, 10.0).unwrap();
        s.add_window(GatewayId::new(0), 20.0, 25.0).unwrap();
        s.add_window(GatewayId::new(1), 0.0, 1.0).unwrap();
        assert!((s.total_downtime(GatewayId::new(0)) - 15.0).abs() < 1e-12);
        assert!((s.total_downtime(GatewayId::new(1)) - 1.0).abs() < 1e-12);
        assert_eq!(s.window_count(), 3);
    }

    #[test]
    fn empty_or_reversed_windows_are_rejected() {
        let mut s = OutageSchedule::new();
        for (start, end) in [(5.0, 5.0), (10.0, 3.0)] {
            assert_eq!(
                s.add_window(GatewayId::new(0), start, end).unwrap_err(),
                WirelessError::EmptyOutageWindow {
                    start_s: start,
                    end_s: end
                }
            );
        }
        assert_eq!(s.window_count(), 0, "rejected windows must not be stored");
    }

    #[test]
    fn non_finite_windows_are_rejected() {
        let mut s = OutageSchedule::new();
        for (start, end) in [
            (f64::NAN, 1.0),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
        ] {
            let err = s.add_window(GatewayId::new(0), start, end).unwrap_err();
            assert!(
                matches!(err, WirelessError::NonFiniteOutageWindow { .. }),
                "expected NonFiniteOutageWindow, got {err:?}"
            );
        }
        assert_eq!(s.window_count(), 0, "rejected windows must not be stored");
    }

    #[test]
    fn extend_overlays_another_schedule() {
        let mut a = OutageSchedule::new();
        a.add_window(GatewayId::new(0), 0.0, 1.0).unwrap();
        let mut b = OutageSchedule::new();
        b.add_window(GatewayId::new(1), 2.0, 3.0).unwrap();
        a.extend(&b);
        assert_eq!(a.window_count(), 2);
        assert!(a.is_down(GatewayId::new(1), 2.5));
    }
}
