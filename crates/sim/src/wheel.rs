//! A deterministic timer wheel for sparse, event-driven ticking.
//!
//! [`WakeWheel`] schedules *wakes* — "re-examine node `i` at tick `t`" —
//! and drains each tick's due set in **ascending node-id order**, so a
//! consumer that processes wakes in drain order behaves identically at
//! any worker-thread count. The wheel is a classic calendar queue: a
//! power-of-two array of near-horizon slots plus a `BTreeMap` overflow
//! level for wakes beyond the horizon.
//!
//! # Determinism contract
//!
//! * One pending wake per node (`schedule` overwrites, last write wins);
//!   the drained set for a tick is exactly the nodes whose latest
//!   scheduled wake equals that tick.
//! * [`WakeWheel::advance`] returns the due set sorted ascending, and is
//!   a pure function of the schedule/cancel history — never of wall
//!   clock, allocation order or thread interleaving.
//!
//! Slot entries are *lazy*: cancelling or rescheduling leaves the stale
//! entry in place and it is filtered (or re-filed, for far wakes that
//! wrapped) on drain. This keeps `schedule`/`cancel` O(1) amortised.

/// A deterministic calendar/timer-wheel queue keyed on tick.
///
/// # Examples
///
/// ```
/// use mobigrid_sim::WakeWheel;
///
/// let mut wheel = WakeWheel::new(8);
/// wheel.schedule(3, 5);
/// wheel.schedule(1, 5);
/// wheel.schedule(2, 99); // far beyond the horizon
/// assert_eq!(wheel.advance(5), &[1, 3]); // ascending ids
/// assert_eq!(wheel.advance(99), &[2]);
/// assert_eq!(wheel.occupancy(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct WakeWheel {
    /// Near-horizon slots, indexed by `tick & (len - 1)`.
    slots: Vec<Vec<u32>>,
    /// Wakes at or beyond `now + horizon`, keyed by due tick.
    overflow: std::collections::BTreeMap<u64, Vec<u32>>,
    /// Authoritative pending wake per node (`u64::MAX` = none). Grows on
    /// demand; doubles as the lazy-cancellation filter.
    next_wake: Vec<u64>,
    /// The last tick passed to [`WakeWheel::advance`] (0 before any).
    now: u64,
    /// Number of nodes with a pending wake.
    pending: usize,
    /// Scratch for the due set, reused across advances.
    due: Vec<u32>,
}

impl WakeWheel {
    /// Creates a wheel with at least `horizon` near slots (rounded up to a
    /// power of two, minimum 8).
    #[must_use]
    pub fn new(horizon: usize) -> Self {
        let len = horizon.max(8).next_power_of_two();
        WakeWheel {
            slots: vec![Vec::new(); len],
            overflow: std::collections::BTreeMap::new(),
            next_wake: Vec::new(),
            now: 0,
            pending: 0,
            due: Vec::new(),
        }
    }

    /// Number of near-horizon slots.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.slots.len()
    }

    /// Number of nodes with a pending wake.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.pending
    }

    /// The pending wake tick for `node`, if any.
    #[must_use]
    pub fn pending_wake(&self, node: u32) -> Option<u64> {
        match self.next_wake.get(node as usize) {
            Some(&t) if t != u64::MAX => Some(t),
            _ => None,
        }
    }

    fn ensure(&mut self, node: u32) {
        let idx = node as usize;
        if idx >= self.next_wake.len() {
            self.next_wake.resize(idx + 1, u64::MAX);
        }
    }

    /// Schedules (or reschedules) `node` to wake at `tick`. A node has at
    /// most one pending wake: the latest call wins. `tick` must be after
    /// the last [`WakeWheel::advance`]d tick.
    ///
    /// # Panics
    ///
    /// Panics when `tick <= now` (a wake in the past can never fire).
    pub fn schedule(&mut self, node: u32, tick: u64) {
        assert!(
            tick > self.now,
            "wake for node {node} at tick {tick} is not after now={}",
            self.now
        );
        self.ensure(node);
        let prev = std::mem::replace(&mut self.next_wake[node as usize], tick);
        if prev == u64::MAX {
            self.pending += 1;
        }
        // Lazy: a stale entry for `prev` stays where it is and is filtered
        // on drain against `next_wake`.
        if tick - self.now < self.slots.len() as u64 {
            let idx = (tick as usize) & (self.slots.len() - 1);
            self.slots[idx].push(node);
        } else {
            self.overflow.entry(tick).or_default().push(node);
        }
    }

    /// Cancels `node`'s pending wake, if any. Idempotent.
    pub fn cancel(&mut self, node: u32) {
        if let Some(slot) = self.next_wake.get_mut(node as usize) {
            if *slot != u64::MAX {
                *slot = u64::MAX;
                self.pending -= 1;
            }
        }
    }

    /// Advances the wheel to `tick` and returns the nodes due exactly then,
    /// ascending. Ticks may be skipped; wakes scheduled for a skipped tick
    /// fire on the next `advance` at or after their due tick.
    ///
    /// # Panics
    ///
    /// Panics when `tick` is not monotonically increasing.
    pub fn advance(&mut self, tick: u64) -> &[u32] {
        assert!(
            tick > self.now,
            "advance must move forward (now={})",
            self.now
        );
        let prev = self.now;
        self.now = tick;
        self.due.clear();

        // Sweep the near slots covering (prev, tick]. When the span
        // exceeds the wheel circumference one full lap covers every slot.
        let len = self.slots.len() as u64;
        let span = (tick - prev).min(len);
        for t in (tick - span + 1)..=tick {
            let idx = (t as usize) & (self.slots.len() - 1);
            if self.slots[idx].is_empty() {
                continue;
            }
            let mut entries = std::mem::take(&mut self.slots[idx]);
            for node in entries.drain(..) {
                match self.next_wake[node as usize] {
                    w if w <= tick && w != u64::MAX => self.due.push(node),
                    // A far wake that wrapped into this slot: re-file it.
                    w if w != u64::MAX => {
                        if w - tick < len {
                            let j = (w as usize) & (self.slots.len() - 1);
                            self.slots[j].push(node);
                        } else {
                            self.overflow.entry(w).or_default().push(node);
                        }
                    }
                    _ => {} // cancelled: drop the stale entry
                }
            }
            // Hand the emptied Vec's capacity back to the slot.
            self.slots[idx] = entries;
        }

        // Overflow entries due by now (covers skipped ticks too).
        while let Some((&t, _)) = self.overflow.first_key_value() {
            if t > tick {
                break;
            }
            let (_, nodes) = self.overflow.pop_first().expect("non-empty");
            for node in nodes {
                let w = self.next_wake[node as usize];
                if w <= tick && w != u64::MAX {
                    self.due.push(node);
                } else if w != u64::MAX {
                    // Rescheduled further out after landing in overflow.
                    if w - tick < len {
                        let j = (w as usize) & (self.slots.len() - 1);
                        self.slots[j].push(node);
                    } else {
                        self.overflow.entry(w).or_default().push(node);
                    }
                }
            }
        }

        self.due.sort_unstable();
        self.due.dedup();
        for &node in &self.due {
            self.next_wake[node as usize] = u64::MAX;
            self.pending -= 1;
        }
        &self.due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn drains_in_ascending_id_order() {
        let mut w = WakeWheel::new(16);
        for node in [9u32, 3, 7, 1, 120] {
            w.schedule(node, 4);
        }
        assert_eq!(w.advance(4), &[1, 3, 7, 9, 120]);
    }

    #[test]
    fn slot_wraparound_at_horizon_boundaries() {
        let mut w = WakeWheel::new(8);
        // 3 and 11 share slot 3 (mod 8); only 3 is due at tick 3.
        w.schedule(0, 3);
        w.schedule(1, 11);
        w.schedule(2, 19);
        assert_eq!(w.advance(3), &[0]);
        assert_eq!(w.advance(10), &[] as &[u32]);
        assert_eq!(w.advance(11), &[1]);
        assert_eq!(w.advance(19), &[2]);
        assert_eq!(w.occupancy(), 0);
    }

    #[test]
    fn cancel_and_reschedule_are_idempotent() {
        let mut w = WakeWheel::new(8);
        w.schedule(5, 2);
        w.schedule(5, 2); // same tick again: still one wake
        assert_eq!(w.occupancy(), 1);
        w.cancel(5);
        w.cancel(5); // double cancel: no-op
        assert_eq!(w.occupancy(), 0);
        assert_eq!(w.advance(2), &[] as &[u32]);

        w.schedule(5, 4);
        w.schedule(5, 6); // reschedule: last write wins
        assert_eq!(w.occupancy(), 1);
        assert_eq!(w.advance(4), &[] as &[u32]);
        assert_eq!(w.advance(6), &[5]);
    }

    #[test]
    fn reschedule_from_overflow_back_into_the_near_window() {
        let mut w = WakeWheel::new(8);
        w.schedule(1, 100); // overflow
        w.schedule(1, 3); // near
        assert_eq!(w.advance(3), &[1]);
        assert_eq!(w.advance(100), &[] as &[u32]);
    }

    #[test]
    fn skipped_ticks_still_fire_pending_wakes() {
        let mut w = WakeWheel::new(8);
        w.schedule(2, 5);
        w.schedule(3, 40);
        // Jump straight past both due ticks in one advance.
        assert_eq!(w.advance(60), &[2, 3]);
    }

    #[test]
    fn pending_wake_reports_the_latest_schedule() {
        let mut w = WakeWheel::new(8);
        assert_eq!(w.pending_wake(7), None);
        w.schedule(7, 9);
        w.schedule(7, 30);
        assert_eq!(w.pending_wake(7), Some(30));
        w.cancel(7);
        assert_eq!(w.pending_wake(7), None);
    }

    #[test]
    #[should_panic(expected = "not after now")]
    fn scheduling_in_the_past_panics() {
        let mut w = WakeWheel::new(8);
        w.advance(5);
        w.schedule(0, 5);
    }

    /// Reference model: a plain map node → pending wake tick.
    #[derive(Default)]
    struct ModelWheel {
        pending: std::collections::BTreeMap<u32, u64>,
    }

    proptest! {
        /// An arbitrary interleaving of schedule / cancel / advance
        /// operations never loses a wake, never duplicates one, and
        /// always drains in ascending id order — checked against the
        /// obvious map-based reference model.
        #[test]
        fn arbitrary_ops_never_lose_or_duplicate_wakes(
            horizon in 1usize..64,
            ops in proptest::collection::vec(
                (0u8..3, 0u32..40, 1u64..50),
                1..200,
            ),
        ) {
            let mut wheel = WakeWheel::new(horizon);
            let mut model = ModelWheel::default();
            let mut now = 0u64;
            for (op, node, delta) in ops {
                match op {
                    0 => {
                        let tick = now + delta;
                        wheel.schedule(node, tick);
                        model.pending.insert(node, tick);
                    }
                    1 => {
                        wheel.cancel(node);
                        model.pending.remove(&node);
                    }
                    _ => {
                        now += delta;
                        let due = wheel.advance(now).to_vec();
                        let expected: Vec<u32> = model
                            .pending
                            .iter()
                            .filter(|&(_, &t)| t <= now)
                            .map(|(&n, _)| n)
                            .collect();
                        model.pending.retain(|_, &mut t| t > now);
                        prop_assert_eq!(&due, &expected, "due set diverged at tick {}", now);
                        let mut sorted = due.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        prop_assert_eq!(due, sorted, "drain order not ascending/unique");
                    }
                }
                prop_assert_eq!(wheel.occupancy(), model.pending.len());
            }
        }
    }
}
