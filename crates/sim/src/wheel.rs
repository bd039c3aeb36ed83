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
//! * A node has at most one pending wake: the caller schedules a node
//!   again only after its wake has fired. The drained set for a tick is
//!   exactly the nodes whose wake is due by then.
//! * [`WakeWheel::advance`] returns the due set sorted ascending, and is
//!   a pure function of the schedule history — never of wall clock,
//!   allocation order or thread interleaving.
//!
//! There is no cancel: a scheduled wake always fires, so every entry the
//! wheel holds is live and `schedule` is O(1) amortised.

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
    /// Wakes at or beyond `now + len` when scheduled, keyed by due tick.
    overflow: std::collections::BTreeMap<u64, Vec<u32>>,
    /// The last tick passed to [`WakeWheel::advance`] (0 before any).
    now: u64,
    /// Number of pending wakes.
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
            now: 0,
            pending: 0,
            due: Vec::new(),
        }
    }

    /// Number of nodes with a pending wake.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.pending
    }

    /// Schedules `node` to wake at `tick`, which must be after the last
    /// [`WakeWheel::advance`]d tick. `node` must have no pending wake: the
    /// wheel keeps no per-node state to replace one by, so a second wake
    /// would fire twice.
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
        self.pending += 1;
        if tick - self.now < self.slots.len() as u64 {
            let idx = (tick as usize) & (self.slots.len() - 1);
            self.slots[idx].push(node);
        } else {
            self.overflow.entry(tick).or_default().push(node);
        }
    }

    /// Advances the wheel to `tick` and returns the nodes due by then,
    /// ascending. Ticks may be skipped; wakes scheduled for a skipped tick
    /// fire on the next `advance` at or after their due tick.
    ///
    /// Every entry of a swept slot is due. A near wake `w` is filed with
    /// `now < w < now + len`, and no tick in `(now, w)` maps to its slot,
    /// so the first sweep `(prev, tick]` that reaches the slot has
    /// `prev < w < prev + len`. A sweep shorter than a lap reaches it only
    /// at `t = w`, so `w <= tick`; a whole lap has `w < prev + len <= tick`.
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
            self.due.append(&mut self.slots[idx]);
        }

        // Overflow entries due by now (covers skipped ticks too).
        while let Some(entry) = self.overflow.first_entry() {
            if *entry.key() > tick {
                break;
            }
            self.due.extend(entry.remove());
        }

        self.due.sort_unstable();
        self.pending -= self.due.len();
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
    fn skipped_ticks_still_fire_pending_wakes() {
        let mut w = WakeWheel::new(8);
        w.schedule(2, 5);
        w.schedule(3, 40);
        // Jump straight past both due ticks in one advance.
        assert_eq!(w.advance(60), &[2, 3]);
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
        /// An arbitrary interleaving of schedule / advance operations
        /// never loses a wake, never duplicates one, and always drains in
        /// ascending id order — checked against the obvious map-based
        /// reference model. Like the sparse driver, it schedules only
        /// nodes with no pending wake.
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
                    0 | 1 => {
                        if let std::collections::btree_map::Entry::Vacant(slot) =
                            model.pending.entry(node)
                        {
                            let tick = now + delta;
                            wheel.schedule(node, tick);
                            slot.insert(tick);
                        }
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
