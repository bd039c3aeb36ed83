use std::collections::BTreeMap;

use crate::{FedTime, FederateHandle, RtiError};

/// Per-federate time-management state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TimeState {
    /// `Some(lookahead)` when the federate is time-regulating.
    pub regulating: Option<FedTime>,
    /// Whether the federate is time-constrained.
    pub constrained: bool,
    /// The federate's current (granted) time.
    pub current: FedTime,
    /// An outstanding time-advance request, if any.
    pub pending: Option<FedTime>,
}

impl TimeState {
    fn new() -> Self {
        TimeState {
            regulating: None,
            constrained: false,
            current: FedTime::ZERO,
            pending: None,
        }
    }

    /// The earliest timestamp this federate may still put on a message: its
    /// effective time plus lookahead. Only meaningful for regulating
    /// federates.
    fn promise(&self) -> FedTime {
        let lookahead = self.regulating.unwrap_or(FedTime::ZERO);
        // While a request to `t` is pending the federate has committed to
        // reaching `t`, so its guarantee advances with the request.
        let effective = self.pending.map_or(self.current, |p| p.max(self.current));
        effective.saturating_add(lookahead)
    }
}

/// The federation's conservative time manager.
///
/// Implements the classic lower-bound-on-timestamp (LBTS) rule: a
/// time-constrained federate may advance to `t` only when every *other*
/// time-regulating federate has promised not to send messages with
/// timestamps below `t`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TimeManager {
    states: BTreeMap<FederateHandle, TimeState>,
}

impl TimeManager {
    pub fn new() -> Self {
        TimeManager::default()
    }

    pub fn join(&mut self, fed: FederateHandle) {
        self.states.insert(fed, TimeState::new());
    }

    pub fn state(&self, fed: FederateHandle) -> Option<&TimeState> {
        self.states.get(&fed)
    }

    pub fn enable_regulation(
        &mut self,
        fed: FederateHandle,
        lookahead: FedTime,
    ) -> Result<(), RtiError> {
        let st = self.states.get_mut(&fed).ok_or(RtiError::NotJoined)?;
        if st.regulating.is_some() {
            return Err(RtiError::TimeAlreadyEnabled);
        }
        st.regulating = Some(lookahead);
        Ok(())
    }

    pub fn enable_constrained(&mut self, fed: FederateHandle) -> Result<(), RtiError> {
        let st = self.states.get_mut(&fed).ok_or(RtiError::NotJoined)?;
        if st.constrained {
            return Err(RtiError::TimeAlreadyEnabled);
        }
        st.constrained = true;
        Ok(())
    }

    /// Checks that a regulating sender may emit a message stamped `time`.
    pub fn check_send_time(&self, fed: FederateHandle, time: FedTime) -> Result<(), RtiError> {
        let st = self.states.get(&fed).ok_or(RtiError::NotJoined)?;
        let minimum = st
            .current
            .saturating_add(st.regulating.unwrap_or(FedTime::ZERO));
        if time < minimum {
            return Err(RtiError::InvalidTime {
                requested: time,
                minimum,
            });
        }
        Ok(())
    }

    /// Whether `fed` is time-regulating.
    pub fn is_regulating(&self, fed: FederateHandle) -> bool {
        self.states
            .get(&fed)
            .is_some_and(|s| s.regulating.is_some())
    }

    /// Whether `fed` is time-constrained.
    pub fn is_constrained(&self, fed: FederateHandle) -> bool {
        self.states.get(&fed).is_some_and(|s| s.constrained)
    }

    /// Files a time-advance request.
    ///
    /// # Errors
    ///
    /// [`RtiError::NotJoined`] for unknown federates,
    /// [`RtiError::AdvanceAlreadyPending`] when one is outstanding, and
    /// [`RtiError::InvalidTime`] for requests at or before the current time.
    pub fn request_advance(&mut self, fed: FederateHandle, to: FedTime) -> Result<(), RtiError> {
        let st = self.states.get_mut(&fed).ok_or(RtiError::NotJoined)?;
        if st.pending.is_some() {
            return Err(RtiError::AdvanceAlreadyPending);
        }
        if to <= st.current {
            return Err(RtiError::InvalidTime {
                requested: to,
                minimum: st.current,
            });
        }
        st.pending = Some(to);
        Ok(())
    }

    /// The lower bound on timestamps that may still reach `fed`: the minimum
    /// promise over all *other* regulating federates.
    pub fn lbts_for(&self, fed: FederateHandle) -> FedTime {
        self.states
            .iter()
            .filter(|(h, st)| **h != fed && st.regulating.is_some())
            .map(|(_, st)| st.promise())
            .min()
            .unwrap_or(FedTime::MAX)
    }

    /// Grants every pending request that has become safe; returns the grants
    /// in deterministic (handle) order. Looping until fixpoint matters:
    /// granting one federate advances its promise, which can unblock others.
    pub fn evaluate(&mut self) -> Vec<(FederateHandle, FedTime)> {
        let mut grants = Vec::new();
        loop {
            let mut granted_this_round = Vec::new();
            let handles: Vec<FederateHandle> = self.states.keys().copied().collect();
            for fed in handles {
                let Some(st) = self.states.get(&fed) else {
                    continue;
                };
                let Some(req) = st.pending else { continue };
                let safe = !st.constrained || req <= self.lbts_for(fed);
                if safe {
                    granted_this_round.push((fed, req));
                }
            }
            if granted_this_round.is_empty() {
                break;
            }
            for (fed, t) in &granted_this_round {
                let st = self.states.get_mut(fed).expect("granted federate exists");
                st.current = *t;
                st.pending = None;
            }
            grants.extend(granted_this_round);
        }
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fed(n: u32) -> FederateHandle {
        FederateHandle::from_raw(n)
    }

    fn manager_with(n: u32) -> TimeManager {
        let mut tm = TimeManager::new();
        for i in 0..n {
            tm.join(fed(i));
        }
        tm
    }

    #[test]
    fn unconstrained_requests_grant_immediately() {
        let mut tm = manager_with(1);
        tm.request_advance(fed(0), FedTime::from_secs(5)).unwrap();
        let grants = tm.evaluate();
        assert_eq!(grants, vec![(fed(0), FedTime::from_secs(5))]);
        assert_eq!(tm.state(fed(0)).unwrap().current, FedTime::from_secs(5));
    }

    #[test]
    fn constrained_federate_waits_for_regulator() {
        let mut tm = manager_with(2);
        tm.enable_regulation(fed(0), FedTime::from_secs(1)).unwrap();
        tm.enable_constrained(fed(1)).unwrap();

        tm.request_advance(fed(1), FedTime::from_secs(5)).unwrap();
        // Regulator is at 0 with lookahead 1: LBTS = 1 < 5 — no grant.
        assert!(tm.evaluate().is_empty());

        // Regulator asks to advance to 5: its promise becomes 6 ≥ 5.
        tm.request_advance(fed(0), FedTime::from_secs(5)).unwrap();
        let grants = tm.evaluate();
        assert_eq!(grants.len(), 2);
        assert_eq!(tm.state(fed(1)).unwrap().current, FedTime::from_secs(5));
    }

    #[test]
    fn lockstep_regulating_and_constrained_federates_advance() {
        // Both federates regulating + constrained, positive lookahead:
        // the common ADF simulation pattern. Lockstep requests must grant.
        let mut tm = manager_with(2);
        for i in 0..2 {
            tm.enable_regulation(fed(i), FedTime::from_secs_f64(0.5))
                .unwrap();
            tm.enable_constrained(fed(i)).unwrap();
        }
        for step in 1..=10u64 {
            let t = FedTime::from_secs(step);
            tm.request_advance(fed(0), t).unwrap();
            tm.request_advance(fed(1), t).unwrap();
            let grants = tm.evaluate();
            assert_eq!(grants.len(), 2, "step {step} deadlocked");
        }
    }

    #[test]
    fn grant_cascade_unblocks_chains() {
        // f0 regulating only; f1 regulating+constrained; f2 constrained only.
        let mut tm = manager_with(3);
        tm.enable_regulation(fed(0), FedTime::from_secs(1)).unwrap();
        tm.enable_regulation(fed(1), FedTime::from_secs(1)).unwrap();
        tm.enable_constrained(fed(1)).unwrap();
        tm.enable_constrained(fed(2)).unwrap();

        tm.request_advance(fed(2), FedTime::from_secs(2)).unwrap();
        tm.request_advance(fed(1), FedTime::from_secs(2)).unwrap();
        assert!(tm.evaluate().is_empty()); // f0 holds everyone at LBTS 1

        tm.request_advance(fed(0), FedTime::from_secs(2)).unwrap();
        let grants = tm.evaluate();
        // All three grant in one evaluation (fixpoint loop).
        assert_eq!(grants.len(), 3);
    }

    #[test]
    fn backwards_and_double_requests_rejected() {
        let mut tm = manager_with(1);
        tm.request_advance(fed(0), FedTime::from_secs(2)).unwrap();
        assert_eq!(
            tm.request_advance(fed(0), FedTime::from_secs(3)),
            Err(RtiError::AdvanceAlreadyPending)
        );
        tm.evaluate();
        assert!(matches!(
            tm.request_advance(fed(0), FedTime::from_secs(1)),
            Err(RtiError::InvalidTime { .. })
        ));
    }

    #[test]
    fn send_time_respects_lookahead() {
        let mut tm = manager_with(1);
        tm.enable_regulation(fed(0), FedTime::from_secs(2)).unwrap();
        assert!(tm.check_send_time(fed(0), FedTime::from_secs(2)).is_ok());
        assert!(matches!(
            tm.check_send_time(fed(0), FedTime::from_secs(1)),
            Err(RtiError::InvalidTime { .. })
        ));
    }

    #[test]
    fn double_enable_rejected() {
        let mut tm = manager_with(1);
        tm.enable_regulation(fed(0), FedTime::ZERO).unwrap();
        assert_eq!(
            tm.enable_regulation(fed(0), FedTime::ZERO),
            Err(RtiError::TimeAlreadyEnabled)
        );
        tm.enable_constrained(fed(0)).unwrap();
        assert_eq!(
            tm.enable_constrained(fed(0)),
            Err(RtiError::TimeAlreadyEnabled)
        );
    }

    #[test]
    fn lbts_without_regulators_is_unbounded() {
        let tm = manager_with(2);
        assert_eq!(tm.lbts_for(fed(0)), FedTime::MAX);
    }
}
