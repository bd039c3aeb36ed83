use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::federation::Federation;
use crate::{
    AttributeHandle, AttributeValues, Callback, FedTime, FederateHandle, ObjectClassHandle,
    ObjectHandle, ObjectModel, RtiError,
};

#[derive(Default)]
struct RtiCore {
    federations: BTreeMap<String, Federation>,
}

/// Locks the core. A federate that panicked while holding the lock may have
/// left a federation half-updated, so a poisoned lock fails the call rather
/// than handing out the state.
fn lock(core: &Mutex<RtiCore>) -> Result<MutexGuard<'_, RtiCore>, RtiError> {
    core.lock().map_err(|_| RtiError::Poisoned)
}

/// The RTI executive: creates federation executions and admits federates.
///
/// Cloning an `Rti` yields another handle to the same executive (the core is
/// shared behind a mutex), so federates can run from multiple threads. Once
/// a thread panics while holding the core, every service returns
/// [`RtiError::Poisoned`].
///
/// # Examples
///
/// ```
/// use mobigrid_hla::{ObjectModel, Rti};
///
/// let rti = Rti::new();
/// rti.create_federation("exp", ObjectModel::new()).unwrap();
/// let fed = rti.join("exp", "observer").unwrap();
/// assert_eq!(fed.name(), "observer");
/// ```
#[derive(Clone, Default)]
pub struct Rti {
    core: Arc<Mutex<RtiCore>>,
}

impl std::fmt::Debug for Rti {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names =
            lock(&self.core).map(|core| core.federations.keys().cloned().collect::<Vec<_>>());
        f.debug_struct("Rti").field("federations", &names).finish()
    }
}

impl Rti {
    /// Creates an executive with no federation executions.
    #[must_use]
    pub fn new() -> Self {
        Rti::default()
    }

    /// Creates a federation execution governed by `fom`.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::FederationAlreadyExists`] when the name is taken.
    pub fn create_federation(
        &self,
        name: impl Into<String>,
        fom: ObjectModel,
    ) -> Result<(), RtiError> {
        let name = name.into();
        let mut core = lock(&self.core)?;
        if core.federations.contains_key(&name) {
            return Err(RtiError::FederationAlreadyExists { name });
        }
        core.federations.insert(name, Federation::new(fom));
        Ok(())
    }

    /// Joins a federate to an execution, returning its service handle.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::UnknownFederation`] when no such execution
    /// exists.
    pub fn join(
        &self,
        federation: impl Into<String>,
        federate_name: impl Into<String>,
    ) -> Result<Federate, RtiError> {
        let federation = federation.into();
        let federate_name = federate_name.into();
        let mut core = lock(&self.core)?;
        let fed_exec =
            core.federations
                .get_mut(&federation)
                .ok_or_else(|| RtiError::UnknownFederation {
                    name: federation.clone(),
                })?;
        let handle = fed_exec.join();
        Ok(Federate {
            core: Arc::clone(&self.core),
            federation,
            handle,
            name: federate_name,
        })
    }
}

/// A joined federate's service handle — the RTI-ambassador surface.
///
/// All RTI services the paper's simulation needs hang off this type; see the
/// [crate docs](crate) for a full walkthrough.
pub struct Federate {
    core: Arc<Mutex<RtiCore>>,
    federation: String,
    handle: FederateHandle,
    name: String,
}

impl std::fmt::Debug for Federate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federate")
            .field("federation", &self.federation)
            .field("handle", &self.handle)
            .field("name", &self.name)
            .finish()
    }
}

impl Federate {
    fn with<R>(
        &self,
        f: impl FnOnce(&mut Federation) -> Result<R, RtiError>,
    ) -> Result<R, RtiError> {
        let mut core = lock(&self.core)?;
        let fed_exec = core.federations.get_mut(&self.federation).ok_or_else(|| {
            RtiError::UnknownFederation {
                name: self.federation.clone(),
            }
        })?;
        f(fed_exec)
    }

    /// The federate's name as supplied at join time.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares intent to register instances / update attributes of `class`.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::UnknownHandle`] for classes missing from the FOM.
    pub fn publish_object_class(&self, class: ObjectClassHandle) -> Result<(), RtiError> {
        self.with(|fed| fed.publish_object_class(self.handle, class))
    }

    /// Subscribes to reflections of the given attributes of `class`; also
    /// delivers discoveries of existing instances.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::UnknownHandle`] for unknown class/attributes.
    pub fn subscribe_object_class(
        &self,
        class: ObjectClassHandle,
        attributes: &[AttributeHandle],
    ) -> Result<(), RtiError> {
        self.with(|fed| fed.subscribe_object_class(self.handle, class, attributes))
    }

    /// Registers a new object instance of a published `class`.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::NotPublished`] when the class was not published.
    pub fn register_object(&self, class: ObjectClassHandle) -> Result<ObjectHandle, RtiError> {
        self.with(|fed| fed.register_object(self.handle, class))
    }

    /// Updates attribute values of an owned object. With `time = Some(t)`
    /// and this federate time-regulating, delivery to time-constrained
    /// subscribers is timestamp-ordered at `t`; otherwise receive-ordered.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::InvalidTime`] when `t` violates the lookahead
    /// promise, plus the object/handle errors of
    /// [`Federate::register_object`].
    pub fn update_attributes(
        &self,
        object: ObjectHandle,
        values: AttributeValues,
        time: Option<FedTime>,
    ) -> Result<(), RtiError> {
        self.with(|fed| fed.update_attributes(self.handle, object, values, time))
    }

    /// Becomes time-regulating with the given lookahead.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::TimeAlreadyEnabled`] when already regulating.
    pub fn enable_time_regulation(&self, lookahead: FedTime) -> Result<(), RtiError> {
        self.with(|fed| fed.enable_time_regulation(self.handle, lookahead))
    }

    /// Becomes time-constrained.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::TimeAlreadyEnabled`] when already constrained.
    pub fn enable_time_constrained(&self) -> Result<(), RtiError> {
        self.with(|fed| fed.enable_time_constrained(self.handle))
    }

    /// Requests a time advance to `to`; the grant arrives as a
    /// [`Callback::TimeAdvanceGrant`] once safe.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::AdvanceAlreadyPending`] / [`RtiError::InvalidTime`]
    /// per the HLA time-management rules.
    pub fn request_time_advance(&self, to: FedTime) -> Result<(), RtiError> {
        self.with(|fed| fed.request_time_advance(self.handle, to))
    }

    /// This federate's current granted time.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::Poisoned`] after a panic inside the RTI.
    pub fn time(&self) -> Result<FedTime, RtiError> {
        self.with(|fed| fed.federate_time(self.handle))
    }

    /// Announces a federation-wide synchronization point.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::InvalidSyncPoint`] for duplicate labels.
    pub fn register_sync_point(&self, label: &str) -> Result<(), RtiError> {
        self.with(|fed| fed.register_sync_point(self.handle, label))
    }

    /// Marks this federate as having achieved the labelled point; when the
    /// last federate achieves it, everyone receives
    /// [`Callback::FederationSynchronized`].
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::InvalidSyncPoint`] for unannounced labels.
    pub fn achieve_sync_point(&self, label: &str) -> Result<(), RtiError> {
        self.with(|fed| fed.achieve_sync_point(self.handle, label))
    }

    /// Drains and returns the pending callbacks, in delivery order — the
    /// HLA `tick()`.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::Poisoned`] after a panic inside the RTI.
    pub fn tick(&self) -> Result<Vec<Callback>, RtiError> {
        self.with(|fed| fed.drain_callbacks(self.handle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fom_with_node() -> (ObjectModel, ObjectClassHandle, AttributeHandle) {
        let mut fom = ObjectModel::new();
        let mn = fom.add_object_class("MobileNode");
        let pos = fom.add_attribute(mn, "position").unwrap();
        (fom, mn, pos)
    }

    #[test]
    fn duplicate_federation_is_rejected() {
        let (fom, ..) = fom_with_node();
        let rti = Rti::new();
        rti.create_federation("f", fom).unwrap();
        assert!(matches!(
            rti.create_federation("f", ObjectModel::new()),
            Err(RtiError::FederationAlreadyExists { .. })
        ));
    }

    #[test]
    fn join_unknown_federation_fails() {
        let rti = Rti::new();
        assert!(matches!(
            rti.join("ghost", "x"),
            Err(RtiError::UnknownFederation { .. })
        ));
    }

    #[test]
    fn discover_and_reflect_receive_order() {
        let (fom, mn, pos) = fom_with_node();
        let rti = Rti::new();
        rti.create_federation("f", fom).unwrap();
        let sender = rti.join("f", "sender").unwrap();
        let receiver = rti.join("f", "receiver").unwrap();

        sender.publish_object_class(mn).unwrap();
        receiver.subscribe_object_class(mn, &[pos]).unwrap();
        let obj = sender.register_object(mn).unwrap();

        let events = receiver.tick().unwrap();
        assert!(matches!(
            events.as_slice(),
            [Callback::DiscoverObject { object, .. }] if *object == obj
        ));

        sender
            .update_attributes(obj, vec![(pos, b"1,2".to_vec())], None)
            .unwrap();
        let events = receiver.tick().unwrap();
        match events.as_slice() {
            [Callback::ReflectAttributes {
                object,
                values,
                time,
            }] => {
                assert_eq!(*object, obj);
                assert_eq!(values[0].1, b"1,2");
                assert!(time.is_none());
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn late_subscriber_discovers_existing_objects() {
        let (fom, mn, pos) = fom_with_node();
        let rti = Rti::new();
        rti.create_federation("f", fom).unwrap();
        let sender = rti.join("f", "sender").unwrap();
        sender.publish_object_class(mn).unwrap();
        let obj = sender.register_object(mn).unwrap();

        let late = rti.join("f", "late").unwrap();
        late.subscribe_object_class(mn, &[pos]).unwrap();
        let events = late.tick().unwrap();
        assert!(matches!(
            events.as_slice(),
            [Callback::DiscoverObject { object, .. }] if *object == obj
        ));
    }

    #[test]
    fn unsubscribed_attributes_are_filtered() {
        let mut fom = ObjectModel::new();
        let mn = fom.add_object_class("MobileNode");
        let pos = fom.add_attribute(mn, "position").unwrap();
        let bat = fom.add_attribute(mn, "battery").unwrap();

        let rti = Rti::new();
        rti.create_federation("f", fom).unwrap();
        let sender = rti.join("f", "sender").unwrap();
        let receiver = rti.join("f", "receiver").unwrap();
        sender.publish_object_class(mn).unwrap();
        receiver.subscribe_object_class(mn, &[pos]).unwrap();
        let obj = sender.register_object(mn).unwrap();
        receiver.tick().unwrap(); // drain discover

        // Battery-only update: the receiver must see nothing.
        sender
            .update_attributes(obj, vec![(bat, b"77".to_vec())], None)
            .unwrap();
        assert!(receiver.tick().unwrap().is_empty());

        // Mixed update: only the subscribed attribute arrives.
        sender
            .update_attributes(obj, vec![(pos, b"1".to_vec()), (bat, b"66".to_vec())], None)
            .unwrap();
        let events = receiver.tick().unwrap();
        match events.as_slice() {
            [Callback::ReflectAttributes { values, .. }] => {
                assert_eq!(values.len(), 1);
                assert_eq!(values[0].0, pos);
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn updating_foreign_object_is_rejected() {
        let (fom, mn, pos) = fom_with_node();
        let rti = Rti::new();
        rti.create_federation("f", fom).unwrap();
        let a = rti.join("f", "a").unwrap();
        let b = rti.join("f", "b").unwrap();
        a.publish_object_class(mn).unwrap();
        b.publish_object_class(mn).unwrap();
        let obj = a.register_object(mn).unwrap();
        assert_eq!(
            b.update_attributes(obj, vec![(pos, vec![1])], None),
            Err(RtiError::NotPublished)
        );
    }

    #[test]
    fn tso_delivery_waits_for_grant_and_orders_by_timestamp() {
        let (fom, mn, pos) = fom_with_node();
        let rti = Rti::new();
        rti.create_federation("f", fom).unwrap();
        let sender = rti.join("f", "sender").unwrap();
        let receiver = rti.join("f", "receiver").unwrap();
        sender.publish_object_class(mn).unwrap();
        receiver.subscribe_object_class(mn, &[pos]).unwrap();
        sender.enable_time_regulation(FedTime::ZERO).unwrap();
        receiver.enable_time_constrained().unwrap();
        let obj = sender.register_object(mn).unwrap();
        receiver.tick().unwrap();

        // Send t=2 then t=1: TSO must reorder.
        sender
            .update_attributes(
                obj,
                vec![(pos, b"late".to_vec())],
                Some(FedTime::from_secs(2)),
            )
            .unwrap();
        sender
            .update_attributes(
                obj,
                vec![(pos, b"early".to_vec())],
                Some(FedTime::from_secs(1)),
            )
            .unwrap();

        // Nothing delivered before a grant.
        assert!(receiver.tick().unwrap().is_empty());

        sender.request_time_advance(FedTime::from_secs(3)).unwrap();
        receiver
            .request_time_advance(FedTime::from_secs(3))
            .unwrap();
        let events = receiver.tick().unwrap();
        let payloads: Vec<&[u8]> = events
            .iter()
            .filter_map(|e| match e {
                Callback::ReflectAttributes { values, .. } => Some(values[0].1.as_slice()),
                _ => None,
            })
            .collect();
        assert_eq!(payloads, vec![b"early".as_ref(), b"late".as_ref()]);
        assert!(matches!(
            events.last(),
            Some(Callback::TimeAdvanceGrant { time }) if *time == FedTime::from_secs(3)
        ));
    }

    #[test]
    fn sync_points_complete_when_all_achieve() {
        let rti = Rti::new();
        rti.create_federation("f", ObjectModel::new()).unwrap();
        let a = rti.join("f", "a").unwrap();
        let b = rti.join("f", "b").unwrap();
        a.register_sync_point("ready").unwrap();
        assert!(matches!(
            a.tick().unwrap().as_slice(),
            [Callback::SyncPointAnnounced { label }] if label == "ready"
        ));
        b.tick().unwrap();
        a.achieve_sync_point("ready").unwrap();
        assert!(a.tick().unwrap().is_empty());
        b.achieve_sync_point("ready").unwrap();
        assert!(matches!(
            a.tick().unwrap().as_slice(),
            [Callback::FederationSynchronized { label }] if label == "ready"
        ));
    }

    #[test]
    fn rti_handles_are_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<Rti>();
        check::<Federate>();
    }

    #[test]
    fn a_panic_inside_the_core_poisons_every_later_call() {
        let rti = Rti::new();
        rti.create_federation("f", ObjectModel::new()).unwrap();
        let fed = rti.join("f", "a").unwrap();
        let core = Arc::clone(&rti.core);
        let held = std::thread::spawn(move || {
            let _guard = core.lock();
            panic!("federate code panicked while holding the core");
        });
        assert!(held.join().is_err());
        assert_eq!(fed.tick(), Err(RtiError::Poisoned));
        assert_eq!(
            rti.create_federation("g", ObjectModel::new()),
            Err(RtiError::Poisoned)
        );
        assert!(format!("{rti:?}").contains("Poisoned"));
    }
}
