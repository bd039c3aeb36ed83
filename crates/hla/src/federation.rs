use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::time_mgmt::TimeManager;
use crate::{
    AttributeHandle, AttributeValues, Callback, FedTime, FederateHandle, ObjectClassHandle,
    ObjectHandle, ObjectModel, RtiError,
};

#[derive(Debug, Default)]
struct FederateState {
    /// Receive-order queue, drained by `tick`.
    ro_queue: VecDeque<Callback>,
    /// Timestamp-order store, released into the RO queue on time grants.
    tso_queue: BTreeMap<(FedTime, u64), Callback>,
    published_classes: BTreeSet<ObjectClassHandle>,
    /// The subscribed attributes of each subscribed class.
    subscriptions: BTreeMap<ObjectClassHandle, BTreeSet<AttributeHandle>>,
}

#[derive(Debug)]
struct ObjectState {
    class: ObjectClassHandle,
    name: String,
    owner: FederateHandle,
}

/// One federation execution: the paper's "campus" simulation would be a
/// single instance with MN, ADF and broker federates joined.
#[derive(Debug)]
pub(crate) struct Federation {
    fom: ObjectModel,
    federates: BTreeMap<FederateHandle, FederateState>,
    objects: BTreeMap<ObjectHandle, ObjectState>,
    time: TimeManager,
    sync_points: BTreeMap<String, BTreeSet<FederateHandle>>,
    tso_seq: u64,
}

impl Federation {
    pub fn new(fom: ObjectModel) -> Self {
        Federation {
            fom,
            federates: BTreeMap::new(),
            objects: BTreeMap::new(),
            time: TimeManager::new(),
            sync_points: BTreeMap::new(),
            tso_seq: 0,
        }
    }

    // --- Federation management -------------------------------------------

    /// Federates and objects are never removed, so the next handle of each
    /// kind is the count issued so far.
    pub fn join(&mut self) -> FederateHandle {
        let handle = FederateHandle::from_raw(
            u32::try_from(self.federates.len()).expect("fewer than 2^32 federates"),
        );
        self.federates.insert(handle, FederateState::default());
        self.time.join(handle);
        handle
    }

    fn state(&self, fed: FederateHandle) -> Result<&FederateState, RtiError> {
        self.federates.get(&fed).ok_or(RtiError::NotJoined)
    }

    fn state_mut(&mut self, fed: FederateHandle) -> Result<&mut FederateState, RtiError> {
        self.federates.get_mut(&fed).ok_or(RtiError::NotJoined)
    }

    // --- Declaration management ------------------------------------------

    pub fn publish_object_class(
        &mut self,
        fed: FederateHandle,
        class: ObjectClassHandle,
    ) -> Result<(), RtiError> {
        if !self.fom.has_object_class(class) {
            return Err(RtiError::UnknownHandle);
        }
        self.state_mut(fed)?.published_classes.insert(class);
        Ok(())
    }

    pub fn subscribe_object_class(
        &mut self,
        fed: FederateHandle,
        class: ObjectClassHandle,
        attributes: &[AttributeHandle],
    ) -> Result<(), RtiError> {
        if !self.fom.has_object_class(class) {
            return Err(RtiError::UnknownHandle);
        }
        for a in attributes {
            if !self.fom.class_has_attribute(class, *a) {
                return Err(RtiError::UnknownHandle);
            }
        }
        // Discover existing instances of the class for the late subscriber.
        let discoveries: Vec<Callback> = self
            .objects
            .iter()
            .filter(|(_, st)| st.class == class && st.owner != fed)
            .map(|(h, st)| Callback::DiscoverObject {
                object: *h,
                class,
                name: st.name.clone(),
            })
            .collect();
        let state = self.state_mut(fed)?;
        state
            .subscriptions
            .insert(class, attributes.iter().copied().collect());
        state.ro_queue.extend(discoveries);
        Ok(())
    }

    // --- Object management -------------------------------------------------

    pub fn register_object(
        &mut self,
        fed: FederateHandle,
        class: ObjectClassHandle,
    ) -> Result<ObjectHandle, RtiError> {
        if !self.state(fed)?.published_classes.contains(&class) {
            return Err(RtiError::NotPublished);
        }
        let handle = ObjectHandle::from_raw(
            u32::try_from(self.objects.len()).expect("fewer than 2^32 objects"),
        );
        let class_name = self
            .fom
            .object_class_name(class)
            .unwrap_or("object")
            .to_string();
        let name = format!("{class_name}-{}", handle.raw());
        self.objects.insert(
            handle,
            ObjectState {
                class,
                name: name.clone(),
                owner: fed,
            },
        );
        let discover = Callback::DiscoverObject {
            object: handle,
            class,
            name,
        };
        for (target, fs) in &mut self.federates {
            if *target != fed && fs.subscriptions.contains_key(&class) {
                fs.ro_queue.push_back(discover.clone());
            }
        }
        Ok(handle)
    }

    pub fn update_attributes(
        &mut self,
        fed: FederateHandle,
        object: ObjectHandle,
        values: AttributeValues,
        time: Option<FedTime>,
    ) -> Result<(), RtiError> {
        let st = self.objects.get(&object).ok_or(RtiError::UnknownObject)?;
        if st.owner != fed {
            return Err(RtiError::NotPublished);
        }
        let class = st.class;
        for (a, _) in &values {
            if !self.fom.class_has_attribute(class, *a) {
                return Err(RtiError::UnknownHandle);
            }
        }
        // Timestamp-order delivery requires a regulating sender whose
        // promise covers the timestamp.
        let tso_time = match time {
            Some(t) if self.time.is_regulating(fed) => {
                self.time.check_send_time(fed, t)?;
                Some(t)
            }
            _ => None,
        };

        for (target, fs) in &mut self.federates {
            if *target == fed {
                continue;
            }
            let Some(subscribed) = fs.subscriptions.get(&class) else {
                continue;
            };
            let relevant: AttributeValues = values
                .iter()
                .filter(|(a, _)| subscribed.contains(a))
                .cloned()
                .collect();
            if relevant.is_empty() {
                continue;
            }
            let reflect = Callback::ReflectAttributes {
                object,
                values: relevant,
                time: tso_time,
            };
            match tso_time {
                Some(t) if self.time.is_constrained(*target) => {
                    fs.tso_queue.insert((t, self.tso_seq), reflect);
                    self.tso_seq += 1;
                }
                _ => fs.ro_queue.push_back(reflect),
            }
        }
        Ok(())
    }

    // --- Time management ---------------------------------------------------

    pub fn enable_time_regulation(
        &mut self,
        fed: FederateHandle,
        lookahead: FedTime,
    ) -> Result<(), RtiError> {
        self.state(fed)?;
        self.time.enable_regulation(fed, lookahead)
    }

    pub fn enable_time_constrained(&mut self, fed: FederateHandle) -> Result<(), RtiError> {
        self.state(fed)?;
        self.time.enable_constrained(fed)
    }

    pub fn request_time_advance(
        &mut self,
        fed: FederateHandle,
        to: FedTime,
    ) -> Result<(), RtiError> {
        self.state(fed)?;
        self.time.request_advance(fed, to)?;
        self.dispatch_grants();
        Ok(())
    }

    pub fn federate_time(&self, fed: FederateHandle) -> Result<FedTime, RtiError> {
        self.time
            .state(fed)
            .map(|s| s.current)
            .ok_or(RtiError::NotJoined)
    }

    /// Runs the grant algorithm and, for each granted federate, releases its
    /// due TSO messages (in timestamp order) ahead of the grant callback.
    fn dispatch_grants(&mut self) {
        for (fed, t) in self.time.evaluate() {
            let fs = self
                .federates
                .get_mut(&fed)
                .expect("granted federate exists");
            let due: Vec<(FedTime, u64)> = fs
                .tso_queue
                .range(..=(t, u64::MAX))
                .map(|(k, _)| *k)
                .collect();
            for key in due {
                let cb = fs.tso_queue.remove(&key).expect("key just observed");
                fs.ro_queue.push_back(cb);
            }
            fs.ro_queue
                .push_back(Callback::TimeAdvanceGrant { time: t });
        }
    }

    // --- Synchronization points ---------------------------------------------

    pub fn register_sync_point(
        &mut self,
        fed: FederateHandle,
        label: &str,
    ) -> Result<(), RtiError> {
        self.state(fed)?;
        if self.sync_points.contains_key(label) {
            return Err(RtiError::InvalidSyncPoint {
                label: label.to_string(),
            });
        }
        self.sync_points.insert(label.to_string(), BTreeSet::new());
        for fs in self.federates.values_mut() {
            fs.ro_queue.push_back(Callback::SyncPointAnnounced {
                label: label.to_string(),
            });
        }
        Ok(())
    }

    pub fn achieve_sync_point(&mut self, fed: FederateHandle, label: &str) -> Result<(), RtiError> {
        self.state(fed)?;
        let achieved =
            self.sync_points
                .get_mut(label)
                .ok_or_else(|| RtiError::InvalidSyncPoint {
                    label: label.to_string(),
                })?;
        achieved.insert(fed);
        self.settle_sync_points();
        Ok(())
    }

    fn settle_sync_points(&mut self) {
        let joined: BTreeSet<FederateHandle> = self.federates.keys().copied().collect();
        let complete: Vec<String> = self
            .sync_points
            .iter()
            .filter(|(_, achieved)| joined.iter().all(|f| achieved.contains(f)))
            .map(|(label, _)| label.clone())
            .collect();
        for label in complete {
            self.sync_points.remove(&label);
            for fs in self.federates.values_mut() {
                fs.ro_queue.push_back(Callback::FederationSynchronized {
                    label: label.clone(),
                });
            }
        }
    }

    // --- Callback delivery ---------------------------------------------------

    pub fn drain_callbacks(&mut self, fed: FederateHandle) -> Result<Vec<Callback>, RtiError> {
        let fs = self.state_mut(fed)?;
        Ok(fs.ro_queue.drain(..).collect())
    }
}
