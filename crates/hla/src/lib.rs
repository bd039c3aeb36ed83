//! A miniature HLA 1.3-style Run-Time Infrastructure (RTI).
//!
//! The paper evaluates the adaptive distance filter inside a distributed
//! simulation built on the DMSO HLA RTI 1.3 — a closed-source US-DoD
//! middleware — as three federates: mobile node, ADF and grid broker
//! (Figure 3). This crate reimplements the slice of HLA that federation
//! uses, as an in-process, deterministic library:
//!
//! * **Federation management** — create and join federation executions
//!   ([`Rti::create_federation`], [`Rti::join`]) and synchronization points,
//! * **Declaration management** — a federation object model
//!   ([`ObjectModel`]) of object classes and attributes, with
//!   publish/subscribe,
//! * **Object management** — register object instances, update attribute
//!   values, reflections of the subscribed attributes delivered to
//!   subscribers ([`Federate::update_attributes`] →
//!   [`Callback::ReflectAttributes`]),
//! * **Time management** — time-regulating and time-constrained federates
//!   with lookahead, conservative time-advance grants, and timestamp-order
//!   (TSO) message delivery.
//!
//! Federates drain their callback queues explicitly with
//! [`Federate::tick`], mirroring HLA's `tick()` evoked-callback model, which
//! keeps multi-federate executions single-threaded and bit-reproducible.
//! The handle types are `Send + Sync` (the core lives behind a
//! [`std::sync::Mutex`]), so federates may also run from separate threads —
//! see the `threaded` integration test. The experiments crate's
//! `federated` experiment runs the paper's three-federate pipeline on it.
//!
//! # Examples
//!
//! A two-federate federation exchanging a timestamped attribute update:
//!
//! ```
//! use mobigrid_hla::{Callback, FedTime, ObjectModel, Rti};
//!
//! let mut fom = ObjectModel::new();
//! let mn = fom.add_object_class("MobileNode");
//! let pos = fom.add_attribute(mn, "position").unwrap();
//!
//! let rti = Rti::new();
//! rti.create_federation("campus", fom).unwrap();
//! let sender = rti.join("campus", "node-federate").unwrap();
//! let broker = rti.join("campus", "broker-federate").unwrap();
//!
//! sender.publish_object_class(mn).unwrap();
//! broker.subscribe_object_class(mn, &[pos]).unwrap();
//! sender.enable_time_regulation(FedTime::from_secs_f64(0.5)).unwrap();
//! broker.enable_time_constrained().unwrap();
//!
//! let obj = sender.register_object(mn).unwrap();
//! broker.tick().unwrap(); // discover the object
//!
//! sender
//!     .update_attributes(obj, vec![(pos, b"12.5,7.5".to_vec())], Some(FedTime::from_secs_f64(1.0)))
//!     .unwrap();
//! sender.request_time_advance(FedTime::from_secs_f64(1.0)).unwrap();
//! broker.request_time_advance(FedTime::from_secs_f64(1.0)).unwrap();
//!
//! let events = broker.tick().unwrap();
//! assert!(events.iter().any(|e| matches!(e, Callback::ReflectAttributes { .. })));
//! assert!(events.iter().any(|e| matches!(e, Callback::TimeAdvanceGrant { .. })));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod callback;
mod error;
mod federation;
mod fom;
mod handles;
mod rti;
mod time;
mod time_mgmt;

pub use callback::{AttributeValues, Callback};
pub use error::RtiError;
pub use fom::ObjectModel;
pub use handles::{AttributeHandle, FederateHandle, ObjectClassHandle, ObjectHandle};
pub use rti::{Federate, Rti};
pub use time::FedTime;
