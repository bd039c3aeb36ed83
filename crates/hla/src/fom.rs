use std::collections::BTreeMap;

use crate::{AttributeHandle, ObjectClassHandle, RtiError};

#[derive(Debug, Clone, PartialEq, Eq)]
struct ObjectClassDef {
    name: String,
    attributes: BTreeMap<AttributeHandle, String>,
}

/// The federation object model (FOM): the declared object classes with
/// their attributes.
///
/// In HLA 1.3 this is the `.fed` file parsed at federation creation; here it
/// is built programmatically and attached to
/// [`Rti::create_federation`](crate::Rti::create_federation).
///
/// # Examples
///
/// ```
/// use mobigrid_hla::ObjectModel;
///
/// let mut fom = ObjectModel::new();
/// let mn = fom.add_object_class("MobileNode");
/// let pos = fom.add_attribute(mn, "position").unwrap();
/// let vel = fom.add_attribute(mn, "velocity").unwrap();
/// assert!(fom.class_has_attribute(mn, pos));
/// assert_ne!(pos, vel);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectModel {
    object_classes: BTreeMap<ObjectClassHandle, ObjectClassDef>,
    next_class: u32,
    next_attribute: u32,
}

impl ObjectModel {
    /// Creates an empty FOM.
    #[must_use]
    pub fn new() -> Self {
        ObjectModel::default()
    }

    /// Declares an object class. Duplicate names are allowed by HLA (they
    /// would be hierarchical there); here later declarations simply get
    /// distinct handles.
    pub fn add_object_class(&mut self, name: impl Into<String>) -> ObjectClassHandle {
        let handle = ObjectClassHandle::from_raw(self.next_class);
        self.next_class += 1;
        self.object_classes.insert(
            handle,
            ObjectClassDef {
                name: name.into(),
                attributes: BTreeMap::new(),
            },
        );
        handle
    }

    /// Declares an attribute of `class`.
    ///
    /// # Errors
    ///
    /// Returns [`RtiError::UnknownHandle`] for an undeclared class and
    /// [`RtiError::DuplicateName`] when the class already has an attribute
    /// of that name.
    pub fn add_attribute(
        &mut self,
        class: ObjectClassHandle,
        name: impl Into<String>,
    ) -> Result<AttributeHandle, RtiError> {
        let name = name.into();
        let def = self
            .object_classes
            .get_mut(&class)
            .ok_or(RtiError::UnknownHandle)?;
        if def.attributes.values().any(|n| *n == name) {
            return Err(RtiError::DuplicateName { name });
        }
        let handle = AttributeHandle::from_raw(self.next_attribute);
        self.next_attribute += 1;
        def.attributes.insert(handle, name);
        Ok(handle)
    }

    /// The name of an object class.
    #[must_use]
    pub fn object_class_name(&self, class: ObjectClassHandle) -> Option<&str> {
        self.object_classes.get(&class).map(|d| d.name.as_str())
    }

    /// Whether `class` is declared.
    #[must_use]
    pub fn has_object_class(&self, class: ObjectClassHandle) -> bool {
        self.object_classes.contains_key(&class)
    }

    /// Whether `attribute` belongs to `class`.
    #[must_use]
    pub fn class_has_attribute(
        &self,
        class: ObjectClassHandle,
        attribute: AttributeHandle,
    ) -> bool {
        self.object_classes
            .get(&class)
            .is_some_and(|d| d.attributes.contains_key(&attribute))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declares_classes_and_attributes() {
        let mut fom = ObjectModel::new();
        let mn = fom.add_object_class("MobileNode");
        let pos = fom.add_attribute(mn, "position").unwrap();
        assert!(fom.has_object_class(mn));
        assert!(fom.class_has_attribute(mn, pos));
        assert_eq!(fom.object_class_name(mn), Some("MobileNode"));
    }

    #[test]
    fn duplicate_attribute_names_rejected() {
        let mut fom = ObjectModel::new();
        let mn = fom.add_object_class("MobileNode");
        fom.add_attribute(mn, "position").unwrap();
        assert!(matches!(
            fom.add_attribute(mn, "position"),
            Err(RtiError::DuplicateName { .. })
        ));
    }

    #[test]
    fn attribute_on_unknown_class_rejected() {
        let mut fom = ObjectModel::new();
        let ghost = ObjectClassHandle::from_raw(99);
        assert_eq!(fom.add_attribute(ghost, "x"), Err(RtiError::UnknownHandle));
    }

    #[test]
    fn handles_are_globally_unique() {
        let mut fom = ObjectModel::new();
        let a = fom.add_object_class("A");
        let b = fom.add_object_class("B");
        let ax = fom.add_attribute(a, "x").unwrap();
        let bx = fom.add_attribute(b, "x").unwrap();
        assert_ne!(ax, bx);
        assert!(!fom.class_has_attribute(a, bx));
    }
}
