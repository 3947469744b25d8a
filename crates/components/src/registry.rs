//! The naming service (JNDI analogue).
//!
//! Components never hold direct references to each other; they obtain them
//! from the platform's naming service (Section 3.3: "EJBs obtain references
//! to each other from a naming service (JNDI) provided by JBoss"). The
//! registry is therefore both:
//!
//! * the indirection that makes microreboots possible — during a µRB the
//!   component's name is bound to a [`Binding::Sentinel`] so callers can be
//!   answered with `Retry-After` instead of an error (Section 6.2), and
//! * a fault-injection target — Table 2's "corrupt JNDI entries" rows set
//!   bindings to null, dangling, or wrong-component values, and an EJB-level
//!   microreboot cures them because redeployment re-binds the name.

use simcore::SimDuration;

use crate::descriptor::ComponentId;
use crate::intern::CompName;

/// What a name resolves to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Binding {
    /// The component is active and callable.
    Active(ComponentId),
    /// The component is microrebooting; callers should retry after the
    /// estimated recovery time (the `RetryAfter(t)` exception of Section 2).
    Sentinel {
        /// Estimated remaining recovery time.
        retry_after: SimDuration,
    },
    /// Injected corruption: the entry was nulled out. Lookup fails like a
    /// `NameNotFoundException`.
    Null,
    /// Injected corruption: the entry points at a container that does not
    /// exist. Invocation attempts fail immediately.
    Dangling,
    /// Injected corruption: the entry points at the *wrong* live component.
    /// Calls type-check but reach the wrong object — the hardest case to
    /// detect.
    Wrong(ComponentId),
}

/// An error looking up a name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegistryError {
    /// No binding under this name (never deployed, or nulled by fault
    /// injection).
    NotBound,
    /// The binding points at a dead container (dangling corruption).
    Dangling,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NotBound => write!(f, "name not bound"),
            RegistryError::Dangling => write!(f, "binding is dangling"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Outcome of a successful lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resolved {
    /// Call may proceed against this component.
    Component(ComponentId),
    /// Target is microrebooting; retry after the given duration.
    RetryAfter(SimDuration),
    /// The entry was corrupted to point at this *other* live component
    /// ([`Binding::Wrong`]). The lookup itself cannot tell; the invocation
    /// reaches a foreign interface and fails.
    WrongComponent(ComponentId),
}

/// The name → binding table.
///
/// # Examples
///
/// ```
/// use components::descriptor::ComponentId;
/// use components::registry::{Binding, NamingRegistry, Resolved};
///
/// let mut jndi = NamingRegistry::new();
/// jndi.bind("MakeBid", Binding::Active(ComponentId(3)));
/// assert_eq!(jndi.resolve("MakeBid"), Ok(Resolved::Component(ComponentId(3))));
/// ```
#[derive(Clone, Debug, Default)]
pub struct NamingRegistry {
    /// Bindings sorted by component name. The set is tiny (one entry per
    /// deployed component) and changes only at deploy/undeploy time, so
    /// the hot [`NamingRegistry::resolve`] path is a binary search over a
    /// dense vec — no interner mutex, no tree-node pointer chases.
    slots: Vec<(&'static str, Binding)>,
    lookups: u64,
}

impl NamingRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        NamingRegistry::default()
    }

    fn slot_of(&self, name: &str) -> Option<usize> {
        self.slots.binary_search_by(|&(n, _)| n.cmp(name)).ok()
    }

    /// Binds (or rebinds) `name`, interning it.
    pub fn bind(&mut self, name: &'static str, binding: Binding) {
        // Interning is a side effect other layers rely on (quarantine
        // matching resolves names through the interner); binding itself
        // keys on the string.
        CompName::intern(name);
        match self.slots.binary_search_by(|&(n, _)| n.cmp(name)) {
            Ok(i) => self.slots[i].1 = binding,
            Err(i) => self.slots.insert(i, (name, binding)),
        }
    }

    /// Removes the binding for `name`, returning it.
    pub fn unbind(&mut self, name: &str) -> Option<Binding> {
        let i = self.slot_of(name)?;
        Some(self.slots.remove(i).1)
    }

    /// Returns the raw binding without resolving it.
    pub fn get(&self, name: &str) -> Option<Binding> {
        self.slot_of(name).map(|i| self.slots[i].1)
    }

    /// Resolves `name` to a callable target, in one search.
    ///
    /// Note that [`Binding::Wrong`] resolves *successfully* — to the wrong
    /// component, reported as [`Resolved::WrongComponent`] (the comparison
    /// detector's oracle for JNDI corruption): the corruption is invisible
    /// at lookup time, and the caller fails only when the invocation
    /// reaches a foreign interface.
    pub fn resolve(&mut self, name: &str) -> Result<Resolved, RegistryError> {
        self.lookups += 1;
        // A name that was never bound was never deployed: NotBound.
        match self.get(name) {
            None | Some(Binding::Null) => Err(RegistryError::NotBound),
            Some(Binding::Dangling) => Err(RegistryError::Dangling),
            Some(Binding::Active(id)) => Ok(Resolved::Component(id)),
            Some(Binding::Wrong(id)) => Ok(Resolved::WrongComponent(id)),
            Some(Binding::Sentinel { retry_after }) => Ok(Resolved::RetryAfter(retry_after)),
        }
    }

    /// Returns the number of lookups served.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Returns the number of bound names (of any binding kind).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns true if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Corrupts the entry for `name` to `binding` (fault-injection surface).
    ///
    /// Returns false if the name was never bound (nothing to corrupt).
    pub fn corrupt(&mut self, name: &str, binding: Binding) -> bool {
        match self.slot_of(name) {
            Some(i) => {
                self.slots[i].1 = binding;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_resolve_unbind() {
        let mut r = NamingRegistry::new();
        r.bind("A", Binding::Active(ComponentId(0)));
        assert_eq!(r.resolve("A"), Ok(Resolved::Component(ComponentId(0))));
        assert_eq!(r.unbind("A"), Some(Binding::Active(ComponentId(0))));
        assert_eq!(r.resolve("A"), Err(RegistryError::NotBound));
        assert_eq!(r.lookups(), 2);
    }

    #[test]
    fn sentinel_resolves_to_retry() {
        let mut r = NamingRegistry::new();
        r.bind(
            "B",
            Binding::Sentinel {
                retry_after: SimDuration::from_secs(2),
            },
        );
        assert_eq!(
            r.resolve("B"),
            Ok(Resolved::RetryAfter(SimDuration::from_secs(2)))
        );
    }

    #[test]
    fn null_corruption_fails_lookup() {
        let mut r = NamingRegistry::new();
        r.bind("C", Binding::Active(ComponentId(1)));
        assert!(r.corrupt("C", Binding::Null));
        assert_eq!(r.resolve("C"), Err(RegistryError::NotBound));
    }

    #[test]
    fn dangling_corruption_fails_differently() {
        let mut r = NamingRegistry::new();
        r.bind("C", Binding::Active(ComponentId(1)));
        r.corrupt("C", Binding::Dangling);
        assert_eq!(r.resolve("C"), Err(RegistryError::Dangling));
    }

    #[test]
    fn wrong_corruption_resolves_to_wrong_component() {
        let mut r = NamingRegistry::new();
        r.bind("C", Binding::Active(ComponentId(1)));
        r.corrupt("C", Binding::Wrong(ComponentId(7)));
        assert_eq!(r.resolve("C"), Ok(Resolved::WrongComponent(ComponentId(7))));
        // Rebinding during redeployment cures it.
        r.bind("C", Binding::Active(ComponentId(1)));
        assert_eq!(r.resolve("C"), Ok(Resolved::Component(ComponentId(1))));
    }

    #[test]
    fn corrupting_unbound_name_reports_false() {
        let mut r = NamingRegistry::new();
        assert!(!r.corrupt("Ghost", Binding::Null));
        assert!(r.is_empty());
    }
}
