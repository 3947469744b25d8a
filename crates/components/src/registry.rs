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

/// The name → binding table, keyed by the name's deployment handle.
///
/// Deployment resolves each component *name* once, into its dense
/// [`ComponentId`]; callers hold that handle and the table is indexed by
/// it. The indirection itself stays: every invocation still resolves its
/// handle here, so a sentinel bound between two calls of one request, or
/// an injected corruption, is seen by the very next call.
///
/// # Examples
///
/// ```
/// use components::descriptor::ComponentId;
/// use components::registry::{Binding, NamingRegistry, Resolved};
///
/// let make_bid = ComponentId(3);
/// let mut jndi = NamingRegistry::new();
/// jndi.bind(make_bid, Binding::Active(make_bid));
/// assert_eq!(jndi.resolve(make_bid), Ok(Resolved::Component(make_bid)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct NamingRegistry {
    /// One slot per handle; `None` = nothing bound under it (never
    /// deployed, or unbound by a teardown).
    slots: Vec<Option<Binding>>,
}

impl NamingRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        NamingRegistry::default()
    }

    /// Binds (or rebinds) `name`.
    pub fn bind(&mut self, name: ComponentId, binding: Binding) {
        if name.0 >= self.slots.len() {
            self.slots.resize(name.0 + 1, None);
        }
        self.slots[name.0] = Some(binding);
    }

    /// Removes the binding for `name`, returning it.
    pub fn unbind(&mut self, name: ComponentId) -> Option<Binding> {
        self.slots.get_mut(name.0)?.take()
    }

    /// Resolves `name` to a callable target.
    ///
    /// Note that [`Binding::Wrong`] resolves *successfully* — to the wrong
    /// component, reported as [`Resolved::WrongComponent`] (the comparison
    /// detector's oracle for JNDI corruption): the corruption is invisible
    /// at lookup time, and the caller fails only when the invocation
    /// reaches a foreign interface.
    pub fn resolve(&self, name: ComponentId) -> Result<Resolved, RegistryError> {
        // A name that was never bound was never deployed: NotBound.
        match self.slots.get(name.0).copied().flatten() {
            None | Some(Binding::Null) => Err(RegistryError::NotBound),
            Some(Binding::Dangling) => Err(RegistryError::Dangling),
            Some(Binding::Active(id)) => Ok(Resolved::Component(id)),
            Some(Binding::Wrong(id)) => Ok(Resolved::WrongComponent(id)),
            Some(Binding::Sentinel { retry_after }) => Ok(Resolved::RetryAfter(retry_after)),
        }
    }

    /// Corrupts the entry for `name` to `binding` (fault-injection surface).
    ///
    /// Returns false if the name is not bound (nothing to corrupt).
    pub fn corrupt(&mut self, name: ComponentId, binding: Binding) -> bool {
        match self.slots.get_mut(name.0) {
            Some(slot @ Some(_)) => {
                *slot = Some(binding);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ComponentId = ComponentId(0);
    const C: ComponentId = ComponentId(1);

    #[test]
    fn bind_resolve_unbind() {
        let mut r = NamingRegistry::new();
        r.bind(A, Binding::Active(A));
        assert_eq!(r.resolve(A), Ok(Resolved::Component(A)));
        assert_eq!(r.unbind(A), Some(Binding::Active(A)));
        assert_eq!(r.resolve(A), Err(RegistryError::NotBound));
    }

    #[test]
    fn sentinel_resolves_to_retry() {
        let mut r = NamingRegistry::new();
        r.bind(
            C,
            Binding::Sentinel {
                retry_after: SimDuration::from_secs(2),
            },
        );
        assert_eq!(
            r.resolve(C),
            Ok(Resolved::RetryAfter(SimDuration::from_secs(2)))
        );
    }

    #[test]
    fn null_corruption_fails_lookup() {
        let mut r = NamingRegistry::new();
        r.bind(C, Binding::Active(C));
        assert!(r.corrupt(C, Binding::Null));
        assert_eq!(r.resolve(C), Err(RegistryError::NotBound));
    }

    #[test]
    fn dangling_corruption_fails_differently() {
        let mut r = NamingRegistry::new();
        r.bind(C, Binding::Active(C));
        r.corrupt(C, Binding::Dangling);
        assert_eq!(r.resolve(C), Err(RegistryError::Dangling));
    }

    #[test]
    fn wrong_corruption_resolves_to_wrong_component() {
        let mut r = NamingRegistry::new();
        r.bind(C, Binding::Active(C));
        r.corrupt(C, Binding::Wrong(ComponentId(7)));
        assert_eq!(r.resolve(C), Ok(Resolved::WrongComponent(ComponentId(7))));
        // Rebinding during redeployment cures it.
        r.bind(C, Binding::Active(C));
        assert_eq!(r.resolve(C), Ok(Resolved::Component(C)));
    }

    #[test]
    fn corrupting_unbound_name_reports_false() {
        let mut r = NamingRegistry::new();
        assert!(!r.corrupt(ComponentId(9), Binding::Null));
        r.bind(C, Binding::Active(C));
        assert!(!r.corrupt(A, Binding::Null), "a gap below a bound slot");
        assert_eq!(r.resolve(A), Err(RegistryError::NotBound));
    }
}
