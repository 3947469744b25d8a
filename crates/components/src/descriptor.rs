//! Component descriptors — the deployment-descriptor analogue.
//!
//! In J2EE, XML deployment descriptors tell the application server what
//! components exist, what they reference, and how to wire them. The paper
//! mines exactly this information to compute recovery groups (Section 3.2).
//! Here a [`ComponentDescriptor`] carries the same facts plus the calibrated
//! crash/reinitialization costs that drive the recovery-time model
//! (Table 3).

use simcore::SimDuration;

/// Dense identifier of a deployed component within one application.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ComponentId(pub usize);

/// The kind of a component, which determines its lifecycle and state rules.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ComponentKind {
    /// An entity bean: a persistent application object whose instance state
    /// maps to database rows (container-managed persistence).
    EntityBean,
    /// A stateless session bean: implements one end-user operation by
    /// orchestrating entity beans; holds no conversational state.
    StatelessSessionBean,
    /// The web component (WAR): servlets/JSPs that parse requests, invoke
    /// beans and render responses.
    Web,
}

/// Static description of one component, as a deployment descriptor would
/// carry it.
#[derive(Clone, Debug)]
pub struct ComponentDescriptor {
    /// Unique component name (the JNDI name).
    pub name: &'static str,
    /// What kind of component this is.
    pub kind: ComponentKind,
    /// Names of components this one obtains via the naming service and may
    /// cache. Weak: re-looked-up after a microreboot, so they do *not*
    /// force joint recovery.
    pub(crate) jndi_refs: &'static [&'static str],
    /// Names of components with which this one shares container-spanning
    /// metadata (e.g., container-managed relationships between entity
    /// beans). Hard: they force joint microreboots and define recovery
    /// groups.
    pub(crate) group_refs: &'static [&'static str],
    /// The business methods the component exposes; the container builds
    /// its transaction method map from them at every (re)initialization.
    pub methods: &'static [&'static str],
    /// Calibrated time to forcefully destroy the component's instances and
    /// metadata (Table 3 "crash" column; ~8–15 ms for eBid's EJBs).
    pub crash_cost: SimDuration,
    /// Calibrated time to redeploy and reinitialize after a crash (Table 3
    /// "reinit" column; ~400–790 ms for eBid's EJBs).
    pub reinit_cost: SimDuration,
    /// Baseline heap footprint once initialized, in bytes (instance pool,
    /// container metadata, stubs). Feeds the rejuvenation experiments.
    pub(crate) base_bytes: u64,
}

impl ComponentDescriptor {
    /// Returns the mean full microreboot cost (crash + reinit).
    pub fn microreboot_cost(&self) -> SimDuration {
        self.crash_cost + self.reinit_cost
    }
}

/// Builder-style convenience for tests and small applications.
///
/// # Examples
///
/// ```
/// use components::descriptor::{ComponentDescriptor, ComponentKind};
/// use simcore::SimDuration;
///
/// let d = ComponentDescriptor::new("MakeBid", ComponentKind::StatelessSessionBean)
///     .with_jndi_refs(&["User", "Item", "Bid"])
///     .with_costs(SimDuration::from_millis(9), SimDuration::from_millis(515));
/// assert_eq!(d.microreboot_cost(), SimDuration::from_millis(524));
/// ```
impl ComponentDescriptor {
    /// Creates a descriptor with no references, no methods and zero costs.
    pub fn new(name: &'static str, kind: ComponentKind) -> Self {
        ComponentDescriptor {
            name,
            kind,
            jndi_refs: &[],
            group_refs: &[],
            methods: &[],
            crash_cost: SimDuration::ZERO,
            reinit_cost: SimDuration::ZERO,
            base_bytes: 2 << 20,
        }
    }

    /// Sets the weak (naming-service) references.
    pub fn with_jndi_refs(mut self, refs: &'static [&'static str]) -> Self {
        self.jndi_refs = refs;
        self
    }

    /// Sets the hard (recovery-group-forming) references.
    pub fn with_group_refs(mut self, refs: &'static [&'static str]) -> Self {
        self.group_refs = refs;
        self
    }

    /// Sets the business methods.
    pub fn with_methods(mut self, methods: &'static [&'static str]) -> Self {
        self.methods = methods;
        self
    }

    /// Sets the calibrated crash and reinit costs.
    pub fn with_costs(mut self, crash: SimDuration, reinit: SimDuration) -> Self {
        self.crash_cost = crash;
        self.reinit_cost = reinit;
        self
    }

    /// Sets the baseline heap footprint.
    pub fn with_base_bytes(mut self, bytes: u64) -> Self {
        self.base_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let d = ComponentDescriptor::new("Item", ComponentKind::EntityBean)
            .with_group_refs(&["User", "Category"])
            .with_costs(SimDuration::from_millis(10), SimDuration::from_millis(500))
            .with_base_bytes(1 << 20)
            .with_methods(&["load", "store"]);
        assert_eq!(d.name, "Item");
        assert_eq!(d.kind, ComponentKind::EntityBean);
        assert_eq!(d.group_refs, &["User", "Category"]);
        assert_eq!(d.base_bytes, 1 << 20);
        assert_eq!(d.methods, &["load", "store"]);
        assert_eq!(d.microreboot_cost(), SimDuration::from_millis(510));
    }
}
