//! The component dependency graph and recovery-group computation.
//!
//! "Some EJBs cannot be microrebooted individually, because EJBs might
//! maintain references to other EJBs and because certain metadata
//! relationships can span containers. Thus, whenever an EJB is
//! microrebooted, we microreboot the transitive closure of its inter-EJB
//! dependents as a group." (Section 3.2)
//!
//! Recovery groups are the connected components of the *hard* (group-
//! forming) reference relation, treated as undirected: if A's container
//! metadata spans into B, rebooting either requires rebooting both. Weak
//! JNDI references are kept too — they drive deployment ordering and the
//! recovery manager's URL→component diagnosis — but they do not enlarge
//! recovery groups.

use std::collections::BTreeMap;

use crate::descriptor::{ComponentDescriptor, ComponentId};

/// An error constructing a dependency graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// Two components share a name.
    DuplicateName(&'static str),
    /// A reference names a component that is not deployed.
    UnknownReference {
        /// The referencing component.
        from: &'static str,
        /// The missing referent.
        to: &'static str,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DuplicateName(n) => write!(f, "duplicate component name {n}"),
            GraphError::UnknownReference { from, to } => {
                write!(f, "component {from} references unknown component {to}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// The dependency graph over one application's components.
#[derive(Clone, Debug)]
pub struct DependencyGraph {
    names: Vec<&'static str>,
    by_name: BTreeMap<&'static str, ComponentId>,
    /// Recovery-group index per component; groups are numbered densely.
    group_of: Vec<usize>,
    groups: Vec<Vec<ComponentId>>,
}

impl DependencyGraph {
    /// Builds the graph from descriptors, validating all references.
    pub fn build(descriptors: &[ComponentDescriptor]) -> Result<Self, GraphError> {
        let mut by_name = BTreeMap::new();
        let mut names = Vec::with_capacity(descriptors.len());
        for (i, d) in descriptors.iter().enumerate() {
            if by_name.insert(d.name, ComponentId(i)).is_some() {
                return Err(GraphError::DuplicateName(d.name));
            }
            names.push(d.name);
        }
        let look = |from: &'static str, to: &'static str| {
            by_name
                .get(to)
                .copied()
                .ok_or(GraphError::UnknownReference { from, to })
        };
        let n = descriptors.len();
        // Hard references, undirected.
        let mut group_adj = vec![Vec::new(); n];
        for (i, d) in descriptors.iter().enumerate() {
            // Weak (naming-service) references only need to resolve.
            for r in d.jndi_refs {
                look(d.name, r)?;
            }
            for r in d.group_refs {
                let j = look(d.name, r)?;
                group_adj[i].push(j);
                group_adj[j.0].push(ComponentId(i));
            }
        }
        // Connected components over the undirected hard-reference relation.
        let mut group_of = vec![usize::MAX; n];
        let mut groups: Vec<Vec<ComponentId>> = Vec::new();
        for start in 0..n {
            if group_of[start] != usize::MAX {
                continue;
            }
            let gid = groups.len();
            let mut members = Vec::new();
            let mut stack = vec![start];
            group_of[start] = gid;
            while let Some(v) = stack.pop() {
                members.push(ComponentId(v));
                for w in &group_adj[v] {
                    if group_of[w.0] == usize::MAX {
                        group_of[w.0] = gid;
                        stack.push(w.0);
                    }
                }
            }
            members.sort_unstable();
            groups.push(members);
        }
        Ok(DependencyGraph {
            names,
            by_name,
            group_of,
            groups,
        })
    }

    /// Returns the number of components.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns true if the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Looks a component up by name.
    pub fn id_of(&self, name: &str) -> Option<ComponentId> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of a component.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (an id from a different graph).
    pub fn name_of(&self, id: ComponentId) -> &'static str {
        self.names[id.0]
    }

    /// Returns every component id, in order.
    pub fn all_ids(&self) -> impl Iterator<Item = ComponentId> + '_ {
        (0..self.names.len()).map(ComponentId)
    }

    /// Returns the recovery group containing `id`: the set of components
    /// that must microreboot together, always including `id` itself.
    pub fn recovery_group(&self, id: ComponentId) -> &[ComponentId] {
        &self.groups[self.group_of[id.0]]
    }

    /// Returns all recovery groups (each sorted, densely numbered).
    pub fn recovery_groups(&self) -> &[Vec<ComponentId>] {
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::ComponentKind;

    fn d(
        name: &'static str,
        jndi: &'static [&'static str],
        group: &'static [&'static str],
    ) -> ComponentDescriptor {
        ComponentDescriptor::new(name, ComponentKind::EntityBean)
            .with_jndi_refs(jndi)
            .with_group_refs(group)
    }

    #[test]
    fn recovery_groups_are_connected_components() {
        // Mirror of eBid's structure: five entities linked by CMR metadata,
        // two standalone entities, one session bean with weak refs only.
        let graph = DependencyGraph::build(&[
            d("Category", &[], &[]),
            d("Region", &[], &[]),
            d("User", &[], &[]),
            d("Item", &[], &["Category", "Region", "User"]),
            d("Bid", &[], &["Item", "User"]),
            d("OldItem", &[], &[]),
            d("IdManager", &[], &[]),
            d("MakeBid", &["User", "Item", "Bid"], &[]),
        ])
        .unwrap();

        let item = graph.id_of("Item").unwrap();
        let group: Vec<&str> = graph
            .recovery_group(item)
            .iter()
            .map(|id| graph.name_of(*id))
            .collect();
        assert_eq!(group, vec!["Category", "Region", "User", "Item", "Bid"]);

        // Weak references do not join the group.
        let makebid = graph.id_of("MakeBid").unwrap();
        assert_eq!(graph.recovery_group(makebid), &[makebid]);

        let oi = graph.id_of("OldItem").unwrap();
        assert_eq!(graph.recovery_group(oi), &[oi]);
    }

    #[test]
    fn group_membership_is_symmetric_and_transitive() {
        let graph =
            DependencyGraph::build(&[d("A", &[], &["B"]), d("B", &[], &["C"]), d("C", &[], &[])])
                .unwrap();
        let a = graph.id_of("A").unwrap();
        let c = graph.id_of("C").unwrap();
        assert_eq!(graph.recovery_group(a), graph.recovery_group(c));
        assert_eq!(graph.recovery_group(a).len(), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = DependencyGraph::build(&[d("X", &[], &[]), d("X", &[], &[])]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateName("X"));
    }

    #[test]
    fn unknown_reference_rejected() {
        let err = DependencyGraph::build(&[d("X", &["Ghost"], &[])]).unwrap_err();
        assert_eq!(
            err,
            GraphError::UnknownReference {
                from: "X",
                to: "Ghost"
            }
        );
    }

    #[test]
    fn lookup_roundtrip() {
        let graph = DependencyGraph::build(&[d("Solo", &[], &[])]).unwrap();
        let id = graph.id_of("Solo").unwrap();
        assert_eq!(graph.name_of(id), "Solo");
        assert_eq!(graph.id_of("Missing"), None);
        assert_eq!(graph.len(), 1);
        assert!(!graph.is_empty());
    }
}
