//! The crash-only component model.
//!
//! Section 2 of the microreboot paper gives the recipe for microrebootable
//! software: fine-grain, well-isolated components; all important state in
//! dedicated stores; loose coupling (no direct references across component
//! boundaries — references live in the platform's naming service); and
//! leased resources. This crate is the passive half of that recipe — the
//! data model the application server (crate `urb-core`) orchestrates:
//!
//! * [`descriptor`] — component descriptors: kind, declared references,
//!   calibrated crash/reinit costs (the deployment-descriptor analogue),
//! * [`graph`] — the dependency graph and the *recovery group* computation:
//!   the transitive closure of container-spanning references that must be
//!   microrebooted together (eBid's `EntityGroup`),
//! * [`registry`] — the JNDI-like naming service mapping component names
//!   (held as their deployment handles) to bindings, including the `Sentinel` binding used to mask microreboots
//!   with call-level retries (Section 6.2) and the corruption surface used
//!   by Table 2's "corrupt JNDI entries" faults,
//! * [`container`] — per-component containers: lifecycle state, instance
//!   pools, transaction-method-map metadata, memory accounting and the
//!   fault flags that microreboots clear.

#![forbid(unsafe_code)]

pub mod container;
pub mod descriptor;
pub mod graph;
pub mod registry;

pub use container::{Container, ContainerState, InstancePool, TxnMethodMap};
pub use registry::{Binding, NamingRegistry, RegistryError};
