//! Multi-node cluster simulation (Section 5.3's testbed).
//!
//! Wires the microreboot-enabled servers (`urb-core` + `ebid`), the client
//! emulator (`workload`), the fault catalogue (`faults`) and the recovery
//! manager (`recovery`) into a deterministic discrete-event simulation of
//! the paper's cluster: a client-side load balancer with session affinity
//! and failover, N application-server nodes over a shared database and
//! (optionally) a shared SSM, plus hooks to inject faults and command
//! recovery at chosen instants.
//!
//! Every experiment in the `bench` crate is a [`Sim`] run.

#![forbid(unsafe_code)]

mod lb;
mod net;
mod recover;
mod sim;

pub use lb::LoadBalancer;
pub use sim::{Sim, SimConfig, SimEvent, SimQueue, StoreChoice, World};
