//! eBid — the crash-only auction application (Section 3.3).
//!
//! The paper converted Rice University's RUBiS, a J2EE auction system
//! mimicking eBay, into "eBid", a crash-only application: all long-term
//! state in a database behind entity beans with container-managed
//! persistence, all session state in FastS or SSM, stateless session beans
//! implementing each end-user operation, and compiler-enforced isolation
//! between components. This crate is that application for the `urb-core`
//! server:
//!
//! * [`schema`] — the database schema and scaled dataset generator
//!   (paper: 132 K items, 1.5 M bids, 10 K users),
//! * [`components`] — the 27 deployment descriptors with Table 3's
//!   calibrated recovery costs, including the five-bean `EntityGroup`,
//! * [`ops`] — the 25 end-user operations and their static
//!   URL → component-path map (the recovery manager's diagnosis input),
//! * `app` — the request handlers,
//! * `keygen` — the primary-key generator whose corruption Table 2
//!   injects,
//! * `emulation` — the Markov-chain workload catalog reproducing
//!   Table 1's operation mix.

#![forbid(unsafe_code)]

pub(crate) mod app;
pub mod components;
pub(crate) mod emulation;
pub(crate) mod keygen;
pub mod ops;
pub mod schema;

pub use app::EBid;
pub use emulation::catalog;
pub use schema::{schema as db_schema, DatasetSpec};

use urb_core::backend::{share_db, SessionBackend, SharedDb};
use urb_core::server::{AppServer, ServerConfig};

/// Builds a warm eBid server over a freshly generated dataset.
///
/// Convenience for tests, examples and experiments; returns the server
/// and the shared database handle.
pub fn build_server(
    spec: DatasetSpec,
    config: ServerConfig,
    session: SessionBackend,
    seed: u64,
) -> (AppServer<EBid>, SharedDb) {
    let db = share_db(spec.generate(seed));
    let server = AppServer::new(EBid::new(spec), config, db.clone(), session);
    (server, db)
}
