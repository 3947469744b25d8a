//! Segregated state stores for crash-only applications.
//!
//! The microreboot paper's central design rule (Section 2) is *state
//! segregation*: all important application state lives outside the
//! application, behind strongly-enforced high-level APIs, so that data
//! recovery is completely separated from (reboot-based) process recovery.
//! This crate provides the three stores the eBid prototype uses:
//!
//! * [`db::Database`] — the persistence tier: a transactional table store
//!   standing in for MySQL. Atomic commit/rollback (transactions open at
//!   microreboot time are aborted and rolled back), crash safety, and an
//!   out-of-band corruption/repair surface for the fault-injection
//!   experiments of Table 2.
//! * [`fasts::FastS`] — an in-process session store. Fast (no marshalling,
//!   no network), survives microreboots, but is lost on a process restart —
//!   exactly the trade-off behind Figure 1's post-restart failures.
//! * [`ssm::Ssm`] — an external, replicated session store with lease-based
//!   garbage collection and per-object checksums: slower, but survives
//!   microreboots, process restarts and node reboots, and automatically
//!   discards corrupted objects (Table 2's "corruption detected via
//!   checksum" row).
//!
//! All stores implement [`session::SessionStore`] and report per-operation
//! access costs so the simulated server can account for them (Table 5's
//! FastS-vs-SSM latency comparison).

#![forbid(unsafe_code)]

pub mod db;
pub mod fasts;
pub mod ledger;
pub mod session;
pub mod ssm;
pub mod value;

pub use db::{Database, DbError, TableId, TxnId};
pub use fasts::FastS;
pub use ledger::{shared_ledger, IntegrityLedger, SharedLedger};
pub use session::{SessionId, SessionObject, SessionStore, StoreError};
pub use ssm::Ssm;
pub use value::Value;
