//! The microreboot-enabled application server — the paper's contribution.
//!
//! This crate implements the system described in Sections 2–3 of
//! *Microreboot — A Technique for Cheap Recovery* (Candea, Kawamoto,
//! Fujiki, Friedman & Fox, OSDI 2004): an application server for crash-only
//! component applications, extended with a microreboot method that can
//! surgically recover individual components (and their recovery groups)
//! without disturbing the rest of the application — plus the machinery the
//! paper's evaluation exercises:
//!
//! * [`server::AppServer`] — the composition root: containers, naming,
//!   the request execution path and the fault-injection hooks of
//!   Section 5.1,
//! * [`pipeline::RequestPipeline`] — admission, execution bookkeeping and
//!   the kill paths,
//! * [`lifecycle::RecoveryLifecycle`] — one state machine over every
//!   recovery depth (microreboot / app restart / process restart / OS
//!   reboot), driven by [`RebootLevel`](server::RebootLevel),
//! * [`context::CallContext`] — the capability handle application code
//!   runs against (component calls, transactions, session state),
//! * [`rejuvenation::RejuvenationService`] — rolling microrejuvenation
//!   (Section 6.4),
//! * [`calib`] — the paper's measured costs, cited constant by constant.
//!
//! The server is deterministic and passive over simulated time
//! ([`simcore`]); the `cluster` crate wires it into multi-node experiments.

#![forbid(unsafe_code)]

pub mod app;
pub mod backend;
pub mod calib;
pub mod context;
pub mod heap;
pub mod lifecycle;
pub mod pipeline;
pub mod rejuvenation;
pub mod request;
pub mod server;
pub mod testkit;
pub mod workers;

pub use app::{Application, CallError};
pub use backend::{share_db, share_ssm, SessionBackend, SharedDb, SharedSsm};
pub use context::CallContext;
pub use rejuvenation::{RejuvenationAction, RejuvenationService};
pub use request::{BodyMarkers, OpCode, ReqId, Request, Response, Status};
pub use server::{
    AppServer, ProcState, RebootError, RebootLevel, RebootTicket, ServerConfig, ServerFault,
    ServerStats, Started, SubmitOutcome,
};
