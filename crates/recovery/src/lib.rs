//! The recovery manager (RM) of Section 4.
//!
//! The RM listens for failure reports from the client-side monitors (each
//! carrying the failed URL and failure type), diagnoses by *scoring*: a
//! static URL-prefix → component-path map attributes each failed request
//! to the components on its path, and the component accumulating the most
//! suspicion is recovered first. Diagnosis is deliberately simplistic —
//! "our simplistic approach often yields false positives, but part of our
//! goal is to show that even the mistakes resulting from sloppy diagnosis
//! are tolerable because of the very low cost of µRBs."
//!
//! Recovery follows the **recursive recovery policy**: try the cheapest
//! action first, escalating through progressively larger reboots when the
//! failure persists — EJB microreboot, then the WAR, then the whole
//! application, then the JVM process, then the operating system, then a
//! human (Section 4). Recurring failure patterns also notify a human.
//!
//! The [`conductor`] module schedules the manager's decisions: it expands
//! actions to recovery groups, coalesces overlapping microreboots, runs
//! non-conflicting ones concurrently, and publishes quarantine sets for
//! admission-level shedding during recovery.

#![forbid(unsafe_code)]

mod breaker;
pub mod conductor;
mod evidence;
mod hedge;
mod ladder;
mod manager;
mod policy;
mod rung;

pub use conductor::{Conductor, ConductorConfig, Finished, StartCmd, Submission, TicketId};
pub use manager::{RecoveryAction, RecoveryManager, RmConfig, RmStats};
pub use policy::{PolicyChoice, PolicyLevel};
