//! Client emulation and availability metrics (Section 4 of the paper).
//!
//! The paper evaluates recovery with a client emulator: human users are
//! modeled as a Markov chain over the application's end-user operations,
//! with exponentially distributed think times (mean 7 s, capped at 70 s,
//! after TPC-W). Availability is measured with **action-weighted
//! throughput** (`Taw`): a user *action* is a sequence of operations
//! culminating in a commit point, and it succeeds or fails atomically — if
//! any operation fails, every operation of the action is retroactively
//! marked failed.
//!
//! * [`catalog`] — operation metadata and the Markov transition matrix
//!   (applications provide their own catalog; eBid's lives in the `ebid`
//!   crate),
//! * [`client`] — the emulated client population (think times, cookies,
//!   transparent `Retry-After` handling, re-login after session loss),
//! * [`taw`] — the Taw tracker: per-second good/bad series, response
//!   times, functional-group availability gaps,
//! * [`detect`] — the two failure detectors of Section 4 (simple
//!   end-to-end and comparison-based) producing failure reports for the
//!   recovery manager,
//! * [`perf`] — the performance-observability plane's windowed baseline
//!   tracker: freezes pre-fault latency/throughput baselines, raises
//!   fail-slow anomalies, and gates recovery on performance parity.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod client;
pub mod detect;
pub mod perf;
pub mod taw;

pub use catalog::{ArgKind, Catalog, FunctionalGroup, MixClass, OpSpec};
pub use client::{ClientPool, ClientPoolConfig, DeliverOutcome, OutgoingRequest, RetryPolicy};
pub use detect::{DetectorKind, FailureKind, FailureReport};
pub use perf::{PerfEvent, PerfTracker};
pub use taw::{TawSummary, TawTracker};
