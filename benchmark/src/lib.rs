//! `urbmark`: the repository's end-to-end and per-layer benchmark.
//!
//! Everything is measured from outside, through public functions of the
//! `microreboot` facade crate. See `README.md` beside this package.

pub mod alloc;
pub mod calib;
pub mod cli;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
