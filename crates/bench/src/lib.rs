//! Experiment harness for the microreboot reproduction.
//!
//! One binary per table/figure of the paper (see `src/bin/exp_*.rs`), each
//! printing the same rows/series the paper reports, side by side with the
//! paper's numbers where the paper gives them. The chaos campaigns
//! (`urb-chaos`) run through [`chaos::run_scenario`]; per-layer
//! micro-benchmarks live in the repo's benchmark package (`benchmark/`).
//!
//! Run a single experiment with e.g.
//! `cargo run --release -p bench --bin exp_table3`.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod kernel;
pub mod netstate;
pub mod report;

pub use report::Table;
