//! Experiment harness for the microreboot reproduction.
//!
//! One row of [`exp::EXPERIMENTS`] per table/figure of the paper, each
//! printing the same rows/series the paper reports, side by side with the
//! paper's numbers where the paper gives them. The chaos campaigns run
//! through [`chaos::run_scenario`]; per-layer micro-benchmarks live in the
//! repo's benchmark package (`benchmark/`).
//!
//! Everything is driven by the crate's one binary, `urb`:
//!
//! ```text
//! cargo run --release -p bench -- exp table3      # one experiment (`exp list` names them)
//! cargo run --release -p bench -- exp all         # the whole evaluation: experiments_output.txt
//! cargo run --release -p bench -- chaos --seed 7 --runs 64 --strict
//! cargo run --release -p bench -- trace record target/t.jsonl --seed 7
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod exp;
pub mod netstate;
pub mod report;
