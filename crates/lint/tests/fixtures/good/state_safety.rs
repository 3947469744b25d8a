//! Clean counterpart: the one global is pragma'd, and the pragma is live
//! (a stale one would be P002).
use std::sync::{Mutex, OnceLock};

// urb-lint: allow(S002) — append-only symbol table; identity, not sim state.
static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();

pub fn limit(x: &'static str) -> usize {
    x.len()
}
