//! A miniature sim crate with a determinism violation, used to prove the
//! binary exits nonzero under `--deny-all`.
use std::collections::HashMap;

pub struct Tracker {
    pub counts: HashMap<u64, u64>,
}

static mut TOTALS: u64 = 0;

// urb-lint: allow(D003) — wall-clock call below was removed long ago.
pub fn now_ms() -> u64 {
    0
}
