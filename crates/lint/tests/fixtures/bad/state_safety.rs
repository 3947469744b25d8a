//! State-safety fixture: mutable globals, which no reboot wipes.
use std::cell::RefCell;
use std::sync::atomic::AtomicU64;

static mut GLOBAL_HITS: u64 = 0;
thread_local! { static LOCAL: RefCell<u64> = RefCell::new(0); }
static BYTES: AtomicU64 = AtomicU64::new(0);
static NAME: &'static str = "constant, not state";
