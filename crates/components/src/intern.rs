//! Interned component names.
//!
//! Component names originate as `&'static str` literals in deployment
//! descriptors, but everything downstream of one server — recovery
//! actions, the conductor's conflict sets, the LB's quarantine sets —
//! wants a small `Copy` identifier it can compare, hash and store without
//! threading `'static` lifetimes through every layer. [`CompName`] is that
//! identifier: a process-wide interned symbol. Interning the same string
//! twice yields the same symbol, and [`CompName::as_str`] recovers the
//! original name for display and for the graph APIs that still speak
//! strings.
//!
//! The interner is a global table behind a `Mutex` (a server interns its
//! descriptor names once, when it is built; the request path holds
//! `ComponentId` handles and never comes here). Symbols are never freed:
//! component sets are tiny (eBid has 27) and live for the process.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned component name.
///
/// Ordering compares the *names*, not the symbol ids: ids are assigned
/// in global interning order — a process-wide accident of thread
/// interleaving and deployment order that must never leak into sorted
/// containers or sorted iteration. Equality and hashing stay id-based;
/// the interner is bijective, so they agree with name equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompName(u32);

impl Ord for CompName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl PartialOrd for CompName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Interner {
    names: Vec<&'static str>,
    by_name: BTreeMap<&'static str, u32>,
}

fn table() -> &'static Mutex<Interner> {
    // urb-lint: allow(S002) — the interner is append-only symbol identity, not sim state: a reboot must NOT forget names, and digests never observe ids (Ord/Debug go through as_str).
    static TABLE: OnceLock<Mutex<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            by_name: BTreeMap::new(),
        })
    })
}

impl CompName {
    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(name: &'static str) -> CompName {
        let mut t = table().lock().expect("interner poisoned");
        if let Some(&id) = t.by_name.get(name) {
            return CompName(id);
        }
        let id = u32::try_from(t.names.len()).expect("interner overflow");
        t.names.push(name);
        t.by_name.insert(name, id);
        CompName(id)
    }

    /// Returns the symbol for `name` if it was ever interned.
    ///
    /// Unlike [`CompName::intern`] this accepts non-`'static` strings: a
    /// name that was never interned cannot be a live component, so lookup
    /// failure doubles as an existence check.
    pub fn lookup(name: &str) -> Option<CompName> {
        let t = table().lock().expect("interner poisoned");
        t.by_name.get(name).map(|&id| CompName(id))
    }

    /// Returns the interned string.
    pub fn as_str(self) -> &'static str {
        let t = table().lock().expect("interner poisoned");
        t.names[self.0 as usize]
    }
}

impl fmt::Display for CompName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// Debug prints the name, not the raw symbol id: recovery actions and log
// labels embed `{:?}` of component lists, and symbol ids depend on global
// interning order, which is meaningless across runs.
impl fmt::Debug for CompName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_roundtrips() {
        let a = CompName::intern("InternTestAlpha");
        let b = CompName::intern("InternTestAlpha");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "InternTestAlpha");
        assert_eq!(CompName::lookup("InternTestAlpha"), Some(a));
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let a = CompName::intern("InternTestBeta");
        let b = CompName::intern("InternTestGamma");
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_of_unknown_name_fails() {
        assert_eq!(CompName::lookup("InternTestNeverInterned"), None);
    }

    #[test]
    fn ordering_follows_names_not_interning_order() {
        // Interned in reverse alphabetical order, so id order and name
        // order disagree — the whole point of the manual Ord.
        let z = CompName::intern("InternTestOrderZeta");
        let a = CompName::intern("InternTestOrderAlpha");
        assert!(a < z, "name order must win over interning order");
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn debug_and_display_show_the_name() {
        let a = CompName::intern("InternTestDelta");
        assert_eq!(format!("{a}"), "InternTestDelta");
        assert_eq!(format!("{a:?}"), "\"InternTestDelta\"");
    }
}
