//! FastS — the in-process session state repository.
//!
//! FastS lives inside the application server's embedded web tier (Section
//! 3.3): access is a couple of in-memory operations behind compiler-enforced
//! barriers, so it is fast, and because it sits *outside* the application
//! components it survives microreboots. It does **not** survive a process
//! restart — that asymmetry is what makes requests fail after JVM-level
//! recovery in Figure 1.
//!
//! FastS has no checksums (unlike [`Ssm`](crate::ssm::Ssm)); injected
//! corruption is served back to the application, whose validation during
//! web-tier reinitialization is the only thing that can evict a bad object
//! (Table 2's "corrupt data inside FastS → WAR reboot" rows).

use crate::session::{
    corrupt_object, CorruptKind, SessionId, SessionMap, SessionObject, SessionStore, StoreError,
};

/// The in-process session store.
///
/// # Examples
///
/// ```
/// use statestore::{FastS, SessionId, SessionObject, SessionStore};
///
/// let mut store = FastS::new();
/// let mut obj = SessionObject::new();
/// obj.set("user_id", 7i64);
/// store.write(SessionId(1), obj).unwrap();
/// assert_eq!(store.live_sessions(), 1);
/// store.on_process_restart();
/// assert_eq!(store.live_sessions(), 0, "FastS does not survive restarts");
/// ```
#[derive(Clone, Debug, Default)]
pub struct FastS {
    objects: SessionMap<SessionObject>,
    /// Running total of [`SessionObject::approx_bytes`] over `objects`,
    /// maintained incrementally: `in_process_bytes` is on the server's
    /// per-request hot path (heap accounting) and must not re-encode the
    /// whole store.
    bytes: usize,
}

impl FastS {
    /// Creates an empty store.
    pub fn new() -> Self {
        FastS::default()
    }

    /// Corrupts the stored object for `id` (fault-injection surface).
    ///
    /// Returns false if the session does not exist.
    pub fn corrupt(&mut self, id: SessionId, kind: CorruptKind) -> bool {
        match self.objects.get_mut(id) {
            Some(obj) => {
                self.bytes -= obj.approx_bytes();
                corrupt_object(obj, kind);
                self.bytes += obj.approx_bytes();
                true
            }
            None => false,
        }
    }

    /// Revalidates every stored object with an application-supplied check,
    /// discarding objects that fail. Returns the number discarded.
    ///
    /// The web tier runs this while reinitializing after a WAR microreboot:
    /// null and invalid corruption fails validation and is evicted; *wrong*
    /// values pass and persist (the ≈ rows of Table 2).
    pub fn revalidate<F>(&mut self, valid: F) -> usize
    where
        F: Fn(&SessionObject) -> bool,
    {
        let before = self.objects.len();
        let bytes = &mut self.bytes;
        self.objects.retain(|_, obj| {
            let keep = valid(obj);
            if !keep {
                *bytes -= obj.approx_bytes();
            }
            keep
        });
        before - self.objects.len()
    }

    /// Returns true if the stored object for `id` is injection-tainted.
    ///
    /// This is the comparison detector's oracle, not application state.
    pub fn is_tainted(&self, id: SessionId) -> bool {
        self.objects.get(id).is_some_and(SessionObject::is_tainted)
    }

    /// Returns the ids of all live sessions, in order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.objects.keys().collect()
    }

    /// Drops every stored session (test helper simulating state loss
    /// through an out-of-band path).
    pub fn remove_all_for_test(&mut self) {
        self.objects.clear();
        self.bytes = 0;
    }
}

impl SessionStore for FastS {
    fn write(&mut self, id: SessionId, obj: SessionObject) -> Result<(), StoreError> {
        self.bytes += obj.approx_bytes();
        if let Some(old) = self.objects.insert(id, obj) {
            self.bytes -= old.approx_bytes();
        }
        Ok(())
    }

    fn read(&mut self, id: SessionId) -> Result<Option<SessionObject>, StoreError> {
        Ok(self.objects.get(id).cloned())
    }

    fn remove(&mut self, id: SessionId) -> Result<(), StoreError> {
        if let Some(old) = self.objects.remove(id) {
            self.bytes -= old.approx_bytes();
        }
        Ok(())
    }

    fn live_sessions(&self) -> usize {
        self.objects.len()
    }

    fn on_process_restart(&mut self) {
        self.objects.clear();
        self.bytes = 0;
    }

    fn in_process_bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_session(id: u64) -> FastS {
        let mut s = FastS::new();
        let mut obj = SessionObject::new();
        obj.set("user_id", 7i64);
        obj.set("cart_item", 42i64);
        s.write(SessionId(id), obj).unwrap();
        s
    }

    #[test]
    fn write_read_remove_roundtrip() {
        let mut s = store_with_session(1);
        let obj = s.read(SessionId(1)).unwrap().unwrap();
        assert_eq!(obj.get("user_id").unwrap().as_int(), Some(7));
        s.remove(SessionId(1)).unwrap();
        assert!(s.read(SessionId(1)).unwrap().is_none());
        // Removing again is fine.
        s.remove(SessionId(1)).unwrap();
    }

    #[test]
    fn process_restart_loses_everything() {
        let mut s = store_with_session(1);
        s.on_process_restart();
        assert_eq!(s.live_sessions(), 0);
    }

    #[test]
    fn corruption_is_served_back_unchecked() {
        let mut s = store_with_session(1);
        assert!(s.corrupt(SessionId(1), CorruptKind::SetNull));
        // FastS has no checksum: the read succeeds and returns the bad
        // object.
        let obj = s.read(SessionId(1)).unwrap().unwrap();
        assert!(obj.get("user_id").unwrap().is_null());
        assert!(obj.is_tainted());
        assert!(s.is_tainted(SessionId(1)));
    }

    #[test]
    fn corrupt_missing_session_reports_false() {
        let mut s = FastS::new();
        assert!(!s.corrupt(SessionId(9), CorruptKind::SetNull));
    }

    #[test]
    fn revalidate_evicts_null_but_not_wrong() {
        let mut s = store_with_session(1);
        let mut obj2 = SessionObject::new();
        obj2.set("user_id", 8i64);
        s.write(SessionId(2), obj2).unwrap();

        s.corrupt(SessionId(1), CorruptKind::SetNull);
        s.corrupt(SessionId(2), CorruptKind::SetWrong);

        let discarded =
            s.revalidate(|obj| obj.get("user_id").map(|v| !v.is_null()).unwrap_or(false));
        assert_eq!(discarded, 1, "null object evicted");
        assert!(s.read(SessionId(1)).unwrap().is_none());
        // The wrong-valued object passes validation and persists.
        let survivor = s.read(SessionId(2)).unwrap().unwrap();
        assert!(survivor.is_tainted());
    }

    #[test]
    fn in_process_bytes_tracks_content() {
        let s = FastS::new();
        assert_eq!(s.in_process_bytes(), 0);
        let s = store_with_session(1);
        assert!(s.in_process_bytes() > 0);
    }
}
