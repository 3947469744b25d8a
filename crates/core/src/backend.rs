//! Shared-tier handles: the database and the session store as seen by one
//! node.
//!
//! In the paper's three-tier deployment the persistence tier (MySQL) and
//! the external session store (SSM) are shared by every middle-tier node,
//! while FastS is private to each node's JVM. These handles encode that
//! topology: `SharedDb`/shared [`Ssm`] are `Rc<RefCell<..>>` values cloned
//! into every node of a simulated cluster, whereas a [`SessionBackend`]
//! either owns a private `FastS` or points at the shared SSM.
//!
//! The simulation is single-threaded by design (determinism), so
//! `Rc<RefCell>` is the right sharing primitive: these are *simulated*
//! machines, not OS threads.

use std::cell::RefCell;
use std::rc::Rc;

use simcore::{SimDuration, SimTime};
use statestore::session::{SessionId, SessionObject, SessionStore, StoreError};
use statestore::{Database, FastS, Ssm};

/// The shared persistence tier handle.
pub type SharedDb = Rc<RefCell<Database>>;

/// Creates a shared handle to a database.
pub fn share_db(db: Database) -> SharedDb {
    Rc::new(RefCell::new(db))
}

/// A shared handle to an SSM deployment.
pub type SharedSsm = Rc<RefCell<Ssm>>;

/// Creates a shared handle to an SSM.
pub fn share_ssm(ssm: Ssm) -> SharedSsm {
    Rc::new(RefCell::new(ssm))
}

/// Where one node keeps session state.
pub enum SessionBackend {
    /// Node-private in-process store.
    FastS(FastS),
    /// Shared external store.
    Ssm(SharedSsm),
}

impl SessionBackend {
    /// Returns the store's short name ("FastS" / "SSM").
    pub fn name(&self) -> &'static str {
        match self {
            SessionBackend::FastS(_) => "FastS",
            SessionBackend::Ssm(_) => "SSM",
        }
    }

    /// Reads the session object for `id`.
    pub fn read(&mut self, id: SessionId) -> Result<Option<SessionObject>, StoreError> {
        match self {
            SessionBackend::FastS(s) => s.read(id),
            SessionBackend::Ssm(s) => s.borrow_mut().read(id),
        }
    }

    /// Writes the session object for `id`.
    pub fn write(&mut self, id: SessionId, obj: SessionObject) -> Result<(), StoreError> {
        match self {
            SessionBackend::FastS(s) => s.write(id, obj),
            SessionBackend::Ssm(s) => s.borrow_mut().write(id, obj),
        }
    }

    /// Removes the session object for `id`.
    pub fn remove(&mut self, id: SessionId) -> Result<(), StoreError> {
        match self {
            SessionBackend::FastS(s) => s.remove(id),
            SessionBackend::Ssm(s) => s.borrow_mut().remove(id),
        }
    }

    /// CPU consumed by one store access (marshalling and the in-process
    /// part of the call). Holds a worker.
    pub(crate) fn access_cpu(&self) -> SimDuration {
        match self {
            SessionBackend::FastS(_) => SimDuration::from_micros(50),
            // SSM marshals the object and drives the network stack.
            SessionBackend::Ssm(_) => SimDuration::from_micros(1_800),
        }
    }

    /// Wire latency of one store access (time on the network, no CPU
    /// held). Zero for the in-process store. The SSM adds whatever extra
    /// RTT an armed store-slow or link-delay fault currently imposes
    /// (zero when healthy, so pinned traces are unaffected).
    pub(crate) fn access_latency(&self) -> SimDuration {
        match self {
            SessionBackend::FastS(_) => SimDuration::ZERO,
            SessionBackend::Ssm(s) => {
                SimDuration::from_micros(6_200) + s.borrow().extra_access_latency()
            }
        }
    }

    /// Returns the per-read access cost.
    pub fn read_cost(&self) -> SimDuration {
        match self {
            SessionBackend::FastS(s) => s.read_cost(),
            SessionBackend::Ssm(s) => s.borrow().read_cost(),
        }
    }

    /// Returns the per-write access cost.
    pub fn write_cost(&self) -> SimDuration {
        match self {
            SessionBackend::FastS(s) => s.write_cost(),
            SessionBackend::Ssm(s) => s.borrow().write_cost(),
        }
    }

    /// Returns true if session state survives a process restart.
    pub fn survives_process_restart(&self) -> bool {
        match self {
            SessionBackend::FastS(_) => false,
            SessionBackend::Ssm(_) => true,
        }
    }

    /// Informs the backend that this node's process restarted.
    pub fn on_process_restart(&mut self) {
        match self {
            SessionBackend::FastS(s) => s.on_process_restart(),
            SessionBackend::Ssm(_) => {}
        }
    }

    /// Advances the backend's clock (leases in SSM).
    pub fn advance_to(&mut self, now: SimTime) {
        if let SessionBackend::Ssm(s) = self {
            s.borrow_mut().advance_to(now);
        }
    }

    /// Bytes of session state held inside this node's process.
    pub fn in_process_bytes(&self) -> usize {
        match self {
            SessionBackend::FastS(s) => s.in_process_bytes(),
            SessionBackend::Ssm(_) => 0,
        }
    }

    /// Returns the number of live sessions visible through this backend.
    pub fn live_sessions(&self) -> usize {
        match self {
            SessionBackend::FastS(s) => s.live_sessions(),
            SessionBackend::Ssm(s) => s.borrow().live_sessions(),
        }
    }

    /// Revalidates in-process session objects with an application check,
    /// discarding failures; external stores are not revalidated here.
    ///
    /// Returns the number discarded. The WAR reinit path calls this.
    pub fn revalidate<F>(&mut self, valid: F) -> usize
    where
        F: Fn(&SessionObject) -> bool,
    {
        match self {
            SessionBackend::FastS(s) => s.revalidate(valid),
            SessionBackend::Ssm(_) => 0,
        }
    }

    /// Fault-injection access to the private FastS, if that is the backend.
    pub fn fasts_mut(&mut self) -> Option<&mut FastS> {
        match self {
            SessionBackend::FastS(s) => Some(s),
            SessionBackend::Ssm(_) => None,
        }
    }

    /// The shared SSM handle, if that is the backend (fault injection and
    /// cluster wiring).
    pub fn ssm_handle(&self) -> Option<SharedSsm> {
        match self {
            SessionBackend::FastS(_) => None,
            SessionBackend::Ssm(s) => Some(s.clone()),
        }
    }

    /// Returns the number of injection-tainted sessions still stored.
    pub fn tainted_sessions(&self) -> usize {
        match self {
            SessionBackend::FastS(s) => s.tainted_sessions(),
            SessionBackend::Ssm(s) => s.borrow().tainted_sessions(),
        }
    }

    /// Returns true if the stored object for `id` is injection-tainted
    /// (comparison-detector oracle).
    pub fn is_tainted(&self, id: SessionId) -> bool {
        match self {
            SessionBackend::FastS(s) => s.is_tainted(id),
            SessionBackend::Ssm(s) => s.borrow().is_tainted(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> SessionObject {
        let mut o = SessionObject::new();
        o.set("user_id", 1i64);
        o
    }

    #[test]
    fn fasts_backend_basic_flow() {
        let mut b = SessionBackend::FastS(FastS::new());
        assert_eq!(b.name(), "FastS");
        b.write(SessionId(1), obj()).unwrap();
        assert!(b.read(SessionId(1)).unwrap().is_some());
        assert!(!b.survives_process_restart());
        b.on_process_restart();
        assert!(b.read(SessionId(1)).unwrap().is_none());
    }

    #[test]
    fn ssm_backend_shares_state_between_nodes() {
        let ssm = share_ssm(Ssm::new(2));
        let mut node_a = SessionBackend::Ssm(ssm.clone());
        let mut node_b = SessionBackend::Ssm(ssm);
        node_a.write(SessionId(1), obj()).unwrap();
        assert!(
            node_b.read(SessionId(1)).unwrap().is_some(),
            "another node sees the session"
        );
        node_a.on_process_restart();
        assert!(node_b.read(SessionId(1)).unwrap().is_some());
        assert!(node_a.survives_process_restart());
    }

    #[test]
    fn costs_reflect_store_choice() {
        let fasts = SessionBackend::FastS(FastS::new());
        let ssm = SessionBackend::Ssm(share_ssm(Ssm::new(2)));
        assert!(ssm.read_cost() > fasts.read_cost());
        assert_eq!(ssm.in_process_bytes(), 0);
    }

    #[test]
    fn revalidate_only_touches_in_process_store() {
        let mut ssm = SessionBackend::Ssm(share_ssm(Ssm::new(2)));
        ssm.write(SessionId(1), obj()).unwrap();
        assert_eq!(ssm.revalidate(|_| false), 0, "SSM not revalidated");
        let mut fasts = SessionBackend::FastS(FastS::new());
        fasts.write(SessionId(1), obj()).unwrap();
        assert_eq!(fasts.revalidate(|_| false), 1);
    }
}
