//! The application-facing API of the microreboot-enabled server.
//!
//! A crash-only application plugs into the server by implementing
//! [`Application`]: it declares its components (descriptors), and handles
//! each request through a [`CallContext`] that
//! is its *only* route to components, the database and the session store.
//! The context is a capability: application code cannot keep direct
//! references across component boundaries, cannot touch state except
//! through the segregated stores, and cannot observe whether its caller is
//! a microreboot away — which is exactly the discipline Section 2
//! prescribes.

use components::descriptor::ComponentDescriptor;
use simcore::SimDuration;
use statestore::session::SessionObject;

use crate::context::CallContext;
use crate::request::{OpCode, Request};

/// Why a call (or a whole request) failed, as seen by the platform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CallError {
    /// An exception propagated out (bad lookup, corrupted metadata, null
    /// dereference, database error, ...). The servlet renders an error
    /// page: HTTP 500 with exception text in the body.
    Exception,
    /// The callee is microrebooting: retry after the given interval
    /// (Section 2's `RetryAfter(t)`).
    Retry(SimDuration),
    /// The call entered a component that never returns (deadlock or
    /// infinite loop). The shepherding thread is stuck until a microreboot
    /// kills it or the request TTL expires.
    Hang,
}

/// A crash-only application deployable on the microreboot-enabled server.
pub trait Application {
    /// The component descriptors, each with its business methods. Exactly
    /// one is of kind `Web`: the web (WAR) component every request enters.
    fn descriptors(&self) -> Vec<ComponentDescriptor>;

    /// Base CPU cost of an operation before store accesses are added.
    fn base_cost(&self, op: OpCode) -> SimDuration;

    /// Handles one request. All component, database and session access
    /// goes through `ctx`.
    fn handle(&mut self, ctx: &mut CallContext<'_>, req: &Request) -> Result<(), CallError>;

    /// Application-level validity check for a session object, run by the
    /// web tier when it revalidates in-process session state after a WAR
    /// microreboot. Detects null/invalid corruption; *wrong* values pass.
    fn session_valid(&self, obj: &SessionObject) -> bool;

    /// The static component call path of an operation (the URL-prefix →
    /// component map from static analysis), web component first. Drives
    /// quarantine admission: while a recovery group microreboots, requests
    /// whose path touches it can be shed at the door with `Retry-After`
    /// instead of being admitted only to hit a sentinel mid-flight. The
    /// default (no path information) disables that optimization.
    fn call_path(&self, _op: OpCode) -> &'static [&'static str] {
        &[]
    }

    /// Called when a component finishes reinitializing after a microreboot,
    /// so the application can reset that component's volatile caches (e.g.,
    /// eBid's primary-key generator cache).
    fn on_component_reinit(&mut self, component: &str);

    /// Called when the whole process restarts.
    fn on_process_restart(&mut self);
}
