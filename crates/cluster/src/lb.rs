//! The client-side load balancer (Section 5.3).
//!
//! "Under failure-free operation, LB distributes new incoming login
//! requests evenly between the nodes and, for established sessions, LB
//! implements session affinity. [...] When RM decides to perform a
//! recovery, it first notifies LB, which redirects requests bound for
//! Nbad uniformly to the good nodes; once Nbad has recovered, RM notifies
//! LB, and requests are again distributed as before the failure."
//!
//! When the recovery conductor runs with quarantine enabled, the balancer
//! additionally sheds *selectively*: each node publishes the set of
//! components currently mid-microreboot, and only requests whose static
//! call path touches that blast radius avoid the node — everything else
//! keeps flowing to it.

use components::CompName;
use simcore::telemetry::{SharedBus, TelemetryEvent};
use simcore::SimTime;
use statestore::session::SessionMap;
use statestore::SessionId;
use urb_core::{OpCode, Request};

/// The load balancer.
pub struct LoadBalancer {
    nodes: usize,
    /// Session → home node.
    affinity: SessionMap<usize>,
    redirecting: Vec<bool>,
    /// Per-node quarantine set: components mid-microreboot there.
    quarantine: Vec<Vec<CompName>>,
    /// URL-prefix → component-path map for quarantine routing.
    path_of: Option<fn(OpCode) -> &'static [&'static str]>,
    rr: usize,
    /// Sessions whose affinity target was under redirection at routing
    /// time, i.e. requests actually failed over (Figure 3's metric).
    /// Never pruned: it counts every session ever failed over.
    failed_over_sessions: SessionMap<()>,
    bus: Option<SharedBus>,
}

impl LoadBalancer {
    /// Creates a balancer over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        LoadBalancer {
            nodes,
            affinity: SessionMap::default(),
            redirecting: vec![false; nodes],
            quarantine: vec![Vec::new(); nodes],
            path_of: None,
            rr: 0,
            failed_over_sessions: SessionMap::default(),
            bus: None,
        }
    }

    /// Attaches a telemetry bus: failover redirections are emitted as
    /// [`TelemetryEvent::LbFailover`] events.
    pub(crate) fn attach_telemetry(&mut self, bus: SharedBus) {
        self.bus = Some(bus);
    }

    /// Returns the number of nodes.
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
    }

    /// Whether `op`'s call path touches `node`'s quarantine set.
    fn shed_by_quarantine(&self, node: usize, op: OpCode) -> bool {
        if self.quarantine[node].is_empty() {
            return false;
        }
        let Some(path_of) = self.path_of else {
            return false;
        };
        // `AppServer::new` interned every deployed name; one it never saw
        // is no component of this cluster and sits in no quarantine set.
        (path_of)(op)
            .iter()
            .any(|c| CompName::lookup(c).is_some_and(|c| self.quarantine[node].contains(&c)))
    }

    fn next_good(&mut self, op: OpCode) -> usize {
        for _ in 0..self.nodes {
            let n = self.rr % self.nodes;
            self.rr += 1;
            if !self.redirecting[n] && !self.shed_by_quarantine(n, op) {
                return n;
            }
        }
        // Every node is quarantined for this path or redirecting: prefer a
        // merely-quarantined node (the server's admission check answers
        // with `Retry-After` rather than a drained drop).
        for _ in 0..self.nodes {
            let n = self.rr % self.nodes;
            self.rr += 1;
            if !self.redirecting[n] {
                return n;
            }
        }
        // Everything is redirecting (e.g., a one-node cluster mid-
        // recovery): requests still have to go somewhere.
        let n = self.rr % self.nodes;
        self.rr += 1;
        n
    }

    /// Routes a request to a node at `now`.
    pub fn route(&mut self, req: &Request, now: SimTime) -> usize {
        if let Some(sid) = req.session {
            if let Some(&home) = self.affinity.get(sid) {
                let avoid = self.redirecting[home] || self.shed_by_quarantine(home, req.op);
                if avoid && self.nodes > 1 {
                    self.failed_over_sessions.insert(sid, ());
                    let to = self.next_good(req.op);
                    if let Some(bus) = &self.bus {
                        bus.borrow_mut().emit(&TelemetryEvent::LbFailover {
                            from: home,
                            to,
                            req: req.id.0,
                            session: sid.0,
                            at: now,
                        });
                    }
                    return to;
                }
                return home;
            }
        }
        self.next_good(req.op)
    }

    /// Registers session affinity (the node that issued the cookie).
    pub fn assign(&mut self, sid: SessionId, node: usize) {
        self.affinity.insert(sid, node);
    }

    /// Drops a session binding (its client dropped the cookie).
    pub(crate) fn unassign(&mut self, sid: SessionId) {
        self.affinity.remove(sid);
    }

    /// Starts (or stops) redirecting traffic away from `node`.
    pub(crate) fn set_redirect(&mut self, node: usize, on: bool) {
        if node < self.nodes {
            self.redirecting[node] = on;
        }
    }

    /// Returns true if `node` is being drained.
    pub fn is_redirecting(&self, node: usize) -> bool {
        self.redirecting.get(node).copied().unwrap_or(false)
    }

    /// Installs the URL-prefix → component-path map used for quarantine
    /// routing (without it, quarantine sets are ignored).
    pub(crate) fn set_path_map(&mut self, path_of: fn(OpCode) -> &'static [&'static str]) {
        self.path_of = Some(path_of);
    }

    /// Publishes `node`'s quarantine set (components mid-microreboot).
    /// An empty set lifts the quarantine.
    pub(crate) fn set_quarantine(&mut self, node: usize, members: Vec<CompName>) {
        if node < self.nodes {
            self.quarantine[node] = members;
        }
    }

    /// The components currently quarantined on `node` (empty when none).
    pub fn quarantined(&self, node: usize) -> &[CompName] {
        self.quarantine.get(node).map_or(&[], Vec::as_slice)
    }

    /// Number of sessions currently homed on `node`.
    pub fn sessions_on(&self, node: usize) -> usize {
        self.affinity.values().filter(|n| **n == node).count()
    }

    /// Total sessions that were actually failed over so far.
    pub fn failed_over(&self) -> usize {
        self.failed_over_sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use urb_core::{OpCode, ReqId};

    fn req(id: u64, session: Option<u64>) -> Request {
        Request {
            id: ReqId(id),
            op: OpCode(0),
            session: session.map(SessionId),
            idempotent: true,
            arg: 0,
            submitted_at: SimTime::ZERO,
        }
    }

    #[test]
    fn cookieless_requests_round_robin() {
        let mut lb = LoadBalancer::new(3);
        let nodes: Vec<usize> = (0..6)
            .map(|i| lb.route(&req(i, None), SimTime::ZERO))
            .collect();
        assert_eq!(nodes, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn session_affinity_sticks() {
        let mut lb = LoadBalancer::new(3);
        lb.assign(SessionId(7), 2);
        for i in 0..5 {
            assert_eq!(lb.route(&req(i, Some(7)), SimTime::ZERO), 2);
        }
    }

    #[test]
    fn redirection_sends_sessions_elsewhere_and_counts_them() {
        let mut lb = LoadBalancer::new(3);
        lb.assign(SessionId(7), 1);
        lb.set_redirect(1, true);
        let n = lb.route(&req(1, Some(7)), SimTime::ZERO);
        assert_ne!(n, 1);
        assert_eq!(lb.failed_over(), 1);
        // The same session counts once.
        lb.route(&req(2, Some(7)), SimTime::ZERO);
        assert_eq!(lb.failed_over(), 1);
        // Recovery done: traffic returns home.
        lb.set_redirect(1, false);
        assert_eq!(lb.route(&req(3, Some(7)), SimTime::ZERO), 1);
    }

    #[test]
    fn new_logins_avoid_redirecting_nodes() {
        let mut lb = LoadBalancer::new(2);
        lb.set_redirect(0, true);
        for i in 0..4 {
            assert_eq!(lb.route(&req(i, None), SimTime::ZERO), 1);
        }
    }

    #[test]
    fn single_node_cluster_still_routes_during_recovery() {
        let mut lb = LoadBalancer::new(1);
        lb.assign(SessionId(1), 0);
        lb.set_redirect(0, true);
        assert_eq!(
            lb.route(&req(1, Some(1)), SimTime::ZERO),
            0,
            "nowhere else to go"
        );
        assert_eq!(lb.failed_over(), 0, "no failover in a 1-node cluster");
    }

    #[test]
    fn failover_emits_telemetry_event() {
        use simcore::telemetry::{shared_bus, TelemetrySink, TraceHashSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Capture(Vec<TelemetryEvent>);
        impl TelemetrySink for Capture {
            fn on_event(&mut self, event: &TelemetryEvent) {
                self.0.push(*event);
            }
        }

        let bus = shared_bus();
        let cap = Rc::new(RefCell::new(Capture(Vec::new())));
        bus.borrow_mut().add_sink(Box::new(cap.clone()));
        let mut lb = LoadBalancer::new(2);
        lb.attach_telemetry(bus);
        lb.assign(SessionId(9), 0);
        lb.set_redirect(0, true);
        let now = SimTime::from_secs(3);
        let to = lb.route(&req(5, Some(9)), now);
        {
            let events = &cap.borrow().0;
            assert_eq!(events.len(), 1);
            assert_eq!(
                events[0],
                TelemetryEvent::LbFailover {
                    from: 0,
                    to,
                    req: 5,
                    session: 9,
                    at: now,
                }
            );
        }
        // Affinity routing without redirection emits nothing.
        lb.set_redirect(0, false);
        lb.route(&req(6, Some(9)), now);
        assert_eq!(cap.borrow().0.len(), 1);
        // And the digest machinery accepts the new variant.
        let mut h = TraceHashSink::new();
        h.on_event(&cap.borrow().0[0]);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn unbinding_other_sessions_leaves_a_failed_over_session_alone() {
        // The same traffic with (`true`) and without forgetting the
        // sessions whose clients left while session 7 is failed over.
        let routes = [true, false].map(|prune| {
            let mut lb = LoadBalancer::new(3);
            for sid in 1..=9 {
                lb.assign(SessionId(sid), (sid % 3) as usize);
            }
            lb.set_redirect(1, true);
            let mut out = Vec::new();
            for i in 0..12 {
                if prune && i == 4 {
                    for sid in [1, 4, 5, 9] {
                        lb.unassign(SessionId(sid));
                    }
                }
                lb.set_redirect(1, i < 8);
                out.push(lb.route(&req(i, Some(7)), SimTime::ZERO));
                out.push(lb.route(&req(100 + i, Some(3)), SimTime::ZERO));
            }
            assert_eq!(lb.sessions_on(1), if prune { 1 } else { 3 });
            (out, lb.failed_over())
        });
        assert_eq!(routes[0], routes[1], "same nodes, in the same order");
        assert_eq!(routes[0].0[22], 1, "session 7 is back home at the end");
    }

    #[test]
    fn sessions_on_counts_affinity() {
        let mut lb = LoadBalancer::new(2);
        lb.assign(SessionId(1), 0);
        lb.assign(SessionId(2), 0);
        lb.assign(SessionId(3), 1);
        assert_eq!(lb.sessions_on(0), 2);
        lb.unassign(SessionId(1));
        assert_eq!(lb.sessions_on(0), 1);
    }
}
