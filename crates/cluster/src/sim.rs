//! The cluster simulation: event-loop glue binding servers, the load
//! balancer, the client population and the recovery manager.
//!
//! One [`Sim`] is one experiment run: a deterministic discrete-event
//! simulation of the paper's testbed — N application-server nodes over a
//! shared database (and optionally a shared SSM), a client-side load
//! balancer with session affinity, 500 (or 1000) emulated clients per
//! node, client-side failure detectors reporting to the recovery manager,
//! and hooks to inject any Table 2 fault or command any recovery action
//! at a chosen instant.
//!
//! Events are a [`SimEvent`] enum stored inline in the kernel's slot
//! arena, so the schedule/fire hot path allocates nothing: the closure
//! per event the simulation used to box is now a tagged payload the
//! kernel hands back to [`World`] dispatch. There is no closure escape
//! hatch: an experiment that needs a one-off steps the run from outside
//! ([`Sim::run_until`] in slices) and schedules ordinary events.

use ebid::{catalog, DatasetSpec, EBid};
use faults::{Fault, LinkFault, NetEdge, StoreFault};
use recovery::conductor::{Conductor, ConductorConfig, StartCmd, Submission, TicketId};
use recovery::{PolicyChoice, RecoveryAction, RecoveryManager, RmConfig};
use simcore::telemetry::{SharedBus, TelemetryEvent};
use simcore::{EventPayload, EventQueue, SimDuration, SimTime};
use statestore::Ssm;
use urb_core::backend::{share_db, share_ssm, SessionBackend, SharedSsm};
use urb_core::rejuvenation::{RejuvenationAction, RejuvenationService};
use urb_core::server::{RebootId, RebootLevel};
use urb_core::{AppServer, OpCode, ReqId, Request, Response, ServerConfig, SubmitOutcome};
use workload::{
    ClientPool, ClientPoolConfig, DeliverOutcome, DetectorKind, PerfConfig, RetryPolicy,
};

use crate::lb::LoadBalancer;

/// How long an emulated client waits for a response before giving up.
///
/// Long enough that overload-induced queueing (Figure 4 sees 12-second
/// responses in the paper) completes rather than failing — the 8-second
/// mark is a user-experience threshold, not a failure detector. Hung
/// requests (deadlocks, infinite loops) are purged earlier by the
/// server's own 30-second request TTL, whose `TimedOut` response is what
/// the monitors attribute to the stuck URL.
pub const CLIENT_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// How long a policy-plane hold (bulkhead isolation or failover-first
/// redirection) lasts before the executor lifts it and acknowledges the
/// action back to the recovery manager.
pub const POLICY_HOLD: SimDuration = SimDuration::from_secs(10);

/// The cluster simulation's event queue: [`SimEvent`] payloads pooled in
/// the kernel's slot arena.
pub type SimQueue = EventQueue<World, SimEvent>;

/// Where nodes keep session state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreChoice {
    /// Node-private in-process store (lost on JVM restart).
    FastS,
    /// Shared external store (survives restarts; slower).
    Ssm,
}

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Emulated clients per node (paper: 500; 1000 for Figure 4).
    pub clients_per_node: usize,
    /// Session store placement.
    pub store: StoreChoice,
    /// Whether sentinel hits answer `Retry-After` (Section 6.2).
    pub retry_enabled: bool,
    /// Drain delay before microreboot crash phases (Table 6's 200 ms).
    pub drain: Option<SimDuration>,
    /// Which detector the monitors run.
    pub detector: DetectorKind,
    /// Performance-observability plane (latency sketches, fail-slow
    /// anomaly detection, parity gating); `None` keeps it off. Enabling
    /// it adds telemetry events and failure reports but schedules no
    /// events and draws no randomness of its own — it piggybacks on the
    /// per-second maintenance sweep.
    pub perf: Option<PerfConfig>,
    /// Recovery-manager configuration; `None` disables automatic recovery
    /// (experiments then command recovery directly).
    pub rm: Option<RmConfig>,
    /// Which recovery policy the manager hosts. `Ladder` (the default)
    /// reproduces the paper's recursive policy bit-for-bit; the other
    /// registry entries compete in the chaos policy tournament.
    pub policy: PolicyChoice,
    /// Recovery-conductor configuration; `None` keeps the baseline serial
    /// execution of manager decisions. With a conductor, decisions are
    /// expanded to recovery groups, coalesced, scheduled concurrently when
    /// conflict-free, and (optionally) guarded by quarantine admission.
    pub conductor: Option<ConductorConfig>,
    /// Whether the LB fails traffic over during recovery (Section 5.3) —
    /// meaningless in a 1-node cluster.
    pub failover: bool,
    /// Client-side retry policy for failed operations. The default
    /// ([`RetryPolicy::None`]) reproduces the historical behavior; the
    /// netstate campaign arms the naive or budgeted populations.
    pub retry_policy: RetryPolicy,
    /// Master seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 1,
            clients_per_node: 500,
            store: StoreChoice::FastS,
            retry_enabled: false,
            drain: None,
            detector: DetectorKind::Comparison,
            perf: None,
            rm: None,
            policy: PolicyChoice::Ladder,
            conductor: None,
            failover: false,
            retry_policy: RetryPolicy::None,
            seed: 0xeb1d,
        }
    }
}

/// Deterministic fault shim on the LB↔node wire.
///
/// Requests pass through it on submit and responses on delivery; an
/// armed [`LinkFault`] black-holes, thins, delays or duplicates them.
/// Thinning is counter-based (no RNG), so same-seed runs reproduce
/// bit-identically, and with no fault armed every hook is a no-op — the
/// shim cannot perturb pinned traces. A duplication fault doubles
/// deliveries on the response half only: the client pool's request-owner
/// table discards the echo, which is exactly the at-least-once case the
/// end-to-end integrity plane must absorb.
#[derive(Default)]
pub struct NetShim {
    fault: Option<LinkFault>,
    counter: u64,
}

impl NetShim {
    fn arm(&mut self, fault: LinkFault) {
        self.fault = Some(fault);
        self.counter = 0;
    }

    fn heal(&mut self) {
        self.fault = None;
    }

    /// True if the wire swallows this message.
    fn drops(&mut self) -> bool {
        match self.fault {
            Some(LinkFault::Partition) => true,
            Some(LinkFault::Lossy { permille }) => thin(&mut self.counter, permille),
            _ => false,
        }
    }

    /// Extra one-way latency, when a delay fault is armed.
    fn delay(&self) -> Option<SimDuration> {
        match self.fault {
            Some(LinkFault::Delay { extra }) => Some(extra),
            _ => None,
        }
    }

    /// True if the wire delivers this message twice.
    fn dupes(&mut self) -> bool {
        match self.fault {
            Some(LinkFault::Dupe { permille }) => thin(&mut self.counter, permille),
            _ => false,
        }
    }
}

/// Deterministic thinning: fires on the messages where the running
/// `permille` quota crosses an integer boundary (mirrors the SSM's
/// node↔store shim).
fn thin(counter: &mut u64, permille: u32) -> bool {
    if permille == 0 {
        return false;
    }
    let before = *counter * u64::from(permille) / 1000;
    *counter += 1;
    let after = *counter * u64::from(permille) / 1000;
    after > before
}

/// A notable event, for experiment reports.
#[derive(Clone, Debug)]
pub enum LogEvent {
    /// A fault was injected.
    FaultInjected {
        /// When.
        at: SimTime,
        /// Into which node.
        node: usize,
        /// Catalogue description.
        label: String,
    },
    /// A recovery action began.
    RecoveryStarted {
        /// When.
        at: SimTime,
        /// On which node.
        node: usize,
        /// Action description.
        action: String,
    },
    /// A recovery action finished.
    RecoveryFinished {
        /// When.
        at: SimTime,
        /// On which node.
        node: usize,
        /// Action description.
        action: String,
        /// When it began.
        started: SimTime,
    },
    /// The recovery manager paged a human.
    HumanNotified {
        /// When.
        at: SimTime,
        /// About which node.
        node: usize,
    },
}

/// One scheduled occurrence in the cluster simulation.
///
/// Every recurring event kind the simulation schedules is a plain enum
/// variant stored inline in the kernel's slot arena — no per-event heap
/// allocation.
pub enum SimEvent {
    /// A client's think (or retry wait) ends.
    Wake {
        /// Which client.
        client: usize,
    },
    /// A request's CPU service completes on a node.
    Complete {
        /// The serving node.
        node: usize,
        /// The finished request.
        rid: ReqId,
    },
    /// A response reaches its client.
    Deliver {
        /// The node that served (or failed) the request.
        node: usize,
        /// The response.
        resp: Response,
    },
    /// The browser gives up waiting on a request.
    ClientTimeout {
        /// The node the request was routed to.
        node: usize,
        /// The request.
        rid: ReqId,
        /// Its operation (for the fabricated timeout response).
        op: OpCode,
    },
    /// The per-second server maintenance sweep.
    Maintenance,
    /// The recovery manager's decision poll.
    RmPoll,
    /// A rejuvenation service's memory check.
    RejuvPoll {
        /// The polled node.
        node: usize,
        /// The poll period (rescheduling carries it along).
        period: SimDuration,
    },
    /// A recovery's crash phase (after any drain window).
    RecoveryCrash {
        /// The recovering node.
        node: usize,
        /// The reboot ticket.
        id: RebootId,
    },
    /// A rejuvenation microreboot completes.
    RejuvDone {
        /// The recovering node.
        node: usize,
        /// The reboot ticket.
        id: RebootId,
        /// The service's poll period (the done handler re-arms the poll).
        period: SimDuration,
        /// When the microreboot began.
        started: SimTime,
    },
    /// A reboot of any depth completes.
    RecoveryDone {
        /// The recovering node.
        node: usize,
        /// The reboot ticket.
        id: RebootId,
        /// The conductor ticket to settle, when the reboot was conducted.
        ticket: Option<TicketId>,
        /// The recovery depth.
        level: RebootLevel,
        /// When it began.
        started: SimTime,
    },
    /// A Table 2 fault injection.
    InjectFault {
        /// The target node.
        node: usize,
        /// The fault.
        fault: Fault,
        /// Skip the injection when the node is mid-reboot at that instant
        /// (a flapping fault recurs only on a live server).
        only_if_up: bool,
    },
    /// An experiment-commanded recovery action.
    CommandRecovery {
        /// The target node.
        node: usize,
        /// The action.
        action: RecoveryAction,
    },
    /// A policy-plane hold (bulkhead isolation or failover-first
    /// redirection) expires on a node.
    PolicyHoldDone {
        /// The held node.
        node: usize,
        /// Whether the hold was a failover redirection (else isolation).
        failover: bool,
        /// When the hold began.
        started: SimTime,
    },
    /// The recovery manager's own process crashes (the ReHype scenario).
    RmCrash,
    /// The recovery manager finishes rebooting and resumes polling.
    RmReboot,
    /// A request held back by a LB↔node delay fault reaches its node.
    SubmitDelayed {
        /// The routed node.
        node: usize,
        /// The delayed request.
        req: Request,
    },
    /// An armed network fault on an edge heals.
    EdgeHeal {
        /// The healing edge.
        edge: NetEdge,
    },
    /// A crashed SSM brick finishes restarting.
    BrickRestore {
        /// The restarting brick.
        brick: usize,
    },
}

impl EventPayload<World> for SimEvent {
    fn fire(self, w: &mut World, q: &mut SimQueue) {
        match self {
            SimEvent::Wake { client } => w.on_wake(client, q),
            SimEvent::Complete { node, rid } => w.on_complete(node, rid, q),
            SimEvent::Deliver { node, resp } => w.on_deliver(node, resp, q),
            SimEvent::ClientTimeout { node, rid, op } => w.on_client_timeout(node, rid, op, q),
            SimEvent::Maintenance => w.on_maintenance(q),
            SimEvent::RmPoll => w.on_rm_poll(q),
            SimEvent::RejuvPoll { node, period } => w.on_rejuv_poll(node, period, q),
            SimEvent::RecoveryCrash { node, id } => w.on_recovery_crash(node, id, q),
            SimEvent::RejuvDone {
                node,
                id,
                period,
                started,
            } => w.on_rejuv_done(node, id, period, started, q),
            SimEvent::RecoveryDone {
                node,
                id,
                ticket,
                level,
                started,
            } => w.on_recovery_done(node, id, ticket, level, started, q),
            SimEvent::InjectFault {
                node,
                fault,
                only_if_up,
            } => w.on_inject_fault(node, fault, only_if_up, q),
            SimEvent::CommandRecovery { node, action } => w.execute_action(node, action, q),
            SimEvent::PolicyHoldDone {
                node,
                failover,
                started,
            } => w.on_policy_hold_done(node, failover, started, q),
            SimEvent::RmCrash => w.on_rm_crash(q),
            SimEvent::RmReboot => w.on_rm_reboot(q),
            SimEvent::SubmitDelayed { node, req } => w.on_submit_delayed(node, req, q),
            SimEvent::EdgeHeal { edge } => w.on_edge_heal(edge, q),
            SimEvent::BrickRestore { brick } => w.on_brick_restore(brick, q),
        }
    }
}

/// The simulation world (servers + LB + clients + RM + bookkeeping).
pub struct World {
    /// The application-server nodes.
    pub nodes: Vec<AppServer<EBid>>,
    /// The load balancer.
    pub lb: LoadBalancer,
    /// The emulated clients.
    pub pool: ClientPool,
    /// The recovery manager, when automatic recovery is on.
    pub rm: Option<RecoveryManager>,
    /// The recovery conductor, when parallel recovery is on.
    pub conductor: Option<Conductor>,
    /// Event log for reports.
    pub log: Vec<LogEvent>,
    /// Per-node rejuvenation services (Section 6.4), when enabled.
    pub rejuv: Vec<Option<RejuvenationService>>,
    /// The shared SSM, when the cluster runs on the external store
    /// (state-plane faults and the integrity ledger attach through it).
    pub ssm: Option<SharedSsm>,
    /// The LB↔node wire shim.
    net: NetShim,
    failover: bool,
    drain: Option<SimDuration>,
    /// The RM's own process is down (ReHype): reports are lost, polls
    /// skip, acknowledgements are dropped until the reboot completes.
    rm_down: bool,
    bus: Option<SharedBus>,
}

impl World {
    fn pump_node(&mut self, node: usize, q: &mut SimQueue) {
        let now = q.now();
        for started in self.nodes[node].pump(now) {
            let rid = started.req;
            q.schedule_event_at(
                started.cpu_done_at,
                "complete",
                SimEvent::Complete { node, rid },
            );
        }
    }

    fn schedule_deliveries(
        &mut self,
        node: usize,
        responses: impl IntoIterator<Item = Response>,
        q: &mut SimQueue,
    ) {
        for resp in responses {
            // The response half of the LB↔node wire shim: an armed fault
            // may lose the response (the client times out), delay it, or
            // deliver it twice (the pool's owner table eats the echo).
            if self.net.drops() {
                continue;
            }
            let at = match self.net.delay() {
                Some(extra) => resp.finished_at + extra,
                None => resp.finished_at,
            };
            if self.net.dupes() {
                q.schedule_event_at(
                    at,
                    "deliver",
                    SimEvent::Deliver {
                        node,
                        resp: resp.clone(),
                    },
                );
            }
            q.schedule_event_at(at, "deliver", SimEvent::Deliver { node, resp });
        }
    }

    /// Unbinds, at the load balancer, the sessions whose cookies clients
    /// just dropped: nothing will be routed by them again.
    fn forget_dropped_sessions(&mut self) {
        for sid in self.pool.drain_dropped_sessions() {
            self.lb.unassign(sid);
        }
    }

    fn on_wake(&mut self, client: usize, q: &mut SimQueue) {
        let now = q.now();
        let woken = self.pool.wake(client, now);
        self.forget_dropped_sessions();
        let Some(out) = woken else {
            return;
        };
        let node = self.lb.route(&out.req, now);
        // Browsers give up eventually: if no response arrived by then, the
        // client observes a timeout (the server may still hold the stuck
        // thread until its TTL lease expires).
        let rid = out.req.id;
        let op = out.req.op;
        // A constant delay from a monotone clock: deadlines never decrease,
        // so the timeouts (nearly all no-ops by the time they fire) queue
        // in the kernel's FIFO lane, out of the heap's way.
        q.schedule_event_fifo(
            now + CLIENT_TIMEOUT,
            "client-timeout",
            SimEvent::ClientTimeout { node, rid, op },
        );
        // The request half of the LB↔node wire shim: an armed partition
        // or loss fault swallows the request (the timeout above is what
        // the client eventually observes); a delay fault holds the submit
        // back by the extra latency.
        if self.net.drops() {
            return;
        }
        if let Some(extra) = self.net.delay() {
            q.schedule_event_at(
                now + extra,
                "submit-delayed",
                SimEvent::SubmitDelayed { node, req: out.req },
            );
            return;
        }
        // urb-lint: allow(S004) — the LB's routing decision is the cluster's one sanctioned cross-node entry; under the sharded kernel (ROADMAP item 1) this submit becomes a shard-targeted event send.
        match self.nodes[node].submit(out.req, now) {
            SubmitOutcome::Rejected(resp) => self.schedule_deliveries(node, Some(resp), q),
            SubmitOutcome::Admitted => self.pump_node(node, q),
        }
    }

    /// Delivers a request the wire's delay fault held back.
    fn on_submit_delayed(&mut self, node: usize, req: Request, q: &mut SimQueue) {
        let now = q.now();
        match self.nodes[node].submit(req, now) {
            SubmitOutcome::Rejected(resp) => self.schedule_deliveries(node, Some(resp), q),
            SubmitOutcome::Admitted => self.pump_node(node, q),
        }
    }

    fn on_client_timeout(&mut self, node: usize, rid: ReqId, op: OpCode, q: &mut SimQueue) {
        if self.pool.owner_of(rid).is_none() {
            return; // Answered in time.
        }
        let timeout_resp = Response {
            req: rid,
            op,
            status: urb_core::Status::TimedOut,
            markers: urb_core::BodyMarkers::default(),
            tainted: false,
            finished_at: q.now(),
            failed_component: None,
            set_cookie: None,
            clear_cookie: false,
        };
        self.on_deliver(node, timeout_resp, q);
    }

    fn on_complete(&mut self, node: usize, rid: ReqId, q: &mut SimQueue) {
        let now = q.now();
        if let Some(resp) = self.nodes[node].complete(rid, now) {
            self.schedule_deliveries(node, Some(resp), q);
        }
        self.pump_node(node, q);
    }

    fn on_deliver(&mut self, node: usize, resp: Response, q: &mut SimQueue) {
        let now = q.now();
        if let Some(sid) = resp.set_cookie {
            self.lb.assign(sid, node);
        }
        match self.pool.deliver(&resp, node, now) {
            Some((client, DeliverOutcome::ThinkUntil(t)))
            | Some((client, DeliverOutcome::RetryAt(t))) => {
                q.schedule_event_at(t, "wake", SimEvent::Wake { client });
            }
            None => {}
        }
        self.forget_dropped_sessions();
        if let Some(rm) = &mut self.rm {
            // Reports arriving while the RM itself is down (ReHype) are
            // lost with it — drained and dropped, never replayed.
            for r in self.pool.drain_reports() {
                if !self.rm_down {
                    rm.report(&r);
                }
            }
        }
    }

    fn on_maintenance(&mut self, q: &mut SimQueue) {
        let now = q.now();
        for node in 0..self.nodes.len() {
            // urb-lint: allow(S004) — the maintenance sweep visits every node in index order; under the sharded kernel it becomes per-shard epoch-barrier events.
            let killed = self.nodes[node].maintenance(now);
            self.schedule_deliveries(node, killed, q);
            self.pump_node(node, q);
        }
        // The performance plane piggybacks on the sweep: anomaly reports
        // it raises reach the manager on the same cadence as client ones
        // (and are lost with it while the RM is down, like all reports).
        // With the plane disarmed the sweep must not touch the report
        // queue at all — classic reports drain on delivery, and their
        // timing is part of the pinned-digest contract.
        self.pool.perf_tick(now);
        if self.pool.perf().is_some() && self.rm.is_some() {
            for r in self.pool.drain_reports() {
                if !self.rm_down {
                    if let Some(rm) = &mut self.rm {
                        rm.report(&r);
                    }
                }
            }
        }
        // Forward state-store telemetry (brick failures/restores, lease
        // expiries) accumulated since the last sweep. Empty in healthy
        // runs: the store only queues events on its fault surface.
        self.drain_store_events();
        q.schedule_event_in(
            SimDuration::from_secs(1),
            "maintenance",
            SimEvent::Maintenance,
        );
    }

    /// Forwards the SSM's queued telemetry events to the bus (and drops
    /// them when no bus is attached, so the queue cannot grow unbounded).
    fn drain_store_events(&mut self) {
        let Some(ssm) = &self.ssm else {
            return;
        };
        let events = ssm.borrow_mut().take_events();
        if let Some(bus) = &self.bus {
            let mut bus = bus.borrow_mut();
            for ev in &events {
                bus.emit(ev);
            }
        }
    }

    /// Emits a net-fault telemetry mark, when a bus is attached.
    fn emit_net(&mut self, ev: TelemetryEvent) {
        if let Some(bus) = &self.bus {
            bus.borrow_mut().emit(&ev);
        }
    }

    fn on_rejuv_poll(&mut self, node: usize, period: SimDuration, q: &mut SimQueue) {
        let now = q.now();
        if matches!(self.rejuv.get(node), Some(Some(_))) {
            let free = self.nodes[node].available_memory();
            if let Some(bus) = &self.bus {
                bus.borrow_mut().emit(&TelemetryEvent::RejuvenationTick {
                    node,
                    free_bytes: free,
                    at: now,
                });
            }
        }
        if let Some(Some(service)) = self.rejuv.get_mut(node) {
            // Record the outcome of a finished rejuvenation microreboot
            // (free memory was sampled after the reboot completed).
            let action = {
                let server = &mut self.nodes[node];
                service.check(server, now)
            };
            match action {
                RejuvenationAction::Idle => {}
                RejuvenationAction::Microreboot { component, ticket } => {
                    self.log.push(LogEvent::RecoveryStarted {
                        at: now,
                        node,
                        action: format!("rejuvenation microreboot {component}"),
                    });
                    self.pool.perf_mask(ticket.done_at);
                    let id = ticket.id;
                    q.schedule_event_at(
                        ticket.crash_at,
                        "rejuv-crash",
                        SimEvent::RecoveryCrash { node, id },
                    );
                    q.schedule_event_at(
                        ticket.done_at,
                        "rejuv-done",
                        SimEvent::RejuvDone {
                            node,
                            id,
                            period,
                            started: now,
                        },
                    );
                    return; // The done handler reschedules the poll.
                }
                RejuvenationAction::NeedsProcessRestart => {
                    self.execute_action(node, RecoveryAction::RestartProcess, q);
                }
            }
        }
        q.schedule_event_in(period, "rejuv-poll", SimEvent::RejuvPoll { node, period });
    }

    fn on_rejuv_done(
        &mut self,
        node: usize,
        id: RebootId,
        period: SimDuration,
        started: SimTime,
        q: &mut SimQueue,
    ) {
        let t = q.now();
        let members = self.nodes[node].recovery_complete(id, t);
        let free = self.nodes[node].available_memory();
        if let Some(Some(service)) = self.rejuv.get_mut(node) {
            service.record_completion(free);
        }
        self.log.push(LogEvent::RecoveryFinished {
            at: t,
            node,
            action: format!("rejuvenation microreboot {members:?}"),
            started,
        });
        self.pump_node(node, q);
        // Re-check immediately: one component may not have released
        // enough.
        self.on_rejuv_poll(node, period, q);
    }

    fn on_rm_poll(&mut self, q: &mut SimQueue) {
        let now = q.now();
        if self.rm.is_some() && !self.rm_down {
            for node in 0..self.nodes.len() {
                // With a conductor the manager may issue several decisions
                // per poll (up to its concurrency budget); the baseline
                // keeps the historical one-decision-per-poll cadence.
                loop {
                    let action = self.rm.as_mut().and_then(|rm| rm.decide(node, now));
                    let Some(action) = action else { break };
                    if self.conductor.is_some() {
                        self.conduct(node, action, q);
                    } else {
                        self.execute_action(node, action, q);
                        break;
                    }
                }
            }
        }
        q.schedule_event_in(SimDuration::from_millis(300), "rm-poll", SimEvent::RmPoll);
    }

    fn redirect(&mut self, node: usize, on: bool) {
        if self.failover && self.lb.nodes() > 1 {
            self.lb.set_redirect(node, on);
        }
    }

    fn recovery_finished(&mut self, node: usize, now: SimTime) {
        // Acknowledgements raised while the RM is down are lost (ReHype);
        // post-reboot the policy's saturating bookkeeping absorbs any
        // stragglers for actions it no longer remembers.
        if self.rm_down {
            return;
        }
        if let Some(rm) = &mut self.rm {
            rm.recovery_finished(node, now);
        }
    }

    fn on_recovery_crash(&mut self, node: usize, id: RebootId, q: &mut SimQueue) {
        let now = q.now();
        let killed = self.nodes[node].recovery_crash(id, now);
        self.schedule_deliveries(node, killed, q);
        self.pump_node(node, q);
    }

    /// Completes a reboot and acknowledges it: straight to the manager,
    /// or through the conductor ticket that carried it.
    fn on_recovery_done(
        &mut self,
        node: usize,
        id: RebootId,
        ticket: Option<TicketId>,
        level: RebootLevel,
        started: SimTime,
        q: &mut SimQueue,
    ) {
        let now = q.now();
        let members = self.nodes[node].recovery_complete(id, now);
        let action = match level {
            RebootLevel::Component => format!("microreboot {members:?}"),
            RebootLevel::Application => "app restart".into(),
            RebootLevel::Process => "process restart".into(),
            RebootLevel::OperatingSystem => "OS reboot".into(),
        };
        self.log.push(LogEvent::RecoveryFinished {
            at: now,
            node,
            action,
            started,
        });
        match ticket {
            Some(ticket) => {
                self.pump_node(node, q);
                self.finish_conducted(node, ticket, q);
            }
            None => {
                self.recovery_finished(node, now);
                self.redirect(node, false);
                self.pump_node(node, q);
            }
        }
    }

    /// Executes a recovery action on a node (from the RM or an
    /// experiment): a policy-plane hold or a human page here, a reboot of
    /// any depth through [`World::begin_reboot`].
    fn execute_action(&mut self, node: usize, action: RecoveryAction, q: &mut SimQueue) {
        let now = q.now();
        self.log.push(LogEvent::RecoveryStarted {
            at: now,
            node,
            action: format!("{action:?}"),
        });
        match action {
            RecoveryAction::Isolate { components } => {
                // Bulkhead: admission-control the blast radius instead of
                // rebooting — the LB sheds the components' traffic for a
                // hold period, then the hold-done handler lifts it and
                // acknowledges the action.
                let members = components.len() as u32;
                self.lb.set_quarantine(node, components);
                if let Some(bus) = &self.bus {
                    bus.borrow_mut().emit(&TelemetryEvent::QuarantineOn {
                        node,
                        members,
                        at: now,
                    });
                }
                self.pool.perf_mask(now + POLICY_HOLD);
                q.schedule_event_in(
                    POLICY_HOLD,
                    "policy-hold",
                    SimEvent::PolicyHoldDone {
                        node,
                        failover: false,
                        started: now,
                    },
                );
            }
            RecoveryAction::Failover => {
                // Failover-first: steer the node's traffic to its peers
                // for a hold period without touching the node itself.
                if let Some(bus) = &self.bus {
                    bus.borrow_mut()
                        .emit(&TelemetryEvent::FailoverEngaged { node, at: now });
                }
                self.redirect(node, true);
                self.pool.perf_mask(now + POLICY_HOLD);
                q.schedule_event_in(
                    POLICY_HOLD,
                    "policy-hold",
                    SimEvent::PolicyHoldDone {
                        node,
                        failover: true,
                        started: now,
                    },
                );
            }
            RecoveryAction::NotifyHuman => {
                self.log.push(LogEvent::HumanNotified { at: now, node });
                self.recovery_finished(node, now);
            }
            reboot => self.begin_reboot(node, reboot, None, q),
        }
    }

    /// Begins the reboot `action` names on `node` — the one path for every
    /// depth, conducted (`ticket`) or not: map the action to its
    /// [`RebootLevel`], begin the recovery through the server's lifecycle
    /// API, run (or schedule) the crash phase, and schedule the
    /// completion.
    fn begin_reboot(
        &mut self,
        node: usize,
        action: RecoveryAction,
        ticket: Option<TicketId>,
        q: &mut SimQueue,
    ) {
        let now = q.now();
        let (level, components) = match action {
            RecoveryAction::Microreboot { components } => (RebootLevel::Component, components),
            RecoveryAction::RestartApp => (RebootLevel::Application, Vec::new()),
            RecoveryAction::RestartProcess => (RebootLevel::Process, Vec::new()),
            RecoveryAction::RebootOs => (RebootLevel::OperatingSystem, Vec::new()),
            RecoveryAction::NotifyHuman
            | RecoveryAction::Isolate { .. }
            | RecoveryAction::Failover => {
                unreachable!("policy-plane actions are not reboots")
            }
        };
        // The drain window (Table 6) only applies to microreboots; coarse
        // restarts kill unconditionally.
        let drain = match level {
            RebootLevel::Component => self.drain,
            _ => None,
        };
        let names: Vec<&str> = components.iter().map(|c| c.as_str()).collect();
        let Ok(reboot) = self.nodes[node].begin_recovery(level, &names, now, drain) else {
            // Nothing to do (already rebooting, a racing reboot holds a
            // member, or the process is down): settle the action so the
            // manager can escalate.
            match ticket {
                Some(ticket) => self.finish_conducted(node, ticket, q),
                None => self.recovery_finished(node, now),
            }
            return;
        };
        match ticket {
            Some(_) => self.sync_routing(node),
            None => self.redirect(node, true),
        }
        self.pool.perf_mask(reboot.done_at);
        let id = reboot.id;
        if level == RebootLevel::Component {
            // The crash phase waits out the drain window.
            q.schedule_event_at(
                reboot.crash_at,
                "recovery-crash",
                SimEvent::RecoveryCrash { node, id },
            );
        } else {
            let killed = self.nodes[node].recovery_crash(id, now);
            self.schedule_deliveries(node, killed, q);
        }
        q.schedule_event_at(
            reboot.done_at,
            "recovery-done",
            SimEvent::RecoveryDone {
                node,
                id,
                ticket,
                level,
                started: now,
            },
        );
    }

    /// Lifts an expired policy-plane hold and acknowledges the action.
    fn on_policy_hold_done(
        &mut self,
        node: usize,
        failover: bool,
        started: SimTime,
        q: &mut SimQueue,
    ) {
        let now = q.now();
        if failover {
            self.redirect(node, false);
        } else {
            self.lb.set_quarantine(node, Vec::new());
            if let Some(bus) = &self.bus {
                bus.borrow_mut()
                    .emit(&TelemetryEvent::QuarantineOff { node, at: now });
            }
        }
        self.log.push(LogEvent::RecoveryFinished {
            at: now,
            node,
            action: if failover {
                "failover hold".into()
            } else {
                "isolation hold".into()
            },
            started,
        });
        self.recovery_finished(node, now);
        self.pump_node(node, q);
    }

    /// The RM's own process crashes (ReHype): volatile diagnosis state is
    /// wiped; reports, polls and acknowledgements are lost until reboot.
    fn on_rm_crash(&mut self, q: &mut SimQueue) {
        let now = q.now();
        if let Some(rm) = &mut self.rm {
            rm.crash(now);
            self.rm_down = true;
        }
    }

    /// The RM finishes rebooting and resumes from a blank slate.
    fn on_rm_reboot(&mut self, q: &mut SimQueue) {
        let now = q.now();
        if let Some(rm) = &mut self.rm {
            rm.rebooted(now);
            self.rm_down = false;
        }
    }

    /// Routes a manager decision through the conductor: expansion to the
    /// recovery group, coalescing, conflict scheduling and quarantine.
    fn conduct(&mut self, node: usize, action: RecoveryAction, q: &mut SimQueue) {
        // Human pages and policy-plane holds are not reboots — nothing to
        // schedule around; the executor handles them directly.
        if matches!(
            action,
            RecoveryAction::NotifyHuman | RecoveryAction::Isolate { .. } | RecoveryAction::Failover
        ) {
            self.execute_action(node, action, q);
            return;
        }
        let now = q.now();
        let conductor = self
            .conductor
            .as_mut()
            .expect("conduct requires a conductor");
        match conductor.submit(node, action, now) {
            Submission::Started(cmd) => self.start_conducted(node, cmd, q),
            // Queued and coalesced decisions are settled (acknowledged to
            // the manager) when their carrying ticket finishes.
            Submission::Queued(_) | Submission::Coalesced(_) => {}
        }
        self.sync_routing(node);
    }

    /// Begins executing a conductor ticket on a node.
    fn start_conducted(&mut self, node: usize, cmd: StartCmd, q: &mut SimQueue) {
        self.log.push(LogEvent::RecoveryStarted {
            at: q.now(),
            node,
            action: format!("{:?}", cmd.action),
        });
        self.begin_reboot(node, cmd.action, Some(cmd.ticket), q);
    }

    /// Settles a finished (or unexecutable) ticket: acknowledges every
    /// decision it carried to the manager, refreshes routing, and starts
    /// whatever the conductor promoted from the queue.
    fn finish_conducted(&mut self, node: usize, ticket: TicketId, q: &mut SimQueue) {
        let now = q.now();
        let fin = self
            .conductor
            .as_mut()
            .expect("conducted tickets require a conductor")
            .on_finished(node, ticket, now);
        for _ in 0..fin.acks {
            self.recovery_finished(node, now);
        }
        self.sync_routing(node);
        for cmd in fin.start {
            self.start_conducted(node, cmd, q);
        }
    }

    fn on_inject_fault(&mut self, node: usize, fault: Fault, only_if_up: bool, q: &mut SimQueue) {
        if only_if_up && !self.nodes[node].is_up() {
            return;
        }
        let now = q.now();
        self.log.push(LogEvent::FaultInjected {
            at: now,
            node,
            label: format!("{fault:?}"),
        });
        match faults::conversion(&fault) {
            faults::Injection::ClientReports(reports) => {
                const OPS: [urb_core::OpCode; 4] = [
                    ebid::ops::codes::VIEW_ITEM,
                    ebid::ops::codes::BROWSE_CATEGORIES,
                    ebid::ops::codes::MAKE_BID,
                    ebid::ops::codes::SEARCH_BY_CATEGORY,
                ];
                for i in 0..reports {
                    self.pool
                        .inject_spurious_reports(node, OPS[i as usize % OPS.len()], 1, now);
                }
            }
            faults::Injection::StorePlane(store_fault) => {
                self.inject_store_fault(store_fault, q);
            }
            faults::Injection::NetPlane {
                edge,
                fault: link_fault,
                heals_after,
            } => {
                self.inject_net_fault(edge, link_fault, heals_after, q);
            }
            _ => {
                let killed = faults::inject(&mut self.nodes[node], &fault, now);
                self.schedule_deliveries(node, killed, q);
            }
        }
    }

    /// Delivers a state-plane fault into the shared SSM. A no-op on
    /// FastS-only clusters (there is no external store to break).
    fn inject_store_fault(&mut self, fault: StoreFault, q: &mut SimQueue) {
        let now = q.now();
        let Some(ssm) = self.ssm.clone() else {
            return;
        };
        ssm.borrow_mut().advance_to(now);
        match fault {
            StoreFault::BrickCrash { brick, heals_after } => {
                ssm.borrow_mut().fail_brick(brick);
                q.schedule_event_at(
                    now + heals_after,
                    "brick-restore",
                    SimEvent::BrickRestore { brick },
                );
            }
            StoreFault::BrickCorrupt { brick } => {
                ssm.borrow_mut().corrupt_brick(brick);
                self.emit_net(TelemetryEvent::NetFaultInjected {
                    edge: NetEdge::NodeStore.code(),
                    kind: 5,
                    at: now,
                });
            }
            StoreFault::LeaseStorm => {
                ssm.borrow_mut().storm_leases();
            }
            StoreFault::Slow {
                factor_permille,
                heals_after,
            } => {
                // The SSM's base access RTT is 6.2 ms; the fault inflates
                // it by factor_permille/1000.
                let extra = SimDuration::from_micros(6_200 * u64::from(factor_permille) / 1000);
                ssm.borrow_mut().set_extra_latency(extra);
                self.emit_net(TelemetryEvent::NetFaultInjected {
                    edge: NetEdge::NodeStore.code(),
                    kind: 4,
                    at: now,
                });
                q.schedule_event_at(
                    now + heals_after,
                    "edge-heal",
                    SimEvent::EdgeHeal {
                        edge: NetEdge::NodeStore,
                    },
                );
            }
        }
        self.drain_store_events();
    }

    /// Arms a network fault on an edge and schedules its heal. LB↔node
    /// faults live in the wire shim; node↔store faults arm the SSM's own
    /// deterministic shim (a no-op on FastS-only clusters).
    fn inject_net_fault(
        &mut self,
        edge: NetEdge,
        fault: LinkFault,
        heals_after: SimDuration,
        q: &mut SimQueue,
    ) {
        let now = q.now();
        match edge {
            NetEdge::LbNode => self.net.arm(fault),
            NetEdge::NodeStore => {
                let Some(ssm) = &self.ssm else {
                    return;
                };
                let mut s = ssm.borrow_mut();
                s.advance_to(now);
                match fault {
                    LinkFault::Partition => s.set_partitioned(true),
                    LinkFault::Lossy { permille } => s.set_lossy(permille),
                    LinkFault::Delay { extra } => s.set_extra_latency(extra),
                    LinkFault::Dupe { permille } => s.set_dupe(permille),
                }
            }
        }
        let kind = match fault {
            LinkFault::Partition => 0,
            LinkFault::Lossy { .. } => 1,
            LinkFault::Delay { .. } => 2,
            LinkFault::Dupe { .. } => 3,
        };
        self.emit_net(TelemetryEvent::NetFaultInjected {
            edge: edge.code(),
            kind,
            at: now,
        });
        q.schedule_event_at(now + heals_after, "edge-heal", SimEvent::EdgeHeal { edge });
    }

    /// Heals every armed fault on an edge.
    fn on_edge_heal(&mut self, edge: NetEdge, q: &mut SimQueue) {
        let now = q.now();
        match edge {
            NetEdge::LbNode => self.net.heal(),
            NetEdge::NodeStore => {
                if let Some(ssm) = &self.ssm {
                    ssm.borrow_mut().clear_net_faults();
                }
            }
        }
        self.emit_net(TelemetryEvent::NetFaultHealed {
            edge: edge.code(),
            at: now,
        });
    }

    /// A crashed SSM brick restarts (empty; it repopulates on writes).
    fn on_brick_restore(&mut self, brick: usize, q: &mut SimQueue) {
        let now = q.now();
        if let Some(ssm) = &self.ssm {
            let mut s = ssm.borrow_mut();
            s.advance_to(now);
            s.restore_brick(brick);
        }
        self.drain_store_events();
    }

    /// Reconciles LB routing with the conductor's view of the node: coarse
    /// recoveries drain the whole node, component recoveries quarantine
    /// only their blast radius (or drain the node when quarantine is off).
    fn sync_routing(&mut self, node: usize) {
        let Some(conductor) = &self.conductor else {
            return;
        };
        let coarse = conductor.has_coarse_active(node);
        let component = conductor.has_component_active(node);
        let quarantine_on = conductor.config().quarantine;
        let members = quarantine_on.then(|| conductor.quarantined(node));
        self.redirect(node, coarse || (component && !quarantine_on));
        if let Some(members) = members {
            self.lb.set_quarantine(node, members);
        }
    }
}

/// One experiment run.
pub struct Sim {
    world: World,
    queue: SimQueue,
}

impl Sim {
    /// Builds a simulation per `config` and arms the client population.
    pub fn new(config: SimConfig) -> Self {
        let dataset = DatasetSpec::default();
        let db = share_db(dataset.generate(config.seed));
        let shared_ssm = match config.store {
            StoreChoice::Ssm => Some(share_ssm(Ssm::new(3))),
            StoreChoice::FastS => None,
        };
        let mut nodes = Vec::with_capacity(config.nodes);
        for n in 0..config.nodes {
            let session = match (&config.store, &shared_ssm) {
                (StoreChoice::Ssm, Some(ssm)) => SessionBackend::Ssm(ssm.clone()),
                _ => SessionBackend::FastS(statestore::FastS::new()),
            };
            let server = AppServer::new(
                EBid::new(dataset),
                ServerConfig {
                    node: n,
                    retry_enabled: config.retry_enabled,
                    quarantine_enabled: config.conductor.is_some_and(|c| c.quarantine),
                    seed: config.seed ^ (0x9e3779b9 * (n as u64 + 1)),
                    ..ServerConfig::default()
                },
                db.clone(),
                session,
            );
            nodes.push(server);
        }
        let mut pool = ClientPool::new(
            catalog(&dataset),
            ClientPoolConfig {
                clients: config.nodes * config.clients_per_node,
                detector: config.detector,
                retry_policy: config.retry_policy,
                seed: config.seed ^ 0x00c1_1e17,
            },
        );
        if let Some(perf) = config.perf {
            pool.enable_perf(perf);
        }
        let rm = config.rm.map(|rm_config| {
            RecoveryManager::with_policy(
                config.policy,
                config.nodes,
                rm_config,
                ebid::ops::call_path,
                "WAR",
                config.seed,
            )
        });
        let conductor = config
            .conductor
            .map(|cc| Conductor::new(config.nodes, cc, nodes[0].graph(), ebid::ops::call_path));
        let mut lb = LoadBalancer::new(config.nodes);
        // The bulkhead policy sheds via LB quarantine even without a
        // conductor, so any non-paper policy needs the path map armed.
        if config.conductor.is_some_and(|c| c.quarantine) || config.policy != PolicyChoice::Ladder {
            lb.set_path_map(ebid::ops::call_path);
        }
        let rejuv = (0..config.nodes).map(|_| None).collect();
        let mut world = World {
            nodes,
            lb,
            pool,
            rm,
            conductor,
            log: Vec::new(),
            rejuv,
            ssm: shared_ssm,
            net: NetShim::default(),
            failover: config.failover,
            drain: config.drain,
            rm_down: false,
            bus: None,
        };
        let mut queue = SimQueue::new();
        for (client, at) in world.pool.initial_wakes(SimTime::ZERO) {
            queue.schedule_event_at(at, "wake", SimEvent::Wake { client });
        }
        queue.schedule_event_at(SimTime::from_secs(1), "maintenance", SimEvent::Maintenance);
        queue.schedule_event_at(SimTime::from_millis(300), "rm-poll", SimEvent::RmPoll);
        Sim { world, queue }
    }

    /// Attaches a telemetry bus to every layer of the simulation: all
    /// server nodes, the load balancer, the recovery manager, the
    /// conductor, the client pool, and the world's own rejuvenation ticks
    /// all emit into `bus`.
    pub fn attach_telemetry(&mut self, bus: SharedBus) {
        for node in &mut self.world.nodes {
            node.attach_telemetry(bus.clone());
        }
        if let Some(rm) = &mut self.world.rm {
            rm.attach_telemetry(bus.clone());
        }
        if let Some(conductor) = &mut self.world.conductor {
            conductor.attach_telemetry(bus.clone());
        }
        self.world.lb.attach_telemetry(bus.clone());
        self.world.pool.attach_telemetry(bus.clone());
        self.world.bus = Some(bus);
    }

    /// Records the DES kernel's end-of-run gauges — events processed,
    /// queue depth, simulated seconds, and (when `wall_seconds` is given)
    /// simulated time advanced per wall-second — into `reg`. Gauges are
    /// read out of the kernel, never fed back in, so this cannot perturb
    /// the run.
    pub fn record_kernel_gauges(
        &self,
        reg: &mut simcore::MetricsRegistry,
        wall_seconds: Option<f64>,
    ) {
        simcore::metrics::record_kernel_gauges(
            reg,
            self.queue.events_fired(),
            self.queue.pending(),
            self.queue.now(),
            wall_seconds,
        );
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Read access to the world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the world (between events).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Schedules a Table 2 fault injection.
    ///
    /// Server-plane faults go through `faults::inject`; client-plane
    /// faults (spurious detector reports) are fabricated in the client
    /// pool instead, spread across the busiest read/write ops so the
    /// diagnosis engine sees a plausible — but entirely false — pattern.
    pub fn schedule_fault(&mut self, at: SimTime, node: usize, fault: Fault) {
        self.schedule_injection(at, node, fault, false);
    }

    /// Schedules a recurrence of a flapping fault: injected like
    /// [`Sim::schedule_fault`], but only if the node is up at `at` —
    /// re-injecting into a mid-reboot node would be cured by the
    /// reboot's own state teardown anyway.
    pub fn schedule_fault_if_up(&mut self, at: SimTime, node: usize, fault: Fault) {
        self.schedule_injection(at, node, fault, true);
    }

    fn schedule_injection(&mut self, at: SimTime, node: usize, fault: Fault, only_if_up: bool) {
        self.queue.schedule_event_at(
            at,
            "inject-fault",
            SimEvent::InjectFault {
                node,
                fault,
                only_if_up,
            },
        );
    }

    /// Schedules a crash of the recovery manager itself at `at`, with the
    /// RM's host rebooting `outage` later (ReHype-style). While down the
    /// RM loses volatile diagnosis state and drops reports, polls and
    /// recovery acknowledgements on the floor.
    pub fn schedule_rm_crash(&mut self, at: SimTime, outage: SimDuration) {
        self.queue
            .schedule_event_at(at, "rm-crash", SimEvent::RmCrash);
        self.queue
            .schedule_event_at(at + outage, "rm-reboot", SimEvent::RmReboot);
    }

    /// Schedules a recovery action (for runs without an RM, and for the
    /// false-positive experiments that command "useless" recoveries).
    pub fn schedule_recovery(&mut self, at: SimTime, node: usize, action: RecoveryAction) {
        self.queue.schedule_event_at(
            at,
            "command-recovery",
            SimEvent::CommandRecovery { node, action },
        );
    }

    /// Enables the Section 6.4 rejuvenation service on a node, checking
    /// free memory every `period`.
    pub fn enable_rejuvenation(
        &mut self,
        node: usize,
        malarm: u64,
        msufficient: u64,
        period: SimDuration,
    ) {
        let components: Vec<&'static str> = self.world.nodes[node]
            .graph()
            .all_ids()
            .map(|id| self.world.nodes[node].graph().name_of(id))
            .collect();
        self.world.rejuv[node] = Some(RejuvenationService::new(components, malarm, msufficient));
        self.queue
            .schedule_event_in(period, "rejuv-poll", SimEvent::RejuvPoll { node, period });
    }

    /// Runs the simulation up to (and including) `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.queue.run_until(&mut self.world, deadline);
    }

    /// Ends the run: closes all open user actions and returns the world.
    pub fn finish(mut self) -> World {
        self.world.pool.taw().close_all();
        self.world
    }
}
