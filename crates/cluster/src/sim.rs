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
use faults::{Fault, NetEdge};
use recovery::conductor::{Conductor, ConductorConfig, TicketId};
use recovery::{PolicyChoice, RecoveryAction, RecoveryManager, RmConfig};
use simcore::telemetry::{SharedBus, TelemetryEvent};
use simcore::{EventPayload, EventQueue, SimDuration, SimTime};
use statestore::session::CorruptKind;
use statestore::{Ssm, Value};
use urb_core::backend::{share_db, share_ssm, SessionBackend, SharedSsm};
use urb_core::rejuvenation::RejuvenationService;
use urb_core::server::RebootId;
use urb_core::{AppServer, OpCode, ReqId, Request, Response, ServerConfig, SubmitOutcome};
use workload::{ClientPool, ClientPoolConfig, DeliverOutcome, DetectorKind, RetryPolicy};

use crate::lb::LoadBalancer;
use crate::net::{LinkFault, NetShim};

/// How long an emulated client waits for a response before giving up.
///
/// Long enough that overload-induced queueing (Figure 4 sees 12-second
/// responses in the paper) completes rather than failing — the 8-second
/// mark is a user-experience threshold, not a failure detector. Hung
/// requests (deadlocks, infinite loops) are purged earlier by the
/// server's own 30-second request TTL, whose `TimedOut` response is what
/// the monitors attribute to the stuck URL.
const CLIENT_TIMEOUT: SimDuration = SimDuration::from_secs(60);

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
    /// Which detector the monitors run. [`DetectorKind::LatencyAnomaly`]
    /// also arms the performance-observability plane (latency sketches,
    /// fail-slow anomaly detection, parity gating): it adds telemetry
    /// events and failure reports but schedules no events and draws no
    /// randomness of its own — it piggybacks on the per-second
    /// maintenance sweep.
    pub detector: DetectorKind,
    /// Recovery-manager configuration; `None` disables automatic recovery
    /// (experiments then command recovery directly).
    pub rm: Option<RmConfig>,
    /// Which recovery policy the manager hosts. `Ladder` (the default)
    /// reproduces the paper's recursive policy bit-for-bit, `RebootFirst`
    /// its "recover by JVM restart" baseline; all compete in the tournament.
    pub policy: PolicyChoice,
    /// Recovery-conductor configuration: every reboot is a ticket, expanded
    /// to its recovery group, coalesced, run concurrently up to the cap when
    /// conflict-free, and optionally quarantined. `None` means cap 1 without
    /// quarantine, one reboot at a time per node; it is an `Option` only
    /// because urbmark names the type (ROADMAP item 1).
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
            rm: None,
            policy: PolicyChoice::Ladder,
            conductor: None,
            failover: false,
            retry_policy: RetryPolicy::None,
            seed: 0xeb1d,
        }
    }
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
    },
    /// A reboot of any depth completes.
    RecoveryDone {
        /// The recovering node.
        node: usize,
        /// The reboot ticket.
        id: RebootId,
        /// The conductor ticket to settle.
        ticket: TicketId,
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
            SimEvent::RejuvDone { node, id, period } => w.on_rejuv_done(node, id, period, q),
            SimEvent::RecoveryDone { node, id, ticket } => w.on_recovery_done(node, id, ticket, q),
            SimEvent::InjectFault {
                node,
                fault,
                only_if_up,
            } => w.on_inject_fault(node, fault, only_if_up, q),
            SimEvent::CommandRecovery { node, action } => w.execute_action(node, action, q),
            SimEvent::PolicyHoldDone { node, failover } => w.on_policy_hold_done(node, failover, q),
            SimEvent::RmCrash => w.on_rm_crash(q),
            SimEvent::RmReboot => w.on_rm_reboot(q),
            SimEvent::SubmitDelayed { node, req } => w.submit_to(node, req, q),
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
    /// The recovery conductor. Always `Some`: an `Option` only because
    /// urbmark names the type (ROADMAP item 1).
    pub conductor: Option<Conductor>,
    /// Per-node rejuvenation services (Section 6.4), when enabled.
    pub rejuv: Vec<Option<RejuvenationService>>,
    /// The shared SSM, when the cluster runs on the external store
    /// (state-plane faults and the integrity ledger attach through it).
    pub ssm: Option<SharedSsm>,
    /// The LB↔node wire shim.
    pub(crate) net: NetShim,
    pub(crate) failover: bool,
    pub(crate) drain: Option<SimDuration>,
    /// The RM's own process is down (ReHype): reports are lost, polls
    /// skip, acknowledgements are dropped until the reboot completes.
    pub(crate) rm_down: bool,
    pub(crate) bus: Option<SharedBus>,
}

impl World {
    pub(crate) fn pump_node(&mut self, node: usize, q: &mut SimQueue) {
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

    pub(crate) fn schedule_deliveries(
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
        self.submit_to(node, out.req, q);
    }

    /// Hands a routed request to its node: straight from the client's wake,
    /// or once the wire's delay fault lets it through.
    fn submit_to(&mut self, node: usize, req: Request, q: &mut SimQueue) {
        match self.nodes[node].submit(req, q.now()) {
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
        self.forward_reports();
    }

    /// Hands the pool's queued failure reports to the recovery manager.
    /// Reports arriving while the RM itself is down (ReHype) are lost with
    /// it — drained and dropped, never replayed.
    fn forward_reports(&mut self) {
        let Some(rm) = &mut self.rm else {
            return;
        };
        for r in self.pool.drain_reports() {
            if !self.rm_down {
                rm.report(&r);
            }
        }
    }

    fn on_maintenance(&mut self, q: &mut SimQueue) {
        let now = q.now();
        for node in 0..self.nodes.len() {
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
        if self.pool.perf().is_some() {
            self.forward_reports();
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

    /// Emits a telemetry event of the world's own, when a bus is attached.
    pub(crate) fn emit(&mut self, ev: TelemetryEvent) {
        if let Some(bus) = &self.bus {
            bus.borrow_mut().emit(&ev);
        }
    }

    fn on_inject_fault(&mut self, node: usize, fault: Fault, only_if_up: bool, q: &mut SimQueue) {
        if only_if_up && !self.nodes[node].is_up() {
            return;
        }
        let now = q.now();
        match fault {
            Fault::SpuriousReports { reports } => {
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
            Fault::CorruptPrimaryKeys { kind } => self.nodes[node].app_mut().corrupt_keygen(kind),
            Fault::CorruptFastS { kind } => {
                // Bit flips hit a swath of stored objects. Target the most
                // recently created sessions: abandoned sessions linger in
                // the store until they time out, and corrupting those
                // would be invisible.
                if let Some(fasts) = self.nodes[node].session_mut().fasts_mut() {
                    let victims: Vec<_> = fasts.session_ids().into_iter().rev().take(25).collect();
                    for id in victims {
                        fasts.corrupt(id, kind);
                    }
                }
            }
            Fault::CorruptSsm => {
                if let Some(ssm) = self.nodes[node].session().ssm_handle() {
                    ssm.borrow_mut().corrupt_any();
                }
            }
            Fault::CorruptDb { kind } => {
                let db = self.nodes[node].db();
                let mut db = db.borrow_mut();
                let _ = match kind {
                    CorruptKind::SetNull => db.corrupt_cell("items", 1, 1, Value::Null),
                    CorruptKind::SetInvalid => db.corrupt_cell("items", 1, 6, Value::Float(-500.0)),
                    CorruptKind::SetWrong => db.corrupt_swap_rows("items", 1, 2),
                };
            }
            // Store-tier faults hit the shared SSM, which no server
            // process owns; on a FastS-only cluster they are no-ops.
            Fault::BrickCrash {
                brick,
                heals_after_s,
            } => {
                let Some(ssm) = self.ssm_at(now) else {
                    return;
                };
                ssm.borrow_mut().fail_brick(brick);
                q.schedule_event_at(
                    now + SimDuration::from_secs(heals_after_s),
                    "brick-restore",
                    SimEvent::BrickRestore { brick },
                );
                self.drain_store_events();
            }
            Fault::BrickCorrupt { brick } => {
                let Some(ssm) = self.ssm_at(now) else {
                    return;
                };
                ssm.borrow_mut().corrupt_brick(brick);
                self.emit(TelemetryEvent::NetFaultInjected {
                    edge: NetEdge::NodeStore.code(),
                    kind: 5,
                    at: now,
                });
                self.drain_store_events();
            }
            Fault::LeaseStorm => {
                let Some(ssm) = self.ssm_at(now) else {
                    return;
                };
                ssm.borrow_mut().storm_leases();
                self.drain_store_events();
            }
            Fault::StoreSlow {
                factor_permille,
                heals_after_s,
            } => {
                let Some(ssm) = self.ssm_at(now) else {
                    return;
                };
                // The SSM's base access RTT is 6.2 ms; the fault inflates
                // it by factor_permille/1000.
                let extra = SimDuration::from_micros(6_200 * u64::from(factor_permille) / 1000);
                ssm.borrow_mut().set_extra_latency(extra);
                self.emit(TelemetryEvent::NetFaultInjected {
                    edge: NetEdge::NodeStore.code(),
                    kind: 4,
                    at: now,
                });
                q.schedule_event_at(
                    now + SimDuration::from_secs(heals_after_s),
                    "edge-heal",
                    SimEvent::EdgeHeal {
                        edge: NetEdge::NodeStore,
                    },
                );
                self.drain_store_events();
            }
            Fault::LinkPartition {
                edge,
                heals_after_s,
            } => self.inject_net_fault(edge, LinkFault::Partition, heals_after_s, q),
            Fault::LinkLossy {
                edge,
                permille,
                heals_after_s,
            } => self.inject_net_fault(edge, LinkFault::Lossy { permille }, heals_after_s, q),
            Fault::LinkDelay {
                edge,
                extra_ms,
                heals_after_s,
            } => {
                let extra = SimDuration::from_millis(extra_ms);
                self.inject_net_fault(edge, LinkFault::Delay { extra }, heals_after_s, q);
            }
            Fault::LinkDupe {
                edge,
                permille,
                heals_after_s,
            } => self.inject_net_fault(edge, LinkFault::Dupe { permille }, heals_after_s, q),
            // The rest hook into the server process.
            _ => {
                let killed = self.nodes[node].inject(fault, now);
                self.schedule_deliveries(node, killed, q);
            }
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
        let conductor_config = config.conductor.unwrap_or(ConductorConfig {
            max_concurrent_per_node: 1,
            quarantine: false,
        });
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
                    quarantine_enabled: conductor_config.quarantine,
                    seed: config.seed ^ (0x9e3779b9 * (n as u64 + 1)),
                    ..ServerConfig::default()
                },
                db.clone(),
                session,
            );
            nodes.push(server);
        }
        let pool = ClientPool::new(
            catalog(&dataset),
            ClientPoolConfig {
                clients: config.nodes * config.clients_per_node,
                detector: config.detector,
                retry_policy: config.retry_policy,
                seed: config.seed ^ 0x00c1_1e17,
            },
        );
        let rm = config.rm.map(|rm_config| {
            RecoveryManager::with_policy(
                config.policy,
                config.nodes,
                rm_config,
                ebid::ops::call_path,
                nodes[0].web_component(),
                config.seed,
            )
        });
        let conductor = Conductor::new(
            config.nodes,
            conductor_config,
            nodes[0].graph(),
            ebid::ops::call_path,
        );
        // The map is read only while a node's quarantine set is non-empty,
        // which the conductor or the bulkhead policy makes it.
        let mut lb = LoadBalancer::new(config.nodes);
        lb.set_path_map(ebid::ops::call_path);
        let rejuv = (0..config.nodes).map(|_| None).collect();
        let mut world = World {
            nodes,
            lb,
            pool,
            rm,
            conductor: Some(conductor),
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
    /// Faults with a server hook go through [`AppServer::inject`]; the
    /// rest are delivered where they live: data corruption on the node's
    /// app, session store or database, store-tier faults on the shared
    /// SSM, link faults on the wire, and spurious detector reports in the
    /// client pool, spread across the busiest read/write ops so the
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
