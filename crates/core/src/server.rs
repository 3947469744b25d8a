//! The microreboot-enabled application server.
//!
//! [`AppServer`] hosts one crash-only [`Application`] on one simulated
//! node. Since the layered decomposition it is a thin composition of three
//! collaborating layers plus the shared internals:
//!
//! * [`RequestPipeline`](crate::pipeline::RequestPipeline) — admission,
//!   execution bookkeeping and the kill paths (`crate::pipeline`);
//! * [`RecoveryLifecycle`](crate::lifecycle::RecoveryLifecycle) — one
//!   state machine over every recovery depth, from microreboot to OS
//!   reboot (`crate::lifecycle`);
//! * the telemetry bus (`simcore::telemetry`) — every observable fact is
//!   emitted as a [`TelemetryEvent`]; [`ServerStats`] is just a
//!   [`TelemetrySink`] folding events into counters.
//!
//! This module keeps the request *execution* path (submit → pump →
//! execute → complete), fault injection, maintenance, and the shared
//! [`ServerInner`] that `CallContext` works against.
//!
//! The server is a *passive* state machine over simulated time: every
//! method takes `now`, and methods that start timed work return the instant
//! it finishes so the caller (the cluster simulation) can schedule the
//! follow-up call. This keeps the server synchronously testable.

use components::container::Container;
use components::descriptor::ComponentId;
use components::graph::DependencyGraph;
use components::intern::CompName;
use components::registry::{Binding, NamingRegistry};
use faults::Fault;
use simcore::telemetry::{Disposition, KillCause, SharedBus, TelemetryEvent, TelemetrySink};
use simcore::{MetricsRegistry, SimDuration, SimRng, SimTime};
use statestore::db::ConnId;
use statestore::session::{CorruptKind, SessionId};
use statestore::{TableId, TxnId};

use crate::app::{Application, CallError};
use crate::backend::{SessionBackend, SharedDb};
use crate::calib;
use crate::context::{CallContext, ComponentSet, HangKind};
use crate::heap::HeapModel;
use crate::pipeline::{HungReq, RequestPipeline, RunningReq};
use crate::request::{BodyMarkers, OpCode, ReqId, Request, Response, Status};

pub use crate::lifecycle::{ProcState, RebootId, RebootTicket, RecoveryLifecycle};
pub use simcore::telemetry::RebootLevel;

/// An error starting a recovery action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RebootError {
    /// Unknown component name.
    UnknownComponent(String),
    /// Every requested component is already being microrebooted.
    AlreadyRebooting,
    /// The process is not up, so component-level actions are meaningless.
    ProcessNotUp,
}

impl std::fmt::Display for RebootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebootError::UnknownComponent(c) => write!(f, "unknown component {c}"),
            RebootError::AlreadyRebooting => write!(f, "target already microrebooting"),
            RebootError::ProcessNotUp => write!(f, "process is not up"),
        }
    }
}

impl std::error::Error for RebootError {}

/// Lifetime counters of one server.
///
/// Since the metrics-registry refactor this is a *view*: the server folds
/// every emitted [`TelemetryEvent`] into its node-local
/// [`MetricsRegistry`], and [`ServerStats::from_registry`] materialises
/// the classic counter struct from registry reads. Nothing increments
/// these fields directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Requests submitted to this node.
    pub submitted: u64,
    /// Responses with 2xx status.
    pub ok: u64,
    /// Responses with 4xx/5xx status.
    pub http_errors: u64,
    /// Connection-level failures returned.
    pub network_errors: u64,
    /// `Retry-After` responses sent while components microrebooted.
    pub retries_sent: u64,
    /// Requests killed by a microreboot's thread kill.
    pub killed_by_microreboot: u64,
    /// Requests killed by app/process/OS restart.
    pub killed_by_restart: u64,
    /// Hung requests purged by TTL expiry.
    pub ttl_kills: u64,
    /// Microreboots performed (component groups).
    pub microreboots: u64,
    /// Whole-application restarts.
    pub app_restarts: u64,
    /// JVM process restarts.
    pub process_restarts: u64,
    /// Operating-system reboots.
    pub os_reboots: u64,
}

impl ServerStats {
    /// Reads the classic counter struct out of a node's metrics registry.
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        use simcore::symbol;
        ServerStats {
            submitted: reg.counter_sym(symbol::REQUESTS_SUBMITTED),
            ok: reg.counter_sym(symbol::REQUESTS_OK),
            http_errors: reg.counter_sym(symbol::REQUESTS_HTTP_ERROR),
            network_errors: reg.counter_sym(symbol::REQUESTS_NETWORK_ERROR),
            retries_sent: reg.counter_sym(symbol::RETRIES_SENT),
            killed_by_microreboot: reg.counter_sym(symbol::KILLED_MICROREBOOT),
            killed_by_restart: reg.counter_sym(symbol::KILLED_RESTART),
            ttl_kills: reg.counter_sym(symbol::KILLED_TTL),
            microreboots: reg.counter_sym(symbol::REBOOTS_BEGUN_COMPONENT),
            app_restarts: reg.counter_sym(symbol::REBOOTS_BEGUN_APPLICATION),
            process_restarts: reg.counter_sym(symbol::REBOOTS_BEGUN_PROCESS),
            os_reboots: reg.counter_sym(symbol::REBOOTS_BEGUN_OS),
        }
    }
}

/// A request admitted and started; the caller schedules
/// [`AppServer::complete`] at `cpu_done_at`.
#[derive(Clone, Copy, Debug)]
pub struct Started {
    /// The request that started executing.
    pub req: ReqId,
    /// When its CPU service finishes.
    pub cpu_done_at: SimTime,
}

/// Result of submitting a request.
pub enum SubmitOutcome {
    /// The node rejected it immediately (down or overloaded).
    Rejected(Response),
    /// Admitted; call [`AppServer::pump`] to start queued work.
    Admitted,
}

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Node index (for reports).
    pub node: usize,
    /// CPU workers.
    pub cpus: usize,
    /// Request threads.
    pub threads: usize,
    /// Whether sentinel hits on idempotent requests answer `Retry-After`
    /// instead of failing (Section 6.2).
    pub retry_enabled: bool,
    /// Quarantine admission (the conductor's front door): requests whose
    /// static call path touches a microrebooting recovery group are shed
    /// at submit — `Retry-After` when retries are on and the request is
    /// idempotent, 503 otherwise — instead of being admitted only to hit
    /// a sentinel (or a mid-crash container) deep in the pipeline.
    pub quarantine_enabled: bool,
    /// RNG seed for this node's jitter.
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            node: 0,
            cpus: calib::NODE_CPUS,
            threads: calib::NODE_THREADS,
            retry_enabled: false,
            quarantine_enabled: false,
            seed: 0x5eed,
        }
    }
}

/// Server internals shared with [`CallContext`] and the lifecycle layer.
pub struct ServerInner {
    pub(crate) graph: DependencyGraph,
    pub(crate) containers: Vec<Container>,
    pub(crate) registry: NamingRegistry,
    pub(crate) web_id: ComponentId,
    pub(crate) db: SharedDb,
    pub(crate) db_conn: Option<ConnId>,
    pub(crate) session: SessionBackend,
    pub(crate) heap: HeapModel,
    pub(crate) rng: SimRng,
    /// The fault underneath the application (the FIG / FAUmachine layer
    /// of Section 5.1) perturbing every request: `BitFlipMemory` or
    /// `BadSyscalls`.
    pub(crate) lowlevel: Option<Fault>,
    pub(crate) node: usize,
    next_session: u64,
    pub(crate) retry_enabled: bool,
    pub(crate) quarantine_enabled: bool,
    pub(crate) intra_leak_rate: u64,
    pub(crate) extra_leak_rate: u64,
    /// Per-invocation leak rates that survive reboots: the leak is a bug
    /// in the component's *code*, so a reboot reclaims the leaked memory
    /// but the fresh instances leak again (the premise of Section 6.4's
    /// rejuvenation experiments).
    pub(crate) persistent_leaks: Vec<(&'static str, u64)>,
    /// Fail-slow degradation factors (permille) per component. Survives
    /// microreboots — a warm restart reuses the degraded pools — and is
    /// cleared only by the coarse recovery levels.
    pub(crate) degraded: Vec<(ComponentId, u32)>,
    last_maintenance: SimTime,
    metrics: MetricsRegistry,
    bus: Option<SharedBus>,
}

impl ServerInner {
    /// Returns (opening if needed) the server's pooled DB connection.
    pub(crate) fn db_conn(&mut self) -> ConnId {
        match self.db_conn {
            Some(c) if self.db.borrow().conn_open(c) => c,
            _ => {
                let c = self.db.borrow_mut().open_conn();
                self.db_conn = Some(c);
                c
            }
        }
    }

    pub(crate) fn reapply_persistent_leaks(&mut self) {
        for (name, bytes) in &self.persistent_leaks {
            if let Some(id) = self.graph.id_of(name) {
                self.containers[id.0].vol.faults.leak_per_call = *bytes;
            }
        }
    }

    pub(crate) fn alloc_session_id(&mut self) -> SessionId {
        self.next_session += 1;
        SessionId(self.next_session)
    }

    pub(crate) fn component_heap_bytes(&self) -> u64 {
        self.containers.iter().map(|c| c.heap_bytes()).sum()
    }

    /// Folds `ev` into this node's metrics registry and forwards it to
    /// the attached bus, if any. The single exit point for server
    /// telemetry.
    pub(crate) fn emit(&mut self, ev: TelemetryEvent) {
        self.metrics.on_event(&ev);
        if let Some(bus) = &self.bus {
            bus.borrow_mut().emit(&ev);
        }
    }
}

/// A microreboot-enabled application server hosting application `A`.
pub struct AppServer<A: Application> {
    pub(crate) app: A,
    pub(crate) inner: ServerInner,
    pub(crate) pipeline: RequestPipeline,
    pub(crate) lifecycle: RecoveryLifecycle,
    /// What the last [`AppServer::pump`] started (its buffer, reused).
    started: Vec<Started>,
}

impl<A: Application> AppServer<A> {
    /// Builds and warm-starts a server for `app`.
    ///
    /// All components are deployed and active at construction; experiments
    /// begin against a warm node, as the paper's do.
    ///
    /// # Panics
    ///
    /// Panics if the application's descriptors are inconsistent (duplicate
    /// names, unknown references, missing web component) or more than 64
    /// of them — deployment-time configuration errors.
    pub fn new(app: A, config: ServerConfig, db: SharedDb, session: SessionBackend) -> Self {
        let descriptors = app.descriptors();
        assert!(
            descriptors.len() <= ComponentSet::CAPACITY,
            "{} components deployed; a request tracks those it entered in a {}-bit set",
            descriptors.len(),
            ComponentSet::CAPACITY
        );
        let graph = DependencyGraph::build(&descriptors).expect("valid deployment descriptors");
        let web_id = graph
            .id_of(app.web_component())
            .expect("web component must be declared");
        let mut containers = Vec::with_capacity(descriptors.len());
        let mut registry = NamingRegistry::new();
        for d in &descriptors {
            let id = graph.id_of(d.name).expect("descriptor is in graph");
            let mut c = Container::new(d.clone(), app.methods_of(d.name));
            c.begin_start();
            c.complete_start();
            registry.bind(id, Binding::Active(id));
            // The one place a server interns its component names: layers
            // that only see names (the LB's quarantine match) look them
            // up with `CompName::lookup`.
            CompName::intern(d.name);
            containers.push(c);
        }
        AppServer {
            app,
            inner: ServerInner {
                graph,
                containers,
                registry,
                web_id,
                db,
                db_conn: None,
                session,
                heap: HeapModel::new(calib::HEAP_CAPACITY, calib::SERVER_BASE_BYTES),
                rng: SimRng::seed_from(config.seed),
                lowlevel: None,
                node: config.node,
                next_session: u64::from(config.node as u32) << 32,
                retry_enabled: config.retry_enabled,
                quarantine_enabled: config.quarantine_enabled,
                intra_leak_rate: 0,
                extra_leak_rate: 0,
                persistent_leaks: Vec::new(),
                degraded: Vec::new(),
                last_maintenance: SimTime::ZERO,
                metrics: MetricsRegistry::new(),
                bus: None,
            },
            pipeline: RequestPipeline::new(config.cpus, config.threads),
            lifecycle: RecoveryLifecycle::new(),
            started: Vec::new(),
        }
    }

    /// Attaches a telemetry bus: every event this server emits is
    /// forwarded to it (in addition to updating the local counters).
    pub fn attach_telemetry(&mut self, bus: SharedBus) {
        self.inner.bus = Some(bus);
    }

    // ---- queries ---------------------------------------------------------

    /// Returns the hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Returns the hosted application mutably (fault-injection hooks).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Returns lifetime counters (a view over the metrics registry).
    pub fn stats(&self) -> ServerStats {
        ServerStats::from_registry(&self.inner.metrics)
    }

    /// Returns the node-local metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Returns the process availability state.
    pub fn state(&self) -> ProcState {
        self.lifecycle.state()
    }

    /// Returns true if the process is up and serving.
    pub fn is_up(&self) -> bool {
        self.lifecycle.is_up()
    }

    /// Returns the dependency graph.
    pub fn graph(&self) -> &DependencyGraph {
        &self.inner.graph
    }

    /// Returns free heap bytes (the rejuvenation service's gauge).
    pub fn available_memory(&self) -> u64 {
        self.inner.heap.free(
            self.inner.component_heap_bytes(),
            self.inner.session.in_process_bytes() as u64,
        )
    }

    /// Returns the container for `name` (tests and experiments).
    pub fn container(&self, name: &str) -> Option<&Container> {
        let id = self.inner.graph.id_of(name)?;
        Some(&self.inner.containers[id.0])
    }

    /// Returns the session backend (read access).
    pub fn session(&self) -> &SessionBackend {
        &self.inner.session
    }

    /// Returns the session backend mutably (fault injection).
    pub fn session_mut(&mut self) -> &mut SessionBackend {
        &mut self.inner.session
    }

    /// Returns the shared database handle.
    pub fn db(&self) -> SharedDb {
        self.inner.db.clone()
    }

    /// Returns the number of requests currently queued for a CPU.
    pub fn queued(&self) -> usize {
        self.pipeline.queued()
    }

    /// Returns the number of hung requests.
    pub fn hung(&self) -> usize {
        self.pipeline.hung_count()
    }

    /// Returns how long the longest-hung request has been stuck. The TTL
    /// lease sweep bounds this at `REQUEST_TTL` plus one maintenance
    /// period on a live node, whatever the recovery policy does.
    pub fn oldest_hung_age(&self, now: SimTime) -> Option<SimDuration> {
        self.pipeline.oldest_hung().map(|since| now - since)
    }

    /// If `op`'s static call path touches a microrebooting recovery group,
    /// returns when the last such microreboot completes.
    pub(crate) fn quarantine_until(&self, op: OpCode) -> Option<SimTime> {
        let path = self.app.call_path(op);
        if path.is_empty() {
            return None;
        }
        self.lifecycle
            .component_reboots()
            .filter(|(members, _, _)| {
                members
                    .iter()
                    .any(|m| path.contains(&self.inner.graph.name_of(*m)))
            })
            .map(|(_, _, done_at)| done_at)
            .max()
    }

    /// Returns the in-flight microreboots as `(members, crash_at, done_at)`.
    pub fn active_microreboots(&self) -> Vec<(Vec<&'static str>, SimTime, SimTime)> {
        self.lifecycle
            .component_reboots()
            .map(|(members, crash_at, done_at)| {
                (
                    members
                        .iter()
                        .map(|m| self.inner.graph.name_of(*m))
                        .collect(),
                    crash_at,
                    done_at,
                )
            })
            .collect()
    }

    // ---- request lifecycle -------------------------------------------

    pub(crate) fn instant_response(
        &mut self,
        req: &Request,
        now: SimTime,
        status: Status,
        exception: bool,
    ) -> Response {
        let disposition = match status {
            Status::NetworkError | Status::TimedOut => Some(Disposition::NetworkError),
            Status::ServerError(_) | Status::ClientError(_) => Some(Disposition::HttpError),
            _ => None,
        };
        if let Some(disposition) = disposition {
            self.inner.emit(TelemetryEvent::RequestCompleted {
                node: self.inner.node,
                req: req.id.0,
                disposition,
                at: now,
            });
        }
        Response {
            req: req.id,
            op: req.op,
            status,
            markers: BodyMarkers {
                exception_text: exception,
                ..BodyMarkers::default()
            },
            tainted: false,
            finished_at: now + SimDuration::from_millis(1),
            failed_component: None,
            set_cookie: None,
            clear_cookie: false,
        }
    }

    /// Submits a request to the node.
    pub fn submit(&mut self, req: Request, now: SimTime) -> SubmitOutcome {
        self.inner.emit(TelemetryEvent::RequestSubmitted {
            node: self.inner.node,
            req: req.id.0,
            at: now,
        });
        match self.lifecycle.state() {
            ProcState::Up => {}
            ProcState::AppRestarting { .. } => {
                // JBoss is alive but the application is gone: plain 503.
                let r = self.instant_response(&req, now, Status::ServerError(503), false);
                return SubmitOutcome::Rejected(r);
            }
            _ => {
                let r = self.instant_response(&req, now, Status::NetworkError, false);
                return SubmitOutcome::Rejected(r);
            }
        }
        // Quarantine admission: shed requests bound for the blast radius
        // at the door, so they neither queue behind the reboot nor burn a
        // thread to discover a sentinel mid-flight.
        if self.inner.quarantine_enabled {
            if let Some(done_at) = self.quarantine_until(req.op) {
                let r = if self.inner.retry_enabled && req.idempotent {
                    self.inner.emit(TelemetryEvent::RetrySent {
                        node: self.inner.node,
                        req: req.id.0,
                        at: now,
                    });
                    let wait = (done_at - now).max(SimDuration::from_millis(1));
                    self.instant_response(&req, now, Status::RetryAfter(wait), false)
                } else {
                    self.instant_response(&req, now, Status::ServerError(503), false)
                };
                return SubmitOutcome::Rejected(r);
            }
        }
        match self.pipeline.admit(req.clone()) {
            Ok(()) => SubmitOutcome::Admitted,
            Err(_) => {
                let r = self.instant_response(&req, now, Status::ServerError(503), false);
                SubmitOutcome::Rejected(r)
            }
        }
    }

    /// Starts queued requests on free CPUs, executing their handlers.
    ///
    /// The caller schedules [`AppServer::complete`] at each
    /// [`Started::cpu_done_at`].
    pub fn pump(&mut self, now: SimTime) -> &[Started] {
        self.started.clear();
        if !self.lifecycle.is_up() {
            return &self.started;
        }
        loop {
            // Every free CPU takes a request at the same instant, so each
            // request of the batch sees the backlog the whole batch leaves.
            let batch = self.pipeline.startable();
            if batch == 0 {
                break;
            }
            let backlog = self.pipeline.queued() - batch;
            for _ in 0..batch {
                let req = self.pipeline.pop_ready().expect("counted startable");
                if let Some(s) = self.execute(req, now, backlog) {
                    self.started.push(s);
                }
            }
        }
        &self.started
    }

    /// Runs one request's handler, deciding its fate.
    /// `backlog` is the queue depth behind the batch `req` started in.
    fn execute(&mut self, req: Request, now: SimTime, backlog: usize) -> Option<Started> {
        let web_id = self.inner.web_id;
        // The web tier itself may be microrebooting.
        let web_active = self.inner.containers[web_id.0].is_active();
        // A nearly-full heap throws allocation failures before the JVM
        // dies outright: requests start failing with OutOfMemoryError
        // well before total exhaustion, which is how leak faults become
        // visible (and curable) while the process is still up.
        let free = self.inner.heap.free(
            self.inner.component_heap_bytes(),
            self.inner.session.in_process_bytes() as u64,
        );
        let pressure = calib::HEAP_PRESSURE_BYTES;
        let oom_prob = if free < pressure {
            0.8 * (pressure - free) as f64 / pressure as f64
        } else {
            0.0
        };
        if oom_prob > 0.0 && self.inner.rng.chance(oom_prob) {
            let resp = self.instant_response(&req, now, Status::ServerError(500), true);
            let id = req.id;
            self.pipeline.record_running(
                id,
                RunningReq {
                    req,
                    response: resp,
                    touched: ComponentSet::default(),
                    txn: None,
                },
            );
            return Some(Started {
                req: id,
                cpu_done_at: now + SimDuration::from_millis(2),
            });
        }
        // Congestion degradation: a deeply backed-up node burns extra CPU
        // per request (GC pressure, context switching), which is what makes
        // overload collapse super-linear in real servers.
        let congestion =
            1.0 + calib::CONGESTION_MAX_FACTOR.min(backlog as f64 / calib::CONGESTION_QUEUE_SCALE);
        let base = self.app.base_cost(req.op);
        let AppServer { app, inner, .. } = self;
        let mut ctx = CallContext::new(inner, now, req.session, req.arg);
        ctx.charge(base);
        let result = if web_active {
            ctx.inner.containers[web_id.0].call_enter();
            ctx.touched.insert(web_id);
            let r = app.handle(&mut ctx, &req);
            ctx.finalize_session();
            if !matches!(r, Err(CallError::Hang)) {
                ctx.inner.containers[web_id.0].call_exit();
            }
            r
        } else {
            Err(CallError::Retry(calib::RETRY_AFTER))
        };
        let parts = ctx_into_parts(ctx);
        self.finish_execution(req, now, parts, result, congestion)
    }

    fn finish_execution(
        &mut self,
        req: Request,
        now: SimTime,
        parts: CtxParts,
        result: Result<(), CallError>,
        congestion: f64,
    ) -> Option<Started> {
        let CtxParts {
            cpu,
            latency,
            tainted,
            mut markers,
            failed_component,
            txn,
            touched,
            hang,
            set_cookie,
            clear_cookie,
            autocommitted,
        } = parts;
        // Low-level faults perturb requests underneath the application.
        let (result, tainted) = match (self.inner.lowlevel, &result) {
            // Bit flips in process memory: requests randomly fail or go
            // wrong.
            (Some(Fault::BitFlipMemory), Ok(())) => {
                if self.inner.rng.chance(0.25) {
                    markers.exception_text = true;
                    (Err(CallError::Exception), tainted)
                } else if self.inner.rng.chance(0.10) {
                    (result, true)
                } else {
                    (result, tainted)
                }
            }
            // Bad system call return values: requests randomly fail.
            (Some(Fault::BadSyscalls), Ok(())) => {
                if self.inner.rng.chance(0.35) {
                    markers.exception_text = true;
                    (Err(CallError::Exception), tainted)
                } else {
                    (result, tainted)
                }
            }
            _ => (result, tainted),
        };
        match result {
            Err(CallError::Hang) => {
                let (component, kind) = hang.expect("hang error carries its component");
                self.pipeline.record_hung(
                    req.id,
                    kind,
                    HungReq {
                        req,
                        component,
                        since: now,
                        txn,
                    },
                );
                None
            }
            other => {
                let (status, keep_txn) = match other {
                    Ok(()) => (Status::Ok, true),
                    Err(CallError::Exception) => {
                        markers.exception_text = true;
                        (Status::ServerError(500), false)
                    }
                    Err(CallError::Retry(d)) => {
                        if self.inner.retry_enabled && req.idempotent {
                            self.inner.emit(TelemetryEvent::RetrySent {
                                node: self.inner.node,
                                req: req.id.0,
                                at: now,
                            });
                            (Status::RetryAfter(d), false)
                        } else {
                            (Status::ServerError(503), false)
                        }
                    }
                    Err(CallError::Hang) => unreachable!("handled above"),
                };
                let txn = if keep_txn {
                    txn
                } else {
                    if let Some(t) = txn {
                        let _ = self.inner.db.borrow_mut().rollback(t);
                    }
                    // Any autocommitted writes (corrupt transaction
                    // metadata made them non-transactional) are now
                    // orphaned: the fault-free twin rolled everything
                    // back, so these rows diverge (the ≈ damage of
                    // Table 2's wrong-txn-map row).
                    if !autocommitted.is_empty() {
                        let mut db = self.inner.db.borrow_mut();
                        for (table, pk) in &autocommitted {
                            let _ = db.taint_row(*table, *pk);
                        }
                    }
                    None
                };
                // Fail-slow degradation: any request that touched a
                // degraded component burns inflated CPU (the answer stays
                // correct — only the latency moves).
                let degraded = self.inner.degraded.iter();
                let permille = degraded
                    .filter(|(component, _)| touched.contains(*component))
                    .fold(1000, |worst, (_, factor)| worst.max(*factor));
                let slow = f64::from(permille) / 1000.0;
                let cpu = SimDuration::from_secs_f64(cpu.as_secs_f64() * congestion * slow);
                let cpu_done_at = now + cpu.max(SimDuration::from_micros(500));
                let response = Response {
                    req: req.id,
                    op: req.op,
                    status,
                    markers,
                    tainted,
                    finished_at: cpu_done_at + latency,
                    failed_component,
                    set_cookie,
                    clear_cookie,
                };
                let id = req.id;
                self.pipeline.record_running(
                    id,
                    RunningReq {
                        req,
                        response,
                        touched,
                        txn,
                    },
                );
                Some(Started {
                    req: id,
                    cpu_done_at,
                })
            }
        }
    }

    /// Completes a running request at its CPU-done instant.
    ///
    /// Returns `None` if the request was killed in the meantime (its
    /// failure response was already produced by the killer).
    pub fn complete(&mut self, id: ReqId, now: SimTime) -> Option<Response> {
        let rr = self.pipeline.finish(id)?;
        if let Some(t) = rr.txn {
            let mut db = self.inner.db.borrow_mut();
            if db.txn_active(t) {
                let _ = db.commit(t);
            }
        }
        let disposition = match rr.response.status {
            Status::Ok | Status::RetryAfter(_) => Disposition::Ok,
            Status::ServerError(_) | Status::ClientError(_) => Disposition::HttpError,
            Status::NetworkError | Status::TimedOut => Disposition::NetworkError,
        };
        self.inner.emit(TelemetryEvent::RequestCompleted {
            node: self.inner.node,
            req: id.0,
            disposition,
            at: now,
        });
        Some(rr.response)
    }

    pub(crate) fn killed_response(req: &Request, now: SimTime, during: &'static str) -> Response {
        Response {
            req: req.id,
            op: req.op,
            status: Status::ServerError(500),
            markers: BodyMarkers {
                exception_text: true,
                ..BodyMarkers::default()
            },
            tainted: false,
            finished_at: now + SimDuration::from_millis(1),
            failed_component: Some(during),
            set_cookie: None,
            clear_cookie: false,
        }
    }

    // ---- maintenance ---------------------------------------------------

    /// Periodic housekeeping: leak accrual, TTL expiry of hung requests,
    /// out-of-memory detection, session-store clock advancement.
    ///
    /// Returns responses for requests the sweep killed.
    pub fn maintenance(&mut self, now: SimTime) -> Vec<Response> {
        let elapsed = now - self.inner.last_maintenance;
        self.inner.last_maintenance = now;
        self.inner.session.advance_to(now);
        let secs = elapsed.as_secs_f64();
        if self.inner.intra_leak_rate > 0 {
            self.inner
                .heap
                .leak_intra_jvm((self.inner.intra_leak_rate as f64 * secs) as u64);
        }
        if self.inner.extra_leak_rate > 0 {
            self.inner
                .heap
                .leak_extra_jvm((self.inner.extra_leak_rate as f64 * secs) as u64);
        }
        let mut out = Vec::new();
        if !self.lifecycle.is_up() {
            return out;
        }
        // TTL purge of stuck requests (Section 2's leased execution time).
        let expired = self.pipeline.take_expired_hung(now, calib::REQUEST_TTL);
        let reaped = expired.len() as u32;
        for v in expired {
            if let Some(t) = v.txn {
                let mut db = self.inner.db.borrow_mut();
                if db.txn_active(t) {
                    let _ = db.rollback(t);
                }
            }
            let mut resp = Self::killed_response(&v.req, now, "ttl");
            resp.status = Status::TimedOut;
            resp.markers.exception_text = false;
            out.push(resp);
            self.inner.emit(TelemetryEvent::RequestKilled {
                node: self.inner.node,
                req: v.req.id.0,
                cause: KillCause::Ttl,
                at: now,
            });
        }
        // The sweep itself is observable whenever it had hung requests to
        // consider (quiet sweeps over healthy nodes stay off the bus).
        let pending = self.pipeline.hung_count() as u32;
        if reaped > 0 || pending > 0 {
            self.inner.emit(TelemetryEvent::TtlSweep {
                node: self.inner.node,
                pending,
                reaped,
                at: now,
            });
        }
        // Heap exhaustion kills the JVM; native/kernel exhaustion kills
        // the host (only an OS reboot recovers the latter).
        if self.inner.heap.host_oom()
            || self.inner.heap.is_oom(
                self.inner.component_heap_bytes(),
                self.inner.session.in_process_bytes() as u64,
            )
        {
            out.extend(self.kill_everything(now, true));
            self.lifecycle.force_state(ProcState::DownOom);
        }
        out
    }

    // ---- fault injection -------------------------------------------------

    /// Injects a fault through the server's hooks (Section 5.1).
    ///
    /// Returns responses for requests killed as an immediate consequence
    /// (only `BitFlipRegisters` kills anything). Faults outside the server
    /// process are no-ops here.
    pub fn inject(&mut self, fault: Fault, now: SimTime) -> Vec<Response> {
        let comp_mut = |inner: &mut ServerInner, name: &'static str| -> Option<usize> {
            inner.graph.id_of(name).map(|id| id.0)
        };
        match fault {
            Fault::Deadlock { component } => {
                if let Some(i) = comp_mut(&mut self.inner, component) {
                    self.inner.containers[i].vol.faults.deadlocked = true;
                }
            }
            Fault::InfiniteLoop { component } => {
                if let Some(i) = comp_mut(&mut self.inner, component) {
                    self.inner.containers[i].vol.faults.infinite_loop = true;
                }
            }
            Fault::AppMemoryLeak {
                component,
                bytes_per_call,
                persistent,
            } => {
                if let Some(i) = comp_mut(&mut self.inner, component) {
                    self.inner.containers[i].vol.faults.leak_per_call = bytes_per_call;
                    if persistent {
                        // A code bug: fresh instances leak too.
                        self.inner.persistent_leaks.retain(|(n, _)| *n != component);
                        self.inner
                            .persistent_leaks
                            .push((component, bytes_per_call));
                    }
                }
            }
            Fault::TransientException { component, calls } => {
                if let Some(i) = comp_mut(&mut self.inner, component) {
                    self.inner.containers[i].vol.faults.transient_exceptions = calls;
                }
            }
            Fault::Intermittent {
                component,
                permille,
                heals_after_s,
            } => {
                if let Some(i) = comp_mut(&mut self.inner, component) {
                    let f = &mut self.inner.containers[i].vol.faults;
                    f.intermittent_permille = permille.min(1000);
                    f.intermittent_heals_at_us = heals_after_s
                        .map_or(u64::MAX, |s| (now + SimDuration::from_secs(s)).as_micros());
                }
            }
            Fault::CorruptJndi { component, kind } => {
                if let Some(victim) = self.inner.graph.id_of(component) {
                    let web_id = self.inner.web_id;
                    let binding = match kind {
                        CorruptKind::SetNull => Binding::Null,
                        CorruptKind::SetInvalid => Binding::Dangling,
                        // Point the name at some other live component.
                        CorruptKind::SetWrong => Binding::Wrong(
                            (self.inner.graph.all_ids())
                                .find(|id| *id != victim && *id != web_id)
                                .unwrap_or(web_id),
                        ),
                    };
                    self.inner.registry.corrupt(victim, binding);
                }
            }
            Fault::CorruptTxnMap { component, kind } => {
                if let Some(i) = comp_mut(&mut self.inner, component) {
                    self.inner.containers[i].vol.txn_map.corrupt(kind);
                }
            }
            Fault::CorruptBeanAttrs { component, kind } => {
                if let Some(i) = comp_mut(&mut self.inner, component) {
                    self.inner.containers[i].vol.pool.corrupt_all(kind);
                }
            }
            Fault::MemLeakIntraJvm { bytes_per_sec } => {
                self.inner.intra_leak_rate = bytes_per_sec;
            }
            Fault::MemLeakExtraJvm { bytes_per_sec } => {
                self.inner.extra_leak_rate = bytes_per_sec;
            }
            Fault::Degraded {
                component,
                factor_permille,
            } => {
                if let Some(id) = self.inner.graph.id_of(component) {
                    self.inner.degraded.retain(|(c, _)| *c != id);
                    self.inner.degraded.push((id, factor_permille));
                    self.inner.emit(TelemetryEvent::DegradedInjected {
                        node: self.inner.node,
                        factor_permille,
                        at: now,
                    });
                }
            }
            Fault::BitFlipMemory | Fault::BadSyscalls => self.inner.lowlevel = Some(fault),
            Fault::BitFlipRegisters => {
                // The process dies on the spot.
                let killed = self.kill_everything(now, true);
                self.lifecycle.force_state(ProcState::Crashed);
                return killed;
            }
            // Faults outside the server process: the cluster delivers
            // these to the client pool, the session stores, the database,
            // the shared SSM or the wire.
            Fault::SpuriousReports { .. }
            | Fault::CorruptPrimaryKeys { .. }
            | Fault::CorruptFastS { .. }
            | Fault::CorruptSsm
            | Fault::CorruptDb { .. }
            | Fault::BrickCrash { .. }
            | Fault::BrickCorrupt { .. }
            | Fault::LeaseStorm
            | Fault::StoreSlow { .. }
            | Fault::LinkPartition { .. }
            | Fault::LinkLossy { .. }
            | Fault::LinkDelay { .. }
            | Fault::LinkDupe { .. } => {}
        }
        Vec::new()
    }
}

struct CtxParts {
    cpu: SimDuration,
    latency: SimDuration,
    tainted: bool,
    markers: BodyMarkers,
    failed_component: Option<&'static str>,
    txn: Option<TxnId>,
    touched: ComponentSet,
    hang: Option<(ComponentId, HangKind)>,
    set_cookie: Option<SessionId>,
    clear_cookie: bool,
    autocommitted: Vec<(TableId, i64)>,
}

fn ctx_into_parts(ctx: CallContext<'_>) -> CtxParts {
    CtxParts {
        cpu: ctx.cpu,
        latency: ctx.latency,
        tainted: ctx.tainted,
        markers: ctx.markers,
        failed_component: ctx.failed_component,
        txn: ctx.txn,
        touched: ctx.touched,
        hang: ctx.hang,
        set_cookie: ctx.set_cookie,
        clear_cookie: ctx.clear_cookie,
        autocommitted: ctx.autocommitted,
    }
}

/// Builds a request with defaults for tests and simple callers.
pub fn make_request(
    id: u64,
    op: OpCode,
    session: Option<SessionId>,
    idempotent: bool,
    arg: i64,
    now: SimTime,
) -> Request {
    Request {
        id: ReqId(id),
        op,
        session,
        idempotent,
        arg,
        submitted_at: now,
    }
}
