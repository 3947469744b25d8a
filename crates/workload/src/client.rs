//! The emulated client population.
//!
//! Each client walks the application's Markov chain (Section 4), thinking
//! for an exponentially distributed time between "URL clicks" (mean 7 s,
//! capped at 70 s). Clients hold their session cookie, know whether they
//! believe themselves logged in (the basis of the "prompted to log in when
//! already logged in" detection), transparently honour `Retry-After`
//! responses (Section 6.2), and re-login when their session is lost.
//!
//! The pool is passive over simulated time: the hosting simulation calls
//! [`ClientPool::wake`] when a client's think time ends and
//! [`ClientPool::deliver`] when a response arrives, and schedules whatever
//! instant the returned [`DeliverOutcome`] names.

use std::collections::BTreeMap;

use components::CompName;
use simcore::telemetry::{SharedBus, TelemetryEvent, TelemetrySink};
use simcore::{SimDuration, SimRng, SimTime, WeightTable};
use statestore::{SessionId, SharedLedger};
use urb_core::{OpCode, ReqId, Request, Response};

use crate::catalog::{ArgKind, Catalog, MixClass};
use crate::detect::{classify, DetectorKind, FailureKind, FailureReport};
use crate::perf::{PerfConfig, PerfEvent, PerfTracker};
use crate::taw::{ActionId, TawTracker};

/// Client-side retry policy for failed operations — distinct from the
/// server-driven `Retry-After` handling, which is always on.
///
/// [`RetryPolicy::None`] reproduces the historical behavior — a failed
/// operation fails its action and the client moves on — and is the
/// default, so pinned traces are unaffected. The other arms model the
/// two client populations of the netstate campaign: a naive one that
/// hammers the site on every connection error (the retry-storm
/// anti-pattern), and a budgeted one whose seeded exponential backoff
/// with jitter keeps attempt amplification bounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryPolicy {
    /// No client-side retries (pinned behavior).
    None,
    /// Re-issue almost immediately (1 ms later) up to `retries` extra
    /// times per operation.
    NaiveImmediate {
        /// Additional attempts after the first.
        retries: u32,
    },
    /// Exponential backoff: the n-th retry waits `base * 2^n` capped at
    /// `cap`, jittered ±25% from the client's own seeded RNG.
    Budgeted {
        /// Additional attempts after the first.
        budget: u32,
        /// First-retry delay; doubles every attempt.
        base: SimDuration,
        /// Upper bound on the backoff delay.
        cap: SimDuration,
    },
}

/// Mean think time (paper: 7 s).
const THINK_MEAN: SimDuration = SimDuration::from_secs(7);
/// Think-time cap (paper: 70 s).
const THINK_CAP: SimDuration = SimDuration::from_secs(70);
/// How many `Retry-After` rounds a client honours before giving up.
const MAX_RETRIES: u32 = 3;

/// Pool configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClientPoolConfig {
    /// Number of concurrent emulated clients.
    pub clients: usize,
    /// Which failure detector the monitors run.
    pub detector: DetectorKind,
    /// Client-side retry policy for failed operations.
    pub retry_policy: RetryPolicy,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClientPoolConfig {
    fn default() -> Self {
        ClientPoolConfig {
            clients: 500,
            detector: DetectorKind::Simple,
            retry_policy: RetryPolicy::None,
            seed: 0xc11e,
        }
    }
}

/// A request a client wants to send; the simulation routes it to a node.
#[derive(Clone, Debug)]
pub struct OutgoingRequest {
    /// Which client sent it.
    pub client: usize,
    /// The request (unique id, cookie attached).
    pub req: Request,
}

/// What the pool wants scheduled after a delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliverOutcome {
    /// The client thinks; wake it at this instant.
    ThinkUntil(SimTime),
    /// The client honours `Retry-After`; wake it at this instant and it
    /// will re-issue the same operation.
    RetryAt(SimTime),
}

struct Pending {
    /// Operation of the pending request.
    #[allow(dead_code, reason = "kept for debugging and asserts")]
    op: OpCode,
    state: usize,
    first_sent_at: SimTime,
    attempts: u32,
    was_logged_in: bool,
}

struct Client {
    state: usize,
    session: Option<SessionId>,
    logged_in: bool,
    action: ActionId,
    rng: SimRng,
    pending: Option<Pending>,
    force_login: bool,
    retry_pending: bool,
}

/// Counters of what the pool issued, by Table 1 class.
#[derive(Clone, Debug, Default)]
pub struct MixCounts {
    counts: BTreeMap<MixClass, u64>,
    total: u64,
}

impl MixCounts {
    /// Returns the observed percentage for a class.
    pub fn percent(&self, class: MixClass) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.counts.get(&class).unwrap_or(&0) as f64 * 100.0 / self.total as f64
    }

    /// Total requests issued.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// The emulated client population.
pub struct ClientPool {
    catalog: Catalog,
    /// Per Markov state, the table [`ClientPool::next_state`] draws from:
    /// the state's transition weights, then its abandon weight.
    next_weights: Vec<WeightTable>,
    config: ClientPoolConfig,
    clients: Vec<Client>,
    next_req: u64,
    next_action: u64,
    /// In-flight request → owner client, sorted by request id. Ids are
    /// issued monotonically so registration is a pure append; lookups and
    /// removals binary-search the dense vec instead of chasing tree nodes
    /// on every deliver.
    req_owner: Vec<(ReqId, usize)>,
    taw: TawTracker,
    reports: Vec<FailureReport>,
    mix: MixCounts,
    login_state: usize,
    bus: Option<SharedBus>,
    perf: Option<PerfTracker>,
    retries_issued: u64,
    ledger: Option<SharedLedger>,
    /// Cookies clients dropped (logout, login-prompt reset, abandonment)
    /// since the last [`ClientPool::drain_dropped_sessions`].
    dropped_sessions: Vec<SessionId>,
}

impl ClientPool {
    /// Creates a pool over `catalog`.
    ///
    /// # Panics
    ///
    /// Panics if the catalog fails validation or has no login operation —
    /// configuration errors, not runtime conditions.
    pub fn new(catalog: Catalog, config: ClientPoolConfig) -> Self {
        catalog.validate().expect("catalog must be consistent");
        let login_state = catalog
            .ops
            .iter()
            .position(|o| o.is_login)
            .expect("catalog needs a login operation");
        let next_weights = catalog
            .transitions
            .iter()
            .zip(&catalog.abandon_weight)
            .map(|(row, abandon)| row.iter().map(|(_, w)| *w).chain([*abandon]).collect())
            .collect();
        let mut root = SimRng::seed_from(config.seed);
        let mut clients = Vec::with_capacity(config.clients);
        let mut next_action = 0;
        for _ in 0..config.clients {
            next_action += 1;
            clients.push(Client {
                state: catalog.entry_state,
                session: None,
                logged_in: false,
                action: ActionId(next_action),
                rng: root.fork(),
                pending: None,
                force_login: false,
                retry_pending: false,
            });
        }
        let perf = (config.detector == DetectorKind::LatencyAnomaly)
            .then(|| PerfTracker::new(PerfConfig::default()));
        ClientPool {
            catalog,
            next_weights,
            config,
            clients,
            next_req: 0,
            next_action,
            req_owner: Vec::new(),
            taw: TawTracker::new(),
            reports: Vec::new(),
            mix: MixCounts::default(),
            login_state,
            bus: None,
            perf,
            retries_issued: 0,
            ledger: None,
            dropped_sessions: Vec::new(),
        }
    }

    /// Attaches a session-integrity ledger: every successful commit-point
    /// response a cookie-holding client sees is recorded as a commit
    /// intent, to be reconciled against the store's applied ids at the
    /// end of the run.
    pub fn attach_ledger(&mut self, ledger: SharedLedger) {
        self.ledger = Some(ledger);
    }

    /// Client-side retries issued under the configured [`RetryPolicy`]
    /// (excludes server-driven `Retry-After` rounds).
    pub fn retries_issued(&self) -> u64 {
        self.retries_issued
    }

    /// Read access to the performance tracker, armed when the pool runs
    /// [`DetectorKind::LatencyAnomaly`]: successful-op latencies feed its
    /// sketches, and [`ClientPool::perf_tick`] turns its verdicts into
    /// telemetry events and failure reports.
    pub fn perf(&self) -> Option<&PerfTracker> {
        self.perf.as_ref()
    }

    /// Masks perf judgement over a recovery in flight until `until` (its
    /// scheduled completion): outage windows are recovery cost, not
    /// performance drift. No-op when the perf plane is disabled.
    pub fn perf_mask(&mut self, until: SimTime) {
        if let Some(perf) = &mut self.perf {
            perf.mask_recovery(until);
        }
    }

    /// Advances the performance tracker to `now` (call once per
    /// maintenance sweep). Baseline freezes, latency anomalies and parity
    /// restorations become telemetry events; each anomaly additionally
    /// becomes a [`FailureKind::LatencyAnomaly`] report for the recovery
    /// manager — hint-less, since the client cannot see which component
    /// inside the server is slow.
    pub fn perf_tick(&mut self, now: SimTime) {
        let Some(perf) = &mut self.perf else {
            return;
        };
        let events = perf.tick(now);
        for ev in events {
            match ev {
                PerfEvent::BaselineFrozen { node, ops } => {
                    self.emit(TelemetryEvent::PerfBaselineFrozen {
                        node,
                        components: ops,
                        at: now,
                    });
                }
                PerfEvent::Anomaly {
                    node,
                    op,
                    ratio_permille,
                } => {
                    self.emit(TelemetryEvent::LatencyAnomaly {
                        node,
                        op: op.0,
                        ratio_permille,
                        at: now,
                    });
                    self.reports.push(FailureReport {
                        at: now,
                        op,
                        kind: FailureKind::LatencyAnomaly,
                        node,
                        hint: None,
                    });
                }
                PerfEvent::ParityRestored { node, after } => {
                    self.emit(TelemetryEvent::ParityRestored {
                        node,
                        after,
                        at: now,
                    });
                }
            }
        }
    }

    /// Attaches a telemetry bus: every Taw event the pool emits is
    /// forwarded to it (in addition to feeding the internal tracker).
    pub fn attach_telemetry(&mut self, bus: SharedBus) {
        self.bus = Some(bus);
    }

    /// Feeds `ev` to the internal Taw tracker (a [`TelemetrySink`]) and
    /// forwards it to the attached bus, if any.
    fn emit(&mut self, ev: TelemetryEvent) {
        self.taw.on_event(&ev);
        if let Some(bus) = &self.bus {
            bus.borrow_mut().emit(&ev);
        }
    }

    /// Returns the number of clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Returns true if the pool has no clients.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Returns the Taw tracker.
    pub fn taw(&mut self) -> &mut TawTracker {
        &mut self.taw
    }

    /// Returns the Taw tracker read-only.
    pub fn taw_ref(&self) -> &TawTracker {
        &self.taw
    }

    /// Returns and clears the accumulated failure reports.
    pub fn drain_reports(&mut self) -> Vec<FailureReport> {
        std::mem::take(&mut self.reports)
    }

    /// Returns and clears the session ids whose cookies clients dropped —
    /// by logging out, by resetting after a login prompt, or by abandoning
    /// the site. No client will present them again (ids are never
    /// reissued), so the load balancer can forget their affinity.
    pub fn drain_dropped_sessions(&mut self) -> std::vec::Drain<'_, SessionId> {
        self.dropped_sessions.drain(..)
    }

    /// Fabricates `count` detector false positives against `node`:
    /// failure reports with no underlying request or fault, as produced
    /// by a buggy or adversarial monitor. They reach the recovery manager
    /// through the normal [`ClientPool::drain_reports`] path, so a run
    /// with spurious reports exercises exactly the paper's "act on the
    /// slightest hint" risk.
    pub fn inject_spurious_reports(&mut self, node: usize, op: OpCode, count: u32, now: SimTime) {
        for _ in 0..count {
            self.reports.push(FailureReport {
                at: now,
                op,
                kind: FailureKind::Http,
                node,
                hint: None,
            });
        }
    }

    /// Returns the observed request mix (Table 1 verification).
    pub fn mix(&self) -> &MixCounts {
        &self.mix
    }

    /// Returns how many clients currently hold a session cookie.
    pub fn with_session(&self) -> usize {
        self.clients.iter().filter(|c| c.session.is_some()).count()
    }

    /// Returns the owner client of a request id.
    pub fn owner_of(&self, req: ReqId) -> Option<usize> {
        self.req_owner
            .binary_search_by_key(&req, |&(id, _)| id)
            .ok()
            .map(|i| self.req_owner[i].1)
    }

    /// Staggered initial wake times, de-synchronizing the population.
    pub fn initial_wakes(&mut self, now: SimTime) -> Vec<(usize, SimTime)> {
        (0..self.clients.len())
            .map(|i| {
                let jitter = self.clients[i]
                    .rng
                    .exponential_capped(THINK_MEAN, THINK_CAP);
                (i, now + jitter)
            })
            .collect()
    }

    /// How long `client` waits before its next retry, or `None` when the
    /// policy (or its budget) says to give up and fail the action.
    fn retry_delay(&mut self, client: usize, attempts: u32) -> Option<SimDuration> {
        match self.config.retry_policy {
            RetryPolicy::None => None,
            RetryPolicy::NaiveImmediate { retries } => {
                (attempts < retries).then(|| SimDuration::from_millis(1))
            }
            RetryPolicy::Budgeted { budget, base, cap } => {
                if attempts >= budget {
                    return None;
                }
                let backoff = (base * (1u64 << attempts.min(16))).min(cap);
                let spread = SimDuration::from_micros(backoff.as_micros() / 4);
                Some(self.clients[client].rng.jittered(backoff, spread))
            }
        }
    }

    fn think(&mut self, client: usize, now: SimTime) -> SimTime {
        let c = &mut self.clients[client];
        now + c.rng.exponential_capped(THINK_MEAN, THINK_CAP)
    }

    /// The client forgets its session cookie and login.
    fn drop_cookie(&mut self, client: usize) {
        let c = &mut self.clients[client];
        self.dropped_sessions.extend(c.session.take());
        c.logged_in = false;
    }

    fn new_action(&mut self, client: usize) {
        self.next_action += 1;
        self.clients[client].action = ActionId(self.next_action);
    }

    /// Picks the client's next Markov state, handling abandonment.
    ///
    /// Returns `None` when the client abandons the site (session reset; it
    /// will re-enter at the entry state on this same wake).
    fn next_state(&mut self, client: usize) -> Option<usize> {
        let c = &mut self.clients[client];
        let row = &self.catalog.transitions[c.state];
        let idx = c.rng.weighted_index(&self.next_weights[c.state])?;
        row.get(idx).map(|&(next, _)| next)
    }

    /// Wakes a client whose think (or retry wait) ended; returns the
    /// request it issues, if any.
    pub fn wake(&mut self, client: usize, now: SimTime) -> Option<OutgoingRequest> {
        let retrying = self.clients[client].retry_pending;
        let state = if retrying {
            self.clients[client].retry_pending = false;
            self.clients[client]
                .pending
                .as_ref()
                .map(|p| p.state)
                .unwrap_or(self.catalog.entry_state)
        } else if self.clients[client].force_login {
            self.clients[client].force_login = false;
            self.login_state
        } else {
            match self.next_state(client) {
                Some(s) => {
                    // A session is required but the user is not logged in:
                    // the site routes them through login first.
                    if self.catalog.ops[s].needs_session && !self.clients[client].logged_in {
                        self.login_state
                    } else {
                        s
                    }
                }
                None => {
                    // Abandonment: the session ends without logout; a fresh
                    // user takes this slot at the entry page.
                    let action = self.clients[client].action;
                    self.emit(TelemetryEvent::ActionClosed { action: action.0 });
                    self.new_action(client);
                    self.drop_cookie(client);
                    self.catalog.entry_state
                }
            }
        };
        let spec = &self.catalog.ops[state];
        let arg = match spec.arg {
            ArgKind::None => 0,
            ArgKind::Range(lo, hi) => {
                lo + self.clients[client].rng.uniform_u64((hi - lo + 1) as u64) as i64
            }
        };
        self.next_req += 1;
        let id = ReqId(self.next_req);
        let op = spec.op;
        let idempotent = spec.idempotent;
        self.mix.total += 1;
        *self.mix.counts.entry(spec.mix).or_insert(0) += 1;
        let c = &mut self.clients[client];
        c.state = state;
        let first_sent_at = match (&c.pending, retrying) {
            (Some(p), true) => p.first_sent_at,
            _ => now,
        };
        let attempts = match (&c.pending, retrying) {
            (Some(p), true) => p.attempts + 1,
            _ => 0,
        };
        c.pending = Some(Pending {
            op,
            state,
            first_sent_at,
            attempts,
            was_logged_in: c.logged_in,
        });
        debug_assert!(self.req_owner.last().is_none_or(|&(last, _)| last < id));
        self.req_owner.push((id, client));
        Some(OutgoingRequest {
            client,
            req: Request {
                id,
                op,
                session: self.clients[client].session,
                idempotent,
                arg,
                submitted_at: now,
            },
        })
    }

    /// Delivers a response to its client.
    ///
    /// `node` is the node that served (or failed to serve) the request,
    /// for the failure report. Returns the client and what to schedule for
    /// it, or `None` for a stale response (e.g., a TTL purge arriving
    /// after the client's slot already moved on).
    pub fn deliver(
        &mut self,
        response: &Response,
        node: usize,
        now: SimTime,
    ) -> Option<(usize, DeliverOutcome)> {
        let slot = self
            .req_owner
            .binary_search_by_key(&response.req, |&(id, _)| id)
            .ok()?;
        let client = self.req_owner.remove(slot).1;
        let pending = self.clients[client]
            .pending
            .take()
            .expect("a delivered response matches a pending request");

        // Transparent Retry-After handling (Section 6.2).
        if let Some(d) = response.wants_retry() {
            if pending.attempts < MAX_RETRIES {
                let c = &mut self.clients[client];
                c.retry_pending = true;
                c.pending = Some(pending);
                return Some((client, DeliverOutcome::RetryAt(now + d)));
            }
        }

        let spec = self
            .catalog
            .spec(response.op)
            .expect("response op is in the catalog");
        let group = spec.group;
        let commit_point = spec.commit_point;
        let is_login = spec.is_login;
        let is_logout = spec.is_logout;

        // Detection.
        let gave_up_retry = response.wants_retry().is_some();
        let failure = if gave_up_retry {
            Some(FailureKind::Http)
        } else {
            classify(self.config.detector, response, pending.was_logged_in)
        };

        // Client-side retry policy: connection-level and server-error
        // failures may be transparently re-issued before the action is
        // declared failed. Off by default ([`RetryPolicy::None`]), so
        // pinned traces never take this branch. Exhausted `Retry-After`
        // rounds are final — the server already asked us to slow down.
        if let Some(kind) = failure {
            let retry_worthy = matches!(
                kind,
                FailureKind::Network | FailureKind::Timeout | FailureKind::Http
            );
            if !gave_up_retry && retry_worthy {
                if let Some(delay) = self.retry_delay(client, pending.attempts) {
                    self.retries_issued += 1;
                    let c = &mut self.clients[client];
                    c.retry_pending = true;
                    c.pending = Some(pending);
                    return Some((client, DeliverOutcome::RetryAt(now + delay)));
                }
            }
        }

        // Taw accounting (via the telemetry event path).
        let action = self.clients[client].action;
        self.emit(TelemetryEvent::ClientOp {
            action: action.0,
            group: group.code(),
            started_at: pending.first_sent_at,
            finished_at: response.finished_at.max(now),
            ok: failure.is_none(),
        });

        // Successful-op latency feeds the performance plane's sketches
        // (failures are the error detectors' evidence, not fail-slow's).
        if failure.is_none() {
            if let Some(perf) = &mut self.perf {
                perf.record(
                    node,
                    response.op,
                    response.finished_at.max(now) - pending.first_sent_at,
                );
            }
        }

        if let Some(kind) = failure {
            // Error pages name the failing bean (JBoss prints the class in
            // the stack trace); only bodies with exception text carry it.
            let hint = if response.markers.exception_text {
                response.failed_component.map(CompName::intern)
            } else {
                None
            };
            self.reports.push(FailureReport {
                at: now,
                op: response.op,
                kind,
                node,
                hint,
            });
            // A failed operation fails its whole action, atomically.
            self.emit(TelemetryEvent::ActionClosed { action: action.0 });
            self.new_action(client);
        } else if commit_point || is_logout {
            // A committed operation under a held cookie is the client-side
            // half of the integrity invariant: the store must now retain
            // (or account for) this session's state.
            if commit_point {
                if let (Some(ledger), Some(sid)) = (&self.ledger, self.clients[client].session) {
                    ledger.borrow_mut().on_commit(sid.0);
                }
            }
            self.emit(TelemetryEvent::ActionClosed { action: action.0 });
            self.new_action(client);
        }

        // Session bookkeeping.
        if let Some(sid) = response.set_cookie {
            let c = &mut self.clients[client];
            // A fresh cookie replaces whichever one the client still held.
            let replaced = c.session.replace(sid).filter(|old| *old != sid);
            self.dropped_sessions.extend(replaced);
            if is_login && failure.is_none() {
                c.logged_in = true;
            }
        }
        if response.clear_cookie {
            self.drop_cookie(client);
        }
        if response.markers.login_prompt && pending.was_logged_in {
            // The server no longer knows this session: drop the stale
            // cookie and re-login on the next click.
            self.drop_cookie(client);
            self.clients[client].force_login = true;
        }
        // Connection-level failures leave the cookie; the session may
        // still exist when the node comes back.
        Some((client, DeliverOutcome::ThinkUntil(self.think(client, now))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{FunctionalGroup, OpSpec};
    use urb_core::{BodyMarkers, Status};

    fn catalog() -> Catalog {
        let op = |op, name, needs_session, is_login, is_logout, commit| OpSpec {
            op: OpCode(op),
            name,
            group: FunctionalGroup::BrowseView,
            mix: MixClass::ReadOnlyDb,
            idempotent: true,
            commit_point: commit,
            needs_session,
            is_login,
            is_logout,
            arg: ArgKind::Range(1, 100),
        };
        Catalog {
            ops: vec![
                op(0, "Home", false, false, false, false),
                op(1, "Login", false, true, false, false),
                op(2, "Browse", false, false, false, true),
                op(3, "Bid", true, false, false, true),
                op(4, "Logout", true, false, true, false),
            ],
            transitions: vec![
                vec![(1, 1.0), (2, 1.0)],
                vec![(2, 1.0), (3, 1.0)],
                vec![(2, 1.0), (3, 1.0), (4, 0.5)],
                vec![(2, 1.0), (4, 0.5)],
                vec![(0, 1.0)],
            ],
            abandon_weight: vec![0.0, 0.0, 0.2, 0.2, 0.0],
            entry_state: 0,
        }
    }

    fn pool(n: usize) -> ClientPool {
        ClientPool::new(
            catalog(),
            ClientPoolConfig {
                clients: n,
                seed: 7,
                ..ClientPoolConfig::default()
            },
        )
    }

    fn ok_response(req: &Request, now: SimTime) -> Response {
        Response {
            req: req.id,
            op: req.op,
            status: Status::Ok,
            markers: BodyMarkers::default(),
            tainted: false,
            finished_at: now + SimDuration::from_millis(15),
            failed_component: None,
            set_cookie: None,
            clear_cookie: false,
        }
    }

    #[test]
    fn initial_wakes_are_staggered() {
        let mut p = pool(100);
        let wakes = p.initial_wakes(SimTime::ZERO);
        assert_eq!(wakes.len(), 100);
        let distinct: std::collections::BTreeSet<u64> =
            wakes.iter().map(|(_, t)| t.as_micros()).collect();
        assert!(distinct.len() > 90, "think times should differ");
    }

    #[test]
    fn wake_issues_requests_and_walks_the_chain() {
        let mut p = pool(1);
        let now = SimTime::from_secs(1);
        let out = p.wake(0, now).unwrap();
        assert_eq!(out.client, 0);
        // From Home, the chain goes to Login or Browse.
        assert!(out.req.op == OpCode(1) || out.req.op == OpCode(2));
        assert!(p.owner_of(out.req.id).is_some());
    }

    #[test]
    fn needs_session_routes_through_login() {
        let mut p = pool(1);
        let now = SimTime::from_secs(1);
        // Force the client into the Browse state whose next hop may be Bid
        // (needs session); walk until a Bid-or-login decision occurs.
        let mut saw_login_first = false;
        for _ in 0..200 {
            let out = p.wake(0, now).unwrap();
            if out.req.op == OpCode(3) {
                panic!("Bid issued without login");
            }
            if out.req.op == OpCode(1) {
                saw_login_first = true;
                break;
            }
            let resp = ok_response(&out.req, now);
            p.deliver(&resp, 0, now);
        }
        assert!(saw_login_first, "login interposed before Bid");
    }

    #[test]
    fn login_response_sets_session_state() {
        let mut p = pool(1);
        let now = SimTime::from_secs(1);
        // Drive until the login op is issued.
        let mut out = p.wake(0, now).unwrap();
        while out.req.op != OpCode(1) {
            let resp = ok_response(&out.req, now);
            p.deliver(&resp, 0, now);
            out = p.wake(0, now).unwrap();
        }
        let mut resp = ok_response(&out.req, now);
        resp.set_cookie = Some(SessionId(99));
        let outcome = p.deliver(&resp, 0, now);
        assert!(matches!(outcome, Some((0, DeliverOutcome::ThinkUntil(_)))));
        assert_eq!(p.with_session(), 1);
    }

    #[test]
    fn retry_after_is_honoured_then_gives_up() {
        let mut p = pool(1);
        let now = SimTime::from_secs(1);
        let out = p.wake(0, now).unwrap();
        let mut resp = ok_response(&out.req, now);
        resp.status = Status::RetryAfter(SimDuration::from_secs(2));
        // First three deliveries: retry.
        let mut current = out;
        for round in 0..3 {
            let outcome = p.deliver(
                &Response {
                    req: current.req.id,
                    ..resp.clone()
                },
                0,
                now,
            );
            assert_eq!(
                outcome,
                Some((0, DeliverOutcome::RetryAt(now + SimDuration::from_secs(2)))),
                "round {round} retries"
            );
            current = p.wake(0, now + SimDuration::from_secs(2)).unwrap();
            assert_eq!(current.req.op, resp.op, "same operation re-issued");
        }
        // Fourth: gives up, counted as failure.
        let outcome = p.deliver(
            &Response {
                req: current.req.id,
                ..resp.clone()
            },
            0,
            now,
        );
        assert!(matches!(outcome, Some((0, DeliverOutcome::ThinkUntil(_)))));
        let reports = p.drain_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, FailureKind::Http);
    }

    #[test]
    fn failure_reports_carry_node_and_op() {
        let mut p = pool(1);
        let now = SimTime::from_secs(1);
        let out = p.wake(0, now).unwrap();
        let mut resp = ok_response(&out.req, now);
        resp.status = Status::ServerError(500);
        p.deliver(&resp, 3, now);
        let reports = p.drain_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].node, 3);
        assert_eq!(reports[0].op, out.req.op);
        assert!(p.drain_reports().is_empty(), "drain clears");
    }

    #[test]
    fn spurious_reports_reach_the_drain_without_any_request() {
        let mut p = pool(1);
        let now = SimTime::from_secs(9);
        p.inject_spurious_reports(2, OpCode(3), 5, now);
        let reports = p.drain_reports();
        assert_eq!(reports.len(), 5);
        for r in &reports {
            assert_eq!(r.kind, FailureKind::Http);
            assert_eq!(r.node, 2);
            assert_eq!(r.op, OpCode(3));
            assert_eq!(r.at, now);
            assert!(r.hint.is_none(), "a false positive names no component");
        }
        assert!(p.drain_reports().is_empty(), "drain clears");
        // The fabricated failures never touch client state: no sessions
        // were dropped and no action was aborted.
        assert!(p.wake(0, SimTime::from_secs(10)).is_some());
    }

    #[test]
    fn login_prompt_when_logged_in_forces_relogin() {
        let mut p = pool(1);
        let now = SimTime::from_secs(1);
        // Log the client in.
        let mut out = p.wake(0, now).unwrap();
        while out.req.op != OpCode(1) {
            p.deliver(&ok_response(&out.req, now), 0, now);
            out = p.wake(0, now).unwrap();
        }
        let mut resp = ok_response(&out.req, now);
        resp.set_cookie = Some(SessionId(5));
        p.deliver(&resp, 0, now);

        // Next op comes back with a login prompt (session lost).
        let out = p.wake(0, now).unwrap();
        let mut resp = ok_response(&out.req, now);
        resp.markers.login_prompt = true;
        p.deliver(&resp, 0, now);
        assert_eq!(p.drain_reports().len(), 1, "app-specific failure");
        assert_eq!(p.with_session(), 0, "stale cookie dropped");

        // The next wake re-issues login.
        let out = p.wake(0, now).unwrap();
        assert_eq!(out.req.op, OpCode(1), "forced re-login");
    }

    fn pool_with_policy(policy: RetryPolicy) -> ClientPool {
        ClientPool::new(
            catalog(),
            ClientPoolConfig {
                clients: 1,
                seed: 7,
                retry_policy: policy,
                ..ClientPoolConfig::default()
            },
        )
    }

    /// Drives one client through `rounds` network-failed deliveries and
    /// returns (retry delays observed, total failure reports).
    fn drive_failures(p: &mut ClientPool, rounds: usize) -> (Vec<SimDuration>, usize) {
        let mut now = SimTime::from_secs(1);
        let mut delays = Vec::new();
        let mut out = p.wake(0, now).unwrap();
        for _ in 0..rounds {
            let mut resp = ok_response(&out.req, now);
            resp.status = Status::NetworkError;
            match p.deliver(&resp, 0, now) {
                Some((0, DeliverOutcome::RetryAt(at))) => {
                    delays.push(at - now);
                    now = at;
                    out = p.wake(0, now).unwrap();
                }
                Some((0, DeliverOutcome::ThinkUntil(_))) => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        (delays, p.drain_reports().len())
    }

    #[test]
    fn retry_policy_none_fails_immediately() {
        let mut p = pool_with_policy(RetryPolicy::None);
        let (delays, reports) = drive_failures(&mut p, 10);
        assert!(delays.is_empty(), "no client-side retries by default");
        assert_eq!(reports, 1);
        assert_eq!(p.retries_issued(), 0);
    }

    #[test]
    fn naive_policy_storms_with_fixed_tiny_delays() {
        let mut p = pool_with_policy(RetryPolicy::NaiveImmediate { retries: 6 });
        let (delays, reports) = drive_failures(&mut p, 10);
        assert_eq!(delays.len(), 6, "retries until the budget, then fails");
        assert!(delays.iter().all(|d| *d == SimDuration::from_millis(1)));
        assert_eq!(reports, 1, "one report for the final failure");
        assert_eq!(p.retries_issued(), 6);
    }

    #[test]
    fn budgeted_policy_backs_off_exponentially_and_caps() {
        let mut p = pool_with_policy(RetryPolicy::Budgeted {
            budget: 5,
            base: SimDuration::from_millis(100),
            cap: SimDuration::from_secs(1),
        });
        let (delays, reports) = drive_failures(&mut p, 10);
        assert_eq!(delays.len(), 5);
        assert_eq!(reports, 1);
        // Backoff grows: each nominal delay is base * 2^n capped at 1 s,
        // jittered ±25%. Check the envelope rather than exact values.
        for (n, d) in delays.iter().enumerate() {
            let nominal =
                (SimDuration::from_millis(100) * (1u64 << n)).min(SimDuration::from_secs(1));
            let lo = nominal.as_micros() * 3 / 4;
            let hi = nominal.as_micros() * 5 / 4;
            let got = d.as_micros();
            assert!(
                got >= lo && got <= hi,
                "retry {n}: {got}µs outside [{lo}, {hi}]"
            );
        }
        // The last delays hit the cap's envelope, not unbounded growth.
        assert!(delays[4] <= SimDuration::from_micros(1_250_000));
    }

    #[test]
    fn budgeted_retries_are_deterministic_per_seed() {
        let run = || {
            let mut p = pool_with_policy(RetryPolicy::Budgeted {
                budget: 5,
                base: SimDuration::from_millis(100),
                cap: SimDuration::from_secs(1),
            });
            drive_failures(&mut p, 10).0
        };
        assert_eq!(run(), run(), "same seed, same jittered backoff");
    }

    #[test]
    fn commit_points_under_a_cookie_record_ledger_intents() {
        let mut p = pool(1);
        let ledger = statestore::shared_ledger();
        p.attach_ledger(ledger.clone());
        let now = SimTime::from_secs(1);
        // Log the client in and hand it a cookie.
        let mut out = p.wake(0, now).unwrap();
        while out.req.op != OpCode(1) {
            p.deliver(&ok_response(&out.req, now), 0, now);
            out = p.wake(0, now).unwrap();
        }
        let mut resp = ok_response(&out.req, now);
        resp.set_cookie = Some(SessionId(42));
        p.deliver(&resp, 0, now);
        // The store applies a write for the session, then the client
        // commits operations until one lands on a commit point.
        ledger.borrow_mut().on_applied(42, 1);
        for _ in 0..50 {
            let out = p.wake(0, now).unwrap();
            p.deliver(&ok_response(&out.req, now), 0, now);
        }
        assert!(
            ledger.borrow().total_intents() > 0,
            "commit points under a cookie become ledger intents"
        );
        assert_eq!(
            ledger.borrow().committed_sessions().collect::<Vec<_>>(),
            vec![42]
        );
    }

    #[test]
    fn taw_counts_good_ops_via_commit_points() {
        let mut p = pool(1);
        let now = SimTime::from_secs(1);
        for _ in 0..50 {
            let out = p.wake(0, now).unwrap();
            let resp = ok_response(&out.req, now);
            p.deliver(&resp, 0, now);
        }
        p.taw().close_all();
        let s = p.taw_ref().summary();
        assert!(s.good_ops > 0);
        assert_eq!(s.bad_ops, 0);
    }

    #[test]
    fn mix_counts_accumulate() {
        let mut p = pool(4);
        let now = SimTime::from_secs(1);
        for c in 0..4 {
            let out = p.wake(c, now).unwrap();
            p.deliver(&ok_response(&out.req, now), 0, now);
        }
        assert_eq!(p.mix().total(), 4);
        assert!(p.mix().percent(MixClass::ReadOnlyDb) > 0.0);
    }
}
