//! The reboot lifecycle: one state machine for every recovery depth.
//!
//! The paper's four recovery actions — microreboot, application restart,
//! process restart, OS reboot — are one mechanism at four
//! [`RebootLevel`]s, and this module implements them as one three-phase
//! lifecycle:
//!
//! 1. [`AppServer::begin_recovery`] validates the action, binds sentinels
//!    (component level) or flips the process state (coarse levels), and
//!    returns a [`RebootTicket`] naming the crash and completion instants;
//! 2. [`AppServer::recovery_crash`] runs the destructive phase — thread
//!    kills, transaction rollback, container teardown, and the per-level
//!    resource releases (DB connections, in-process session state, leaked
//!    heap);
//! 3. [`AppServer::recovery_complete`] reinitializes and rebinds, setting
//!    the process back up for the coarse levels.
//!
//! [`RecoveryLifecycle`] tracks the in-flight recoveries. Beginning a
//! coarse recovery cancels every finer one still in flight — the
//! subsumption order is exactly the chain [`RebootLevel::escalate`]
//! generates, so a cancelled microreboot's scheduled completion becomes a
//! harmless no-op instead of racing the restart that replaced it.
//!
//! `begin_microreboot` / `microreboot_crash` / `microreboot_complete`
//! name the component level of the same API.

use components::descriptor::ComponentId;
use components::registry::Binding;
use simcore::telemetry::{KillCause, RebootLevel, TelemetryEvent};
use simcore::{SimDuration, SimTime};

use crate::app::Application;
use crate::calib;
use crate::request::{Response, Status};
use crate::server::{AppServer, RebootError};

/// Identifier of an in-flight recovery action.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RebootId(u64);

/// Whole-process availability state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcState {
    /// Serving requests.
    Up,
    /// The application is restarting inside the live server.
    AppRestarting {
        /// When the restart completes.
        until: SimTime,
    },
    /// The JVM process is restarting.
    JvmRestarting {
        /// When the restart completes.
        until: SimTime,
    },
    /// The node's operating system is rebooting.
    OsRebooting {
        /// When the reboot (including JVM start) completes.
        until: SimTime,
    },
    /// The JVM died of heap exhaustion; waiting for a restart.
    DownOom,
    /// The JVM crashed (e.g., register bit flip); waiting for a restart.
    Crashed,
}

/// A scheduled recovery action with its phase instants.
#[derive(Clone, Copy, Debug)]
pub struct RebootTicket {
    /// Identifier for the crash/complete calls.
    pub id: RebootId,
    /// When the crash phase runs (now, or now+drain).
    pub crash_at: SimTime,
    /// When reinitialization completes.
    pub done_at: SimTime,
}

/// One in-flight recovery.
struct ActiveRecovery {
    id: RebootId,
    level: RebootLevel,
    /// Recovery-group members (component level only).
    members: Vec<ComponentId>,
    began_at: SimTime,
    crash_at: SimTime,
    crashed: bool,
    done_at: SimTime,
}

/// The recovery state machine: process availability plus every in-flight
/// recovery, keyed by [`RebootLevel`]. No reboot wipes it: it is the
/// machine that runs them.
pub struct RecoveryLifecycle {
    state: ProcState,
    active: Vec<ActiveRecovery>,
    /// Monotonic [`RebootId`] allocator: ids stay unique across reboots.
    next_id: u64,
}

impl Default for RecoveryLifecycle {
    fn default() -> Self {
        RecoveryLifecycle::new()
    }
}

impl RecoveryLifecycle {
    /// Creates the lifecycle for a freshly started (up) server.
    pub(crate) fn new() -> Self {
        RecoveryLifecycle {
            state: ProcState::Up,
            active: Vec::new(),
            next_id: 0,
        }
    }

    /// Returns the process availability state.
    pub(crate) fn state(&self) -> ProcState {
        self.state
    }

    /// Returns true if the process is up and serving.
    pub(crate) fn is_up(&self) -> bool {
        self.state == ProcState::Up
    }

    /// Forces the process state (OOM death, register-flip crash).
    pub(crate) fn force_state(&mut self, state: ProcState) {
        self.state = state;
    }

    fn alloc_id(&mut self) -> RebootId {
        self.next_id += 1;
        RebootId(self.next_id)
    }

    fn find(&self, id: RebootId) -> Option<usize> {
        self.active.iter().position(|r| r.id == id)
    }

    /// Returns true if `m` is a member of any in-flight microreboot.
    fn is_member_rebooting(&self, m: ComponentId) -> bool {
        self.active.iter().any(|r| r.members.contains(&m))
    }

    /// Cancels every in-flight recovery that `level` subsumes (per
    /// [`RebootLevel::supersedes`], i.e. the escalation chain).
    fn cancel_finer(&mut self, level: RebootLevel) {
        self.active.retain(|r| !level.supersedes(r.level));
    }

    /// In-flight component-level recoveries as `(members, crash_at,
    /// done_at)` for the server's query surface.
    pub(crate) fn component_reboots(
        &self,
    ) -> impl Iterator<Item = (&[ComponentId], SimTime, SimTime)> {
        self.active
            .iter()
            .filter(|r| r.level == RebootLevel::Component)
            .map(|r| (r.members.as_slice(), r.crash_at, r.done_at))
    }
}

impl<A: Application> AppServer<A> {
    // ---- the unified lifecycle API -----------------------------------

    /// Begins a recovery action at `level`.
    ///
    /// `targets` names the components to microreboot (expanded to their
    /// recovery groups; ignored at coarser levels). `drain` delays the
    /// component-level crash phase (Table 6's drain window). The caller
    /// invokes [`AppServer::recovery_crash`] at the ticket's `crash_at`
    /// and [`AppServer::recovery_complete`] at its `done_at`.
    ///
    /// Component and application levels require an up process; process
    /// and OS levels always succeed (`kill -9` needs no cooperation).
    /// Beginning a coarse recovery cancels every finer one in flight.
    pub fn begin_recovery(
        &mut self,
        level: RebootLevel,
        targets: &[&str],
        now: SimTime,
        drain: Option<SimDuration>,
    ) -> Result<RebootTicket, RebootError> {
        match level {
            RebootLevel::Component => self.begin_component(targets, now, drain),
            RebootLevel::Application => {
                if !self.lifecycle.is_up() {
                    return Err(RebootError::ProcessNotUp);
                }
                let until = now + calib::APP_RESTART_CRASH + calib::APP_RESTART_REINIT;
                Ok(self.begin_coarse(level, now, until))
            }
            RebootLevel::Process => {
                let until =
                    now + calib::JVM_CRASH + calib::JVM_SERVICES_INIT + calib::JVM_APP_DEPLOY;
                Ok(self.begin_coarse(level, now, until))
            }
            RebootLevel::OperatingSystem => {
                let until =
                    now + calib::OS_REBOOT + calib::JVM_SERVICES_INIT + calib::JVM_APP_DEPLOY;
                Ok(self.begin_coarse(level, now, until))
            }
        }
    }

    /// Runs the destructive phase of a recovery: kills the threads in its
    /// blast radius, rolls their transactions back, and tears down the
    /// per-level machinery. Returns the killed requests' failure
    /// responses (the caller delivers them). A cancelled or repeated id
    /// is a no-op.
    pub fn recovery_crash(&mut self, id: RebootId, now: SimTime) -> Vec<Response> {
        let Some(pos) = self.lifecycle.find(id) else {
            return Vec::new();
        };
        if self.lifecycle.active[pos].crashed {
            return Vec::new();
        }
        self.lifecycle.active[pos].crashed = true;
        let level = self.lifecycle.active[pos].level;
        match level {
            RebootLevel::Component => {
                let members = self.lifecycle.active[pos].members.clone();
                self.component_crash(&members, now)
            }
            RebootLevel::Application => {
                let killed = self.kill_everything(now, false);
                self.teardown_containers();
                // Redeployment rebuilds the degraded pools; a component
                // microreboot's warm restart (above) leaves them slow.
                self.inner.degraded.clear();
                killed
            }
            RebootLevel::Process => {
                let killed = self.kill_everything(now, true);
                self.teardown_containers();
                self.process_teardown();
                self.inner.degraded.clear();
                killed
            }
            RebootLevel::OperatingSystem => {
                let killed = self.kill_everything(now, true);
                self.teardown_containers();
                self.process_teardown();
                self.inner.degraded.clear();
                // Only an OS reboot reclaims native/kernel leaks.
                self.inner.heap.on_os_reboot();
                self.inner.extra_leak_rate = 0;
                killed
            }
        }
    }

    /// Completes a recovery: reinitializes and rebinds its blast radius
    /// and, at the coarse levels, brings the process back up. A cancelled
    /// id is a no-op.
    pub fn recovery_complete(&mut self, id: RebootId, now: SimTime) {
        let Some(pos) = self.lifecycle.find(id) else {
            return;
        };
        let rec = self.lifecycle.active.remove(pos);
        debug_assert!(rec.crashed, "crash phase must run before complete");
        match rec.level {
            RebootLevel::Component => {
                for m in &rec.members {
                    self.inner.containers[m.0].complete_start();
                    self.inner.registry.bind(*m, Binding::Active(*m));
                    self.app.on_component_reinit(self.inner.graph.name_of(*m));
                }
                if rec.members.contains(&self.inner.web_id) {
                    // The web tier revalidates in-process session state as
                    // it reinitializes, evicting objects that fail
                    // application checks.
                    let AppServer { app, inner, .. } = self;
                    inner.session.revalidate(|obj| app.session_valid(obj));
                }
            }
            RebootLevel::Application => {
                self.restart_containers();
                for id in self.inner.graph.all_ids() {
                    self.app.on_component_reinit(self.inner.graph.name_of(id));
                }
                let AppServer { app, inner, .. } = self;
                inner.session.revalidate(|obj| app.session_valid(obj));
                self.lifecycle.state = ProcState::Up;
            }
            RebootLevel::Process | RebootLevel::OperatingSystem => {
                self.restart_containers();
                self.app.on_process_restart();
                self.lifecycle.state = ProcState::Up;
            }
        }
        // A leak that is a code bug resumes in the fresh instances.
        self.inner.reapply_persistent_leaks();
        self.inner.emit(TelemetryEvent::RebootFinished {
            node: self.inner.node,
            level: rec.level,
            duration: now - rec.began_at,
            at: now,
        });
    }

    // ---- per-level phases --------------------------------------------

    fn begin_component(
        &mut self,
        targets: &[&str],
        now: SimTime,
        drain: Option<SimDuration>,
    ) -> Result<RebootTicket, RebootError> {
        if !self.lifecycle.is_up() {
            return Err(RebootError::ProcessNotUp);
        }
        let mut members: Vec<ComponentId> = Vec::new();
        for t in targets {
            let id = self
                .inner
                .graph
                .id_of(t)
                .ok_or_else(|| RebootError::UnknownComponent(t.to_string()))?;
            for m in self.inner.graph.recovery_group(id) {
                if !members.contains(m) {
                    members.push(*m);
                }
            }
        }
        // Any overlap with an in-flight microreboot rejects the whole
        // action. Rebooting only the non-overlapping remainder would split
        // a recovery group (members reboot together or not at all), and
        // re-crashing an already-crashed container would double-kill its
        // requests mid-reinit. The rejection is deterministic: the
        // conductor coalesces overlapping actions before they reach this
        // API, so a caller that sees `AlreadyRebooting` bypassed it and
        // must retry after the in-flight microreboot completes.
        if members.is_empty()
            || members
                .iter()
                .any(|m| self.lifecycle.is_member_rebooting(*m))
        {
            return Err(RebootError::AlreadyRebooting);
        }
        members.sort_unstable();
        // Group cost: the slowest member plus a per-extra-member increment
        // (Table 3's EntityGroup amortization), with trial jitter.
        let n = members.len() as u64;
        let crash = members
            .iter()
            .map(|m| self.inner.containers[m.0].descriptor.crash_cost)
            .fold(SimDuration::ZERO, SimDuration::max)
            + calib::GROUP_EXTRA_CRASH * (n - 1);
        let reinit_base = members
            .iter()
            .map(|m| self.inner.containers[m.0].descriptor.reinit_cost)
            .fold(SimDuration::ZERO, SimDuration::max)
            + calib::GROUP_EXTRA_REINIT * (n - 1);
        let reinit = self.inner.rng.jittered(reinit_base, calib::REINIT_JITTER);
        let crash_at = now + drain.unwrap_or(SimDuration::ZERO);
        let done_at = crash_at + crash + reinit;
        // Bind sentinels now: new callers see Retry-After for the whole
        // window (Section 6.2 binds the sentinel before the reboot).
        for m in &members {
            self.inner.registry.bind(
                *m,
                Binding::Sentinel {
                    retry_after: calib::RETRY_AFTER,
                },
            );
        }
        let id = self.lifecycle.alloc_id();
        self.inner.emit(TelemetryEvent::RebootBegun {
            node: self.inner.node,
            level: RebootLevel::Component,
            members: members.len() as u32,
            at: now,
        });
        self.lifecycle.active.push(ActiveRecovery {
            id,
            level: RebootLevel::Component,
            members,
            began_at: now,
            crash_at,
            crashed: false,
            done_at,
        });
        Ok(RebootTicket {
            id,
            crash_at,
            done_at,
        })
    }

    fn begin_coarse(&mut self, level: RebootLevel, now: SimTime, until: SimTime) -> RebootTicket {
        // A coarser recovery subsumes every finer one still in flight;
        // their scheduled crash/complete callbacks become no-ops.
        self.lifecycle.cancel_finer(level);
        self.lifecycle.state = match level {
            RebootLevel::Application => ProcState::AppRestarting { until },
            RebootLevel::Process => ProcState::JvmRestarting { until },
            RebootLevel::OperatingSystem => ProcState::OsRebooting { until },
            RebootLevel::Component => unreachable!("component level is not coarse"),
        };
        let id = self.lifecycle.alloc_id();
        self.inner.emit(TelemetryEvent::RebootBegun {
            node: self.inner.node,
            level,
            members: 0,
            at: now,
        });
        self.lifecycle.active.push(ActiveRecovery {
            id,
            level,
            members: Vec::new(),
            began_at: now,
            crash_at: now,
            crashed: false,
            done_at: until,
        });
        RebootTicket {
            id,
            crash_at: now,
            done_at: until,
        }
    }

    /// The microreboot thread kill: destroys the member containers and
    /// kills the requests in their blast radius.
    fn component_crash(&mut self, members: &[ComponentId], now: SimTime) -> Vec<Response> {
        let victims = self.pipeline.take_victims_touching(members);
        let mut killed = Vec::with_capacity(victims.len());
        for v in victims {
            if let Some(t) = v.txn {
                let mut db = self.inner.db.borrow_mut();
                if db.txn_active(t) {
                    let _ = db.rollback(t);
                }
            }
            let during = self.inner.graph.name_of(v.hung_in.unwrap_or(members[0]));
            killed.push(Self::killed_response(&v.req, now, during));
            self.inner.emit(TelemetryEvent::RequestKilled {
                node: self.inner.node,
                req: v.req.id.0,
                cause: KillCause::Microreboot,
                at: now,
            });
        }
        // Destroy the containers (reclaims leaks, discards metadata).
        for m in members {
            self.inner.containers[m.0].crash();
            self.inner.containers[m.0].begin_start();
        }
        killed
    }

    /// Kills every request in the pipeline (the coarse levels' crash).
    ///
    /// `network_level` selects connection-drop responses (process/OS
    /// death) over in-server 500s (application restart).
    pub(crate) fn kill_everything(&mut self, now: SimTime, network_level: bool) -> Vec<Response> {
        let victims = self.pipeline.take_all();
        let mut killed = Vec::with_capacity(victims.len());
        for v in victims {
            if let Some(t) = v.txn {
                let mut db = self.inner.db.borrow_mut();
                if db.txn_active(t) {
                    let _ = db.rollback(t);
                }
            }
            let resp = if network_level {
                self.instant_response(&v.req, now, Status::NetworkError, false)
            } else {
                Self::killed_response(&v.req, now, "restart")
            };
            killed.push(resp);
            self.inner.emit(TelemetryEvent::RequestKilled {
                node: self.inner.node,
                req: v.req.id.0,
                cause: KillCause::Restart,
                at: now,
            });
        }
        killed
    }

    /// Stops every container and unbinds every name.
    fn teardown_containers(&mut self) {
        for c in &mut self.inner.containers {
            c.full_stop();
        }
        for id in self.inner.graph.all_ids() {
            self.inner.registry.unbind(id);
        }
    }

    /// The `kill -9` resource release: the OS tears down the database
    /// connections (releasing any locks, Section 7), in-process session
    /// state is lost, and intra-JVM leaks (and low-level fault state) die
    /// with the process.
    fn process_teardown(&mut self) {
        if let Some(conn) = self.inner.db_conn.take() {
            let _ = self.inner.db.borrow_mut().close_conn(conn);
        }
        self.inner.session.on_process_restart();
        self.inner.heap.on_process_restart();
        self.inner.lowlevel = None;
        self.inner.intra_leak_rate = 0;
    }

    /// Restarts every container and rebinds every name (coarse completes).
    fn restart_containers(&mut self) {
        for id in self.inner.graph.all_ids() {
            let c = &mut self.inner.containers[id.0];
            c.begin_start();
            c.complete_start();
            self.inner.registry.bind(id, Binding::Active(id));
        }
    }

    // ---- the component level, by name ---------------------------------

    /// Begins a microreboot of `targets` (component names), expanded to
    /// their recovery groups. See [`AppServer::begin_recovery`].
    pub fn begin_microreboot(
        &mut self,
        targets: &[&str],
        now: SimTime,
        drain: Option<SimDuration>,
    ) -> Result<RebootTicket, RebootError> {
        self.begin_recovery(RebootLevel::Component, targets, now, drain)
    }

    /// Runs the crash phase of a microreboot. See
    /// [`AppServer::recovery_crash`].
    pub fn microreboot_crash(&mut self, id: RebootId, now: SimTime) -> Vec<Response> {
        self.recovery_crash(id, now)
    }

    /// Completes a microreboot. See [`AppServer::recovery_complete`].
    pub fn microreboot_complete(&mut self, id: RebootId, now: SimTime) {
        self.recovery_complete(id, now);
    }
}
