//! Recovery execution: the manager's poll, actions and policy-plane
//! holds, reboots of every depth, the conductor glue, and rejuvenation.

use recovery::conductor::{StartCmd, Submission, TicketId};
use recovery::RecoveryAction;
use simcore::telemetry::TelemetryEvent;
use simcore::{SimDuration, SimTime};
use urb_core::rejuvenation::RejuvenationAction;
use urb_core::server::{RebootId, RebootLevel};

use crate::sim::{LogEvent, SimEvent, SimQueue, World};

/// How long a policy-plane hold (bulkhead isolation or failover-first
/// redirection) lasts before the executor lifts it and acknowledges the
/// action back to the recovery manager.
const POLICY_HOLD: SimDuration = SimDuration::from_secs(10);

impl World {
    pub(crate) fn on_rm_poll(&mut self, q: &mut SimQueue) {
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

    /// The RM's own process crashes (ReHype): volatile diagnosis state is
    /// wiped; reports, polls and acknowledgements are lost until reboot.
    pub(crate) fn on_rm_crash(&mut self, q: &mut SimQueue) {
        let now = q.now();
        if let Some(rm) = &mut self.rm {
            rm.crash(now);
            self.rm_down = true;
        }
    }

    /// The RM finishes rebooting and resumes from a blank slate.
    pub(crate) fn on_rm_reboot(&mut self, q: &mut SimQueue) {
        let now = q.now();
        if let Some(rm) = &mut self.rm {
            rm.rebooted(now);
            self.rm_down = false;
        }
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

    /// Executes a recovery action on a node (from the RM or an
    /// experiment): a policy-plane hold or a human page here, a reboot of
    /// any depth through [`World::begin_reboot`].
    pub(crate) fn execute_action(&mut self, node: usize, action: RecoveryAction, q: &mut SimQueue) {
        let now = q.now();
        self.log.push(LogEvent::RecoveryStarted {
            at: now,
            node,
            action: format!("{action:?}"),
        });
        match action {
            RecoveryAction::Isolate { components } => {
                // Bulkhead: admission-control the blast radius instead of
                // rebooting — the LB sheds the components' traffic.
                let members = components.len() as u32;
                self.lb.set_quarantine(node, components);
                self.emit(TelemetryEvent::QuarantineOn {
                    node,
                    members,
                    at: now,
                });
                self.begin_hold(node, false, q);
            }
            RecoveryAction::Failover => {
                // Failover-first: steer the node's traffic to its peers
                // without touching the node itself.
                self.emit(TelemetryEvent::FailoverEngaged { node, at: now });
                self.redirect(node, true);
                self.begin_hold(node, true, q);
            }
            RecoveryAction::NotifyHuman => {
                self.log.push(LogEvent::HumanNotified { at: now, node });
                self.recovery_finished(node, now);
            }
            reboot => self.begin_reboot(node, reboot, None, q),
        }
    }

    /// Starts the clock on a policy-plane hold; the hold-done handler lifts
    /// it and acknowledges the action.
    fn begin_hold(&mut self, node: usize, failover: bool, q: &mut SimQueue) {
        let started = q.now();
        self.pool.perf_mask(started + POLICY_HOLD);
        q.schedule_event_in(
            POLICY_HOLD,
            "policy-hold",
            SimEvent::PolicyHoldDone {
                node,
                failover,
                started,
            },
        );
    }

    /// Lifts an expired policy-plane hold and acknowledges the action.
    pub(crate) fn on_policy_hold_done(
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
            self.emit(TelemetryEvent::QuarantineOff { node, at: now });
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

    /// Begins the reboot `action` names on `node` — the one path for every
    /// depth, conducted (`ticket`) or not: take the action's
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
        let level = action
            .reboot_level()
            .expect("holds and pages are not reboots");
        let components = match action {
            RecoveryAction::Microreboot { components } => components,
            _ => Vec::new(),
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

    pub(crate) fn on_recovery_crash(&mut self, node: usize, id: RebootId, q: &mut SimQueue) {
        let now = q.now();
        let killed = self.nodes[node].recovery_crash(id, now);
        self.schedule_deliveries(node, killed, q);
        self.pump_node(node, q);
    }

    /// Completes a reboot and acknowledges it: straight to the manager,
    /// or through the conductor ticket that carried it.
    pub(crate) fn on_recovery_done(
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

    pub(crate) fn on_rejuv_poll(&mut self, node: usize, period: SimDuration, q: &mut SimQueue) {
        let now = q.now();
        if matches!(self.rejuv.get(node), Some(Some(_))) {
            let free = self.nodes[node].available_memory();
            self.emit(TelemetryEvent::RejuvenationTick {
                node,
                free_bytes: free,
                at: now,
            });
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

    pub(crate) fn on_rejuv_done(
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
}
