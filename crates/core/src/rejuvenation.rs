//! Microrejuvenation — averting leak-induced failures by parts.
//!
//! Section 6.4: a server-side service periodically checks free JVM memory;
//! if it drops below `M_alarm`, components are microrebooted in a rolling
//! fashion until free memory exceeds `M_sufficient` — falling back to a
//! JVM restart if even rebooting every component is not enough. The
//! service has no knowledge of which components leak: it learns by
//! measuring how much memory each component's microreboot released and
//! keeps its candidate list sorted by expected yield.

use std::collections::BTreeMap;

use simcore::SimTime;

use crate::app::Application;
use crate::server::{AppServer, RebootTicket};

/// What the rejuvenation service decided on one check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejuvenationAction {
    /// Memory is fine; nothing to do.
    Idle,
    /// Microreboot this component next (ticket already started).
    Microreboot {
        /// The chosen component.
        component: &'static str,
        /// The in-flight microreboot.
        ticket: TicketInfo,
    },
    /// Every component was rebooted and memory is still low: the service
    /// asks for a JVM restart.
    NeedsProcessRestart,
}

/// The scheduling-relevant parts of a reboot ticket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TicketInfo {
    /// Crash-phase instant.
    pub crash_at: SimTime,
    /// Completion instant.
    pub done_at: SimTime,
    /// Raw ticket id.
    pub id: crate::server::RebootId,
}

impl From<RebootTicket> for TicketInfo {
    fn from(t: RebootTicket) -> Self {
        TicketInfo {
            crash_at: t.crash_at,
            done_at: t.done_at,
            id: t.id,
        }
    }
}

/// The rolling microrejuvenation service of Section 6.4.
#[derive(Debug)]
pub struct RejuvenationService {
    malarm: u64,
    msufficient: u64,
    /// Candidate components, kept sorted descending by last released
    /// bytes; unknown components sort last in deployment order.
    order: Vec<&'static str>,
    released: BTreeMap<&'static str, u64>,
    /// Components already rebooted in the current low-memory episode.
    done_this_round: Vec<&'static str>,
    /// Free memory observed just before the in-flight microreboot.
    before_urb: Option<(&'static str, u64)>,
    in_episode: bool,
}

impl RejuvenationService {
    /// Creates a service with explicit thresholds (bytes of free heap).
    pub fn new(components: Vec<&'static str>, malarm: u64, msufficient: u64) -> Self {
        RejuvenationService {
            malarm,
            msufficient,
            order: components,
            released: BTreeMap::new(),
            done_this_round: Vec::new(),
            before_urb: None,
            in_episode: false,
        }
    }

    /// Returns the learned bytes-released table.
    pub fn released_table(&self) -> &BTreeMap<&'static str, u64> {
        &self.released
    }

    /// Records the result of a completed rejuvenation microreboot: how
    /// much free memory it gained. Call when the µRB ticket completes.
    pub fn record_completion(&mut self, free_after: u64) {
        if let Some((component, free_before)) = self.before_urb.take() {
            let gained = free_after.saturating_sub(free_before);
            self.released.insert(component, gained);
            // Keep the list sorted by expected yield, descending.
            let released = &self.released;
            self.order
                .sort_by_key(|c| std::cmp::Reverse(released.get(c).copied().unwrap_or(0)));
        }
    }

    /// Checks memory and, if needed, starts the next rolling microreboot.
    ///
    /// The caller invokes this periodically (and again after each
    /// completed rejuvenation µRB) and schedules the returned ticket's
    /// crash/complete phases.
    pub fn check<A: Application>(
        &mut self,
        server: &mut AppServer<A>,
        now: SimTime,
    ) -> RejuvenationAction {
        if self.before_urb.is_some() {
            // A rejuvenation µRB is still in flight.
            return RejuvenationAction::Idle;
        }
        let free = server.available_memory();
        if self.in_episode {
            if free >= self.msufficient {
                // Episode over.
                self.in_episode = false;
                self.done_this_round.clear();
                return RejuvenationAction::Idle;
            }
        } else {
            if free > self.malarm {
                return RejuvenationAction::Idle;
            }
            self.in_episode = true;
            self.done_this_round.clear();
        }
        // Pick the next candidate not yet rebooted this episode.
        let next = self
            .order
            .iter()
            .find(|c| !self.done_this_round.contains(*c))
            .copied();
        let Some(component) = next else {
            self.in_episode = false;
            self.done_this_round.clear();
            return RejuvenationAction::NeedsProcessRestart;
        };
        match server.begin_microreboot(&[component], now, None) {
            Ok(ticket) => {
                self.done_this_round.push(component);
                // The whole recovery group reboots with it; count the
                // group as done so the episode does not re-reboot members.
                if let Some(id) = server.graph().id_of(component) {
                    for m in server.graph().recovery_group(id) {
                        let name = server.graph().name_of(*m);
                        if !self.done_this_round.contains(&name) {
                            self.done_this_round.push(name);
                        }
                    }
                }
                self.before_urb = Some((component, free));
                RejuvenationAction::Microreboot {
                    component,
                    ticket: ticket.into(),
                }
            }
            Err(_) => RejuvenationAction::Idle,
        }
    }
}
