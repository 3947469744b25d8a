//! The recovery conductor: dependency-aware parallel microreboots.
//!
//! The recovery manager diagnoses *what* to recover; the conductor decides
//! *when*. It sits between [`RecoveryManager`](crate::RecoveryManager)
//! decisions and the per-node reboot lifecycle, and turns the serial
//! "one recovery at a time" discipline into a schedule:
//!
//! * every action is expanded to its full recovery group (the transitive
//!   closure of container-spanning references, Section 3.2), so conflict
//!   detection sees the true blast radius;
//! * two actions **conflict** when their expanded groups overlap, or when
//!   they serve a common URL (their static call-path masks intersect) —
//!   running those concurrently would stack both groups' `Retry-After`
//!   windows onto the same requests;
//! * overlapping actions are **coalesced** into one reboot instead of run
//!   twice (a superset in flight simply absorbs the newcomer);
//! * non-conflicting actions run **concurrently**, up to a per-node cap —
//!   K independent faults then recover in ≈ the time of the slowest
//!   single recovery instead of the sum;
//! * a coarser action (application/process/OS restart) **drains** the
//!   in-flight finer ones and **supersedes** the queued ones: it parks at
//!   the queue front as a barrier, absorbing every finer queued ticket,
//!   and starts once the node is quiet;
//! * while component groups are mid-reboot the conductor publishes the
//!   union of their members as the node's **quarantine** set, which the
//!   server's admission check and the load balancer use to shed only the
//!   requests whose call path touches the blast radius.
//!
//! The conductor owes the manager exactly one
//! [`RecoveryManager::recovery_finished`](crate::RecoveryManager) call per
//! submitted action: a finished ticket reports `merged + 1` acknowledgements
//! (itself plus every action coalesced into it), so the manager's in-flight
//! accounting balances no matter how aggressively tickets merge.

use std::collections::BTreeMap;

use components::graph::DependencyGraph;
use components::CompName;
use simcore::telemetry::{RebootLevel, SharedBus, TelemetryEvent};
use simcore::SimTime;
use urb_core::OpCode;

use crate::manager::RecoveryAction;

/// Conductor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ConductorConfig {
    /// How many non-conflicting component microreboots may run
    /// concurrently on one node.
    pub max_concurrent_per_node: usize,
    /// Whether to publish quarantine sets (admission-level shedding of
    /// requests bound for the blast radius).
    pub quarantine: bool,
}

impl Default for ConductorConfig {
    fn default() -> Self {
        ConductorConfig {
            max_concurrent_per_node: 4,
            quarantine: true,
        }
    }
}

/// Identifier of a conducted recovery ticket.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TicketId(u64);

/// An order to start executing a ticket now.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StartCmd {
    /// The ticket to report back via [`Conductor::on_finished`].
    pub ticket: TicketId,
    /// The action to execute (microreboots carry the expanded group).
    pub action: RecoveryAction,
}

/// What became of a submitted action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Submission {
    /// Run it now.
    Started(StartCmd),
    /// Deferred behind a conflicting in-flight or queued recovery.
    Queued(TicketId),
    /// Merged into an overlapping ticket; nothing new to execute.
    Coalesced(TicketId),
}

/// Result of finishing a ticket.
#[derive(Clone, Debug, Default)]
pub struct Finished {
    /// How many manager acknowledgements this ticket settles (itself plus
    /// every action coalesced into it).
    pub acks: u32,
    /// Queued tickets promoted to running by this completion.
    pub start: Vec<StartCmd>,
}

struct Ticket {
    id: TicketId,
    level: RebootLevel,
    action: RecoveryAction,
    /// Expanded recovery-group members (component level; empty coarse).
    members: Vec<CompName>,
    /// Bitmask over operation codes whose call path touches `members`.
    mask: u64,
    /// Actions coalesced into this ticket.
    merged: u32,
}

impl Ticket {
    fn is_component(&self) -> bool {
        self.level == RebootLevel::Component
    }

    /// True if this ticket already covers a component action on `members`
    /// (coarse tickets cover everything on the node).
    fn covers(&self, members: &[CompName]) -> bool {
        !self.is_component() || members.iter().all(|m| self.members.contains(m))
    }

    fn conflicts(&self, other: &Ticket) -> bool {
        if !self.is_component() || !other.is_component() {
            return true;
        }
        self.mask & other.mask != 0 || self.members.iter().any(|m| other.members.contains(m))
    }
}

#[derive(Default)]
struct NodeSched {
    active: Vec<Ticket>,
    queue: Vec<Ticket>,
}

/// The conductor: one per cluster, scheduling per node.
pub struct Conductor {
    config: ConductorConfig,
    /// Component → its full recovery group (sorted).
    group_of: BTreeMap<CompName, Vec<CompName>>,
    /// Component → bitmask of the operations whose call path contains it.
    op_mask: BTreeMap<CompName, u64>,
    sched: Vec<NodeSched>,
    /// Last published quarantine size per node (transition detection).
    q_members: Vec<u32>,
    next_ticket: u64,
    bus: Option<SharedBus>,
}

impl Conductor {
    /// Builds a conductor for `nodes` nodes from the application's
    /// dependency graph and its URL-prefix → component-path map.
    pub fn new(
        nodes: usize,
        config: ConductorConfig,
        graph: &DependencyGraph,
        path_of: fn(OpCode) -> &'static [&'static str],
    ) -> Self {
        let mut group_of = BTreeMap::new();
        for group in graph.recovery_groups() {
            let names: Vec<CompName> = group
                .iter()
                .map(|id| CompName::intern(graph.name_of(*id)))
                .collect();
            for m in &names {
                group_of.insert(*m, names.clone());
            }
        }
        // One bit per operation code; the map is static, so this is the
        // whole conflict-relevant universe (ops ≥ 64 would need a wider
        // mask, far beyond eBid's 25).
        let mut op_mask: BTreeMap<CompName, u64> = BTreeMap::new();
        for op in 0u16..64 {
            for comp in (path_of)(OpCode(op)) {
                *op_mask.entry(CompName::intern(comp)).or_insert(0) |= 1 << op;
            }
        }
        Conductor {
            config,
            group_of,
            op_mask,
            sched: (0..nodes).map(|_| NodeSched::default()).collect(),
            q_members: vec![0; nodes],
            next_ticket: 0,
            bus: None,
        }
    }

    /// Attaches a telemetry bus for the conductor's own events.
    pub fn attach_telemetry(&mut self, bus: SharedBus) {
        self.bus = Some(bus);
    }

    /// Returns the conductor configuration.
    pub fn config(&self) -> ConductorConfig {
        self.config
    }

    fn emit(bus: &Option<SharedBus>, ev: TelemetryEvent) {
        if let Some(bus) = bus {
            bus.borrow_mut().emit(&ev);
        }
    }

    fn alloc_id(&mut self) -> TicketId {
        self.next_ticket += 1;
        TicketId(self.next_ticket)
    }

    /// Expands component names to the union of their recovery groups.
    pub(crate) fn expand(&self, components: &[CompName]) -> Vec<CompName> {
        let mut members: Vec<CompName> = Vec::new();
        for c in components {
            match self.group_of.get(c) {
                Some(group) => {
                    for m in group {
                        if !members.contains(m) {
                            members.push(*m);
                        }
                    }
                }
                None => {
                    if !members.contains(c) {
                        members.push(*c);
                    }
                }
            }
        }
        // Sort by name, not symbol id: symbol ids depend on global
        // interning order, and member order is visible in logs and traces.
        members.sort_unstable_by_key(|m| m.as_str());
        members
    }

    fn mask_of(&self, members: &[CompName]) -> u64 {
        members
            .iter()
            .map(|m| self.op_mask.get(m).copied().unwrap_or(0))
            .fold(0, |acc, m| acc | m)
    }

    /// Whether microreboots of the two (already expanded) member sets
    /// conflict: overlapping members, or a shared call path. This is the
    /// scheduling hot path the conductor bench exercises.
    pub fn conflict_between(&self, a: &[CompName], b: &[CompName]) -> bool {
        self.mask_of(a) & self.mask_of(b) != 0 || a.iter().any(|m| b.contains(m))
    }

    /// Submits a manager decision for `node`, returning what to do with it.
    pub fn submit(&mut self, node: usize, action: RecoveryAction, now: SimTime) -> Submission {
        // The page and the holds normally bypass the conductor (the
        // executor handles them directly); if submitted anyway they are
        // treated as maximally exclusive.
        let level = action
            .reboot_level()
            .unwrap_or(RebootLevel::OperatingSystem);
        if level == RebootLevel::Component {
            let RecoveryAction::Microreboot { components } = &action else {
                unreachable!("component level implies a microreboot action");
            };
            let members = self.expand(components);
            let mask = self.mask_of(&members);
            self.submit_component(node, members, mask, now)
        } else {
            self.submit_coarse(node, level, action, now)
        }
    }

    fn submit_component(
        &mut self,
        node: usize,
        members: Vec<CompName>,
        mask: u64,
        now: SimTime,
    ) -> Submission {
        let id = self.alloc_id();
        let cap = self.config.max_concurrent_per_node.max(1);
        let sched = &mut self.sched[node];
        // An in-flight or queued ticket that already covers the whole
        // group absorbs the action — the reboot it wants is happening (or
        // about to). This is also what makes re-diagnosis of a fault whose
        // cure is still in flight harmless: it coalesces instead of
        // double-killing.
        if let Some(t) = sched
            .active
            .iter_mut()
            .chain(sched.queue.iter_mut())
            .find(|t| t.covers(&members))
        {
            t.merged += 1;
            let tid = t.id;
            Self::emit(
                &self.bus,
                TelemetryEvent::RecoveryCoalesced { node, at: now },
            );
            return Submission::Coalesced(tid);
        }
        // A *queued* ticket with overlapping members merges: the two blast
        // radii intersect, so they could never run concurrently — one
        // union reboot is strictly cheaper than two serial ones.
        if let Some(t) = sched
            .queue
            .iter_mut()
            .find(|t| t.is_component() && members.iter().any(|m| t.members.contains(m)))
        {
            for m in members {
                if !t.members.contains(&m) {
                    t.members.push(m);
                }
            }
            t.members.sort_unstable_by_key(|m| m.as_str());
            t.mask |= mask;
            t.merged += 1;
            t.action = RecoveryAction::Microreboot {
                components: t.members.clone(),
            };
            let tid = t.id;
            Self::emit(
                &self.bus,
                TelemetryEvent::RecoveryCoalesced { node, at: now },
            );
            return Submission::Coalesced(tid);
        }
        let ticket = Ticket {
            id,
            level: RebootLevel::Component,
            action: RecoveryAction::Microreboot {
                components: members.clone(),
            },
            members,
            mask,
            merged: 0,
        };
        // Start only when there is capacity and no conflict with anything
        // in flight *or* queued ahead (jumping a conflicting queued ticket
        // would reorder recoveries of the same resources).
        let clear = sched.active.len() < cap
            && !sched
                .active
                .iter()
                .chain(sched.queue.iter())
                .any(|t| t.conflicts(&ticket));
        if clear {
            let cmd = StartCmd {
                ticket: ticket.id,
                action: ticket.action.clone(),
            };
            sched.active.push(ticket);
            self.sync_quarantine(node, now);
            Submission::Started(cmd)
        } else {
            Self::emit(
                &self.bus,
                TelemetryEvent::RecoveryQueued {
                    node,
                    level: RebootLevel::Component,
                    at: now,
                },
            );
            sched.queue.push(ticket);
            Submission::Queued(id)
        }
    }

    fn submit_coarse(
        &mut self,
        node: usize,
        level: RebootLevel,
        action: RecoveryAction,
        now: SimTime,
    ) -> Submission {
        let id = self.alloc_id();
        let sched = &mut self.sched[node];
        // An equal-or-coarser restart already pending covers this one.
        if let Some(t) = sched
            .active
            .iter_mut()
            .chain(sched.queue.iter_mut())
            .find(|t| !t.is_component() && t.level >= level)
        {
            t.merged += 1;
            let tid = t.id;
            Self::emit(
                &self.bus,
                TelemetryEvent::RecoveryCoalesced { node, at: now },
            );
            return Submission::Coalesced(tid);
        }
        // Supersede every strictly finer *queued* ticket: the coarse
        // restart reboots their blast radius wholesale, so they will never
        // run — but their acknowledgements are inherited, keeping the
        // manager's in-flight count balanced.
        let mut merged = 0u32;
        let mut absorbed = 0usize;
        sched.queue.retain(|t| {
            if t.level < level {
                merged += t.merged + 1;
                absorbed += 1;
                false
            } else {
                true
            }
        });
        for _ in 0..absorbed {
            Self::emit(
                &self.bus,
                TelemetryEvent::RecoveryCoalesced { node, at: now },
            );
        }
        let ticket = Ticket {
            id,
            level,
            action,
            members: Vec::new(),
            mask: u64::MAX,
            merged,
        };
        let sched = &mut self.sched[node];
        if sched.active.is_empty() {
            let cmd = StartCmd {
                ticket: ticket.id,
                action: ticket.action.clone(),
            };
            sched.active.push(ticket);
            Submission::Started(cmd)
        } else {
            // Drain: the in-flight finer recoveries run out while the
            // coarse ticket barriers the queue front.
            Self::emit(
                &self.bus,
                TelemetryEvent::RecoveryQueued {
                    node,
                    level,
                    at: now,
                },
            );
            sched.queue.insert(0, ticket);
            Submission::Queued(id)
        }
    }

    /// Reports a started ticket as finished; returns how many manager
    /// acknowledgements it settles and which queued tickets start now.
    pub fn on_finished(&mut self, node: usize, id: TicketId, now: SimTime) -> Finished {
        let sched = &mut self.sched[node];
        let Some(pos) = sched.active.iter().position(|t| t.id == id) else {
            return Finished::default();
        };
        let done = sched.active.remove(pos);
        let acks = done.merged + 1;
        let cap = self.config.max_concurrent_per_node.max(1);
        let mut start = Vec::new();
        let mut i = 0;
        while i < sched.queue.len() {
            if !sched.queue[i].is_component() {
                if sched.active.is_empty() {
                    let t = sched.queue.remove(i);
                    start.push(StartCmd {
                        ticket: t.id,
                        action: t.action.clone(),
                    });
                    sched.active.push(t);
                }
                // Either way a coarse ticket is a barrier: nothing behind
                // it may jump ahead of it.
                break;
            }
            let clear = sched.active.len() < cap
                && !sched.active.iter().any(|a| a.conflicts(&sched.queue[i]))
                && !sched.queue[..i]
                    .iter()
                    .any(|e| e.conflicts(&sched.queue[i]));
            if clear {
                let t = sched.queue.remove(i);
                start.push(StartCmd {
                    ticket: t.id,
                    action: t.action.clone(),
                });
                sched.active.push(t);
            } else {
                i += 1;
            }
        }
        self.sync_quarantine(node, now);
        Finished { acks, start }
    }

    /// The node's current quarantine set: the union of all in-flight
    /// component-level recovery groups (empty when quarantine is off).
    pub fn quarantined(&self, node: usize) -> Vec<CompName> {
        if !self.config.quarantine {
            return Vec::new();
        }
        let mut v: Vec<CompName> = self.sched[node]
            .active
            .iter()
            .filter(|t| t.is_component())
            .flat_map(|t| t.members.iter().copied())
            .collect();
        v.sort_unstable_by_key(|m| m.as_str());
        v.dedup();
        v
    }

    /// Emits `QuarantineOn`/`QuarantineOff` on blast-radius transitions.
    fn sync_quarantine(&mut self, node: usize, now: SimTime) {
        if !self.config.quarantine {
            return;
        }
        let n = self.quarantined(node).len() as u32;
        let prev = self.q_members[node];
        if n == prev {
            return;
        }
        self.q_members[node] = n;
        let ev = if n == 0 {
            TelemetryEvent::QuarantineOff { node, at: now }
        } else {
            TelemetryEvent::QuarantineOn {
                node,
                members: n,
                at: now,
            }
        };
        Self::emit(&self.bus, ev);
    }

    /// Returns how many tickets are running on `node`.
    pub fn active_count(&self, node: usize) -> usize {
        self.sched[node].active.len()
    }

    /// Returns how many tickets are queued on `node`.
    pub fn queued_count(&self, node: usize) -> usize {
        self.sched[node].queue.len()
    }

    /// Returns true if a coarse (non-component) recovery is running.
    pub fn has_coarse_active(&self, node: usize) -> bool {
        self.sched[node].active.iter().any(|t| !t.is_component())
    }

    /// Returns true if any component microreboot is running.
    pub fn has_component_active(&self, node: usize) -> bool {
        self.sched[node].active.iter().any(|t| t.is_component())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use components::descriptor::{ComponentDescriptor, ComponentKind};

    fn graph() -> DependencyGraph {
        let d = |name, group: &'static [&'static str]| {
            ComponentDescriptor::new(name, ComponentKind::EntityBean).with_group_refs(group)
        };
        DependencyGraph::build(&[
            ComponentDescriptor::new("W", ComponentKind::Web),
            d("A", &["B"]),
            d("B", &[]),
            d("C", &[]),
            d("D", &[]),
        ])
        .unwrap()
    }

    fn path(op: OpCode) -> &'static [&'static str] {
        match op.0 {
            0 => &["W", "A"],
            1 => &["W", "C"],
            2 => &["W", "D"],
            3 => &["W", "C", "D"],
            _ => &[],
        }
    }

    fn conductor(cap: usize) -> Conductor {
        Conductor::new(
            1,
            ConductorConfig {
                max_concurrent_per_node: cap,
                quarantine: true,
            },
            &graph(),
            path,
        )
    }

    fn mrb(names: &[&'static str]) -> RecoveryAction {
        RecoveryAction::microreboot(names)
    }

    fn t0() -> SimTime {
        SimTime::from_secs(1)
    }

    #[test]
    fn disjoint_microreboots_run_concurrently() {
        let mut c = conductor(4);
        let a = c.submit(0, mrb(&["A"]), t0());
        let b = c.submit(0, mrb(&["C"]), t0());
        assert!(matches!(a, Submission::Started(_)));
        assert!(matches!(b, Submission::Started(_)));
        assert_eq!(c.active_count(0), 2);
    }

    #[test]
    fn group_expansion_feeds_conflict_detection() {
        let mut c = conductor(4);
        // A expands to {A, B}; a reboot of B overlaps it and coalesces.
        let Submission::Started(cmd) = c.submit(0, mrb(&["A"]), t0()) else {
            panic!("first action starts");
        };
        assert_eq!(cmd.action, mrb(&["A", "B"]));
        let b = c.submit(0, mrb(&["B"]), t0());
        assert_eq!(b, Submission::Coalesced(cmd.ticket));
        // Coalesced actions owe one ack each.
        let fin = c.on_finished(0, cmd.ticket, t0());
        assert_eq!(fin.acks, 2);
    }

    #[test]
    fn shared_call_path_serializes() {
        let mut c = conductor(4);
        // C and D are member-disjoint but share op 3's path.
        assert!(matches!(
            c.submit(0, mrb(&["C"]), t0()),
            Submission::Started(_)
        ));
        let d = c.submit(0, mrb(&["D"]), t0());
        assert!(matches!(d, Submission::Queued(_)));
        assert_eq!(c.queued_count(0), 1);
    }

    #[test]
    fn capacity_limits_concurrency_and_finish_promotes() {
        let mut c = conductor(1);
        let Submission::Started(first) = c.submit(0, mrb(&["A"]), t0()) else {
            panic!("first action starts");
        };
        assert!(matches!(
            c.submit(0, mrb(&["C"]), t0()),
            Submission::Queued(_)
        ));
        let fin = c.on_finished(0, first.ticket, t0());
        assert_eq!(fin.acks, 1);
        assert_eq!(fin.start.len(), 1);
        assert_eq!(fin.start[0].action, mrb(&["C"]));
        assert_eq!(c.active_count(0), 1);
        assert_eq!(c.queued_count(0), 0);
    }

    #[test]
    fn overlapping_queued_tickets_merge() {
        let mut c = conductor(1);
        let Submission::Started(first) = c.submit(0, mrb(&["C"]), t0()) else {
            panic!("first action starts");
        };
        // Two queued overlapping reboots merge into one union ticket.
        assert!(matches!(
            c.submit(0, mrb(&["A"]), t0()),
            Submission::Queued(_)
        ));
        assert!(matches!(
            c.submit(0, mrb(&["B"]), t0()),
            Submission::Coalesced(_)
        ));
        assert_eq!(c.queued_count(0), 1);
        let fin = c.on_finished(0, first.ticket, t0());
        assert_eq!(fin.start.len(), 1);
        assert_eq!(fin.start[0].action, mrb(&["A", "B"]));
        // The merged ticket settles both submissions when it finishes.
        let fin = c.on_finished(0, fin.start[0].ticket, t0());
        assert_eq!(fin.acks, 2);
    }

    #[test]
    fn coarse_drains_actives_and_supersedes_queued() {
        let mut c = conductor(4);
        let Submission::Started(a) = c.submit(0, mrb(&["A"]), t0()) else {
            panic!("first action starts");
        };
        let Submission::Started(_c2) = c.submit(0, mrb(&["C"]), t0()) else {
            panic!("second action starts");
        };
        // D conflicts with C (op 3) and queues.
        assert!(matches!(
            c.submit(0, mrb(&["D"]), t0()),
            Submission::Queued(_)
        ));
        // The app restart absorbs queued D and barriers the queue front.
        let r = c.submit(0, RecoveryAction::RestartApp, t0());
        assert!(matches!(r, Submission::Queued(_)));
        assert_eq!(c.queued_count(0), 1, "queued D superseded");
        // Draining one active does not start the coarse ticket yet...
        let fin = c.on_finished(0, a.ticket, t0());
        assert!(fin.start.is_empty());
        // ...draining the last one does, and it carries D's ack.
        let fin = c.on_finished(0, _c2.ticket, t0());
        assert_eq!(fin.start.len(), 1);
        assert_eq!(fin.start[0].action, RecoveryAction::RestartApp);
        assert!(c.has_coarse_active(0));
        let fin = c.on_finished(0, fin.start[0].ticket, t0());
        assert_eq!(fin.acks, 2, "the restart settles itself and D");
    }

    #[test]
    fn component_submitted_behind_coarse_barrier_coalesces_into_it() {
        let mut c = conductor(4);
        let Submission::Started(a) = c.submit(0, mrb(&["A"]), t0()) else {
            panic!("first action starts");
        };
        let Submission::Queued(restart) = c.submit(0, RecoveryAction::RestartApp, t0()) else {
            panic!("restart drains the in-flight microreboot");
        };
        // A fresh microreboot of C is covered by the pending restart: it
        // merges instead of queueing behind the barrier.
        assert_eq!(
            c.submit(0, mrb(&["C"]), t0()),
            Submission::Coalesced(restart)
        );
        assert_eq!(c.queued_count(0), 1);
        let fin = c.on_finished(0, a.ticket, t0());
        assert_eq!(fin.start.len(), 1);
        assert_eq!(fin.start[0].action, RecoveryAction::RestartApp);
        let fin = c.on_finished(0, fin.start[0].ticket, t0());
        assert_eq!(fin.acks, 2, "the restart settles itself and C");
    }

    #[test]
    fn coarse_coalesces_into_equal_or_coarser() {
        let mut c = conductor(4);
        let Submission::Started(first) = c.submit(0, RecoveryAction::RestartProcess, t0()) else {
            panic!("restart starts on an idle node");
        };
        assert_eq!(
            c.submit(0, RecoveryAction::RestartApp, t0()),
            Submission::Coalesced(first.ticket)
        );
        assert_eq!(
            c.submit(0, RecoveryAction::RestartProcess, t0()),
            Submission::Coalesced(first.ticket)
        );
        let fin = c.on_finished(0, first.ticket, t0());
        assert_eq!(fin.acks, 3);
    }

    #[test]
    fn quarantine_tracks_active_members() {
        let mut c = conductor(4);
        let Submission::Started(cmd) = c.submit(0, mrb(&["A"]), t0()) else {
            panic!("first action starts");
        };
        let q: Vec<&str> = c.quarantined(0).iter().map(|m| m.as_str()).collect();
        assert_eq!(q, vec!["A", "B"]);
        c.on_finished(0, cmd.ticket, t0());
        assert!(c.quarantined(0).is_empty());
    }
}
