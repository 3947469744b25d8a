//! The network and state-store fault plane: the LB↔node wire shim, link
//! faults armed on either edge, the SSM a store-tier fault lands on, and
//! the healing of both (`World::on_inject_fault` delivers every fault).

use faults::NetEdge;
use simcore::telemetry::TelemetryEvent;
use simcore::{SimDuration, SimTime};
use statestore::ssm::thin;
use urb_core::SharedSsm;

use crate::sim::{SimEvent, SimQueue, World};

/// What a faulted network edge does to its traffic.
#[derive(Clone, Copy)]
pub(crate) enum LinkFault {
    /// Black-hole everything.
    Partition,
    /// Drop this fraction of messages, in permille.
    Lossy { permille: u32 },
    /// Delay every message by this much extra.
    Delay { extra: SimDuration },
    /// Duplicate this fraction of messages, in permille.
    Dupe { permille: u32 },
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
pub(crate) struct NetShim {
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
    pub(crate) fn drops(&mut self) -> bool {
        match self.fault {
            Some(LinkFault::Partition) => true,
            Some(LinkFault::Lossy { permille }) => thin(&mut self.counter, permille),
            _ => false,
        }
    }

    /// Extra one-way latency, when a delay fault is armed.
    pub(crate) fn delay(&self) -> Option<SimDuration> {
        match self.fault {
            Some(LinkFault::Delay { extra }) => Some(extra),
            _ => None,
        }
    }

    /// True if the wire delivers this message twice.
    pub(crate) fn dupes(&mut self) -> bool {
        match self.fault {
            Some(LinkFault::Dupe { permille }) => thin(&mut self.counter, permille),
            _ => false,
        }
    }
}

impl World {
    /// Forwards the SSM's queued telemetry events to the bus (and drops
    /// them when no bus is attached, so the queue cannot grow unbounded).
    pub(crate) fn drain_store_events(&mut self) {
        let Some(ssm) = &self.ssm else {
            return;
        };
        let events = ssm.borrow_mut().take_events();
        for ev in events {
            self.emit(ev);
        }
    }

    /// The shared SSM, advanced to `now` so a store fault lands on
    /// current lease state; `None` on FastS-only clusters (there is no
    /// external store to break).
    pub(crate) fn ssm_at(&self, now: SimTime) -> Option<SharedSsm> {
        let ssm = self.ssm.clone()?;
        ssm.borrow_mut().advance_to(now);
        Some(ssm)
    }

    /// Arms a network fault on an edge and schedules its heal. LB↔node
    /// faults live in the wire shim; node↔store faults arm the SSM's own
    /// deterministic shim (a no-op on FastS-only clusters).
    pub(crate) fn inject_net_fault(
        &mut self,
        edge: NetEdge,
        fault: LinkFault,
        heals_after_s: u64,
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
        self.emit(TelemetryEvent::NetFaultInjected {
            edge: edge.code(),
            kind,
            at: now,
        });
        q.schedule_event_at(
            now + SimDuration::from_secs(heals_after_s),
            "edge-heal",
            SimEvent::EdgeHeal { edge },
        );
    }

    /// Heals every armed fault on an edge.
    pub(crate) fn on_edge_heal(&mut self, edge: NetEdge, q: &mut SimQueue) {
        let now = q.now();
        match edge {
            NetEdge::LbNode => self.net.heal(),
            NetEdge::NodeStore => {
                if let Some(ssm) = &self.ssm {
                    ssm.borrow_mut().clear_net_faults();
                }
            }
        }
        self.emit(TelemetryEvent::NetFaultHealed {
            edge: edge.code(),
            at: now,
        });
    }

    /// A crashed SSM brick restarts (empty; it repopulates on writes).
    pub(crate) fn on_brick_restore(&mut self, brick: usize, q: &mut SimQueue) {
        let now = q.now();
        if let Some(ssm) = &self.ssm {
            let mut s = ssm.borrow_mut();
            s.advance_to(now);
            s.restore_brick(brick);
        }
        self.drain_store_events();
    }
}
