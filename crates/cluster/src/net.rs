//! The network and state-store fault plane: the LB↔node wire shim, and
//! injection and healing of store-tier and link-tier faults.

use faults::{LinkFault, NetEdge, StoreFault};
use simcore::telemetry::TelemetryEvent;
use simcore::SimDuration;

use crate::sim::{SimEvent, SimQueue, World};

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

    /// Delivers a state-plane fault into the shared SSM. A no-op on
    /// FastS-only clusters (there is no external store to break).
    pub(crate) fn inject_store_fault(&mut self, fault: StoreFault, q: &mut SimQueue) {
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
                self.emit(TelemetryEvent::NetFaultInjected {
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
                self.emit(TelemetryEvent::NetFaultInjected {
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
    pub(crate) fn inject_net_fault(
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
        self.emit(TelemetryEvent::NetFaultInjected {
            edge: edge.code(),
            kind,
            at: now,
        });
        q.schedule_event_at(now + heals_after, "edge-heal", SimEvent::EdgeHeal { edge });
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
