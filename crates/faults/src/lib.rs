//! The fault-injection catalogue of Section 5.1 / Table 2.
//!
//! The paper's industry contacts identified the failure modes that plague
//! production J2EE systems — deadlocked threads, leak-induced resource
//! exhaustion, corruption of volatile metadata, mishandled exceptions —
//! and the authors added hooks for injecting each, plus data corruption in
//! the session stores and the database, and low-level faults underneath
//! the JVM (FIG / FAUmachine). This crate enumerates that catalogue as
//! [`Fault`], drives injection against an eBid server, and records the
//! paper's observed worst-case recovery level per row so the Table 2
//! experiment can print paper-vs-measured.

#![forbid(unsafe_code)]

use ebid::EBid;
use simcore::{SimDuration, SimTime};
use statestore::session::CorruptKind;
use statestore::Value;
use urb_core::server::ServerFault;
use urb_core::{AppServer, Response};

pub mod campaign;
mod kind;

pub use kind::{draw, FaultKind, Tier};

/// Every fault class Table 2 injects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Deadlock calls into a component.
    Deadlock {
        /// Target component.
        component: &'static str,
    },
    /// Spin calls into a component forever.
    InfiniteLoop {
        /// Target component.
        component: &'static str,
    },
    /// Leak application memory on each invocation.
    AppMemoryLeak {
        /// Target component.
        component: &'static str,
        /// Bytes per invocation.
        bytes_per_call: u64,
        /// Whether the leak resumes after reboots (a code bug, as in the
        /// rejuvenation experiments) or is a one-shot injection.
        persistent: bool,
    },
    /// Transient Java exceptions stressing the handling code.
    TransientException {
        /// Target component.
        component: &'static str,
        /// Number of failing calls.
        calls: u32,
    },
    /// Intermittent fault: calls fail with probability `permille`/1000
    /// until the fault self-heals (or a microreboot cures it). The
    /// adversarial case for a hint-driven recovery policy — the symptoms
    /// come and go.
    Intermittent {
        /// Target component.
        component: &'static str,
        /// Per-call failure probability, in permille.
        permille: u32,
        /// Self-heal delay in seconds (`None` = never heals on its own).
        heals_after_s: Option<u64>,
    },
    /// Detector false positives: fabricated failure reports against a
    /// perfectly healthy node (a buggy or adversarial monitor). There is
    /// no underlying fault to cure — the recovery policy must stay cheap
    /// and convergent anyway.
    SpuriousReports {
        /// How many reports to fabricate.
        reports: u32,
    },
    /// Corrupt the application's primary-key generation code.
    CorruptPrimaryKeys {
        /// Null / invalid / wrong.
        kind: CorruptKind,
    },
    /// Corrupt a component's JNDI entry.
    CorruptJndi {
        /// Target component.
        component: &'static str,
        /// Null / invalid / wrong.
        kind: CorruptKind,
    },
    /// Corrupt a container's transaction method map.
    CorruptTxnMap {
        /// Target component.
        component: &'static str,
        /// Null / invalid / wrong.
        kind: CorruptKind,
    },
    /// Corrupt a stateless session bean's instance attributes.
    CorruptBeanAttrs {
        /// Target component.
        component: &'static str,
        /// Null / invalid / wrong.
        kind: CorruptKind,
    },
    /// Corrupt a session object inside FastS.
    CorruptFastS {
        /// Null / invalid / wrong.
        kind: CorruptKind,
    },
    /// Flip bits in a session object inside SSM.
    CorruptSsm,
    /// Manually alter database table contents.
    CorruptDb {
        /// Null / invalid / wrong.
        kind: CorruptKind,
    },
    /// Leak memory inside the JVM, outside the application.
    MemLeakIntraJvm {
        /// Bytes per second.
        bytes_per_sec: u64,
    },
    /// Leak memory outside the JVM.
    MemLeakExtraJvm {
        /// Bytes per second.
        bytes_per_sec: u64,
    },
    /// Fail-slow degradation: the component keeps answering correctly but
    /// its service times inflate by `factor_permille`/1000. The paper's
    /// detectors punt on exactly this class — nothing fails, nothing
    /// throws, goodput stays up — so only the latency-anomaly detector
    /// can see it. Microreboots leave a residual fraction of the slowdown
    /// behind (a warm restart reuses the degraded pools); only a coarser
    /// reboot clears it fully.
    Degraded {
        /// Target component.
        component: &'static str,
        /// Service-time multiplier, in permille (2000 = 2x slower).
        factor_permille: u32,
    },
    /// Bit flips in process memory.
    BitFlipMemory,
    /// Bit flips in process registers.
    BitFlipRegisters,
    /// Bad system-call return values.
    BadSyscalls,
    /// An SSM brick process crashes, taking its replica offline until the
    /// operator (or supervisor) restarts it.
    BrickCrash {
        /// Which brick (index into the SSM's replica set).
        brick: usize,
        /// Restart delay in seconds.
        heals_after_s: u64,
    },
    /// Bit flips across every object held by one SSM brick; surviving
    /// replicas mask the damage (checksum discard on read).
    BrickCorrupt {
        /// Which brick (index into the SSM's replica set).
        brick: usize,
    },
    /// Every live lease in the SSM expires at once — the pathological
    /// burst the lease protocol must absorb without losing accounting.
    LeaseStorm,
    /// The state store answers correctly but slowly: every access gains
    /// `factor_permille`/1000 of its base latency.
    StoreSlow {
        /// Extra latency, in permille of the base SSM access time.
        factor_permille: u32,
        /// Self-heal delay in seconds.
        heals_after_s: u64,
    },
    /// A network edge black-holes all traffic until it heals.
    LinkPartition {
        /// Which edge.
        edge: NetEdge,
        /// Heal delay in seconds.
        heals_after_s: u64,
    },
    /// A network edge drops `permille`/1000 of its messages.
    LinkLossy {
        /// Which edge.
        edge: NetEdge,
        /// Drop rate, in permille.
        permille: u32,
        /// Heal delay in seconds.
        heals_after_s: u64,
    },
    /// A network edge delays every message by a fixed extra latency.
    LinkDelay {
        /// Which edge.
        edge: NetEdge,
        /// Added one-way latency in milliseconds.
        extra_ms: u64,
        /// Heal delay in seconds.
        heals_after_s: u64,
    },
    /// A network edge duplicates `permille`/1000 of its messages — the
    /// at-least-once delivery case the store's applied-id check must
    /// absorb without applying a write twice.
    LinkDupe {
        /// Which edge.
        edge: NetEdge,
        /// Duplication rate, in permille.
        permille: u32,
        /// Heal delay in seconds.
        heals_after_s: u64,
    },
}

simcore::code_enum! {
    /// A faultable network edge in the three-tier topology, with its
    /// stable wire code for telemetry.
    pub enum NetEdge {
        /// Load balancer ↔ application node.
        LbNode = 0 => "lb-node",
        /// Application node ↔ state store.
        NodeStore = 1 => "node-store",
    }
}

/// State-store-plane fault payload carried by [`Injection::StorePlane`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreFault {
    /// Crash a brick; it restarts after the delay.
    BrickCrash {
        /// Which brick.
        brick: usize,
        /// Restart delay.
        heals_after: SimDuration,
    },
    /// Flip bits across one brick's objects.
    BrickCorrupt {
        /// Which brick.
        brick: usize,
    },
    /// Expire every live lease at once.
    LeaseStorm,
    /// Inflate every store access by `factor_permille`/1000 of its base
    /// latency until the heal.
    Slow {
        /// Extra latency, in permille of the base access time.
        factor_permille: u32,
        /// Self-heal delay.
        heals_after: SimDuration,
    },
}

/// Network-link fault payload carried by [`Injection::NetPlane`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// Black-hole everything.
    Partition,
    /// Drop this fraction of messages, in permille.
    Lossy {
        /// Drop rate, in permille.
        permille: u32,
    },
    /// Delay every message by this much extra.
    Delay {
        /// Added one-way latency.
        extra: SimDuration,
    },
    /// Duplicate this fraction of messages, in permille.
    Dupe {
        /// Duplication rate, in permille.
        permille: u32,
    },
}

/// The recovery level Table 2 reports as sufficient (worst case).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExpectedLevel {
    /// No reboot needed: the fault is naturally expunged.
    Unnecessary,
    /// EJB-level microreboot.
    Ejb,
    /// EJB plus WAR microreboot.
    EjbWar,
    /// WAR microreboot.
    War,
    /// Detected via checksum; bad object automatically discarded.
    ChecksumDiscard,
    /// Database table repair needed (manual).
    TableRepair,
    /// JVM/JBoss process restart.
    Jvm,
    /// OS/kernel reboot.
    OsKernel,
}

impl ExpectedLevel {
    /// Table 2's text for this level.
    pub fn label(self) -> &'static str {
        match self {
            ExpectedLevel::Unnecessary => "unnecessary",
            ExpectedLevel::Ejb => "EJB",
            ExpectedLevel::EjbWar => "EJB+WAR",
            ExpectedLevel::War => "WAR",
            ExpectedLevel::ChecksumDiscard => "checksum discard",
            ExpectedLevel::TableRepair => "table repair",
            ExpectedLevel::Jvm => "JVM/JBoss",
            ExpectedLevel::OsKernel => "OS kernel",
        }
    }
}

/// One Table 2 row: a fault, the paper's worst-case level, and whether
/// the paper marks it ≈ (additional manual repair for full correctness).
#[derive(Clone, Copy, Debug)]
pub struct CatalogueRow {
    /// Display label (Table 2's left column).
    pub label: &'static str,
    /// The fault to inject.
    pub fault: Fault,
    /// The paper's worst-case recovery level.
    pub expected: ExpectedLevel,
    /// Paper's ≈ mark: manual data repair needed for 100% correctness.
    pub manual_repair: bool,
}

/// Returns Table 2's 26 rows, with concrete injection targets.
pub fn table2_catalogue() -> Vec<CatalogueRow> {
    use CorruptKind::*;
    use ExpectedLevel::*;
    let row = |label, fault, expected, manual_repair| CatalogueRow {
        label,
        fault,
        expected,
        manual_repair,
    };
    vec![
        row(
            "Deadlock",
            Fault::Deadlock {
                component: "MakeBid",
            },
            Ejb,
            false,
        ),
        row(
            "Infinite loop",
            Fault::InfiniteLoop {
                component: "SearchItemsByCategory",
            },
            Ejb,
            false,
        ),
        row(
            "Application memory leak",
            Fault::AppMemoryLeak {
                component: "ViewItem",
                // Fast enough to pressure a 1 GB heap within a couple of
                // minutes, slow enough that the recursive policy can act
                // before the JVM dies outright.
                bytes_per_call: 1 << 20,
                persistent: false,
            },
            Ejb,
            false,
        ),
        row(
            "Transient exception",
            Fault::TransientException {
                component: "BrowseCategories",
                // Keeps recurring until the component's state is rebuilt.
                calls: u32::MAX,
            },
            Ejb,
            false,
        ),
        row(
            "Corrupt primary keys (null)",
            Fault::CorruptPrimaryKeys { kind: SetNull },
            Ejb,
            false,
        ),
        row(
            "Corrupt primary keys (invalid)",
            Fault::CorruptPrimaryKeys { kind: SetInvalid },
            Ejb,
            false,
        ),
        row(
            "Corrupt primary keys (wrong)",
            Fault::CorruptPrimaryKeys { kind: SetWrong },
            Ejb,
            true,
        ),
        row(
            "Corrupt JNDI entry (null)",
            Fault::CorruptJndi {
                component: "RegisterNewUser",
                kind: SetNull,
            },
            Ejb,
            false,
        ),
        row(
            "Corrupt JNDI entry (invalid)",
            Fault::CorruptJndi {
                component: "RegisterNewUser",
                kind: SetInvalid,
            },
            Ejb,
            false,
        ),
        row(
            "Corrupt JNDI entry (wrong)",
            Fault::CorruptJndi {
                component: "RegisterNewUser",
                kind: SetWrong,
            },
            Ejb,
            false,
        ),
        row(
            "Corrupt txn method map (null)",
            Fault::CorruptTxnMap {
                component: "CommitBid",
                kind: SetNull,
            },
            Ejb,
            false,
        ),
        row(
            "Corrupt txn method map (invalid)",
            Fault::CorruptTxnMap {
                component: "CommitBid",
                kind: SetInvalid,
            },
            Ejb,
            false,
        ),
        row(
            "Corrupt txn method map (wrong)",
            Fault::CorruptTxnMap {
                component: "Item",
                kind: SetWrong,
            },
            Ejb,
            true,
        ),
        row(
            "Corrupt session EJB attrs (null)",
            Fault::CorruptBeanAttrs {
                component: "ViewItem",
                kind: SetNull,
            },
            Unnecessary,
            false,
        ),
        row(
            "Corrupt session EJB attrs (invalid)",
            Fault::CorruptBeanAttrs {
                component: "ViewItem",
                kind: SetInvalid,
            },
            Unnecessary,
            false,
        ),
        row(
            "Corrupt session EJB attrs (wrong)",
            Fault::CorruptBeanAttrs {
                // A *writing* bean: its wrong attributes end up in the
                // database (the ≈ of this row).
                component: "CommitBid",
                kind: SetWrong,
            },
            EjbWar,
            true,
        ),
        row(
            "Corrupt FastS data (null)",
            Fault::CorruptFastS { kind: SetNull },
            War,
            false,
        ),
        row(
            "Corrupt FastS data (invalid)",
            Fault::CorruptFastS { kind: SetInvalid },
            War,
            false,
        ),
        row(
            "Corrupt FastS data (wrong)",
            Fault::CorruptFastS { kind: SetWrong },
            War,
            true,
        ),
        row(
            "Corrupt SSM data (bit flips)",
            Fault::CorruptSsm,
            ChecksumDiscard,
            false,
        ),
        row(
            "Corrupt MySQL data",
            Fault::CorruptDb { kind: SetWrong },
            TableRepair,
            true,
        ),
        row(
            "Memory leak outside app (intra-JVM)",
            Fault::MemLeakIntraJvm {
                bytes_per_sec: 40 << 20,
            },
            Jvm,
            false,
        ),
        row(
            "Memory leak outside app (extra-JVM)",
            Fault::MemLeakExtraJvm {
                bytes_per_sec: 40 << 20,
            },
            OsKernel,
            false,
        ),
        row(
            "Bit flips in process memory",
            Fault::BitFlipMemory,
            Jvm,
            true,
        ),
        row(
            "Bit flips in process registers",
            Fault::BitFlipRegisters,
            Jvm,
            true,
        ),
        row(
            "Bad system call return values",
            Fault::BadSyscalls,
            Jvm,
            false,
        ),
    ]
}

/// The injection route a [`Fault`] takes into the system under test.
///
/// [`conversion`] is the single source of truth mapping the catalogue onto
/// these routes; [`inject`] (and the cluster layer, for client-plane
/// faults) interprets them. The match is exhaustive, so a new `Fault`
/// variant does not compile until it has a route.
#[derive(Clone, Copy, Debug)]
pub enum Injection {
    /// Delivered through the server's `ServerFault` hooks.
    Server(ServerFault),
    /// Corrupt the application's primary-key generation code.
    KeyGen(CorruptKind),
    /// Corrupt the most recently created FastS sessions.
    FastS(CorruptKind),
    /// Flip bits in a stored SSM object.
    Ssm,
    /// Alter database table contents.
    Db(CorruptKind),
    /// Fabricate this many failure reports in the client population.
    /// Nothing touches the server — only the cluster layer (which owns
    /// the client pool) can deliver these.
    ClientReports(u32),
    /// A state-store-plane fault. Nothing touches the server process —
    /// only the cluster layer (which owns the shared SSM) can deliver
    /// these.
    StorePlane(StoreFault),
    /// A network-link fault on one edge. Delivered by the cluster layer,
    /// which owns the simulated wire.
    NetPlane {
        /// Which edge the fault sits on.
        edge: NetEdge,
        /// What the edge does to traffic.
        fault: LinkFault,
        /// When the edge heals.
        heals_after: SimDuration,
    },
}

/// Maps every catalogue fault to its unique injection route.
pub fn conversion(fault: &Fault) -> Injection {
    match *fault {
        Fault::Deadlock { component } => Injection::Server(ServerFault::Deadlock { component }),
        Fault::InfiniteLoop { component } => {
            Injection::Server(ServerFault::InfiniteLoop { component })
        }
        Fault::AppMemoryLeak {
            component,
            bytes_per_call,
            persistent,
        } => Injection::Server(ServerFault::AppLeak {
            component,
            bytes_per_call,
            persistent,
        }),
        Fault::TransientException { component, calls } => {
            Injection::Server(ServerFault::TransientExceptions { component, calls })
        }
        Fault::Intermittent {
            component,
            permille,
            heals_after_s,
        } => Injection::Server(ServerFault::Intermittent {
            component,
            permille,
            heals_after: heals_after_s.map(SimDuration::from_secs),
        }),
        Fault::SpuriousReports { reports } => Injection::ClientReports(reports),
        Fault::CorruptPrimaryKeys { kind } => Injection::KeyGen(kind),
        Fault::CorruptJndi { component, kind } => {
            Injection::Server(ServerFault::CorruptJndi { component, kind })
        }
        Fault::CorruptTxnMap { component, kind } => {
            Injection::Server(ServerFault::CorruptTxnMap { component, kind })
        }
        Fault::CorruptBeanAttrs { component, kind } => {
            Injection::Server(ServerFault::CorruptBeanAttrs { component, kind })
        }
        Fault::CorruptFastS { kind } => Injection::FastS(kind),
        Fault::CorruptSsm => Injection::Ssm,
        Fault::CorruptDb { kind } => Injection::Db(kind),
        Fault::MemLeakIntraJvm { bytes_per_sec } => {
            Injection::Server(ServerFault::IntraJvmLeak { bytes_per_sec })
        }
        Fault::MemLeakExtraJvm { bytes_per_sec } => {
            Injection::Server(ServerFault::ExtraJvmLeak { bytes_per_sec })
        }
        Fault::Degraded {
            component,
            factor_permille,
        } => Injection::Server(ServerFault::Degraded {
            component,
            factor_permille,
        }),
        Fault::BitFlipMemory => Injection::Server(ServerFault::BitFlipMemory),
        Fault::BitFlipRegisters => Injection::Server(ServerFault::BitFlipRegisters),
        Fault::BadSyscalls => Injection::Server(ServerFault::BadSyscalls),
        Fault::BrickCrash {
            brick,
            heals_after_s,
        } => Injection::StorePlane(StoreFault::BrickCrash {
            brick,
            heals_after: SimDuration::from_secs(heals_after_s),
        }),
        Fault::BrickCorrupt { brick } => Injection::StorePlane(StoreFault::BrickCorrupt { brick }),
        Fault::LeaseStorm => Injection::StorePlane(StoreFault::LeaseStorm),
        Fault::StoreSlow {
            factor_permille,
            heals_after_s,
        } => Injection::StorePlane(StoreFault::Slow {
            factor_permille,
            heals_after: SimDuration::from_secs(heals_after_s),
        }),
        Fault::LinkPartition {
            edge,
            heals_after_s,
        } => Injection::NetPlane {
            edge,
            fault: LinkFault::Partition,
            heals_after: SimDuration::from_secs(heals_after_s),
        },
        Fault::LinkLossy {
            edge,
            permille,
            heals_after_s,
        } => Injection::NetPlane {
            edge,
            fault: LinkFault::Lossy { permille },
            heals_after: SimDuration::from_secs(heals_after_s),
        },
        Fault::LinkDelay {
            edge,
            extra_ms,
            heals_after_s,
        } => Injection::NetPlane {
            edge,
            fault: LinkFault::Delay {
                extra: SimDuration::from_millis(extra_ms),
            },
            heals_after: SimDuration::from_secs(heals_after_s),
        },
        Fault::LinkDupe {
            edge,
            permille,
            heals_after_s,
        } => Injection::NetPlane {
            edge,
            fault: LinkFault::Dupe { permille },
            heals_after: SimDuration::from_secs(heals_after_s),
        },
    }
}

/// Injects `fault` into a running eBid server.
///
/// Returns responses for requests killed as an immediate consequence
/// (only register bit flips kill anything on the spot). Client-plane
/// faults ([`Injection::ClientReports`]) are a no-op here: they never
/// touch the server and are delivered by the cluster layer instead.
pub fn inject(server: &mut AppServer<EBid>, fault: &Fault, now: SimTime) -> Vec<Response> {
    match conversion(fault) {
        Injection::Server(f) => server.inject(f, now),
        Injection::KeyGen(kind) => {
            server.app_mut().corrupt_keygen(kind);
            Vec::new()
        }
        Injection::FastS(kind) => {
            // Bit flips hit a swath of stored objects. Target the most
            // recently created sessions: abandoned sessions linger in the
            // store until they time out, and corrupting those would be
            // invisible.
            if let Some(fasts) = server.session_mut().fasts_mut() {
                let victims: Vec<_> = fasts.session_ids().into_iter().rev().take(25).collect();
                for id in victims {
                    fasts.corrupt(id, kind);
                }
            }
            Vec::new()
        }
        Injection::Ssm => {
            if let Some(ssm) = server.session().ssm_handle() {
                ssm.borrow_mut().corrupt_any();
            }
            Vec::new()
        }
        Injection::Db(kind) => {
            let db = server.db();
            let mut db = db.borrow_mut();
            match kind {
                CorruptKind::SetNull => {
                    let _ = db.corrupt_cell("items", 1, 1, Value::Null);
                }
                CorruptKind::SetInvalid => {
                    let _ = db.corrupt_cell("items", 1, 6, Value::Float(-500.0));
                }
                CorruptKind::SetWrong => {
                    let _ = db.corrupt_swap_rows("items", 1, 2);
                }
            }
            Vec::new()
        }
        Injection::ClientReports(_) => Vec::new(),
        // Store-plane and net-plane faults hit infrastructure the server
        // process cannot see; the cluster layer (owner of the shared SSM
        // and the simulated wire) delivers them, like ClientReports.
        Injection::StorePlane(_) | Injection::NetPlane { .. } => Vec::new(),
    }
}

/// Returns true if the paper classifies this row as curable by a
/// microreboot (EJB or WAR level) — the first 19 rows of Table 2.
pub fn microreboot_curable(row: &CatalogueRow) -> bool {
    matches!(
        row.expected,
        ExpectedLevel::Unnecessary
            | ExpectedLevel::Ejb
            | ExpectedLevel::EjbWar
            | ExpectedLevel::War
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_26_rows_19_curable() {
        let rows = table2_catalogue();
        assert_eq!(rows.len(), 26);
        let curable = rows.iter().filter(|r| microreboot_curable(r)).count();
        assert_eq!(curable, 19, "Table 2: first 19 rows are µRB-curable");
    }

    #[test]
    fn approx_rows_match_the_paper() {
        // ≈ rows: wrong keys, wrong txn map, wrong bean attrs, wrong FastS
        // data, MySQL corruption, both bit-flip rows.
        let rows = table2_catalogue();
        let approx = rows.iter().filter(|r| r.manual_repair).count();
        assert_eq!(approx, 7);
    }

    #[test]
    fn labels_are_unique() {
        let rows = table2_catalogue();
        let mut labels: Vec<&str> = rows.iter().map(|r| r.label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), rows.len());
    }

    #[test]
    fn adversarial_variants_route_as_expected() {
        let i = conversion(&Fault::Intermittent {
            component: "MakeBid",
            permille: 500,
            heals_after_s: Some(30),
        });
        match i {
            Injection::Server(ServerFault::Intermittent {
                component,
                permille,
                heals_after,
            }) => {
                assert_eq!(component, "MakeBid");
                assert_eq!(permille, 500);
                assert_eq!(heals_after, Some(SimDuration::from_secs(30)));
            }
            other => panic!("unexpected route {other:?}"),
        }
        assert!(matches!(
            conversion(&Fault::SpuriousReports { reports: 9 }),
            Injection::ClientReports(9)
        ));
    }

    #[test]
    fn state_plane_faults_route_to_the_store() {
        assert!(matches!(
            conversion(&Fault::BrickCrash {
                brick: 1,
                heals_after_s: 20
            }),
            Injection::StorePlane(StoreFault::BrickCrash {
                brick: 1,
                heals_after
            }) if heals_after == SimDuration::from_secs(20)
        ));
        assert!(matches!(
            conversion(&Fault::BrickCorrupt { brick: 2 }),
            Injection::StorePlane(StoreFault::BrickCorrupt { brick: 2 })
        ));
        assert!(matches!(
            conversion(&Fault::LeaseStorm),
            Injection::StorePlane(StoreFault::LeaseStorm)
        ));
        assert!(matches!(
            conversion(&Fault::StoreSlow {
                factor_permille: 3000,
                heals_after_s: 15
            }),
            Injection::StorePlane(StoreFault::Slow {
                factor_permille: 3000,
                ..
            })
        ));
    }

    #[test]
    fn net_plane_faults_route_to_their_edge() {
        for (fault, want_edge, want_kind) in [
            (
                Fault::LinkPartition {
                    edge: NetEdge::LbNode,
                    heals_after_s: 10,
                },
                NetEdge::LbNode,
                LinkFault::Partition,
            ),
            (
                Fault::LinkLossy {
                    edge: NetEdge::NodeStore,
                    permille: 250,
                    heals_after_s: 10,
                },
                NetEdge::NodeStore,
                LinkFault::Lossy { permille: 250 },
            ),
            (
                Fault::LinkDelay {
                    edge: NetEdge::LbNode,
                    extra_ms: 40,
                    heals_after_s: 10,
                },
                NetEdge::LbNode,
                LinkFault::Delay {
                    extra: SimDuration::from_millis(40),
                },
            ),
            (
                Fault::LinkDupe {
                    edge: NetEdge::NodeStore,
                    permille: 100,
                    heals_after_s: 10,
                },
                NetEdge::NodeStore,
                LinkFault::Dupe { permille: 100 },
            ),
        ] {
            match conversion(&fault) {
                Injection::NetPlane {
                    edge,
                    fault: kind,
                    heals_after,
                } => {
                    assert_eq!(edge, want_edge);
                    assert_eq!(kind, want_kind);
                    assert_eq!(heals_after, SimDuration::from_secs(10));
                }
                other => panic!("unexpected route {other:?}"),
            }
        }
        assert_eq!(NetEdge::LbNode.code(), 0);
        assert_eq!(NetEdge::NodeStore.code(), 1);
    }

    #[test]
    fn injection_targets_exist_in_ebid() {
        let names: Vec<&str> = ebid::components::descriptors()
            .iter()
            .map(|d| d.name)
            .collect();
        for row in table2_catalogue() {
            let target = match row.fault {
                Fault::Deadlock { component }
                | Fault::InfiniteLoop { component }
                | Fault::AppMemoryLeak { component, .. }
                | Fault::TransientException { component, .. }
                | Fault::CorruptJndi { component, .. }
                | Fault::CorruptTxnMap { component, .. }
                | Fault::CorruptBeanAttrs { component, .. } => Some(component),
                _ => None,
            };
            if let Some(t) = target {
                assert!(names.contains(&t), "unknown target {t}");
            }
        }
    }
}
