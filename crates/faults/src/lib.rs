//! The fault-injection catalogue of Section 5.1 / Table 2.
//!
//! The paper's industry contacts identified the failure modes that plague
//! production J2EE systems — deadlocked threads, leak-induced resource
//! exhaustion, corruption of volatile metadata, mishandled exceptions —
//! and the authors added hooks for injecting each, plus data corruption in
//! the session stores and the database, and low-level faults underneath
//! the JVM (FIG / FAUmachine). This crate enumerates that catalogue as
//! [`Fault`], draws it into seeded campaigns, and records the paper's
//! observed worst-case recovery level per row so the Table 2 experiment
//! can print paper-vs-measured. It is a leaf: the server delivers the
//! kinds that hook into it (`urb_core::AppServer::inject`), and the
//! cluster simulation delivers the rest — the client pool, the session
//! stores, the database, the shared SSM and the wire.

#![forbid(unsafe_code)]

use statestore::session::CorruptKind;

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
}
