//! The fault-kind catalogue: one table row per kind of [`Fault`].
//!
//! Adding a fault is a [`Fault`] variant, its arm in [`Fault::kind`] (an
//! exhaustive match), and its row in the `fault_kinds!` table below —
//! which gives the kind its wire code, its report label, the campaign
//! tier whose generator draws it, whether it can flap, and how its
//! payload is drawn. `urb_core::AppServer::inject` names every kind with
//! no catch-all, so rustc then asks where the fault is delivered: a
//! server hook gets its arm there; a fault outside the server process
//! joins that match's do-nothing arm and gets its arm in the cluster
//! simulation's `on_inject_fault` instead.

use simcore::rng::SimRng;
use statestore::session::CorruptKind;

use crate::{Fault, NetEdge};

/// Components the campaign aims faults at. A mix of read paths, write
/// paths, and the entity bean shared by both, mirroring the Table 2
/// targets.
pub(crate) const TARGETS: &[&str] = &[
    "MakeBid",
    "SearchItemsByCategory",
    "ViewItem",
    "BrowseCategories",
    "RegisterNewUser",
    "CommitBid",
    "Item",
];

/// Components the fail-slow (degraded) campaign aims at: the subset of
/// [`TARGETS`] on request paths hot enough for black-box latency
/// monitoring to see. A slowdown inside a bean that serves a handful of
/// requests per minute never earns a latency baseline or a judged
/// window at this load — the perf plane is *blind* to it by design (the
/// paper's detectors share the limit: you cannot observe what no
/// request exercises), so aiming the campaign there would only assert
/// that blindness, not exercise recovery.
pub(crate) const DEGRADED_TARGETS: &[&str] = &[
    "SearchItemsByCategory",
    "ViewItem",
    "BrowseCategories",
    "Item",
];

/// Which campaign's generator draws a fault kind. The tiers are drawn
/// apart so that growing one never shifts another's pinned digests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// The paper's Table 2 catalogue plus the adversarial extensions.
    Classic,
    /// Fail-slow degradation.
    Degraded,
    /// The state-store plane and the network links.
    Netstate,
}

/// What a tier draws before it picks a kind; every kind of the tier
/// builds its payload from these. A tier fills (and its rows read) only
/// its own fields — the rest stay at the placeholders `draw` starts from.
struct Shared {
    /// Classic and degraded: the target component.
    component: &'static str,
    /// Classic: how a corruption fault corrupts.
    corrupt: CorruptKind,
    /// Netstate: which of the SSM's 3 bricks. A single-brick fault must
    /// be masked by the surviving replicas.
    brick: usize,
    /// Netstate: which edge.
    edge: NetEdge,
    /// Netstate: heal delay — long enough for detectors and clients to
    /// feel the fault, short enough that goodput can recover well inside
    /// the post-heal tail.
    heals_after_s: u64,
}

impl Shared {
    fn draw(tier: Tier, rng: &mut SimRng) -> Shared {
        let mut shared = Shared {
            component: "",
            corrupt: CorruptKind::SetNull,
            brick: 0,
            edge: NetEdge::LbNode,
            heals_after_s: 0,
        };
        match tier {
            Tier::Classic => {
                shared.component = *rng.pick(TARGETS).expect("TARGETS is non-empty");
                shared.corrupt = match rng.uniform_usize(3) {
                    0 => CorruptKind::SetNull,
                    1 => CorruptKind::SetInvalid,
                    _ => CorruptKind::SetWrong,
                };
            }
            Tier::Degraded => {
                shared.component = *rng
                    .pick(DEGRADED_TARGETS)
                    .expect("DEGRADED_TARGETS is non-empty");
            }
            Tier::Netstate => {
                shared.brick = rng.uniform_usize(3);
                shared.edge = if rng.chance(0.5) {
                    NetEdge::LbNode
                } else {
                    NetEdge::NodeStore
                };
                shared.heals_after_s = 15 + rng.uniform_u64(20);
            }
        }
        shared
    }
}

impl Fault {
    /// The fault's kind: the variant with its payload stripped.
    pub fn kind(&self) -> FaultKind {
        match self {
            Fault::Deadlock { .. } => FaultKind::Deadlock,
            Fault::InfiniteLoop { .. } => FaultKind::InfiniteLoop,
            Fault::AppMemoryLeak { .. } => FaultKind::AppMemoryLeak,
            Fault::TransientException { .. } => FaultKind::TransientException,
            Fault::Intermittent { .. } => FaultKind::Intermittent,
            Fault::SpuriousReports { .. } => FaultKind::SpuriousReports,
            Fault::CorruptPrimaryKeys { .. } => FaultKind::CorruptPrimaryKeys,
            Fault::CorruptJndi { .. } => FaultKind::CorruptJndi,
            Fault::CorruptTxnMap { .. } => FaultKind::CorruptTxnMap,
            Fault::CorruptBeanAttrs { .. } => FaultKind::CorruptBeanAttrs,
            Fault::CorruptFastS { .. } => FaultKind::CorruptFastS,
            Fault::CorruptSsm => FaultKind::CorruptSsm,
            Fault::CorruptDb { .. } => FaultKind::CorruptDb,
            Fault::MemLeakIntraJvm { .. } => FaultKind::MemLeakIntraJvm,
            Fault::MemLeakExtraJvm { .. } => FaultKind::MemLeakExtraJvm,
            Fault::BitFlipMemory => FaultKind::BitFlipMemory,
            Fault::BitFlipRegisters => FaultKind::BitFlipRegisters,
            Fault::BadSyscalls => FaultKind::BadSyscalls,
            Fault::Degraded { .. } => FaultKind::Degraded,
            Fault::BrickCrash { .. } => FaultKind::BrickCrash,
            Fault::BrickCorrupt { .. } => FaultKind::BrickCorrupt,
            Fault::LeaseStorm => FaultKind::LeaseStorm,
            Fault::StoreSlow { .. } => FaultKind::StoreSlow,
            Fault::LinkPartition { .. } => FaultKind::LinkPartition,
            Fault::LinkLossy { .. } => FaultKind::LinkLossy,
            Fault::LinkDelay { .. } => FaultKind::LinkDelay,
            Fault::LinkDupe { .. } => FaultKind::LinkDupe,
        }
    }
}

/// Declares [`FaultKind`] from one row per kind, grouped by [`Tier`]:
///
/// ```text
/// <Kind> = <code> => "<label>", <flappable>, <payload draw>;
/// ```
///
/// `<Kind>` is the name of the [`Fault`] variant it strips. The payload
/// draw is an expression over the tier's [`Shared`] draws and the rng,
/// named once in the `draw(..)` header. Row order within a tier is the
/// order the tier's generator indexes, so it is part of every pinned
/// campaign digest.
macro_rules! fault_kinds {
    (
        draw($shared:ident, $rng:ident);
        $( $tier:ident {
            $( $kind:ident = $code:literal => $label:literal, $flappable:literal, $build:expr; )+
        } )+
    ) => {
        simcore::code_enum! {
            /// What kind of fault a [`Fault`] is, payload stripped: its
            /// wire code, and its stable label for coverage accounting.
            pub enum FaultKind {
                $($(
                    #[doc = concat!("[`Fault::", stringify!($kind), "`].")]
                    $kind = $code => $label
                ),+),+
            }
        }

        impl FaultKind {
            /// The kinds a tier's generator draws from, in draw-index order.
            pub(crate) fn tier_kinds(tier: Tier) -> &'static [FaultKind] {
                match tier {
                    $( Tier::$tier => &[$(FaultKind::$kind),+] ),+
                }
            }

            /// True if the fault lives in a component and a reboot cures
            /// it — the population that can meaningfully flap (recur
            /// after each recovery).
            pub(crate) fn flappable(self) -> bool {
                match self {
                    $($( FaultKind::$kind => $flappable ),+),+
                }
            }

            /// Draws this kind's payload.
            fn build(self, $shared: &Shared, $rng: &mut SimRng) -> Fault {
                match self {
                    $($( FaultKind::$kind => $build ),+),+
                }
            }
        }
    };
}

fault_kinds! {
    draw(s, rng);
    Classic {
        Deadlock = 0 => "deadlock", true, Fault::Deadlock { component: s.component };
        InfiniteLoop = 1 => "infinite-loop", true, Fault::InfiniteLoop { component: s.component };
        AppMemoryLeak = 2 => "app-memory-leak", false, Fault::AppMemoryLeak {
            component: s.component,
            // Aggressive per-call leak so heap pressure shows up within a
            // short campaign horizon.
            bytes_per_call: 4 << 20,
            persistent: rng.chance(0.25),
        };
        TransientException = 3 => "transient-exception", true, Fault::TransientException {
            component: s.component,
            calls: u32::MAX,
        };
        Intermittent = 4 => "intermittent", true, Fault::Intermittent {
            component: s.component,
            permille: 250 + 250 * rng.uniform_u64(3) as u32,
            heals_after_s: if rng.chance(0.5) {
                Some(20 + rng.uniform_u64(40))
            } else {
                None
            },
        };
        SpuriousReports = 5 => "spurious-reports", false, Fault::SpuriousReports {
            reports: 8 + rng.uniform_u64(25) as u32,
        };
        CorruptPrimaryKeys = 6 => "corrupt-primary-keys", false, Fault::CorruptPrimaryKeys {
            kind: s.corrupt,
        };
        CorruptJndi = 7 => "corrupt-jndi", true, Fault::CorruptJndi {
            component: s.component,
            kind: s.corrupt,
        };
        CorruptTxnMap = 8 => "corrupt-txn-map", true, Fault::CorruptTxnMap {
            component: s.component,
            kind: s.corrupt,
        };
        CorruptBeanAttrs = 9 => "corrupt-bean-attrs", true, Fault::CorruptBeanAttrs {
            component: s.component,
            kind: s.corrupt,
        };
        CorruptFastS = 10 => "corrupt-fasts", false, Fault::CorruptFastS { kind: s.corrupt };
        CorruptSsm = 11 => "corrupt-ssm", false, Fault::CorruptSsm;
        CorruptDb = 12 => "corrupt-db", false, Fault::CorruptDb { kind: s.corrupt };
        MemLeakIntraJvm = 13 => "memleak-intra-jvm", false, Fault::MemLeakIntraJvm {
            bytes_per_sec: 40 << 20,
        };
        MemLeakExtraJvm = 14 => "memleak-extra-jvm", false, Fault::MemLeakExtraJvm {
            bytes_per_sec: 40 << 20,
        };
        BitFlipMemory = 15 => "bitflip-memory", false, Fault::BitFlipMemory;
        BitFlipRegisters = 16 => "bitflip-registers", false, Fault::BitFlipRegisters;
        BadSyscalls = 17 => "bad-syscalls", false, Fault::BadSyscalls;
    }
    Degraded {
        Degraded = 18 => "degraded", true, Fault::Degraded {
            component: s.component,
            // 3x–6x service-time inflation: far past any sane anomaly
            // multiplier even after end-to-end overheads (network,
            // queueing) dilute the per-component slowdown, yet correct
            // answers throughout. A mere 2x on one op sits at the
            // black-box detector's ROC floor and would probe the
            // detector, not the recovery loop.
            factor_permille: 3000 + 1000 * rng.uniform_u64(4) as u32,
        };
    }
    Netstate {
        BrickCrash = 19 => "brick-crash", false, Fault::BrickCrash {
            brick: s.brick,
            heals_after_s: s.heals_after_s,
        };
        BrickCorrupt = 20 => "brick-corrupt", false, Fault::BrickCorrupt { brick: s.brick };
        LeaseStorm = 21 => "lease-storm", false, Fault::LeaseStorm;
        StoreSlow = 22 => "store-slow", false, Fault::StoreSlow {
            // 2x–5x access-time inflation.
            factor_permille: 2000 + 1000 * rng.uniform_u64(4) as u32,
            heals_after_s: s.heals_after_s,
        };
        LinkPartition = 23 => "link-partition", false, Fault::LinkPartition {
            edge: s.edge,
            heals_after_s: s.heals_after_s,
        };
        LinkLossy = 24 => "link-lossy", false, Fault::LinkLossy {
            edge: s.edge,
            // 10%–40% loss.
            permille: 100 + 100 * rng.uniform_u64(4) as u32,
            heals_after_s: s.heals_after_s,
        };
        LinkDelay = 25 => "link-delay", false, Fault::LinkDelay {
            edge: s.edge,
            // 20–100 ms of added one-way latency.
            extra_ms: 20 + 20 * rng.uniform_u64(5),
            heals_after_s: s.heals_after_s,
        };
        LinkDupe = 26 => "link-dupe", false, Fault::LinkDupe {
            edge: s.edge,
            // 5%–20% duplication.
            permille: 50 + 50 * rng.uniform_u64(4) as u32,
            heals_after_s: s.heals_after_s,
        };
    }
}

/// Draws one fault of `tier`: the tier's shared draws, then a kind, then
/// that kind's payload — in exactly that rng order.
pub fn draw(tier: Tier, rng: &mut SimRng) -> Fault {
    let shared = Shared::draw(tier, rng);
    let kind = match FaultKind::tier_kinds(tier) {
        // A one-kind tier has nothing to choose and draws nothing for it.
        [only] => *only,
        kinds => *rng.pick(kinds).expect("every tier has a kind"),
    };
    kind.build(&shared, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIERS: [Tier; 3] = [Tier::Classic, Tier::Degraded, Tier::Netstate];

    #[test]
    fn codes_are_dense_and_tiers_partition_the_catalogue() {
        let codes: Vec<u8> = FaultKind::ALL.iter().map(|k| k.code()).collect();
        assert_eq!(codes, (0..27).collect::<Vec<u8>>());
        let by_tier: Vec<FaultKind> = TIERS
            .iter()
            .flat_map(|&t| FaultKind::tier_kinds(t))
            .copied()
            .collect();
        assert_eq!(by_tier, FaultKind::ALL);
        assert_eq!(NetEdge::LbNode.code(), 0);
        assert_eq!(NetEdge::NodeStore.code(), 1);
    }

    #[test]
    fn every_kind_of_every_tier_draws_itself_and_routes() {
        let mut rng = SimRng::seed_from(7);
        for tier in TIERS {
            for &kind in FaultKind::tier_kinds(tier) {
                let shared = Shared::draw(tier, &mut rng);
                let fault = kind.build(&shared, &mut rng);
                assert_eq!(fault.kind(), kind, "{tier:?} row {kind:?} drew {fault:?}");
            }
        }
    }

    #[test]
    fn draw_reaches_every_kind_of_its_tier() {
        let mut rng = SimRng::seed_from(11);
        for tier in TIERS {
            let mut seen: Vec<FaultKind> = (0..400).map(|_| draw(tier, &mut rng).kind()).collect();
            seen.sort_unstable_by_key(|k| k.code());
            seen.dedup();
            assert_eq!(seen, FaultKind::tier_kinds(tier), "{tier:?}");
        }
    }

    #[test]
    fn labels_are_distinct_and_round_trip() {
        for &kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_label(kind.label()), Some(kind));
        }
    }
}
