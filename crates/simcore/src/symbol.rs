//! Compile-time interned counter symbols.
//!
//! The canonical metric fold ([`crate::metrics::MetricsRegistry`]) runs on
//! every telemetry event, once per node registry plus once for the run-wide
//! one — it is squarely on the DES hot path. Probing a
//! `BTreeMap<&'static str, u64>` per counter bump costs a pointer chase and
//! a string compare per tree level; this module replaces the probe with a
//! compile-time symbol table: every canonical counter name is a [`Sym`] —
//! a dense `u16` index into one fixed, alphabetically sorted `NAMES` table
//! — and the registry stores counters in a plain `Vec<u64>` indexed by
//! symbol.
//!
//! The table is *closed*: every name here keys a counter the fold writes,
//! and a name not in it reads as zero.
//!
//! Keep the macro invocation sorted by counter name — `lookup` binary
//! searches `NAMES`, the registry lists counters in symbol order as name
//! order, and the `table_is_sorted` test pins the invariant.

/// A canonical counter symbol: an index into the sorted name table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Sym(u16);

impl Sym {
    /// The symbol's dense index.
    pub(crate) fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// Resolves a counter name to its symbol, if canonical.
pub(crate) fn lookup(name: &str) -> Option<Sym> {
    NAMES.binary_search(&name).ok().map(|i| Sym(i as u16))
}

/// Number of canonical counter symbols.
pub(crate) const COUNT: usize = NAMES.len();

macro_rules! symbols {
    ($($konst:ident => $name:literal),+ $(,)?) => {
        /// Every canonical counter name, in symbol (= alphabetical) order.
        pub(crate) const NAMES: &[&str] = &[$($name),+];
        symbols!(@consts 0u16; $($konst => $name),+);
    };
    (@consts $idx:expr; $konst:ident => $name:literal) => {
        #[doc = concat!("`", $name, "`")]
        pub const $konst: Sym = Sym($idx);
    };
    (@consts $idx:expr; $konst:ident => $name:literal, $($rest:ident => $rname:literal),+) => {
        #[doc = concat!("`", $name, "`")]
        pub const $konst: Sym = Sym($idx);
        symbols!(@consts $idx + 1; $($rest => $rname),+);
    };
}

symbols! {
    ACTIONS_CLOSED => "actions_closed",
    BREAKER_TRANSITIONS => "breaker_transitions",
    BRICKS_FAILED => "bricks_failed",
    BRICKS_RESTORED => "bricks_restored",
    CAMPAIGN_RUNS_DONE => "campaign_runs_done",
    CAMPAIGN_VIOLATIONS => "campaign_violations",
    CLIENT_OPS => "client_ops",
    CLIENT_OPS_FAILED => "client_ops_failed",
    CLIENT_OPS_OK => "client_ops_ok",
    DECISIONS_APP_RESTART => "decisions_app_restart",
    DECISIONS_EJB_MICROREBOOT => "decisions_ejb_microreboot",
    DECISIONS_FAILOVER => "decisions_failover",
    DECISIONS_ISOLATE => "decisions_isolate",
    DECISIONS_NOTIFY_HUMAN => "decisions_notify_human",
    DECISIONS_OS_REBOOT => "decisions_os_reboot",
    DECISIONS_PROCESS_RESTART => "decisions_process_restart",
    DECISIONS_WAR_MICROREBOOT => "decisions_war_microreboot",
    DEGRADED_INJECTED => "degraded_injected",
    DETECTOR_FIRES => "detector_fires",
    ESCALATIONS_SATURATED => "escalations_saturated",
    FAILOVERS_ENGAGED => "failovers_engaged",
    FLAP_ESCALATIONS => "flap_escalations",
    HEDGE_DEFERRALS => "hedge_deferrals",
    KILLED_MICROREBOOT => "killed_microreboot",
    KILLED_RESTART => "killed_restart",
    KILLED_TTL => "killed_ttl",
    LATENCY_ANOMALIES => "latency_anomalies",
    LB_FAILOVERS => "lb_failovers",
    LEASES_EXPIRED => "leases_expired",
    NET_FAULTS_HEALED => "net_faults_healed",
    NET_FAULTS_INJECTED => "net_faults_injected",
    PARITY_RESTORED => "parity_restored",
    PERF_BASELINES_FROZEN => "perf_baselines_frozen",
    POLICIES_ARMED => "policies_armed",
    QUARANTINE_OFF => "quarantine_off",
    QUARANTINE_ON => "quarantine_on",
    REBOOTS_BEGUN => "reboots_begun",
    REBOOTS_BEGUN_APPLICATION => "reboots_begun_application",
    REBOOTS_BEGUN_COMPONENT => "reboots_begun_component",
    REBOOTS_BEGUN_OS => "reboots_begun_os",
    REBOOTS_BEGUN_PROCESS => "reboots_begun_process",
    REBOOTS_FINISHED => "reboots_finished",
    REBOOTS_FINISHED_APPLICATION => "reboots_finished_application",
    REBOOTS_FINISHED_COMPONENT => "reboots_finished_component",
    REBOOTS_FINISHED_OS => "reboots_finished_os",
    REBOOTS_FINISHED_PROCESS => "reboots_finished_process",
    RECOVERIES_COALESCED => "recoveries_coalesced",
    RECOVERIES_QUEUED => "recoveries_queued",
    RECOVERY_DECISIONS => "recovery_decisions",
    REJUVENATION_TICKS => "rejuvenation_ticks",
    REQUESTS_COMPLETED => "requests_completed",
    REQUESTS_HTTP_ERROR => "requests_http_error",
    REQUESTS_KILLED => "requests_killed",
    REQUESTS_NETWORK_ERROR => "requests_network_error",
    REQUESTS_OK => "requests_ok",
    REQUESTS_SUBMITTED => "requests_submitted",
    RETRIES_SENT => "retries_sent",
    RM_CRASHES => "rm_crashes",
    RM_REBOOTS => "rm_reboots",
    STORM_DAMPED => "storm_damped",
    TTL_SWEEP_REAPED => "ttl_sweep_reaped",
    TTL_SWEEPS => "ttl_sweeps",
    WATCHDOG_ESCALATIONS => "watchdog_escalations",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_distinct() {
        for w in NAMES.windows(2) {
            assert!(w[0] < w[1], "NAMES must stay sorted: {} >= {}", w[0], w[1]);
        }
    }

    #[test]
    fn lookup_roundtrips_every_name() {
        for (i, name) in NAMES.iter().enumerate() {
            let sym = lookup(name).expect("canonical name resolves");
            assert_eq!(sym.index(), i);
        }
        assert_eq!(lookup("not_a_canonical_counter"), None);
    }

    #[test]
    fn consts_name_their_counters() {
        assert_eq!(NAMES[REQUESTS_SUBMITTED.index()], "requests_submitted");
        assert_eq!(NAMES[ACTIONS_CLOSED.index()], "actions_closed");
        assert_eq!(NAMES[WATCHDOG_ESCALATIONS.index()], "watchdog_escalations");
        assert_eq!(COUNT, NAMES.len());
    }
}
