//! A run-wide metrics registry downstream of the telemetry bus.
//!
//! [`MetricsRegistry`] is a [`TelemetrySink`] that folds the structured
//! event stream into the canonical counters — the fixed vocabulary of
//! [`crate::symbol`] (`requests_submitted`, `reboots_begun_component`,
//! `decisions_ejb_microreboot`, ...), held as a dense `Vec<u64>` indexed
//! by [`Sym`] so the per-event fold is array indexing — plus one
//! accumulator of reboot durations (`histogram("reboot_ms")`). The DES
//! kernel's end-of-run gauges are written into it by
//! [`record_kernel_gauges`]. `ServerStats`, `RmStats` and the experiment
//! printouts are *views* over registry reads rather than folds of their
//! own.
//!
//! The registry is observation-only: it never emits events and never
//! feeds back into the simulation, so attaching one cannot perturb a
//! run's trace digest.

use std::collections::BTreeMap;

use crate::stats::Histogram;
use crate::symbol::{self, Sym};
use crate::telemetry::{
    DecisionKind, Disposition, KillCause, RebootLevel, TelemetryEvent, TelemetrySink,
};
use crate::time::SimTime;

/// Canonical counter symbol for a [`DecisionKind`].
pub(crate) fn decision_sym(decision: DecisionKind) -> Sym {
    match decision {
        DecisionKind::EjbMicroreboot => symbol::DECISIONS_EJB_MICROREBOOT,
        DecisionKind::WarMicroreboot => symbol::DECISIONS_WAR_MICROREBOOT,
        DecisionKind::AppRestart => symbol::DECISIONS_APP_RESTART,
        DecisionKind::ProcessRestart => symbol::DECISIONS_PROCESS_RESTART,
        DecisionKind::OsReboot => symbol::DECISIONS_OS_REBOOT,
        DecisionKind::NotifyHuman => symbol::DECISIONS_NOTIFY_HUMAN,
        DecisionKind::Isolate => symbol::DECISIONS_ISOLATE,
        DecisionKind::Failover => symbol::DECISIONS_FAILOVER,
    }
}

/// Canonical `reboots_begun_<level>` symbol.
pub fn reboot_begun_sym(level: RebootLevel) -> Sym {
    match level {
        RebootLevel::Component => symbol::REBOOTS_BEGUN_COMPONENT,
        RebootLevel::Application => symbol::REBOOTS_BEGUN_APPLICATION,
        RebootLevel::Process => symbol::REBOOTS_BEGUN_PROCESS,
        RebootLevel::OperatingSystem => symbol::REBOOTS_BEGUN_OS,
    }
}

/// Canonical `reboots_finished_<level>` symbol.
pub fn reboot_finished_sym(level: RebootLevel) -> Sym {
    match level {
        RebootLevel::Component => symbol::REBOOTS_FINISHED_COMPONENT,
        RebootLevel::Application => symbol::REBOOTS_FINISHED_APPLICATION,
        RebootLevel::Process => symbol::REBOOTS_FINISHED_PROCESS,
        RebootLevel::OperatingSystem => symbol::REBOOTS_FINISHED_OS,
    }
}

/// Canonical `killed_<cause>` symbol.
pub(crate) fn kill_sym(cause: KillCause) -> Sym {
    match cause {
        KillCause::Microreboot => symbol::KILLED_MICROREBOOT,
        KillCause::Restart => symbol::KILLED_RESTART,
        KillCause::Ttl => symbol::KILLED_TTL,
    }
}

/// Canonical counters, kernel gauges and the reboot-duration accumulator
/// over the telemetry stream.
///
/// # Examples
///
/// ```
/// use simcore::metrics::MetricsRegistry;
/// use simcore::telemetry::{TelemetryEvent, TelemetrySink};
/// use simcore::SimTime;
///
/// let mut reg = MetricsRegistry::new();
/// reg.on_event(&TelemetryEvent::RequestSubmitted {
///     node: 0,
///     req: 1,
///     at: SimTime::from_secs(1),
/// });
/// assert_eq!(reg.counter("requests_submitted"), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    /// Dense canonical counters, indexed by [`Sym`].
    counters: Vec<u64>,
    /// Which counters were ever written: [`MetricsRegistry::counters`]
    /// lists exactly these, a written zero included.
    written: Vec<bool>,
    gauges: BTreeMap<&'static str, f64>,
    /// Every `RebootFinished` duration, read as `histogram("reboot_ms")`.
    reboot_ms: Histogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: vec![0; symbol::COUNT],
            written: vec![false; symbol::COUNT],
            gauges: BTreeMap::new(),
            reboot_ms: Histogram::default(),
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the canonical counter `sym`.
    fn add(&mut self, sym: Sym, n: u64) {
        self.counters[sym.index()] += n;
        self.written[sym.index()] = true;
    }

    /// Increments the canonical counter `sym` by one.
    fn inc(&mut self, sym: Sym) {
        self.add(sym, 1);
    }

    /// Reads the canonical counter `sym`.
    pub fn counter_sym(&self, sym: Sym) -> u64 {
        self.counters[sym.index()]
    }

    /// Reads counter `name` (zero if never written or not canonical).
    pub fn counter(&self, name: &str) -> u64 {
        symbol::lookup(name).map_or(0, |sym| self.counter_sym(sym))
    }

    /// Sets gauge `name` to `value`.
    fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Reads gauge `name` (zero if never set).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Reads histogram `name`: `reboot_ms` is the only one.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        (name == "reboot_ms").then_some(&self.reboot_ms)
    }

    /// Iterates the written counters in name order (symbol order is name
    /// order).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.written
            .iter()
            .zip(symbol::NAMES.iter().zip(&self.counters))
            .filter(|(written, _)| **written)
            .map(|(_, (name, value))| (*name, *value))
    }
}

impl TelemetrySink for MetricsRegistry {
    /// The canonical event → metric fold: every event bumps its kind's
    /// counter (a column of the `telemetry_events!` table); the kinds
    /// below fold more than that.
    fn on_event(&mut self, event: &TelemetryEvent) {
        self.inc(event.counter());
        match *event {
            TelemetryEvent::RequestCompleted { disposition, .. } => self.inc(match disposition {
                Disposition::Ok => symbol::REQUESTS_OK,
                Disposition::HttpError => symbol::REQUESTS_HTTP_ERROR,
                Disposition::NetworkError => symbol::REQUESTS_NETWORK_ERROR,
            }),
            TelemetryEvent::RequestKilled { cause, .. } => self.inc(kill_sym(cause)),
            TelemetryEvent::RebootBegun { level, .. } => self.inc(reboot_begun_sym(level)),
            TelemetryEvent::RebootFinished {
                level, duration, ..
            } => {
                self.reboot_ms.record(duration);
                self.inc(reboot_finished_sym(level));
            }
            TelemetryEvent::RecoveryDecision { decision, .. } => self.inc(decision_sym(decision)),
            TelemetryEvent::ClientOp { ok, .. } => self.inc(if ok {
                symbol::CLIENT_OPS_OK
            } else {
                symbol::CLIENT_OPS_FAILED
            }),
            TelemetryEvent::TtlSweep { reaped, .. } => {
                self.add(symbol::TTL_SWEEP_REAPED, u64::from(reaped));
            }
            TelemetryEvent::CampaignRunDone { violations, .. } => {
                self.add(symbol::CAMPAIGN_VIOLATIONS, u64::from(violations));
            }
            // Every other kind is fully described by its counter.
            _ => {}
        }
    }
}

/// Records the DES kernel's end-of-run health into `reg`: events
/// processed, still-pending queue depth, simulated seconds covered, and —
/// when wall-clock time is supplied — simulated time advanced per
/// wall-second (the kernel-throughput gauge ROADMAP's "fast as the
/// hardware allows" goal is judged by).
pub fn record_kernel_gauges(
    reg: &mut MetricsRegistry,
    events_fired: u64,
    pending: usize,
    now: SimTime,
    wall_seconds: Option<f64>,
) {
    reg.set_gauge("des_events_fired", events_fired as f64);
    reg.set_gauge("des_queue_depth", pending as f64);
    reg.set_gauge("sim_seconds", now.as_secs_f64());
    if let Some(wall) = wall_seconds {
        if wall > 0.0 {
            reg.set_gauge("sim_seconds_per_wall_second", now.as_secs_f64() / wall);
            reg.set_gauge("des_events_per_wall_second", events_fired as f64 / wall);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn the_fold_counts_each_kind_and_accumulates_reboot_durations() {
        let mut reg = MetricsRegistry::new();
        let at = SimTime::from_secs(2);
        let finished = |millis| TelemetryEvent::RebootFinished {
            node: 0,
            level: RebootLevel::Component,
            duration: SimDuration::from_millis(millis),
            at,
        };
        let client_op = |ok| TelemetryEvent::ClientOp {
            action: 1,
            group: 0,
            started_at: SimTime::from_secs(1),
            finished_at: at,
            ok,
        };
        for event in [
            TelemetryEvent::RequestSubmitted {
                node: 0,
                req: 1,
                at,
            },
            TelemetryEvent::RequestCompleted {
                node: 0,
                req: 1,
                disposition: Disposition::HttpError,
                at,
            },
            TelemetryEvent::RequestKilled {
                node: 0,
                req: 2,
                cause: KillCause::Ttl,
                at,
            },
            TelemetryEvent::RebootBegun {
                node: 0,
                level: RebootLevel::Component,
                members: 1,
                at,
            },
            finished(120),
            finished(80),
            TelemetryEvent::TtlSweep {
                node: 0,
                pending: 3,
                reaped: 2,
                at,
            },
            client_op(false),
            client_op(true),
        ] {
            reg.on_event(&event);
        }
        for (name, value) in [
            ("requests_submitted", 1),
            ("requests_http_error", 1),
            ("killed_ttl", 1),
            ("reboots_begun_component", 1),
            ("reboots_finished", 2),
            ("reboots_finished_component", 2),
            ("ttl_sweeps", 1),
            ("ttl_sweep_reaped", 2),
            ("client_ops", 2),
            ("client_ops_ok", 1),
            ("client_ops_failed", 1),
            ("never_written", 0),
        ] {
            assert_eq!(reg.counter(name), value, "{name}");
        }
        assert_eq!(reg.counter_sym(symbol::REQUESTS_SUBMITTED), 1);
        let reboots = reg.histogram("reboot_ms").expect("reboot_ms is kept");
        assert_eq!(
            (reboots.count(), reboots.mean()),
            (2, SimDuration::from_millis(100))
        );
        assert!(reg.histogram("client_op_ms").is_none());
    }

    #[test]
    fn counters_list_every_written_counter_in_name_order() {
        let mut reg = MetricsRegistry::default();
        let at = SimTime::from_secs(1);
        reg.on_event(&TelemetryEvent::TtlSweep {
            node: 0,
            pending: 0,
            reaped: 0,
            at,
        });
        reg.on_event(&TelemetryEvent::RequestSubmitted {
            node: 0,
            req: 1,
            at,
        });
        let listed: Vec<(&str, u64)> = reg.counters().collect();
        assert_eq!(
            listed,
            [
                ("requests_submitted", 1),
                ("ttl_sweep_reaped", 0),
                ("ttl_sweeps", 1)
            ],
            "a written zero is listed, a never-written counter is not"
        );
        record_kernel_gauges(&mut reg, 100, 3, SimTime::from_secs(50), Some(2.0));
        assert_eq!(reg.gauge("des_events_fired"), 100.0);
        assert_eq!(reg.gauge("sim_seconds_per_wall_second"), 25.0);
        assert_eq!(reg.gauge("never_set"), 0.0);
    }
}
