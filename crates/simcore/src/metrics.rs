//! A run-wide metrics registry downstream of the telemetry bus.
//!
//! [`MetricsRegistry`] is a [`TelemetrySink`] that folds the structured
//! event stream into *named* counters, gauges, fixed-bucket histograms
//! (reusing [`stats::Histogram`]) and per-second series (reusing
//! [`stats::SecondSeries`]). Every layer of the stack that used to keep
//! ad-hoc `+= 1` fields — the request pipeline, the reboot lifecycle, the
//! recovery manager, the conductor, the load balancer and the client
//! emulator — now reaches its counters through one registry attached to
//! the shared bus; `ServerStats`, `RmStats` and bench's `TelemetrySummary`
//! are thin *views* over registry reads rather than independent folds.
//!
//! The registry is observation-only: it never emits events and never
//! feeds back into the simulation, so attaching one cannot perturb a
//! run's trace digest.
//!
//! Canonical counters — the fixed vocabulary the event fold writes
//! (`requests_submitted`, `reboots_begun_component`,
//! `decisions_ejb_microreboot`, ...) — are interned [`Sym`]bols
//! ([`crate::symbol`]) stored in a dense `Vec<u64>`, so the per-event fold
//! performs array indexing instead of ordered-map probes. Layers may also
//! register their own names (the DES kernel's `des_events_fired` gauge,
//! queue-depth series) through the imperative string API; non-canonical
//! names land in an ordered side map, and report-time iteration merges
//! both in name order.

use std::collections::BTreeMap;

use crate::sketch::QuantileSketch;
use crate::stats::{Histogram, SecondSeries};
use crate::symbol::{self, Sym};
use crate::telemetry::{
    DecisionKind, Disposition, KillCause, RebootLevel, TelemetryEvent, TelemetrySink,
};
use crate::time::{SimDuration, SimTime};

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

/// Named counters, gauges, histograms and per-second series over the
/// telemetry stream.
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
    symbols: Vec<u64>,
    /// Which canonical counters were ever written (so report-time
    /// iteration only surfaces counters that exist, exactly as the old
    /// map-backed registry did).
    written: Vec<bool>,
    /// Non-canonical counters registered by layers at run time.
    extras: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    /// Histograms under canonical ([`Sym`]-interned) names, dense by
    /// symbol index; unregistered slots are `None`.
    sym_histograms: Vec<Option<Histogram>>,
    /// Histograms registered under non-canonical names.
    histograms: BTreeMap<&'static str, Histogram>,
    /// Quantile sketches under canonical ([`Sym`]-interned) names, dense
    /// by symbol index; unregistered slots are `None`.
    sym_sketches: Vec<Option<QuantileSketch>>,
    /// Quantile sketches registered under non-canonical names (the
    /// performance plane's per-component latency sketches).
    sketches: BTreeMap<&'static str, QuantileSketch>,
    series: SecondSeries,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            symbols: vec![0; symbol::COUNT],
            written: vec![false; symbol::COUNT],
            extras: BTreeMap::new(),
            gauges: BTreeMap::new(),
            sym_histograms: Vec::new(),
            histograms: BTreeMap::new(),
            sym_sketches: Vec::new(),
            sketches: BTreeMap::new(),
            series: SecondSeries::default(),
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry with the canonical histograms installed:
    /// `client_op_ms` (100 ms buckets to 10 s) and `reboot_ms` (50 ms
    /// buckets to 5 s).
    pub fn new() -> Self {
        let mut reg = MetricsRegistry::default();
        reg.register_histogram(
            "client_op_ms",
            Histogram::new(SimDuration::from_millis(100), 100),
        );
        reg.register_histogram(
            "reboot_ms",
            Histogram::new(SimDuration::from_millis(50), 100),
        );
        reg.register_sketch("client_op_us", QuantileSketch::new());
        reg
    }

    // ---- symbol API (the hot path) ---------------------------------------

    /// Adds `n` to the canonical counter `sym`.
    pub(crate) fn add_sym(&mut self, sym: Sym, n: u64) {
        self.symbols[sym.index()] += n;
        self.written[sym.index()] = true;
    }

    /// Increments the canonical counter `sym` by one.
    pub fn inc_sym(&mut self, sym: Sym) {
        self.add_sym(sym, 1);
    }

    /// Reads the canonical counter `sym`.
    pub fn counter_sym(&self, sym: Sym) -> u64 {
        self.symbols[sym.index()]
    }

    // ---- imperative API (for layers registering their own metrics) ------

    /// Adds `n` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &'static str, n: u64) {
        match symbol::lookup(name) {
            Some(sym) => self.add_sym(sym, n),
            None => *self.extras.entry(name).or_insert(0) += n,
        }
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Reads counter `name` (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        match symbol::lookup(name) {
            Some(sym) => self.counter_sym(sym),
            None => self.extras.get(name).copied().unwrap_or(0),
        }
    }

    /// Sets gauge `name` to `value`.
    pub(crate) fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Reads gauge `name` (zero if never set).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Installs (or replaces) a histogram under `name`.
    pub(crate) fn register_histogram(&mut self, name: &'static str, hist: Histogram) {
        match symbol::lookup(name) {
            Some(sym) => {
                if self.sym_histograms.is_empty() {
                    self.sym_histograms = vec![None; symbol::COUNT];
                }
                self.sym_histograms[sym.index()] = Some(hist);
            }
            None => {
                self.histograms.insert(name, hist);
            }
        }
    }

    /// Records a duration sample into histogram `name`, if registered.
    pub fn observe(&mut self, name: &str, d: SimDuration) {
        match symbol::lookup(name) {
            Some(sym) => self.observe_sym(sym, d),
            None => {
                if let Some(h) = self.histograms.get_mut(name) {
                    h.record(d);
                }
            }
        }
    }

    /// Records a duration sample into the canonical histogram `sym`, if
    /// registered: a dense array index, no map probe.
    pub fn observe_sym(&mut self, sym: Sym, d: SimDuration) {
        if let Some(Some(h)) = self.sym_histograms.get_mut(sym.index()) {
            h.record(d);
        }
    }

    /// Reads histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match symbol::lookup(name) {
            Some(sym) => self.sym_histograms.get(sym.index())?.as_ref(),
            None => self.histograms.get(name),
        }
    }

    /// Installs (or replaces) a quantile sketch under `name`.
    pub(crate) fn register_sketch(&mut self, name: &'static str, sketch: QuantileSketch) {
        match symbol::lookup(name) {
            Some(sym) => {
                if self.sym_sketches.is_empty() {
                    self.sym_sketches = vec![None; symbol::COUNT];
                }
                self.sym_sketches[sym.index()] = Some(sketch);
            }
            None => {
                self.sketches.insert(name, sketch);
            }
        }
    }

    /// Records one value into the canonical sketch `sym`, if registered:
    /// a dense array index, no map probe — allocation-free on the warm
    /// path (the sketch's bucket array is preallocated at registration).
    pub(crate) fn observe_sketch_sym(&mut self, sym: Sym, v: u64) {
        if let Some(Some(sk)) = self.sym_sketches.get_mut(sym.index()) {
            sk.observe(v);
        }
    }

    /// Reads sketch `name`.
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        match symbol::lookup(name) {
            Some(sym) => self.sym_sketches.get(sym.index())?.as_ref(),
            None => self.sketches.get(name),
        }
    }

    /// Iterates all registered sketches in name order: canonical symbols
    /// merged with the layer-registered names.
    pub fn sketches(&self) -> impl Iterator<Item = (&'static str, &QuantileSketch)> + '_ {
        let mut all: Vec<(&'static str, &QuantileSketch)> = self
            .sym_sketches
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|sk| (symbol::NAMES[i], sk)))
            .chain(self.sketches.iter().map(|(k, v)| (*k, v)))
            .collect();
        all.sort_unstable_by_key(|(name, _)| *name);
        all.into_iter()
    }

    /// The per-second series the canonical fold maintains (`ops_ok`,
    /// `ops_fail`, `killed`, `reboots`), plus anything layers add.
    pub fn series(&self) -> &SecondSeries {
        &self.series
    }

    /// Mutable access to the per-second series (gauge-style layer metrics
    /// such as queue depth).
    pub fn series_mut(&mut self) -> &mut SecondSeries {
        &mut self.series
    }

    /// Iterates all counters in name order: written canonical symbols
    /// merged with the layer-registered extras.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut all: Vec<(&'static str, u64)> = self
            .written
            .iter()
            .enumerate()
            .filter(|(_, w)| **w)
            .map(|(i, _)| (symbol::NAMES[i], self.symbols[i]))
            .chain(self.extras.iter().map(|(k, v)| (*k, *v)))
            .collect();
        all.sort_unstable_by_key(|(name, _)| *name);
        all.into_iter()
    }

    /// Iterates all gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }
}

impl TelemetrySink for MetricsRegistry {
    /// The canonical event → metric fold: every event bumps its kind's
    /// counter (a column of the `telemetry_events!` table); the kinds
    /// below fold more than that.
    fn on_event(&mut self, event: &TelemetryEvent) {
        self.inc_sym(event.counter());
        match *event {
            TelemetryEvent::RequestCompleted {
                disposition, at, ..
            } => match disposition {
                Disposition::Ok => self.inc_sym(symbol::REQUESTS_OK),
                Disposition::HttpError => {
                    self.inc_sym(symbol::REQUESTS_HTTP_ERROR);
                    self.series.incr_sym(at, symbol::REQ_FAIL);
                }
                Disposition::NetworkError => {
                    self.inc_sym(symbol::REQUESTS_NETWORK_ERROR);
                    self.series.incr_sym(at, symbol::REQ_FAIL);
                }
            },
            TelemetryEvent::RequestKilled { cause, at, .. } => {
                self.series.incr_sym(at, symbol::KILLED);
                self.inc_sym(kill_sym(cause));
            }
            TelemetryEvent::RebootBegun { level, at, .. } => {
                self.series.incr_sym(at, symbol::REBOOTS);
                self.inc_sym(reboot_begun_sym(level));
            }
            TelemetryEvent::RebootFinished {
                level, duration, ..
            } => {
                self.observe_sym(symbol::REBOOT_MS, duration);
                self.inc_sym(reboot_finished_sym(level));
            }
            TelemetryEvent::RecoveryDecision { decision, .. } => {
                self.inc_sym(decision_sym(decision));
            }
            TelemetryEvent::ClientOp {
                started_at,
                finished_at,
                ok,
                ..
            } => {
                self.observe_sym(symbol::CLIENT_OP_MS, finished_at - started_at);
                self.observe_sketch_sym(
                    symbol::CLIENT_OP_US,
                    (finished_at - started_at).as_micros(),
                );
                if ok {
                    self.inc_sym(symbol::CLIENT_OPS_OK);
                    self.series.incr_sym(finished_at, symbol::OPS_OK);
                } else {
                    self.inc_sym(symbol::CLIENT_OPS_FAILED);
                    self.series.incr_sym(finished_at, symbol::OPS_FAIL);
                }
            }
            TelemetryEvent::TtlSweep { reaped, .. } => {
                self.add_sym(symbol::TTL_SWEEP_REAPED, u64::from(reaped));
            }
            TelemetryEvent::CampaignRunDone { violations, .. } => {
                self.add_sym(symbol::CAMPAIGN_VIOLATIONS, u64::from(violations));
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
    use crate::symbol;

    #[test]
    fn canonical_fold_counts_by_kind() {
        let mut reg = MetricsRegistry::new();
        let at = SimTime::from_secs(2);
        reg.on_event(&TelemetryEvent::RequestSubmitted {
            node: 0,
            req: 1,
            at,
        });
        reg.on_event(&TelemetryEvent::RequestCompleted {
            node: 0,
            req: 1,
            disposition: Disposition::HttpError,
            at,
        });
        reg.on_event(&TelemetryEvent::RequestKilled {
            node: 0,
            req: 2,
            cause: KillCause::Ttl,
            at,
        });
        reg.on_event(&TelemetryEvent::RebootBegun {
            node: 0,
            level: RebootLevel::Component,
            members: 1,
            at,
        });
        reg.on_event(&TelemetryEvent::RebootFinished {
            node: 0,
            level: RebootLevel::Component,
            duration: SimDuration::from_millis(120),
            at,
        });
        reg.on_event(&TelemetryEvent::TtlSweep {
            node: 0,
            pending: 3,
            reaped: 2,
            at,
        });
        assert_eq!(reg.counter("requests_submitted"), 1);
        assert_eq!(reg.counter("requests_http_error"), 1);
        assert_eq!(reg.counter("killed_ttl"), 1);
        assert_eq!(reg.counter("reboots_begun_component"), 1);
        assert_eq!(reg.counter("reboots_finished"), 1);
        assert_eq!(reg.counter("ttl_sweeps"), 1);
        assert_eq!(reg.counter("ttl_sweep_reaped"), 2);
        assert_eq!(reg.histogram("reboot_ms").unwrap().count(), 1);
        assert_eq!(reg.series().get(2, "killed"), 1.0);
        assert_eq!(reg.counter("never_written"), 0);
    }

    #[test]
    fn client_ops_feed_histogram_and_series() {
        let mut reg = MetricsRegistry::new();
        reg.on_event(&TelemetryEvent::ClientOp {
            action: 1,
            group: 0,
            started_at: SimTime::from_secs(1),
            finished_at: SimTime::from_secs(10),
            ok: false,
        });
        reg.on_event(&TelemetryEvent::ClientOp {
            action: 1,
            group: 0,
            started_at: SimTime::from_secs(1),
            finished_at: SimTime::from_millis(1200),
            ok: true,
        });
        assert_eq!(reg.counter("client_ops"), 2);
        assert_eq!(reg.counter("client_ops_ok"), 1);
        let h = reg.histogram("client_op_ms").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(
            h.buckets()[90],
            1,
            "the 9 s op lands in the 9.0–9.1 s bucket"
        );
        assert_eq!(reg.series().get(10, "ops_fail"), 1.0);
        assert_eq!(reg.series().get(1, "ops_ok"), 1.0);
    }

    #[test]
    fn gauges_and_custom_counters() {
        let mut reg = MetricsRegistry::new();
        reg.inc("my_layer_things");
        reg.add("my_layer_things", 4);
        reg.set_gauge("depth", 7.5);
        assert_eq!(reg.counter("my_layer_things"), 5);
        assert_eq!(reg.gauge("depth"), 7.5);
        record_kernel_gauges(&mut reg, 100, 3, SimTime::from_secs(50), Some(2.0));
        assert_eq!(reg.gauge("des_events_fired"), 100.0);
        assert_eq!(reg.gauge("sim_seconds_per_wall_second"), 25.0);
    }

    #[test]
    fn string_and_symbol_apis_read_the_same_cell() {
        let mut reg = MetricsRegistry::new();
        reg.inc("requests_submitted");
        reg.inc_sym(symbol::REQUESTS_SUBMITTED);
        assert_eq!(reg.counter("requests_submitted"), 2);
        assert_eq!(reg.counter_sym(symbol::REQUESTS_SUBMITTED), 2);
    }

    #[test]
    fn counters_merge_symbols_and_extras_in_name_order() {
        let mut reg = MetricsRegistry::new();
        reg.inc("zz_custom");
        reg.inc("requests_submitted");
        reg.inc("aa_custom");
        let names: Vec<&str> = reg.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["aa_custom", "requests_submitted", "zz_custom"]);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "iteration is name-ordered");
    }
}
