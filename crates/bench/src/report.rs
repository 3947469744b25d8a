//! Plain-text table formatting for experiment reports, plus a
//! [`TelemetrySummary`] sink — a thin view over a
//! [`simcore::metrics::MetricsRegistry`] — that folds the cross-crate
//! telemetry stream into per-kind counters for the experiment printouts,
//! and a [`JsonReport`] writer that emits machine-readable
//! `BENCH_<exp>.json` files next to the text tables.

use simcore::telemetry::{RebootLevel, TelemetryEvent, TelemetrySink};
use simcore::{symbol, MetricsRegistry};

/// Reboot depths in the order the report tables print them.
pub(crate) const REBOOT_LEVELS: [RebootLevel; 4] = [
    RebootLevel::Component,
    RebootLevel::Application,
    RebootLevel::Process,
    RebootLevel::OperatingSystem,
];

/// A simple aligned-column table printer.
///
/// # Examples
///
/// ```
/// use bench::Table;
///
/// let mut t = Table::new(&["component", "paper (ms)", "measured (ms)"]);
/// t.row(&["ViewItem", "446", "449.2"]);
/// let out = t.render();
/// assert!(out.contains("ViewItem"));
/// ```
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch — a bug in the experiment code.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Folds the telemetry stream into per-kind counters.
///
/// Attach one (behind `Rc<RefCell<..>>`) to a [`simcore::telemetry::TelemetryBus`]
/// to get an experiment-wide view of what every layer emitted — requests,
/// kills, reboots by level, detector fires and recovery decisions — without
/// reaching into any component's private stats. Since the registry refactor
/// this is a *view* over the canonical [`MetricsRegistry`] fold: the sink
/// delegates to the registry and the accessors are named-counter reads.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySummary {
    registry: MetricsRegistry,
}

impl TelemetrySummary {
    /// The backing registry (histograms, gauges and series included).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Requests submitted across all nodes.
    pub fn submitted(&self) -> u64 {
        self.registry.counter_sym(symbol::REQUESTS_SUBMITTED)
    }

    /// Requests completed (any disposition).
    pub fn completed(&self) -> u64 {
        self.registry.counter_sym(symbol::REQUESTS_COMPLETED)
    }

    /// Transparent retries sent (Retry-After).
    pub fn retries(&self) -> u64 {
        self.registry.counter_sym(symbol::RETRIES_SENT)
    }

    /// Requests killed by any reboot or TTL purge.
    pub fn killed(&self) -> u64 {
        self.registry.counter_sym(symbol::REQUESTS_KILLED)
    }

    /// Reboots begun, indexed by [`simcore::telemetry::RebootLevel`] depth
    /// (component, application, process, OS).
    pub fn reboots_begun(&self) -> [u64; 4] {
        REBOOT_LEVELS.map(|l| {
            self.registry
                .counter_sym(simcore::metrics::reboot_begun_sym(l))
        })
    }

    /// Reboots finished, same indexing.
    pub fn reboots_finished(&self) -> [u64; 4] {
        REBOOT_LEVELS.map(|l| {
            self.registry
                .counter_sym(simcore::metrics::reboot_finished_sym(l))
        })
    }

    /// End-to-end failure reports that reached the recovery manager.
    pub fn detector_fires(&self) -> u64 {
        self.registry.counter_sym(symbol::DETECTOR_FIRES)
    }

    /// Recovery decisions taken by the manager.
    pub fn decisions(&self) -> u64 {
        self.registry.counter_sym(symbol::RECOVERY_DECISIONS)
    }

    /// Appends the summary's rows to a two-column table.
    pub fn rows(&self, table: &mut Table) {
        let reg = &self.registry;
        let count = |name: &str| reg.counter(name).to_string();
        table.row_owned(vec![
            "requests submitted".into(),
            count("requests_submitted"),
        ]);
        table.row_owned(vec![
            "requests completed".into(),
            count("requests_completed"),
        ]);
        table.row_owned(vec!["retries sent".into(), count("retries_sent")]);
        table.row_owned(vec!["requests killed".into(), count("requests_killed")]);
        let begun = self.reboots_begun();
        let finished = self.reboots_finished();
        for (i, label) in [
            "microreboots",
            "app restarts",
            "process restarts",
            "OS reboots",
        ]
        .iter()
        .enumerate()
        {
            table.row_owned(vec![
                (*label).into(),
                format!("{} begun / {} finished", begun[i], finished[i]),
            ]);
        }
        table.row_owned(vec!["detector reports".into(), count("detector_fires")]);
        table.row_owned(vec![
            "recovery decisions".into(),
            count("recovery_decisions"),
        ]);
        table.row_owned(vec![
            "rejuvenation ticks".into(),
            count("rejuvenation_ticks"),
        ]);
        table.row_owned(vec!["client ops".into(), count("client_ops")]);
        table.row_owned(vec!["actions closed".into(), count("actions_closed")]);
        table.row_owned(vec!["recoveries queued".into(), count("recoveries_queued")]);
        table.row_owned(vec![
            "recoveries coalesced".into(),
            count("recoveries_coalesced"),
        ]);
        table.row_owned(vec!["quarantines".into(), count("quarantine_on")]);
        table.row_owned(vec!["LB failovers".into(), count("lb_failovers")]);
        table.row_owned(vec!["TTL sweeps".into(), count("ttl_sweeps")]);
    }

    /// Prints the summary as a titled table.
    pub fn print(&self, title: &str) {
        println!("\n{title}");
        let mut t = Table::new(&["telemetry", "count"]);
        self.rows(&mut t);
        t.print();
    }
}

impl TelemetrySink for TelemetrySummary {
    fn on_event(&mut self, event: &TelemetryEvent) {
        self.registry.on_event(event);
    }
}

/// A machine-readable experiment report: flat key → value JSON written to
/// `target/BENCH_<exp>.json` next to the text tables, so the perf
/// trajectory accumulates across runs. Values are numbers or strings; the
/// trace digest slots in as a hex string (`"digest": "a1b2..."`).
///
/// # Examples
///
/// ```no_run
/// use bench::report::JsonReport;
///
/// let mut r = JsonReport::new("fig1");
/// r.metric("failed_requests", 233);
/// r.metric_f64("downtime_ms", 812.5);
/// r.digest(0xdead_beef);
/// r.write().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct JsonReport {
    exp: String,
    entries: Vec<(String, String)>,
}

impl JsonReport {
    /// Starts a report for experiment `exp` (the `BENCH_<exp>.json` stem).
    pub fn new(exp: &str) -> Self {
        JsonReport {
            exp: exp.to_string(),
            entries: Vec::new(),
        }
    }

    /// Records an integer metric.
    pub fn metric(&mut self, key: &str, value: u64) {
        self.entries.push((key.to_string(), value.to_string()));
    }

    /// Records a float metric.
    pub fn metric_f64(&mut self, key: &str, value: f64) {
        self.entries.push((key.to_string(), format!("{value:.3}")));
    }

    /// Records a string value (JSON-escaped minimally: quotes/backslashes).
    pub fn text(&mut self, key: &str, value: &str) {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.entries
            .push((key.to_string(), format!("\"{escaped}\"")));
    }

    /// Records the run's FNV trace digest as hex.
    pub fn digest(&mut self, digest: u64) {
        self.entries
            .push(("digest".to_string(), format!("\"{digest:016x}\"")));
    }

    /// Copies every counter of a [`TelemetrySummary`]'s registry under a
    /// `telemetry.` prefix.
    pub fn telemetry(&mut self, summary: &TelemetrySummary) {
        for (name, value) in summary.registry().counters() {
            self.entries
                .push((format!("telemetry.{name}"), value.to_string()));
        }
    }

    /// Renders the report as a JSON object.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"experiment\": \"{}\"", self.exp));
        for (k, v) in &self.entries {
            out.push_str(&format!(",\n  \"{k}\": {v}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes `target/BENCH_<exp>.json`; returns the path written.
    pub fn write(&self) -> std::io::Result<String> {
        let path = format!("target/BENCH_{}.json", self.exp);
        std::fs::create_dir_all("target")?;
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

/// Prints an experiment banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Formats a ratio as "Nx".
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".to_string()
    } else {
        format!("{:.1}x", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["xxxxxx", "1"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     "));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(10.0, 2.0), "5.0x");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }
}
