//! Plain-text table formatting for experiment reports, the telemetry
//! table an experiment prints from a [`MetricsRegistry`] it kept on the
//! bus, and a [`JsonReport`] writer that emits machine-readable
//! `BENCH_<exp>.json` files next to the text tables.

use simcore::metrics::{reboot_begun_sym, reboot_finished_sym};
use simcore::telemetry::RebootLevel;
use simcore::MetricsRegistry;

/// A simple aligned-column table printer.
///
/// # Examples
///
/// ```
/// use bench::report::Table;
///
/// let mut t = Table::new(&["component", "paper (ms)", "measured (ms)"]);
/// t.row_owned(vec!["ViewItem".into(), "446".into(), "449.2".into()]);
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

/// Prints what a run's registry counted, as a titled two-column table.
pub(crate) fn print_telemetry(reg: &MetricsRegistry, title: &str) {
    let count = |counter: &str| reg.counter(counter).to_string();
    let reboots = |level: RebootLevel| {
        let begun = reg.counter_sym(reboot_begun_sym(level));
        let finished = reg.counter_sym(reboot_finished_sym(level));
        format!("{begun} begun / {finished} finished")
    };
    let rows = [
        ("requests submitted", count("requests_submitted")),
        ("requests completed", count("requests_completed")),
        ("retries sent", count("retries_sent")),
        ("requests killed", count("requests_killed")),
        ("microreboots", reboots(RebootLevel::Component)),
        ("app restarts", reboots(RebootLevel::Application)),
        ("process restarts", reboots(RebootLevel::Process)),
        ("OS reboots", reboots(RebootLevel::OperatingSystem)),
        ("detector reports", count("detector_fires")),
        ("recovery decisions", count("recovery_decisions")),
        ("rejuvenation ticks", count("rejuvenation_ticks")),
        ("client ops", count("client_ops")),
        ("actions closed", count("actions_closed")),
        ("recoveries queued", count("recoveries_queued")),
        ("recoveries coalesced", count("recoveries_coalesced")),
        ("quarantines", count("quarantine_on")),
        ("LB failovers", count("lb_failovers")),
        ("TTL sweeps", count("ttl_sweeps")),
    ];
    println!("\n{title}");
    let mut t = Table::new(&["telemetry", "count"]);
    for (label, value) in rows {
        t.row_owned(vec![label.into(), value]);
    }
    t.print();
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

    /// Copies every counter `reg` lists under a `telemetry.` prefix.
    pub(crate) fn telemetry(&mut self, reg: &MetricsRegistry) {
        for (name, value) in reg.counters() {
            self.entries
                .push((format!("telemetry.{name}"), value.to_string()));
        }
    }

    /// Writes the report as a JSON object to `target/BENCH_<exp>.json`;
    /// returns the path written.
    pub fn write(&self) -> Result<String, String> {
        let mut out = format!("{{\n  \"experiment\": \"{}\"", self.exp);
        for (k, v) in &self.entries {
            out.push_str(&format!(",\n  \"{k}\": {v}"));
        }
        out.push_str("\n}\n");
        write_target(&format!("BENCH_{}.json", self.exp), &out)
    }
}

/// Writes `contents` to `target/<name>` under the working directory,
/// creating `target/` first; returns the path written, or why it could
/// not be written.
pub(crate) fn write_target(name: &str, contents: &str) -> Result<String, String> {
    let path = format!("target/{name}");
    std::fs::create_dir_all("target")
        .and_then(|()| std::fs::write(&path, contents))
        .map(|()| path.clone())
        .map_err(|e| format!("could not write {path}: {e}"))
}

/// Prints an experiment banner.
pub(crate) fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Formats a ratio as "Nx".
pub(crate) fn ratio(a: f64, b: f64) -> String {
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
        t.row_owned(vec!["xxxxxx".into(), "1".into()]);
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
        t.row_owned(vec!["only-one".into()]);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(10.0, 2.0), "5.0x");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }
}
