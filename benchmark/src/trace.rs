//! The traced run's instruments, all on the benchmark's side of the
//! public interface: spans around the calls into each layer, and three
//! telemetry sinks that watch the bus from outside.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use microreboot::simcore::telemetry::{RebootLevel, TelemetryEvent, TelemetrySink};
use microreboot::simcore::SimTime;

/// One timed interval: name, start, end and the span that caused it.
/// Spans of one campaign scenario share its run index.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: Option<u64>,
}

/// Collects spans in memory; [`Tracer::to_jsonl`] renders them when the
/// command ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: Option<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            // Room for every slice of the longest workload, so recording
            // a span inside a measured window never allocates.
            spans: Vec::with_capacity(1 << 15),
            open: Vec::with_capacity(8),
            run: None,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened until the matching `set_run(None)` carry `run`.
    pub fn set_run(&mut self, run: Option<u64>) {
        self.run = run;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `workload`, `id`, `name`, `start_ns`,
    /// `end_ns`, `parent` (an id or null) and `run` (a scenario index or
    /// null).
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.run),
            );
        }
        out
    }
}

/// Counts bus events and their canonical encoded bytes. Asking for the
/// encoding makes the bus encode every event even on a workload whose
/// own configuration has no digest sink; that cost is part of the
/// reported tracing overhead.
#[derive(Default)]
pub struct ByteCounter {
    pub events: u64,
    pub bytes: u64,
}

impl TelemetrySink for ByteCounter {
    fn on_event(&mut self, _event: &TelemetryEvent) {
        self.events += 1;
    }

    fn wants_encoded(&self) -> bool {
        true
    }

    fn on_encoded(&mut self, _event: &TelemetryEvent, bytes: &[u8]) {
        self.events += 1;
        self.bytes += bytes.len() as u64;
    }
}

/// The phases of the approximate wall-time decomposition.
pub const PHASES: [&str; 5] = ["submit", "service", "deliver", "recovery", "housekeeping"];

fn phase_of(event: &TelemetryEvent) -> usize {
    match event {
        TelemetryEvent::RequestSubmitted { .. }
        | TelemetryEvent::RetrySent { .. }
        | TelemetryEvent::LbFailover { .. } => 0,
        TelemetryEvent::RequestCompleted { .. } | TelemetryEvent::RequestKilled { .. } => 1,
        TelemetryEvent::ClientOp { .. }
        | TelemetryEvent::ActionClosed { .. }
        | TelemetryEvent::DetectorFired { .. } => 2,
        TelemetryEvent::RebootBegun { .. }
        | TelemetryEvent::RebootFinished { .. }
        | TelemetryEvent::RecoveryDecision { .. }
        | TelemetryEvent::RecoveryQueued { .. }
        | TelemetryEvent::RecoveryCoalesced { .. }
        | TelemetryEvent::QuarantineOn { .. }
        | TelemetryEvent::QuarantineOff { .. }
        | TelemetryEvent::StormDamped { .. }
        | TelemetryEvent::FlapEscalated { .. }
        | TelemetryEvent::WatchdogEscalated { .. }
        | TelemetryEvent::EscalationSaturated { .. }
        | TelemetryEvent::RmCrashed { .. }
        | TelemetryEvent::RmRebooted { .. }
        | TelemetryEvent::FailoverEngaged { .. } => 3,
        // Sweeps, store and network marks, and anything a later change
        // adds to the bus.
        _ => 4,
    }
}

/// Stamps a host instant on every bus event and charges the gap since
/// the previous stamp to the phase of the event that closes it. The time
/// from the last event of a slice to the slice's end is housekeeping, so
/// the five phases sum to the traced wall by construction.
pub struct PhaseClock {
    last: Instant,
    pub ns: [u64; 5],
}

impl Default for PhaseClock {
    fn default() -> Self {
        PhaseClock {
            last: Instant::now(),
            ns: [0; 5],
        }
    }
}

impl PhaseClock {
    fn charge(&mut self, phase: usize) {
        let now = Instant::now();
        self.ns[phase] += (now - self.last).as_nanos() as u64;
        self.last = now;
    }

    /// Starts a measured stretch: the gap before it belongs to nobody.
    pub fn start(&mut self) {
        self.last = Instant::now();
    }

    /// Ends a measured stretch, charging its eventless tail.
    pub fn stop(&mut self) {
        self.charge(4);
    }
}

impl TelemetrySink for PhaseClock {
    fn on_event(&mut self, event: &TelemetryEvent) {
        self.charge(phase_of(event));
    }
}

/// Follows every request id across the bus. A request a node accepted
/// must end up completed or killed, or be young enough to still be in
/// flight, with one exception the server's design makes: a coarse
/// (application, process or OS) restart empties the node's queue without
/// answering, and the queued requests' clients time out instead. Those
/// are counted as `dropped_at_restart`, not as lost.
pub struct RequestLedger {
    /// Per request id: 0 = never seen, `CLOSED`, else submit time in µs + 1.
    state: Vec<u64>,
    /// Per request id: the node that accepted it.
    node: Vec<u8>,
    /// Per node: when its latest coarse restart began, in µs + 1.
    coarse_restart: Vec<u64>,
}

const CLOSED: u64 = u64::MAX;

/// What the ledger found still open when the run ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenRequests {
    /// Submitted within the bound: legitimately in flight.
    pub young: u64,
    /// Dropped from a node's queue by a coarse restart after submission.
    pub dropped_at_restart: u64,
    /// Older than the bound and unaccounted for: a conservation failure.
    pub lost: u64,
}

impl Default for RequestLedger {
    fn default() -> Self {
        RequestLedger {
            state: vec![0; 1 << 18],
            node: vec![0; 1 << 18],
            coarse_restart: Vec::new(),
        }
    }
}

impl RequestLedger {
    fn slot(&mut self, req: u64) -> usize {
        let i = req as usize;
        if i >= self.state.len() {
            let len = (i + 1).next_power_of_two();
            self.state.resize(len, 0);
            self.node.resize(len, 0);
        }
        i
    }

    fn close(&mut self, req: u64) {
        let i = self.slot(req);
        if self.state[i] != 0 {
            self.state[i] = CLOSED;
        }
    }

    /// Classifies the requests still open at `now`.
    pub fn open_requests(&self, now: SimTime, bound_us: u64) -> OpenRequests {
        let now_us = now.as_micros();
        let mut open = OpenRequests::default();
        for (&s, &node) in self.state.iter().zip(&self.node) {
            if s == 0 || s == CLOSED {
                continue;
            }
            let restarted = self
                .coarse_restart
                .get(usize::from(node))
                .copied()
                .unwrap_or(0);
            if restarted >= s {
                open.dropped_at_restart += 1;
            } else if now_us.saturating_sub(s - 1) <= bound_us {
                open.young += 1;
            } else {
                open.lost += 1;
            }
        }
        open
    }
}

impl TelemetrySink for RequestLedger {
    fn on_event(&mut self, event: &TelemetryEvent) {
        match *event {
            TelemetryEvent::RequestSubmitted { node, req, at } => {
                let i = self.slot(req);
                if self.state[i] == 0 {
                    self.state[i] = at.as_micros() + 1;
                    self.node[i] = node as u8;
                }
            }
            // A process- or OS-level kill reports the request both killed
            // and completed; closing is idempotent.
            TelemetryEvent::RequestCompleted { req, .. }
            | TelemetryEvent::RequestKilled { req, .. }
            | TelemetryEvent::RetrySent { req, .. } => self.close(req),
            TelemetryEvent::RebootBegun {
                node, level, at, ..
            } if level != RebootLevel::Component => {
                if self.coarse_restart.len() <= node {
                    self.coarse_restart.resize(node + 1, 0);
                }
                self.coarse_restart[node] = at.as_micros() + 1;
            }
            _ => {}
        }
    }
}

/// A sink the benchmark keeps a handle to while a clone sits in the bus.
pub type Shared<T> = Rc<RefCell<T>>;

pub fn shared<T>(value: T) -> Shared<T> {
    Rc::new(RefCell::new(value))
}
