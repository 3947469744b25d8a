//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the timing substrate for the microreboot reproduction. It
//! provides:
//!
//! * [`SimTime`] and [`SimDuration`] — microsecond-resolution simulated time,
//! * [`EventQueue`] — a future-event list driving a user-supplied world type,
//! * [`SimRng`] — a seeded random source with the distributions the paper's
//!   workload needs (capped exponential think times, weighted choices),
//! * [`stats`] — summary statistics used to regenerate the paper's tables
//!   and figures, and the registry's reboot-duration accumulator,
//! * [`telemetry`] — the cross-crate structured-event bus: every layer of
//!   the stack emits [`TelemetryEvent`]s and counters are
//!   [`TelemetrySink`] implementations over them,
//! * [`metrics`] — the registry folding the event stream into canonical
//!   counters, the backing store for every layer's statistics,
//! * [`sketch`] — deterministic streaming quantile sketches
//!   (log-linear HDR-style), the latency substrate of the
//!   performance-observability plane,
//! * [`trace`] — recovery-episode assembly and the deterministic JSONL
//!   trace format the `urb trace` inspection CLI consumes,
//! * [`wire`] — the per-type byte/JSON field trait and the `code_enum!`
//!   table macro every event, fault-kind and policy schema is written in.
//!
//! Everything is single-threaded and fully deterministic: a simulation run is
//! a pure function of its seed and parameters, which is what lets the
//! experiment harness reproduce the paper's 40-minute timelines in
//! milliseconds of wall-clock time, bit-for-bit repeatably.
//!
//! # Examples
//!
//! ```
//! use simcore::{EventPayload, EventQueue, SimDuration, SimTime};
//!
//! struct World {
//!     ticks: u32,
//! }
//!
//! /// A tick that re-arms itself `more` times.
//! struct Tick {
//!     more: u32,
//! }
//!
//! impl EventPayload<World> for Tick {
//!     fn fire(self, world: &mut World, queue: &mut EventQueue<World, Tick>) {
//!         world.ticks += 1;
//!         if self.more > 0 {
//!             let next = Tick { more: self.more - 1 };
//!             queue.schedule_event_in(SimDuration::from_secs(1), "tick", next);
//!         }
//!     }
//! }
//!
//! let mut queue = EventQueue::new();
//! let mut world = World { ticks: 0 };
//! queue.schedule_event_in(SimDuration::from_secs(1), "tick", Tick { more: 1 });
//! queue.run_until(&mut world, SimTime::from_secs(10));
//! assert_eq!(world.ticks, 2);
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod metrics;
pub mod rng;
pub mod sketch;
pub mod stats;
pub mod symbol;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod wire;

pub use event::{EventId, EventPayload, EventQueue};
pub use metrics::MetricsRegistry;
pub use rng::{SimRng, WeightTable};
pub use sketch::QuantileSketch;
pub use symbol::Sym;
pub use telemetry::{
    shared_bus, DecisionKind, Disposition, KillCause, RebootLevel, SharedBus, TelemetryBus,
    TelemetryEvent, TelemetrySink, TraceHashSink,
};
pub use time::{SimDuration, SimTime};
pub use trace::{assemble_episodes, RecoveryEpisode, Trace, TraceRecorder};
