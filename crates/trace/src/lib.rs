//! # sw-trace — deterministic tracing, metrics & profiling
//!
//! The observability pillar of the workspace: every backend (threaded
//! ranks, socket ranks, the cycle/event simulators, the Graph500
//! driver) reports *where the time goes* through one span/counter API
//! with one export path, instead of ad-hoc stat structs per crate.
//!
//! Three pieces:
//!
//! * **Clock domains** ([`ClockDomain`]) — spans are timestamped either
//!   by the wall clock (profiling real runs) or by a *virtual* clock
//!   (deterministic work units, simulator cycles, or event-sim model
//!   nanoseconds). Virtual-domain traces are pure functions of the
//!   input, so a fixed-seed run produces a byte-identical trace — the
//!   trace itself becomes an assertable artifact.
//! * **Lock-free recording** ([`Tracer`]) — one bounded ring per lane
//!   (lane ≙ rank, plus one `run` lane for cluster-wide phases).
//!   Writers claim a slot with one `fetch_add` and never block; on
//!   overflow the event is counted in `dropped_events` and discarded.
//!   At run end the lanes merge into a [`TraceReport`].
//! * **Exporters** ([`TraceReport`]) — the report's own JSON, Chrome
//!   `trace_event` JSON (open in `chrome://tracing` / Perfetto; one
//!   lane per rank), and a flat metrics snapshot (JSON object, stable
//!   key order).
//!
//! Counters live in a [`Registry`] of atomic cells or in plain
//! [`CounterSet`] maps; both merge deterministically (`max_*`-named
//! keys merge by maximum, everything else by sum), which is what lets
//! two execution backends assert *identical counter sets* on identical
//! traffic.
//!
//! No dependencies and no `serde`: all JSON in and out of this crate is
//! hand-rolled and deterministic.

pub mod analyze;
pub mod json;
pub mod live;
pub mod metrics;
pub mod report;
pub mod ring;
pub mod tracer;

pub use analyze::{analyze, InsightReport, MachineContext};
pub use json::check_syntax;
pub use live::{HistogramSnapshot, LatencyHistogram, LivePlane, RollingCounter};
pub use metrics::{is_max_key, Counter, CounterSet, Gauge, Registry};
pub use report::{LaneReport, TraceReport};
pub use ring::EventRing;
pub use tracer::{ClockDomain, EventKind, TraceEvent, Tracer, NO_LEVEL};
