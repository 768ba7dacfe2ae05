//! # noc-telemetry — flit-lifecycle tracing, metrics, and exporters
//!
//! The observability substrate for the NoC simulator, in three parts:
//!
//! * [`sink`] — [`TraceSink`], the per-node event recorder: a fixed-
//!   capacity ring buffer behind an enum whose `Disabled` arm is a
//!   single branch, with an event-kind mask and 1-in-N sampling of the
//!   high-rate flit-lifecycle kinds;
//! * [`metrics`] — [`WindowSnapshot`], one row of network-level
//!   counters and gauges per measurement window;
//! * [`perfetto`] / [`heatmap`] — exporters: Chrome trace-event JSON
//!   (loads in Perfetto; circuits render as async spans) and a per-link
//!   utilization CSV.
//!
//! This crate sits at the bottom of the workspace graph: it speaks raw
//! `u32` node indices, `u8` port indices and `u64` cycles so that every
//! simulation crate can depend on it (via `noc-sim`'s re-exports)
//! without cycles or new edges.

pub mod event;
pub mod heatmap;
pub mod metrics;
pub mod perfetto;
pub mod report;
pub mod sink;

pub use event::{parse_event_mask, EventKind, TelemetryEvent, ALL_EVENTS, CATEGORIES};
pub use heatmap::link_heatmap_csv;
pub use metrics::WindowSnapshot;
pub use perfetto::chrome_trace_json;
pub use report::{TelemetryReport, DIR_NAMES, PORT_NAMES};
pub use sink::{RingSink, TelemetryConfig, TraceSink};
