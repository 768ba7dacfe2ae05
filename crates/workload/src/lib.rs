//! # noc-workload — trace-driven workloads, profiled circuits, policy DSL
//!
//! The third workload family next to the synthetic patterns
//! (`noc-traffic`) and the heterogeneous CPU/GPU mixes (`noc-hetero`),
//! in three pillars:
//!
//! * **Trace replay** ([`trace`], [`source`], [`capture`]) — the
//!   versioned `NOCTRACE1` packet-trace format (binary + JSON-lines
//!   twin), a [`TraceSource`] that replays a trace through the
//!   `Workload` seam with checkpoint-compatible `skip_ticks` semantics,
//!   and the injection-side [`TraceRecorder`], which captures a run's
//!   offered packets exactly.
//! * **Profiled hybrid switching** ([`profile`]) — rank a trace's flows
//!   by volume/persistence and emit a static `CircuitPlan` the TDM
//!   backend pre-establishes at run start, the A/B counterpart to the
//!   paper's reactive setup protocol (after He & Cao's profiled hybrid
//!   switching).
//! * **Match-action policy DSL** ([`policy`]) — declarative match/action
//!   rules compiled at scenario-build time into bitset tests on the hot
//!   injection path.

pub mod capture;
pub mod policy;
pub mod profile;
pub mod source;
pub mod trace;

pub use capture::{capture_ticks, TraceRecorder};
pub use policy::{ActionSpec, ClassMatch, CompiledPolicy, Region, RuleSpec};
pub use profile::{plan_top_flows, profile_trace, FlowStats};
pub use source::TraceSource;
pub use trace::{
    PacketTrace, TraceError, TraceRecord, CLASS_CS, CLASS_PS, PACKET_TRACE_MAGIC,
    TRACE_RECORD_BYTES,
};
