//! # noc-sim — cycle-level 2D-mesh NoC simulation kernel
//!
//! This crate provides the substrate on which the paper's hybrid-switched
//! networks are built:
//!
//! * [`geometry`] — mesh topology, node coordinates, ports and directions;
//! * [`flit`] — packets, flits, message classes and the path-configuration
//!   vocabulary (`setup`/`teardown`/`ack`) shared by the TDM and SDM routers;
//! * [`router`] — a canonical virtual-channel wormhole router
//!   ([`router::PacketRouter`]) with a 4-stage pipeline (BW/RC, VA, SA+ST, LT),
//!   credit-based flow control, round-robin separable allocators, X-Y routing
//!   for data and minimal-adaptive routing for configuration packets;
//! * [`nic`] — network interfaces (injection queues, ejection/reassembly);
//! * [`node`] — the [`node::NodeModel`] trait that lets alternative node
//!   implementations (TDM hybrid, SDM hybrid) plug into the same harness;
//! * [`network`] — the cycle-driven harness wiring nodes with 1-cycle links
//!   and integrating leakage state;
//! * [`fabric`] — the object-safe [`fabric::Fabric`] trait that presents
//!   every switching backend (packet, TDM, SDM) to drivers as one
//!   whole-network surface (one virtual call per cycle);
//! * [`stats`] — latency/throughput statistics and the energy event counters
//!   consumed by the `noc-power` model.
//!
//! The kernel is deterministic: given the same injected packets the
//! simulation produces identical results, which the property tests rely on.

pub mod arbiter;
pub mod arena;
pub mod config;
pub mod dense;
pub mod fabric;
pub mod flit;
pub mod geometry;
pub mod network;
pub mod nic;
pub mod node;
pub mod rings;
pub mod router;
pub mod routing;
pub mod snapshot;
pub mod stats;
pub mod topology;

// The telemetry substrate (re-exported so downstream crates need no
// direct `noc-telemetry` edge for the common types).
pub use noc_telemetry as telemetry;
pub use noc_telemetry::{
    EventKind, RingSink, TelemetryConfig, TelemetryEvent, TelemetryReport, TraceSink,
    WindowSnapshot,
};

pub use arena::{ConfigArena, ConfigRef};
pub use config::{NetworkConfig, RouterConfig};
pub use dense::{BitSet, NodeTable, RxTable};
pub use fabric::{CircuitPlan, Fabric, PlannedFlow};
pub use flit::{
    ConfigKind, Credit, Flit, FlitKind, MsgClass, Packet, PacketId, SetupInfo, Switching,
};
pub use geometry::{Coord, Direction, NodeId, Port};
pub use network::{NetTelemetry, Network};
pub use nic::Nic;
pub use node::{DeliveredPacket, NodeModel, NodeOutputs, PacketNode, PowerState};
pub use router::{
    GatingConfig, GatingMetric, HybridCtrl, NullCtrl, OutMeta, PacketRouter, PsOutput, PsPipeline,
    VcGatingController, VcState,
};
pub use snapshot::{
    FabricSnapshot, FaultEvent, RouteOverrides, Snap, SnapshotError, SnapshotReader,
    SnapshotWriter, SNAPSHOT_VERSION,
};
pub use stats::{EnergyEvents, LatencyHistogram, LeakageIntegrals, NetStats};
pub use topology::{Mesh, TopoTables, Topology, TopologyKind, NO_NEIGHBOR};

/// Simulation time, in router clock cycles.
pub type Cycle = u64;
