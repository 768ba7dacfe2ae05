//! The [`Fabric`] abstraction: one object-safe surface over every
//! switching backend (packet, TDM hybrid, SDM hybrid), so drivers,
//! experiment binaries and tests can be written once against
//! `&mut dyn Fabric` instead of dispatching over concrete network types.
//!
//! # Granularity and performance
//!
//! The trait boundary sits at **whole-network** granularity: one virtual
//! call per simulated cycle ([`Fabric::step`]), not one per node or per
//! flit. A 64-node cycle performs thousands of memory operations inside
//! the allocation-free kernel (`Network::step`), so a single dynamic
//! dispatch on top is unmeasurable — the zero-allocation property of the
//! kernel is untouched. This is the same seam EmuNoC-style harnesses use:
//! any router model that can inject, step and report statistics plugs
//! into the one engine.
//!
//! # Implementations
//!
//! * [`Network<N>`](crate::Network) — generic over any [`NodeModel`],
//!   which covers the packet-switched baseline (`Network<PacketNode>`) and
//!   the SDM hybrid (`Network<SdmNode>`);
//! * `TdmNetwork` (in `tdm-noc`) — forwards to its inner network but
//!   routes [`Fabric::step`] through the dynamic slot-table resize
//!   controller and exposes the resize observation hooks
//!   ([`Fabric::active_slots`], [`Fabric::resizes`]).

use noc_telemetry::{TelemetryConfig, TelemetryReport, WindowSnapshot};

use crate::flit::Packet;
use crate::geometry::NodeId;
use crate::network::Network;
use crate::node::{DeliveredPacket, NodeModel};
use crate::snapshot::{FabricSnapshot, FaultEvent, SnapshotError};
use crate::stats::{EnergyEvents, NetStats};
use crate::topology::Mesh;
use crate::Cycle;

/// One flow a profiled circuit plan wants a reserved path for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedFlow {
    pub src: NodeId,
    pub dst: NodeId,
}

/// A static circuit plan produced by a profiling pass (see
/// `noc-workload`): flows to pre-establish at run start, highest-ranked
/// first. With `pin` set the established circuits are exempt from
/// LRU/idle teardown, so the plan — not the reactive setup protocol —
/// owns the slot tables for the whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CircuitPlan {
    pub flows: Vec<PlannedFlow>,
    pub pin: bool,
}

/// An object-safe, whole-network switching backend.
///
/// Everything an experiment driver needs: inject packets, advance cycles,
/// bracket a measurement window, sample statistics/energy events, and —
/// for backends with a dynamic slot-table controller — observe resizes.
pub trait Fabric {
    /// The mesh this fabric simulates.
    fn mesh(&self) -> Mesh;

    /// Current simulation time in cycles.
    fn now(&self) -> Cycle;

    /// Queue a packet at `node`'s NIC.
    fn inject(&mut self, node: NodeId, pkt: Packet);

    /// Advance the whole network by one cycle (the single per-cycle
    /// virtual call — see the module docs).
    fn step(&mut self);

    /// Start a measurement window (resets statistics, snapshots event
    /// counters).
    fn begin_measurement(&mut self);

    /// Close the measurement window.
    fn end_measurement(&mut self);

    /// Statistics for the current/last measurement window.
    fn stats(&self) -> &NetStats;

    /// Mutable statistics access (drivers fix up `measured_cycles` to the
    /// injection window).
    fn stats_mut(&mut self) -> &mut NetStats;

    /// Energy-event sample: the sum of all node event counters since
    /// construction. Window deltas are `end_measurement`'s job.
    fn total_events(&self) -> EnergyEvents;

    /// True when no flit is buffered anywhere and no wire is in flight.
    fn is_drained(&self) -> bool;

    /// Enable/disable the delivered-packet log (per-class latency
    /// post-processing).
    fn set_collect_delivered(&mut self, on: bool);

    /// The delivered-packet log (empty unless collection is enabled).
    fn delivered_log(&self) -> &[DeliveredPacket];

    /// Clear the delivered-packet log (measurement-window bracketing).
    fn clear_delivered_log(&mut self);

    /// A no-op: nodes always step serially. Kept because the benchmark's
    /// `TimedFabric` wrapper (`benchmark/src/trace.rs`) forwards it; it
    /// goes with that wrapper (ROADMAP 2(c)).
    fn set_step_threads(&mut self, _threads: usize) {}

    /// Disable the activity scheduler: step every node every cycle
    /// regardless of the active set. Results are bit-identical either way
    /// (the sleep/wake-vs-always-step property tests pin this); the knob
    /// exists for those tests and for debugging. Default: ignored, for
    /// fabrics without an activity scheduler.
    fn set_always_step(&mut self, _on: bool) {}

    /// Arm flit-lifecycle tracing and metrics collection. Telemetry only
    /// observes: the simulated network evolves bit-identically traced or
    /// untraced. Default: ignored, for uninstrumented fabrics.
    fn configure_telemetry(&mut self, _cfg: &TelemetryConfig) {}

    /// Disarm telemetry and return the assembled report (merged events,
    /// link counters, metrics windows). `None` when never armed.
    fn telemetry_report(&mut self) -> Option<TelemetryReport> {
        None
    }

    /// Closed metrics windows recorded so far, without disarming — the
    /// cheap per-cycle poll a live-streaming harness (`noc-serve`) makes
    /// between steps. Default 0, for uninstrumented fabrics.
    fn telemetry_window_count(&self) -> usize {
        0
    }

    /// Clone the closed metrics windows from index `from` on, without
    /// disarming (empty when telemetry is unarmed). Label the value
    /// columns with [`Fabric::telemetry_metric_names`].
    fn telemetry_windows_from(&self, _from: usize) -> Vec<WindowSnapshot> {
        Vec::new()
    }

    /// The metrics-window column names (empty when telemetry is
    /// unarmed).
    fn telemetry_metric_names(&self) -> Vec<String> {
        Vec::new()
    }

    /// Resize hook: the network-wide active slot-table size, for backends
    /// with TDM slot tables; `None` otherwise.
    fn active_slots(&self) -> Option<u16> {
        None
    }

    /// Resize hook: completed dynamic slot-table resizes.
    fn resizes(&self) -> u32 {
        0
    }

    /// Advance until `now() == target`, one [`Fabric::step`] per cycle. No
    /// backend overrides it and the engine never calls it; it stays
    /// because the benchmark's `TimedFabric` wrapper forwards it (its
    /// default loop calls the wrapped fabric's `step`, so the wrapper
    /// times it as one `run_until` call) and goes with that wrapper
    /// (ROADMAP 2(c)).
    fn run_until(&mut self, target: Cycle) {
        while self.now() < target {
            self.step();
        }
    }

    /// Step until drained or `max_cycles` elapse; returns whether the
    /// fabric drained.
    fn drain(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_drained() {
                return true;
            }
            self.step();
        }
        self.is_drained()
    }

    /// Serialise the fabric's full mutable state into a versioned snapshot
    /// (see DESIGN.md §14). Fails while telemetry is armed. Default:
    /// unsupported, for fabrics without a snapshot seam.
    fn checkpoint(&self) -> Result<FabricSnapshot, SnapshotError> {
        Err(SnapshotError::Unsupported(
            "fabric does not implement checkpoints",
        ))
    }

    /// Restore state captured by [`Fabric::checkpoint`] on a fabric built
    /// from the *same* configuration. The restored fabric continues
    /// bit-identically to the one that was checkpointed.
    fn restore(&mut self, _snap: &FabricSnapshot) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported(
            "fabric does not implement checkpoints",
        ))
    }

    /// Arm a link-fault schedule (kills and revives applied at their exact
    /// cycles; see `Network::set_faults`). Default: unsupported.
    fn set_faults(&mut self, _timeline: Vec<FaultEvent>) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported(
            "fabric does not implement fault injection",
        ))
    }

    /// Pre-establish a profiled [`CircuitPlan`] before traffic starts:
    /// issue setups for every planned flow and step the fabric until the
    /// handshakes settle. Returns the number of circuits actually
    /// established (slot contention can reject some). Default:
    /// unsupported, for backends without reservable circuits.
    fn install_circuit_plan(&mut self, _plan: &CircuitPlan) -> Result<u32, SnapshotError> {
        Err(SnapshotError::Unsupported(
            "fabric does not implement circuit plans",
        ))
    }

    /// Live allocations in the fabric's flit arena — a leak diagnostic:
    /// after a full drain this must be zero even when faults dropped
    /// flits mid-flight. Default 0 for fabrics without an arena.
    fn arena_live(&self) -> usize {
        0
    }
}

impl<N: NodeModel> Fabric for Network<N> {
    fn mesh(&self) -> Mesh {
        self.mesh
    }

    fn now(&self) -> Cycle {
        Network::now(self)
    }

    fn inject(&mut self, node: NodeId, pkt: Packet) {
        Network::inject(self, node, pkt);
    }

    fn step(&mut self) {
        Network::step(self);
    }

    fn begin_measurement(&mut self) {
        Network::begin_measurement(self);
    }

    fn end_measurement(&mut self) {
        Network::end_measurement(self);
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    fn total_events(&self) -> EnergyEvents {
        Network::total_events(self)
    }

    fn is_drained(&self) -> bool {
        Network::is_drained(self)
    }

    fn set_collect_delivered(&mut self, on: bool) {
        self.collect_delivered = on;
    }

    fn delivered_log(&self) -> &[DeliveredPacket] {
        &self.delivered_log
    }

    fn clear_delivered_log(&mut self) {
        self.delivered_log.clear();
    }

    fn set_always_step(&mut self, on: bool) {
        Network::set_always_step(self, on);
    }

    fn configure_telemetry(&mut self, cfg: &TelemetryConfig) {
        Network::configure_telemetry(self, cfg);
    }

    fn telemetry_report(&mut self) -> Option<TelemetryReport> {
        Network::take_telemetry(self)
    }

    fn telemetry_window_count(&self) -> usize {
        Network::telemetry_window_count(self)
    }

    fn telemetry_windows_from(&self, from: usize) -> Vec<WindowSnapshot> {
        Network::telemetry_windows_from(self, from)
    }

    fn telemetry_metric_names(&self) -> Vec<String> {
        Network::telemetry_metric_names(self)
    }

    fn checkpoint(&self) -> Result<FabricSnapshot, SnapshotError> {
        Network::checkpoint(self)
    }

    fn restore(&mut self, snap: &FabricSnapshot) -> Result<(), SnapshotError> {
        Network::restore(self, snap)
    }

    fn set_faults(&mut self, timeline: Vec<FaultEvent>) -> Result<(), SnapshotError> {
        Network::set_faults(self, timeline);
        Ok(())
    }

    fn arena_live(&self) -> usize {
        self.arena().live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::flit::PacketId;
    use crate::node::PacketNode;

    fn boxed(k: u16) -> Box<dyn Fabric> {
        let cfg = NetworkConfig::with_mesh(Mesh::square(k));
        Box::new(Network::new(cfg.mesh, move |id| {
            PacketNode::new(id, &cfg, None)
        }))
    }

    #[test]
    fn packet_network_drives_through_dyn_fabric() {
        let mut f = boxed(3);
        let mesh = f.mesh();
        let (src, dst) = (NodeId(0), NodeId(8));
        assert_eq!(mesh.len(), 9);
        f.begin_measurement();
        f.inject(src, Packet::data(PacketId(1), src, dst, 5, f.now()));
        assert!(f.drain(500), "packet must be delivered via dyn Fabric");
        f.end_measurement();
        assert_eq!(f.stats().packets_delivered, 1);
        assert!(f.total_events().buffer_writes > 0);
        assert_eq!(f.active_slots(), None, "packet fabric has no slot tables");
        assert_eq!(f.resizes(), 0);
    }

    #[test]
    fn delivered_log_controls_work_through_dyn_fabric() {
        let mut f = boxed(3);
        f.set_collect_delivered(true);
        f.begin_measurement();
        let (src, dst) = (NodeId(0), NodeId(4));
        f.inject(src, Packet::data(PacketId(2), src, dst, 5, f.now()));
        assert!(f.drain(500));
        assert_eq!(f.delivered_log().len(), 1);
        f.clear_delivered_log();
        assert!(f.delivered_log().is_empty());
    }
}
