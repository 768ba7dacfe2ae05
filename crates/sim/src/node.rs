//! The node abstraction: one tile = NIC + router, pluggable into the
//! [`crate::network::Network`] harness.

use noc_telemetry::{EventKind, RingSink, TraceSink};

use crate::config::NetworkConfig;
use crate::flit::{Credit, Flit, Packet, PacketId, Switching};
use crate::geometry::{Direction, NodeId, Port};
use crate::nic::Nic;
use crate::router::{GatingConfig, PacketRouter, VcGatingController};
use crate::snapshot::{RouteOverrides, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::EnergyEvents;
use crate::Cycle;

/// Everything a node emits in one cycle, collected by the harness and
/// delivered to neighbours with wire latency (flits: 2 cycles — switch then
/// link; credits and VC-count advertisements: 1 cycle).
#[derive(Debug, Default)]
pub struct NodeOutputs {
    pub flits: Vec<(Direction, Flit)>,
    pub credits: Vec<(Direction, Credit)>,
    /// Active-VC-count advertisements (VC power gating).
    pub vc_counts: Vec<(Direction, u8)>,
}

impl NodeOutputs {
    pub fn clear(&mut self) {
        self.flits.clear();
        self.credits.clear();
        self.vc_counts.clear();
    }

    /// Nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.flits.is_empty() && self.credits.is_empty() && self.vc_counts.is_empty()
    }
}

/// Per-cycle powered-component snapshot, integrated by the harness into
/// leakage state (see `noc-power`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PowerState {
    /// Powered-on input-buffer flit slots.
    pub buffer_slots: u32,
    /// Powered-on slot-table entries (hybrid routers).
    pub slot_entries: u32,
    /// Powered-on DLT entries (hitchhiker-sharing).
    pub dlt_entries: u32,
}

/// Summary of a data packet that completed delivery. Configuration
/// packets never complete at a NIC: the routers and hybrid nodes consume
/// them on arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveredPacket {
    pub id: PacketId,
    pub src: NodeId,
    pub dst: NodeId,
    /// How the packet actually traversed the network.
    pub switching: Switching,
    pub len_flits: u8,
    pub created: Cycle,
    pub delivered: Cycle,
    pub measured: bool,
}

crate::impl_snap!(DeliveredPacket {
    id,
    src,
    dst,
    switching,
    len_flits,
    created,
    delivered,
    measured
});

/// A tile model pluggable into the network harness. Implemented by
/// [`PacketNode`] here, the TDM hybrid node in `tdm-noc`, and the SDM node
/// in `noc-sdm`.
pub trait NodeModel {
    fn id(&self) -> NodeId;
    /// Queue a packet at this node's NIC.
    fn inject(&mut self, now: Cycle, pkt: Packet);
    /// A flit arrives from the neighbour in `from` (i.e. on input port
    /// `from.as_port()`).
    fn accept_flit(&mut self, now: Cycle, from: Direction, flit: Flit);
    fn accept_credit(&mut self, now: Cycle, from: Direction, credit: Credit);
    fn accept_vc_count(&mut self, _now: Cycle, _from: Direction, _count: u8) {}
    /// Advance one cycle.
    fn step(&mut self, now: Cycle, out: &mut NodeOutputs);
    /// Hand over packets that finished delivery.
    fn drain_delivered(&mut self, sink: &mut Vec<DeliveredPacket>);
    /// Cumulative event counters.
    fn events(&self) -> EnergyEvents;
    /// Flits currently owned by the node (drain detection).
    fn occupancy(&self) -> usize;
    /// Current powered components (leakage integration).
    fn power_state(&self) -> PowerState;

    /// Activity hint consulted by the harness after each stepped cycle
    /// (`now` = the cycle just executed).
    ///
    /// - `None`: the node has work; keep stepping it every cycle.
    /// - `Some(t)` with `t > now`: the node is quiescent — every future
    ///   `step` would be a state-identical no-op until an external signal
    ///   (flit/credit/VC-count delivery, injection) arrives or cycle `t` is
    ///   reached, whichever comes first. `Cycle::MAX` means "no internal
    ///   deadline at all".
    ///
    /// The default keeps the node always active, so custom node models are
    /// unaffected by the activity scheduler. Implementations must be
    /// conservative: claiming quiescence while holding deferred work breaks
    /// the sleep/wake-vs-always-step bit-identity contract.
    fn sleep_until(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    /// Install a telemetry sink (the harness builds one per node when a
    /// trace is armed). The default drops it, so uninstrumented node
    /// models keep compiling and simply record nothing.
    fn set_trace_sink(&mut self, _sink: TraceSink) {}

    /// Surrender the node's recorded telemetry ring, leaving the sink
    /// disabled. `None` for uninstrumented models or untraced runs.
    fn take_trace(&mut self) -> Option<Box<RingSink>> {
        None
    }

    /// Serialise every bit of mutable node state into `w` (the snapshot
    /// seam, see `DESIGN.md` §14). Models that do not opt in return
    /// [`SnapshotError::Unsupported`], which the harness surfaces as a
    /// checkpoint failure rather than silently writing a partial snapshot.
    fn save_state(&self, _w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported(
            "node model does not implement snapshots",
        ))
    }

    /// Inverse of [`NodeModel::save_state`], applied to a freshly
    /// constructed node of the same configuration.
    fn load_state(&mut self, _r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported(
            "node model does not implement snapshots",
        ))
    }

    /// Install (or clear) the fault-reroute table. While overrides are
    /// installed, the routing unit must consult them before its normal
    /// route computation so packet-switched traffic detours around dead
    /// links. The default ignores them: models without rerouting support
    /// simply keep routing minimally (the scenario layer refuses fault
    /// schedules on such backends).
    fn set_route_overrides(&mut self, _overrides: Option<std::sync::Arc<RouteOverrides>>) {}

    /// Purge all state belonging to packet `pid` after the network dropped
    /// one of its flits on a faulted link: queued flits, per-VC buffer
    /// occupancy, partial reassembly. Buffer slots freed at inter-router
    /// input ports are refunded by pushing credits into `credits` (the
    /// harness delivers them upstream over the credit wires). Returns the
    /// number of flits discarded at this node so the harness can keep its
    /// occupancy cache and drop accounting exact. The default (no state to
    /// purge) suits stateless test probes.
    fn abort_packet(&mut self, _pid: PacketId, _credits: &mut Vec<(Direction, Credit)>) -> usize {
        0
    }
}

/// The baseline tile: canonical packet-switched router + NIC, with optional
/// VC power gating (the paper's packet+gating comparison point in §V-B4).
pub struct PacketNode {
    nic: Nic,
    pub router: PacketRouter,
    gating: Option<VcGatingController>,
}

impl PacketNode {
    pub fn new(id: NodeId, cfg: &NetworkConfig, gating: Option<GatingConfig>) -> Self {
        let mut nic = Nic::new(id, &cfg.router);
        if cfg.mesh.is_torus() {
            assert!(
                gating.is_none(),
                "VC gating is incompatible with torus dateline classes"
            );
            nic.set_inject_vc_limit(cfg.router.vcs_per_port / 2);
        }
        PacketNode {
            nic,
            router: PacketRouter::new(id, cfg.mesh, cfg.router),
            gating: gating.map(VcGatingController::new),
        }
    }

    pub fn nic(&self) -> &Nic {
        &self.nic
    }
}

impl NodeModel for PacketNode {
    fn id(&self) -> NodeId {
        self.nic.id()
    }

    fn inject(&mut self, _now: Cycle, pkt: Packet) {
        self.nic.enqueue(pkt);
    }

    fn accept_flit(&mut self, now: Cycle, from: Direction, flit: Flit) {
        self.router.accept_flit(now, from.as_port(), flit);
    }

    fn accept_credit(&mut self, _now: Cycle, from: Direction, credit: Credit) {
        self.router.accept_credit(from, credit);
    }

    fn accept_vc_count(&mut self, _now: Cycle, from: Direction, count: u8) {
        self.router.pipeline.accept_vc_count(from, count);
    }

    fn step(&mut self, now: Cycle, out: &mut NodeOutputs) {
        // Credits freed by the router's local port last cycle.
        for vc in self.router.pipeline.local_credits.drain(..) {
            self.nic.credit(vc);
        }
        // Inject at most one flit per cycle into the local port.
        if let Some(f) = self.nic.next_flit(self.router.pipeline.active_vcs()) {
            self.router.accept_flit(now, Port::Local, f);
        }
        self.router.step(now, out);
        for f in self.router.pipeline.ejected.drain(..) {
            self.nic.accept_ejected(now, f);
        }
        if let Some(g) = &mut self.gating {
            if let Some(n) = g.on_cycle(now, &mut self.router.pipeline) {
                let id = self.nic.id().0;
                self.router.pipeline.trace.record(
                    now,
                    id,
                    EventKind::GatingTransition,
                    Port::Local.index() as u8,
                    n as u64,
                );
                for d in Direction::ALL {
                    if self.router.pipeline.out_exists(d.as_port()) {
                        out.vc_counts.push((d, n));
                    }
                }
            }
        }
    }

    fn drain_delivered(&mut self, sink: &mut Vec<DeliveredPacket>) {
        let start = sink.len();
        self.nic.drain_delivered(sink);
        if let Some(g) = &mut self.gating {
            // Feed the latency-based gating metric (§V-B4).
            for d in &sink[start..] {
                g.record_latency(d.delivered.saturating_sub(d.created));
            }
        }
    }

    fn events(&self) -> EnergyEvents {
        self.router.pipeline.events
    }

    fn occupancy(&self) -> usize {
        self.router.pipeline.occupancy() + self.nic.occupancy()
    }

    fn power_state(&self) -> PowerState {
        PowerState {
            buffer_slots: self.router.pipeline.powered_buffer_slots(),
            slot_entries: 0,
            dlt_entries: 0,
        }
    }

    fn sleep_until(&self, _now: Cycle) -> Option<Cycle> {
        // Flits anywhere in the tile, or credits owed to the NIC next
        // cycle, mean the next step does real work. A VC stalled mid-packet
        // with an empty FIFO is fine to sleep through: the missing flits
        // are upstream and their arrival wakes this node.
        if self.occupancy() != 0 || !self.router.pipeline.local_credits.is_empty() {
            return None;
        }
        match &self.gating {
            // The gating controller evaluates (and may advertise a new VC
            // count) at epoch boundaries even on an idle node.
            Some(g) => Some(g.next_eval()),
            None => Some(Cycle::MAX),
        }
    }

    fn set_trace_sink(&mut self, sink: TraceSink) {
        self.router.pipeline.trace = sink;
    }

    fn take_trace(&mut self) -> Option<Box<RingSink>> {
        self.router.pipeline.trace.take()
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.nic.save_state(w);
        self.router.pipeline.save_state(w);
        if let Some(g) = &self.gating {
            g.save_state(w);
        }
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.nic.load_state(r)?;
        self.router.pipeline.load_state(r)?;
        if let Some(g) = &mut self.gating {
            g.load_state(r)?;
        }
        Ok(())
    }

    fn set_route_overrides(&mut self, overrides: Option<std::sync::Arc<RouteOverrides>>) {
        self.router.pipeline.set_route_overrides(overrides);
    }

    fn abort_packet(&mut self, pid: PacketId, credits: &mut Vec<(Direction, Credit)>) -> usize {
        self.nic.abort_packet(pid) + self.router.pipeline.purge_packet(pid, credits)
    }
}
