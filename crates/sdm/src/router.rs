//! The SDM hybrid router: the shared VC wormhole pipeline ([`PsPipeline`])
//! with links partitioned into planes.
//!
//! Packet-switched flits bind their packet to one plane per output link and
//! occupy it for `P` cycles per flit (the phit-serialisation of a
//! width-partitioned link), so at most `P` packets share a link and flits
//! of one packet are spaced `P` cycles apart. The planes sit on the output
//! side of the pipeline: an input VC whose packet finds no usable plane is
//! withheld from switch allocation ([`HybridCtrl::ps_blocked_vcs`]), and
//! every flit the pipeline sends binds and occupies its plane. Each output
//! grants at most once per cycle, so the plane found at the bid is still
//! the flit's plane when it leaves. Circuit-switched flits follow a
//! per-plane reservation (`circuits[in_port][plane] → out_port`) and bypass
//! buffering entirely. Plane 0 is never circuit-reserved, keeping the
//! packet-switched network alive.

use noc_sim::routing::xy_route;
use noc_sim::{
    ConfigKind, Credit, Cycle, EventKind, Flit, HybridCtrl, Mesh, NodeId, NodeOutputs, Packet,
    PacketId, Port, PsOutput, PsPipeline, RouterConfig, Snap, SnapshotError, SnapshotReader,
    SnapshotWriter, Switching,
};

/// A circuit reservation at one router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CircuitEntry {
    pub path_id: u64,
    pub out: Port,
    pub dst: NodeId,
}

/// One plane of an output link.
#[derive(Clone, Copy, Debug, Default)]
struct Plane {
    /// The plane is serialising a flit until this cycle.
    busy_until: Cycle,
    /// Packet currently wormholed onto this plane.
    bound: Option<PacketId>,
    /// Claimed by a circuit.
    circuit: bool,
}

noc_sim::impl_snap!(CircuitEntry { path_id, out, dst });
noc_sim::impl_snap!(Plane {
    busy_until,
    bound,
    circuit,
});

/// Per-cycle switching constraint handed to the pipeline: the input VCs
/// whose packet finds no plane on its output this cycle.
struct PlaneCtrl {
    blocked: u64,
}

impl HybridCtrl for PlaneCtrl {
    fn ps_output_state(&self, _now: Cycle, _o: Port) -> PsOutput {
        PsOutput::Free
    }

    fn ps_blocked_vcs(&self) -> u64 {
        self.blocked
    }
}

/// The SDM hybrid router.
pub struct SdmRouter {
    /// Boxed so the node record the network's node vector holds stays
    /// small: inline, it grew `SdmNode` from 1,120 to 1,480 bytes, and
    /// building and dropping 6×6 fabrics back to back (fig4's 96-point
    /// set-up) then made the allocator trim and re-fault the heap — five
    /// times the page faults and a third more set-up time.
    pub pipeline: Box<PsPipeline>,
    planes_n: u8,
    /// `planes[out_port][plane]`.
    planes: [Vec<Plane>; Port::COUNT],
    /// `circuits[in_port][plane]`.
    circuits: [Vec<Option<CircuitEntry>>; Port::COUNT],
    /// CS flits arriving this cycle, with resolved outputs.
    cs_incoming: Vec<(Flit, Port)>,
    pub cs_ejected: Vec<Flit>,
    pub protocol_out: Vec<Packet>,
    /// Credits owed upstream for configuration flits consumed on arrival.
    pending_credits: Vec<(Port, u8)>,
    next_protocol_id: u64,
}

impl SdmRouter {
    pub fn new(id: NodeId, mesh: Mesh, cfg: RouterConfig, planes: u8) -> Self {
        assert!(planes >= 2, "SDM needs at least one PS and one CS plane");
        // Setups pick their circuit's output dimension-order in
        // `process_config`; acks route dimension-order in the pipeline.
        let cfg = RouterConfig {
            adaptive_config_routing: false,
            ..cfg
        };
        SdmRouter {
            pipeline: Box::new(PsPipeline::new(id, mesh, cfg)),
            planes_n: planes,
            planes: std::array::from_fn(|_| vec![Plane::default(); planes as usize]),
            circuits: std::array::from_fn(|_| vec![None; planes as usize]),
            cs_incoming: Vec::with_capacity(8),
            cs_ejected: Vec::with_capacity(8),
            protocol_out: Vec::with_capacity(8),
            pending_credits: Vec::with_capacity(8),
            next_protocol_id: 0,
        }
    }

    pub fn id(&self) -> NodeId {
        self.pipeline.id
    }

    pub fn planes(&self) -> u8 {
        self.planes_n
    }

    /// The circuit table entry at (`port`, `plane`).
    pub fn circuit_at(&self, port: Port, plane: u8) -> Option<&CircuitEntry> {
        self.circuits[port.index()][plane as usize].as_ref()
    }

    fn protocol_packet_id(&mut self) -> PacketId {
        let id = (3u64 << 62) | ((self.id().0 as u64) << 40) | self.next_protocol_id;
        self.next_protocol_id += 1;
        PacketId(id)
    }

    pub fn accept_flit(&mut self, now: Cycle, port: Port, flit: Flit) {
        if flit.switching() == Switching::Circuit {
            // flit.vc carries the plane id on circuit-switched flits.
            let plane = flit.vc;
            let entry = self.circuits[port.index()][plane as usize].unwrap_or_else(|| {
                panic!(
                    "CS flit on unreserved plane {plane} at {:?} port {port:?}",
                    self.id()
                )
            });
            self.pipeline.events.cs_latch_writes += 1;
            self.cs_incoming.push((flit, entry.out));
            return;
        }
        if let Some(kind @ (ConfigKind::Setup(_) | ConfigKind::Teardown(_))) = flit.config() {
            self.process_config(now, port, flit, kind);
            return;
        }
        self.pipeline.accept_flit(now, port, flit);
    }

    /// Inject a circuit-switched flit from the local NIC.
    pub fn inject_cs_local(&mut self, _now: Cycle, flit: Flit) -> bool {
        let plane = flit.vc;
        let Some(entry) = self.circuits[Port::Local.index()][plane as usize] else {
            return false;
        };
        self.pipeline.events.cs_latch_writes += 1;
        self.cs_incoming.push((flit, entry.out));
        true
    }

    /// Return the buffer credit of a configuration flit consumed on
    /// arrival (see the TDM router for the rationale).
    fn consume_config_credit(&mut self, in_port: Port, vc: u8) {
        match in_port {
            Port::Local => self.pipeline.local_credits.push(vc),
            p => self.pending_credits.push((p, vc)),
        }
    }

    fn process_config(&mut self, now: Cycle, in_port: Port, mut flit: Flit, kind: ConfigKind) {
        match kind {
            ConfigKind::Setup(info) => {
                let plane = info.slot as usize;
                let out = if info.dst == self.id() {
                    Port::Local
                } else {
                    xy_route(&self.pipeline.mesh, self.id(), info.dst)
                };
                let ok = plane >= 1
                    && plane < self.planes_n as usize
                    && self.circuits[in_port.index()][plane].is_none()
                    && (out == Port::Local || !self.planes[out.index()][plane].circuit);
                if ok {
                    self.circuits[in_port.index()][plane] = Some(CircuitEntry {
                        path_id: info.path_id,
                        out,
                        dst: info.dst,
                    });
                    self.pipeline.events.slot_updates += 1;
                    self.pipeline.trace.record(
                        now,
                        self.pipeline.id.0,
                        EventKind::CircuitSetup,
                        in_port.index() as u8,
                        info.path_id,
                    );
                    if out == Port::Local {
                        self.pipeline.events.config_flits_delivered += 1;
                        self.consume_config_credit(in_port, flit.vc);
                        self.emit_ack(now, info, true);
                    } else {
                        self.planes[out.index()][plane].circuit = true;
                        // The plane id is hop-invariant, so the forwarded
                        // flit keeps its payload unchanged. It takes the
                        // buffer slot its upstream credit paid for.
                        flit.set_forced_out(Some(out));
                        self.pipeline.accept_flit(now, in_port, flit);
                    }
                } else {
                    self.pipeline.events.setup_failures += 1;
                    self.pipeline.events.config_flits_delivered += 1;
                    self.consume_config_credit(in_port, flit.vc);
                    self.emit_ack(now, info, false);
                }
            }
            ConfigKind::Teardown(info) => {
                let slot = self.circuits[in_port.index()]
                    .iter()
                    .position(|e| e.is_some_and(|e| e.path_id == info.path_id));
                match slot {
                    Some(plane) => {
                        let e = self.circuits[in_port.index()][plane]
                            .take()
                            .expect("present");
                        self.pipeline.events.slot_updates += 1;
                        self.pipeline.trace.record(
                            now,
                            self.pipeline.id.0,
                            EventKind::CircuitTeardown,
                            in_port.index() as u8,
                            info.path_id,
                        );
                        if e.out == Port::Local {
                            self.pipeline.events.config_flits_delivered += 1;
                            self.consume_config_credit(in_port, flit.vc);
                        } else {
                            self.planes[e.out.index()][plane].circuit = false;
                            // Teardown payloads are hop-invariant too.
                            flit.set_forced_out(Some(e.out));
                            self.pipeline.accept_flit(now, in_port, flit);
                        }
                    }
                    None => {
                        self.pipeline.events.config_flits_delivered += 1;
                        self.consume_config_credit(in_port, flit.vc);
                    }
                }
            }
            ConfigKind::Ack { .. } => unreachable!("acks are routed"),
        }
    }

    fn emit_ack(&mut self, now: Cycle, info: noc_sim::SetupInfo, success: bool) {
        let id = self.protocol_packet_id();
        self.pipeline.trace.record(
            now,
            self.pipeline.id.0,
            EventKind::CircuitAck,
            success as u8,
            info.path_id,
        );
        let pkt = Packet::config(
            id,
            self.id(),
            info.src,
            ConfigKind::Ack { info, success },
            now,
        );
        self.protocol_out.push(pkt);
    }

    pub fn step(&mut self, now: Cycle, out: &mut NodeOutputs) {
        // Credits for configuration flits consumed on arrival.
        for (port, vc) in self.pending_credits.drain(..) {
            let dir = port
                .direction()
                .expect("local credits go via local_credits");
            out.credits.push((dir, Credit { vc }));
        }

        // Circuit-switched bypass: single-cycle crossbar per hop.
        for (flit, o) in self.cs_incoming.drain(..) {
            self.pipeline
                .cs_traverse(now, flit, o, out, &mut self.cs_ejected);
        }

        // The packet-switched pipeline, with the VCs whose packet finds no
        // plane withheld from switch allocation; then every flit it sent
        // takes its plane.
        let mut blocked = 0u64;
        for (i, o, packet) in self.pipeline.sa_bidders() {
            if self.plane_for(o.index(), packet, now).is_none() {
                blocked |= 1 << i;
            }
        }
        let (sent, ejected) = (out.flits.len(), self.pipeline.ejected.len());
        self.pipeline.step(now, &PlaneCtrl { blocked }, out);
        for &(d, flit) in &out.flits[sent..] {
            self.occupy_plane(d.as_port().index(), &flit, now);
        }
        for i in ejected..self.pipeline.ejected.len() {
            let flit = self.pipeline.ejected[i];
            self.occupy_plane(Port::Local.index(), &flit, now);
        }
    }

    /// A usable plane for `packet` on output `o` at `now`: the plane the
    /// packet is already bound to (if idle), else any free unclaimed plane.
    fn plane_for(&self, o: usize, packet: PacketId, now: Cycle) -> Option<usize> {
        let planes = &self.planes[o];
        if let Some(k) = planes.iter().position(|pl| pl.bound == Some(packet)) {
            return (planes[k].busy_until <= now).then_some(k);
        }
        planes
            .iter()
            .position(|pl| !pl.circuit && pl.bound.is_none() && pl.busy_until <= now)
    }

    /// Bind `flit`'s packet to its plane on output `o` and occupy the
    /// plane for `P` cycles of phit serialisation; a tail releases it.
    fn occupy_plane(&mut self, o: usize, flit: &Flit, now: Cycle) {
        let k = self
            .plane_for(o, flit.packet, now)
            .expect("a sent flit's bid found a plane");
        let plane = &mut self.planes[o][k];
        plane.busy_until = now + self.planes_n as Cycle;
        plane.bound = (!flit.kind().is_tail()).then_some(flit.packet);
    }

    /// A free circuit plane index at the local input (for new setups).
    pub fn free_local_plane(&self, from: u8) -> Option<u8> {
        let n = self.planes_n;
        (0..n)
            .map(|k| 1 + (from + k) % (n - 1).max(1))
            .find(|&k| k < n && self.circuits[Port::Local.index()][k as usize].is_none())
    }

    /// Credits owed to upstream neighbours but not yet emitted — deferred
    /// work invisible to [`SdmRouter::occupancy`]; the activity scheduler
    /// must keep the node awake while any are pending.
    pub fn has_deferred_credits(&self) -> bool {
        !self.pending_credits.is_empty()
    }

    pub fn occupancy(&self) -> usize {
        self.pipeline.occupancy()
            + self.cs_incoming.len()
            + self.cs_ejected.len()
            + self
                .protocol_out
                .iter()
                .map(|p| p.len_flits as usize)
                .sum::<usize>()
    }

    /// Serialise all mutable router state: the pipeline's, then each
    /// port's planes and circuits. Construction-derived fields (geometry,
    /// the trace sink) are skipped — restore targets a freshly
    /// built router of the same configuration.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        self.pipeline.save_state(w);
        for (planes, circuits) in self.planes.iter().zip(&self.circuits) {
            planes.save(w);
            circuits.save(w);
        }
        self.cs_incoming.save(w);
        self.cs_ejected.save(w);
        self.protocol_out.save(w);
        self.pending_credits.save(w);
        w.u64(self.next_protocol_id);
    }

    /// Inverse of [`SdmRouter::save_state`].
    pub fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.pipeline.load_state(r)?;
        for p in 0..Port::COUNT {
            let planes: Vec<Plane> = Snap::load(r)?;
            let circuits: Vec<Option<CircuitEntry>> = Snap::load(r)?;
            if planes.len() != self.planes_n as usize || circuits.len() != planes.len() {
                return Err(SnapshotError::Corrupt("SDM plane geometry"));
            }
            (self.planes[p], self.circuits[p]) = (planes, circuits);
        }
        self.cs_incoming = Snap::load(r)?;
        self.cs_ejected = Snap::load(r)?;
        self.protocol_out = Snap::load(r)?;
        self.pending_credits = Snap::load(r)?;
        self.next_protocol_id = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{Coord, SetupInfo};

    fn mesh() -> Mesh {
        Mesh::square(4)
    }

    fn router(c: Coord) -> SdmRouter {
        let m = mesh();
        SdmRouter::new(m.id(c), m, RouterConfig::default(), 4)
    }

    fn setup(src: NodeId, dst: NodeId, plane: u16, pid: u64) -> Flit {
        let info = SetupInfo {
            src,
            dst,
            slot: plane,
            duration: 4,
            path_id: pid,
        };
        let p = Packet::config(PacketId(900 + pid), src, dst, ConfigKind::Setup(info), 0);
        Flit::of_packet(&p, 0, Switching::Packet)
    }

    #[test]
    fn circuit_claims_plane_and_conflicts() {
        let m = mesh();
        let mut r = router(Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup(src, dst, 1, 1));
        assert!(r.circuit_at(Port::West, 1).is_some());
        // Same plane from another input toward the same output: conflict.
        let src2 = m.id(Coord::new(1, 0));
        r.accept_flit(1, Port::North, setup(src2, dst, 1, 2));
        assert_eq!(r.pipeline.events.setup_failures, 1);
        // A different plane works.
        r.accept_flit(2, Port::North, setup(src2, dst, 2, 3));
        assert!(r.circuit_at(Port::North, 2).is_some());
    }

    #[test]
    fn plane_zero_is_never_circuit_switched() {
        let m = mesh();
        let mut r = router(Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup(src, dst, 0, 1));
        assert_eq!(r.pipeline.events.setup_failures, 1);
        assert!(r.circuit_at(Port::West, 0).is_none());
    }

    #[test]
    fn ps_flits_of_one_packet_are_plane_serialised() {
        // Two flits of the same packet must leave ≥ P cycles apart.
        let m = mesh();
        let mut r = router(Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        let pkt = Packet::data(PacketId(5), src, dst, 2, 0);
        for s in 0..2 {
            let mut f = Flit::of_packet(&pkt, s, Switching::Packet);
            f.vc = 0;
            r.accept_flit(0, Port::West, f);
        }
        let mut left = Vec::new();
        let mut out = NodeOutputs::default();
        for now in 0..20 {
            out.clear();
            r.step(now, &mut out);
            for (_, f) in out.flits.drain(..) {
                left.push((now, f.seq));
            }
        }
        assert_eq!(left.len(), 2);
        assert!(
            left[1].0 - left[0].0 >= 4,
            "flits left {} cycles apart (need ≥ P=4)",
            left[1].0 - left[0].0
        );
    }

    #[test]
    fn ejecting_flits_of_one_packet_are_plane_serialised() {
        // The ejection port is plane-partitioned too: two flits of one
        // packet leave the router ≥ P cycles apart.
        let m = mesh();
        let mut r = router(Coord::new(1, 1));
        let pkt = Packet::data(PacketId(6), m.id(Coord::new(0, 1)), r.id(), 2, 0);
        for s in 0..2 {
            let mut f = Flit::of_packet(&pkt, s, Switching::Packet);
            f.vc = 0;
            r.accept_flit(0, Port::West, f);
        }
        let mut ejected = Vec::new();
        let mut out = NodeOutputs::default();
        for now in 0..20 {
            r.step(now, &mut out);
            ejected.extend(r.pipeline.ejected.drain(..).map(|f| (now, f.seq)));
        }
        assert!(out.flits.is_empty(), "both flits eject");
        assert_eq!(ejected.len(), 2);
        assert!(
            ejected[1].0 - ejected[0].0 >= 4,
            "flits ejected {} cycles apart (need ≥ P=4)",
            ejected[1].0 - ejected[0].0
        );
    }

    #[test]
    fn distinct_packets_use_planes_in_parallel() {
        // Two single-flit packets in different VCs can leave on consecutive
        // cycles: different planes.
        let m = mesh();
        let mut r = router(Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        for (pid, vc) in [(10u64, 0u8), (11, 1)] {
            let pkt = Packet::data(PacketId(pid), src, dst, 1, 0);
            let mut f = Flit::of_packet(&pkt, 0, Switching::Packet);
            f.vc = vc;
            r.accept_flit(0, Port::West, f);
        }
        let mut times = Vec::new();
        let mut out = NodeOutputs::default();
        for now in 0..12 {
            out.clear();
            r.step(now, &mut out);
            for (_, f) in out.flits.drain(..) {
                times.push((now, f.packet));
            }
        }
        assert_eq!(times.len(), 2);
        assert!(
            times[1].0 - times[0].0 <= 2,
            "second packet blocked: {times:?}"
        );
    }

    #[test]
    fn cs_flit_bypasses_pipeline() {
        let m = mesh();
        let mut r = router(Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup(src, dst, 2, 1));
        let pkt = Packet::data(PacketId(20), src, dst, 4, 0);
        let mut f = Flit::of_packet(&pkt, 0, Switching::Circuit);
        f.vc = 2; // plane id
        r.accept_flit(8, Port::West, f);
        let mut out = NodeOutputs::default();
        r.step(8, &mut out);
        let cs: Vec<_> = out
            .flits
            .iter()
            .filter(|(_, f)| f.switching() == Switching::Circuit)
            .collect();
        assert_eq!(cs.len(), 1, "CS flit must leave the same cycle");
    }

    #[test]
    fn teardown_releases_plane() {
        let m = mesh();
        let mut r = router(Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup(src, dst, 1, 1));
        let info = SetupInfo {
            src,
            dst,
            slot: 1,
            duration: 4,
            path_id: 1,
        };
        let p = Packet::config(PacketId(999), src, dst, ConfigKind::Teardown(info), 5);
        r.accept_flit(5, Port::West, Flit::of_packet(&p, 0, Switching::Packet));
        assert!(r.circuit_at(Port::West, 1).is_none());
        // Plane reusable by another circuit.
        r.accept_flit(6, Port::West, setup(src, dst, 1, 2));
        assert!(r.circuit_at(Port::West, 1).is_some());
    }

    #[test]
    fn free_local_plane_rotates_and_respects_claims() {
        let m = mesh();
        let mut r = router(Coord::new(1, 1));
        assert!(r.free_local_plane(0).is_some());
        let dst = m.id(Coord::new(3, 1));
        // Claim all CS planes at the local port.
        for (plane, pid) in [(1u16, 1u64), (2, 2), (3, 3)] {
            r.accept_flit(0, Port::Local, setup(r.id(), dst, plane, pid));
        }
        assert_eq!(r.free_local_plane(0), None);
    }
}
