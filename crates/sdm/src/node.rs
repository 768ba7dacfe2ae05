//! The SDM hybrid tile: plane-aware NIC + SDM router + circuit policy.
//!
//! Unlike the single-stream packet NIC, the SDM interface can serialise up
//! to `P` packets concurrently — one per plane — with `P`-cycle flit
//! spacing per stream, reproducing a width-partitioned local link.
//! Circuit-switched messages stream immediately (no time-slot wait) on
//! their reserved plane; the setup policy mirrors the TDM node's
//! (frequency-triggered, resend with a different plane on failure) so the
//! Figure 4 comparison isolates the switching mechanism, not the policy.

use std::collections::VecDeque;

use noc_sim::{
    ConfigKind, Credit, Cycle, DeliveredPacket, Direction, Flit, MsgClass, NodeId, NodeModel,
    NodeOutputs, NodeTable, Packet, PacketId, Port, PowerState, RingSink, RxTable, SetupInfo, Snap,
    SnapshotError, SnapshotReader, SnapshotWriter, Switching, TraceSink,
};
use tdm_noc::registry::{ConnRegistry, FrequencyTracker, PendingSetup};

use crate::config::SdmConfig;
use crate::router::SdmRouter;

/// A packet-switched packet being serialised onto one VC/plane.
#[derive(Clone, Debug)]
struct PsStream {
    packet: Packet,
    next: u8,
    next_allowed: Cycle,
}

/// A circuit-switched burst being serialised onto its reserved plane.
#[derive(Clone, Debug)]
struct CsStream {
    flits: Vec<Flit>,
    next: usize,
    next_allowed: Cycle,
}

noc_sim::impl_snap!(PsStream {
    packet,
    next,
    next_allowed,
});
noc_sim::impl_snap!(CsStream {
    flits,
    next,
    next_allowed,
});

/// The SDM hybrid tile.
pub struct SdmNode {
    id: NodeId,
    cfg: SdmConfig,
    pub router: SdmRouter,
    inject_queue: VecDeque<Packet>,
    /// One potential PS stream per VC.
    streams: Vec<Option<PsStream>>,
    credits: Vec<u8>,
    /// New PS streams only claim VCs below this (the class-0 half on a
    /// torus, so injected packets start at dateline class 0).
    inject_vc_limit: u8,
    pub registry: ConnRegistry,
    freq: FrequencyTracker,
    cs_queues: NodeTable<VecDeque<Packet>>,
    cs_streams: NodeTable<CsStream>,
    rx: RxTable,
    delivered: Vec<DeliveredPacket>,
    next_path_id: u64,
    plane_scan: u8,
    // O(1) occupancy bookkeeping, updated at every enqueue and dequeue:
    // `owned_flits` = flits in the inject queue, the PS and CS streams,
    // the CS queues and mid-reassembly (everything the node owns outside
    // its router); `cs_queued` = packets across `cs_queues`. Derived
    // state: never serialised, rebuilt by `scan_owned` after restore and
    // cross-checked against it in `occupancy` (debug builds).
    owned_flits: usize,
    cs_queued: usize,
    /// Recycled CS-burst buffers: a new burst refills one of these
    /// instead of allocating (DESIGN.md §17). Scratch only — never
    /// snapshotted; the pool plateaus at the most bursts in flight.
    spare_flits: Vec<Vec<Flit>>,
}

impl SdmNode {
    pub fn new(id: NodeId, cfg: &SdmConfig) -> Self {
        let vcs = cfg.net.router.vcs_per_port as usize;
        let n = cfg.net.mesh.len();
        let router = SdmRouter::new(id, cfg.net.mesh, cfg.net.router, cfg.planes);
        SdmNode {
            id,
            cfg: *cfg,
            router,
            inject_queue: VecDeque::new(),
            streams: vec![None; vcs],
            credits: vec![cfg.net.router.buf_depth; vcs],
            inject_vc_limit: if cfg.net.mesh.is_torus() {
                cfg.net.router.vcs_per_port / 2
            } else {
                cfg.net.router.vcs_per_port
            },
            registry: ConnRegistry::new(n),
            freq: FrequencyTracker::new(cfg.freq_window, n),
            cs_queues: NodeTable::new(n),
            cs_streams: NodeTable::new(n),
            rx: RxTable::new(),
            delivered: Vec::new(),
            next_path_id: 0,
            plane_scan: (id.0 % 3) as u8,
            owned_flits: 0,
            cs_queued: 0,
            spare_flits: Vec::new(),
        }
    }

    /// `(owned_flits, cs_queued)` recomputed by a full scan of the queues,
    /// streams and reassembly table.
    fn scan_owned(&self) -> (usize, usize) {
        let queued: usize = self.inject_queue.iter().map(|p| p.len_flits as usize).sum();
        let ps_streams: usize = self
            .streams
            .iter()
            .flatten()
            .map(|s| (s.packet.len_flits - s.next) as usize)
            .sum();
        let cs_queued_flits: usize = self
            .cs_queues
            .values()
            .flat_map(|q| q.iter())
            .map(|p| p.len_flits as usize)
            .sum();
        let cs_streams: usize = self
            .cs_streams
            .values()
            .map(|s| s.flits.len() - s.next)
            .sum();
        let partial = self.rx.total();
        let cs_packets = self.cs_queues.values().map(VecDeque::len).sum();
        (
            queued + ps_streams + cs_queued_flits + cs_streams + partial,
            cs_packets,
        )
    }

    /// Queue `pkt` for packet-switched injection ahead of queued data.
    fn enqueue_front(&mut self, pkt: Packet) {
        self.owned_flits += pkt.len_flits as usize;
        self.inject_queue.push_front(pkt);
    }

    fn fresh_path_id(&mut self) -> u64 {
        let id = ((self.id.0 as u64) << 32) | self.next_path_id;
        self.next_path_id += 1;
        id
    }

    fn protocol_packet_id(&mut self) -> PacketId {
        PacketId((1u64 << 61) | ((self.id.0 as u64) << 40) | self.fresh_path_id())
    }

    fn dispatch(&mut self, now: Cycle, pkt: Packet) {
        let dst = pkt.dst;
        let count = self.freq.record(dst, now);
        self.owned_flits += pkt.len_flits as usize;
        if self.registry.get(dst).is_some() {
            self.cs_queued += 1;
            self.cs_queues.entry_or_default(dst).push_back(pkt);
            return;
        }
        self.inject_queue.push_back(pkt);
        if count >= self.cfg.setup_after_msgs {
            self.maybe_initiate_setup(now, dst);
        }
    }

    fn maybe_initiate_setup(&mut self, now: Cycle, dst: NodeId) {
        if dst == self.id
            || self.registry.get(dst).is_some()
            || self.registry.pending_for(dst)
            || self.registry.in_cooldown(dst, now)
            || self.registry.len() >= self.cfg.max_connections as usize
            || self.cfg.net.mesh.hops(self.id, dst) < 2
        {
            return;
        }
        self.issue_setup(now, dst, 0);
    }

    fn issue_setup(&mut self, now: Cycle, dst: NodeId, attempts: u8) {
        let Some(plane) = self.router.free_local_plane(self.plane_scan + attempts) else {
            self.router.pipeline.events.setup_failures += 1;
            self.registry
                .set_cooldown(dst, now, self.cfg.retry_cooldown);
            return;
        };
        self.plane_scan = self.plane_scan.wrapping_add(1);
        let path_id = self.fresh_path_id();
        let info = SetupInfo {
            src: self.id,
            dst,
            slot: plane as u16,
            duration: self.cfg.cs_message_flits(),
            path_id,
        };
        let pkt = Packet::config(
            self.protocol_packet_id(),
            self.id,
            dst,
            ConfigKind::Setup(info),
            now,
        );
        self.registry.begin_setup(
            path_id,
            PendingSetup {
                dst,
                slot: plane as u16,
                duration: info.duration,
                attempts,
                issued: now,
            },
        );
        self.router.pipeline.events.setup_attempts += 1;
        self.enqueue_front(pkt);
    }

    fn handle_ack(&mut self, now: Cycle, info: SetupInfo, success: bool) {
        if success {
            self.registry.clear_cooldown(info.dst);
            if self.registry.confirm(info.path_id, now).is_none() {
                self.send_teardown(now, info);
            }
            return;
        }
        let pending = self.registry.fail(info.path_id);
        self.send_teardown(now, info);
        if let Some(p) = pending {
            if p.attempts < self.cfg.setup_retries {
                self.issue_setup(now, p.dst, p.attempts + 1);
            } else {
                self.registry
                    .set_cooldown(p.dst, now, self.cfg.retry_cooldown);
            }
        }
    }

    fn send_teardown(&mut self, now: Cycle, info: SetupInfo) {
        let pkt = Packet::config(
            self.protocol_packet_id(),
            self.id,
            info.dst,
            ConfigKind::Teardown(info),
            now,
        );
        self.enqueue_front(pkt);
    }

    /// Pump circuit-switched streams: every circuit serialises its burst on
    /// its own plane, immediately (no slot wait).
    fn pump_cs(&mut self, now: Cycle) {
        if self.cs_queued == 0 && self.cs_streams.is_empty() {
            return;
        }
        // Start streams for idle circuits with queued work (insertion
        // order — deterministic across runs).
        if self.cs_queued != 0 {
            for (dst, q) in self.cs_queues.iter_mut() {
                if q.is_empty() || self.cs_streams.contains(dst) {
                    continue;
                }
                let Some(conn) = self.registry.get(dst).copied() else {
                    // Circuit vanished: drain to PS. (SDM circuits are
                    // never torn down once confirmed, so this is defensive;
                    // the emptied entry stays so the walk stays in order.)
                    self.cs_queued -= q.len();
                    self.inject_queue.extend(q.drain(..));
                    continue;
                };
                let mut shaped = q.pop_front().expect("non-empty");
                self.cs_queued -= 1;
                self.owned_flits -= shaped.len_flits as usize;
                let len = shaped.len_flits.saturating_sub(1).max(1);
                shaped.len_flits = len;
                let mut flits = self.spare_flits.pop().unwrap_or_default();
                flits.clear();
                flits.extend((0..len).map(|s| {
                    let mut f = Flit::of_packet(&shaped, s, Switching::Circuit);
                    f.vc = conn.slot as u8; // plane id
                    f
                }));
                self.owned_flits += flits.len();
                self.registry.touch(dst, conn.slot, now);
                self.cs_streams.insert(
                    dst,
                    CsStream {
                        flits,
                        next: 0,
                        next_allowed: now,
                    },
                );
            }
        }
        // Advance active streams (plane spacing P). A finished burst hands
        // its buffer to the spare pool, leaving an empty stream that
        // `remove_where` then drops in visit order.
        let mut finished = false;
        for s in self.cs_streams.values_mut() {
            if now < s.next_allowed {
                continue;
            }
            let ok = self.router.inject_cs_local(now, s.flits[s.next]);
            assert!(ok, "SDM circuit reservation missing at {:?}", self.id);
            self.owned_flits -= 1;
            s.next += 1;
            s.next_allowed = now + self.cfg.planes as Cycle;
            if s.next == s.flits.len() {
                self.spare_flits.push(std::mem::take(&mut s.flits));
                finished = true;
            }
        }
        if finished {
            self.cs_streams.remove_where(|s| s.flits.is_empty());
        }
    }

    /// Pump packet-switched streams: up to one stream per VC, each spacing
    /// flits `P` cycles apart (plane serialisation at the local link).
    fn pump_ps(&mut self, now: Cycle) {
        // Fill idle VCs with queued packets.
        for vc in 0..self.inject_vc_limit as usize {
            if self.streams[vc].is_none() {
                if let Some(pkt) = self.inject_queue.pop_front() {
                    self.streams[vc] = Some(PsStream {
                        packet: pkt,
                        next: 0,
                        next_allowed: now,
                    });
                } else {
                    break;
                }
            }
        }
        for vc in 0..self.streams.len() {
            let Some(s) = &mut self.streams[vc] else {
                continue;
            };
            if now < s.next_allowed || self.credits[vc] == 0 {
                continue;
            }
            let mut flit = Flit::of_packet(&s.packet, s.next, Switching::Packet);
            flit.vc = vc as u8;
            self.credits[vc] -= 1;
            self.owned_flits -= 1;
            s.next += 1;
            s.next_allowed = now + self.cfg.planes as Cycle;
            let done = s.next == s.packet.len_flits;
            if done {
                self.streams[vc] = None;
            }
            self.router.accept_flit(now, Port::Local, flit);
        }
    }

    fn accept_ejected(&mut self, now: Cycle, flit: Flit) {
        if flit.class() == MsgClass::Config {
            if let Some(ConfigKind::Ack { info, success }) = flit.config() {
                self.handle_ack(now, info, success);
            }
            return;
        }
        self.rx.bump(flit.packet);
        self.owned_flits += 1;
        if flit.kind().is_tail() {
            self.owned_flits -= self.rx.remove(flit.packet).expect("just bumped") as usize;
            self.delivered.push(DeliveredPacket {
                id: flit.packet,
                src: flit.src(),
                dst: flit.dst(),
                switching: flit.switching(),
                len_flits: flit.seq + 1,
                created: flit.created(),
                delivered: now,
                measured: flit.measured(),
            });
        }
    }
}

impl NodeModel for SdmNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn inject(&mut self, now: Cycle, pkt: Packet) {
        match pkt.class {
            MsgClass::Data => self.dispatch(now, pkt),
            MsgClass::Config => self.enqueue_front(pkt),
        }
    }

    fn accept_flit(&mut self, now: Cycle, from: Direction, flit: Flit) {
        self.router.accept_flit(now, from.as_port(), flit);
    }

    fn accept_credit(&mut self, _now: Cycle, from: Direction, credit: Credit) {
        self.router.pipeline.accept_credit(from, credit);
    }

    fn step(&mut self, now: Cycle, out: &mut NodeOutputs) {
        for vc in self.router.pipeline.local_credits.drain(..) {
            let c = &mut self.credits[vc as usize];
            debug_assert!(*c < self.cfg.net.router.buf_depth);
            *c += 1;
        }
        // Router-owned queues whose handlers need `&mut self`: take the
        // vector, drain it, and hand the (empty) allocation back so the
        // steady state never re-allocates. The handlers never push into
        // these queues — only the router's own step does.
        let mut protocol = std::mem::take(&mut self.router.protocol_out);
        for pkt in protocol.drain(..) {
            if pkt.dst == self.id {
                if let Some(ConfigKind::Ack { info, success }) = pkt.config {
                    self.handle_ack(now, info, success);
                }
            } else {
                self.enqueue_front(pkt);
            }
        }
        self.router.protocol_out = protocol;
        let mut cs_ejected = std::mem::take(&mut self.router.cs_ejected);
        for flit in cs_ejected.drain(..) {
            self.accept_ejected(now, flit);
        }
        self.router.cs_ejected = cs_ejected;
        self.pump_cs(now);
        self.pump_ps(now);
        self.router.step(now, out);
        let mut ejected = std::mem::take(&mut self.router.pipeline.ejected);
        for flit in ejected.drain(..) {
            self.accept_ejected(now, flit);
        }
        self.router.pipeline.ejected = ejected;
    }

    fn set_trace_sink(&mut self, sink: TraceSink) {
        self.router.pipeline.trace = sink;
    }

    fn take_trace(&mut self) -> Option<Box<RingSink>> {
        self.router.pipeline.trace.take()
    }

    fn drain_delivered(&mut self, sink: &mut Vec<DeliveredPacket>) {
        sink.append(&mut self.delivered);
    }

    fn events(&self) -> noc_sim::EnergyEvents {
        self.router.pipeline.events
    }

    fn occupancy(&self) -> usize {
        debug_assert_eq!(
            (self.owned_flits, self.cs_queued),
            self.scan_owned(),
            "SDM node flit counters drifted from a full scan"
        );
        self.router.occupancy() + self.owned_flits
    }

    fn power_state(&self) -> PowerState {
        PowerState {
            buffer_slots: self.router.pipeline.powered_buffer_slots(),
            // The per-plane circuit tables are the SDM analogue of slot
            // tables: P entries per input port.
            slot_entries: Port::COUNT as u32 * self.cfg.planes as u32,
            dlt_entries: 0,
        }
    }

    fn sleep_until(&self, _now: Cycle) -> Option<Cycle> {
        // SDM circuits stream immediately (no slot wheel): once nothing is
        // buffered, streaming, or mid-reassembly and no credits are owed,
        // every future step is a no-op until an external event. Plane
        // `busy_until` timestamps only gate flits that would also show up
        // in the occupancy count, so they need no timer.
        if self.occupancy() != 0
            || !self.router.pipeline.local_credits.is_empty()
            || self.router.has_deferred_credits()
        {
            return None;
        }
        Some(Cycle::MAX)
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.router.save_state(w);
        self.inject_queue.save(w);
        self.streams.save(w);
        self.credits.save(w);
        self.registry.save_state(w);
        self.freq.save_state(w);
        self.cs_queues.save(w);
        self.cs_streams.save(w);
        self.rx.save(w);
        self.delivered.save(w);
        w.u64(self.next_path_id);
        w.u8(self.plane_scan);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.router.load_state(r)?;
        self.inject_queue = Snap::load(r)?;
        let streams: Vec<Option<PsStream>> = Snap::load(r)?;
        if streams.len() != self.streams.len() {
            return Err(SnapshotError::Corrupt("SDM stream count"));
        }
        self.streams = streams;
        let credits: Vec<u8> = Snap::load(r)?;
        if credits.len() != self.credits.len() {
            return Err(SnapshotError::Corrupt("SDM credit count"));
        }
        self.credits = credits;
        self.registry.load_state(r)?;
        self.freq.load_state(r)?;
        self.cs_queues.load_state(r)?;
        self.cs_streams.load_state(r)?;
        self.rx = Snap::load(r)?;
        self.delivered = Snap::load(r)?;
        self.next_path_id = r.u64()?;
        self.plane_scan = r.u8()?;
        (self.owned_flits, self.cs_queued) = self.scan_owned();
        Ok(())
    }
}

#[cfg(test)]
// Traffic loops here advance a packet id alongside other per-iteration
// work; an explicit counter reads better than iterator gymnastics.
#[allow(clippy::explicit_counter_loop)]
mod tests {
    use super::*;
    use noc_sim::{Coord, Mesh, Network, NetworkConfig, PacketId};

    fn cfg() -> SdmConfig {
        SdmConfig {
            net: NetworkConfig::with_mesh(Mesh::square(4)),
            ..Default::default()
        }
    }

    fn net(c: SdmConfig) -> Network<SdmNode> {
        Network::new(c.net.mesh, move |id| SdmNode::new(id, &c))
    }

    fn data(id: u64, src: NodeId, dst: NodeId, now: Cycle) -> Packet {
        Packet::data(PacketId(id), src, dst, 5, now)
    }

    /// A snapshot's per-destination tables must span this node's mesh:
    /// a blob written over a smaller mesh is refused.
    #[test]
    fn restore_rejects_tables_over_another_mesh() {
        let small = SdmConfig {
            net: NetworkConfig::with_mesh(Mesh::square(3)),
            ..cfg()
        };
        let centre = |c: &SdmConfig| SdmNode::new(c.net.mesh.id(Coord::new(1, 1)), c);
        let mut w = SnapshotWriter::new();
        centre(&small).save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        assert!(centre(&small)
            .load_state(&mut SnapshotReader::new(&bytes))
            .is_ok());
        assert_eq!(
            centre(&cfg()).load_state(&mut SnapshotReader::new(&bytes)),
            Err(SnapshotError::Mismatch("NodeTable universe"))
        );
    }

    #[test]
    fn ps_packet_delivers_with_serialisation_delay() {
        let c = cfg();
        let mut n = net(c);
        let src = c.net.mesh.id(Coord::new(0, 0));
        let dst = c.net.mesh.id(Coord::new(3, 0));
        n.begin_measurement();
        n.inject(src, data(1, src, dst, 0));
        assert!(n.drain(2_000));
        n.end_measurement();
        assert_eq!(n.stats.packets_delivered, 1);
        // 3 hops: head ≈ 12 cycles + 4 flits × P=4 serialisation ⇒ well
        // above the unpartitioned network's ≈ 20, but bounded.
        let lat = n.stats.avg_latency();
        assert!(lat > 24.0 && lat < 80.0, "SDM PS latency {lat}");
    }

    #[test]
    fn frequent_pair_gets_circuit_with_low_latency() {
        let c = cfg();
        let mut n = net(c);
        let src = c.net.mesh.id(Coord::new(0, 0));
        let dst = c.net.mesh.id(Coord::new(3, 3));
        let mut id = 0;
        for _ in 0..20 {
            let now = n.now();
            n.inject(src, data(id, src, dst, now));
            id += 1;
            n.run(30);
        }
        assert!(n.drain(3_000));
        assert!(
            n.nodes[src.index()].registry.get(dst).is_some(),
            "no circuit"
        );
        // Measure CS latency: isolated packets on the circuit.
        n.begin_measurement();
        for i in 0..8u64 {
            n.run(i % 5);
            let now = n.now();
            n.inject(src, data(1000 + i, src, dst, now));
            assert!(n.drain(1_000));
        }
        n.end_measurement();
        assert_eq!(n.stats.cs_packets_delivered, 8);
        // 6 hops × 2 cycles + 4 flits × 4 spacing ≈ 28, no slot wait.
        let lat = n.stats.avg_latency();
        assert!(lat < 40.0, "SDM CS latency {lat} too high");
    }

    #[test]
    fn circuits_limited_by_planes() {
        // A node can hold at most P-1 = 3 outgoing circuits.
        let c = cfg();
        let mut n = net(c);
        let m = c.net.mesh;
        let src = m.id(Coord::new(0, 0));
        let dsts = [
            m.id(Coord::new(3, 0)),
            m.id(Coord::new(3, 1)),
            m.id(Coord::new(3, 2)),
            m.id(Coord::new(3, 3)),
        ];
        let mut id = 0;
        for _ in 0..60 {
            for &d in &dsts {
                let now = n.now();
                n.inject(src, data(id, src, d, now));
                id += 1;
            }
            n.run(25);
        }
        n.drain(5_000);
        let established = dsts
            .iter()
            .filter(|d| n.nodes[src.index()].registry.get(**d).is_some())
            .count();
        assert!(
            established <= 3,
            "more circuits than planes allow: {established}"
        );
        assert!(established >= 2, "planes underused: {established}");
    }

    #[test]
    fn all_packets_deliver_under_load() {
        let c = cfg();
        let mut n = net(c);
        let m = c.net.mesh;
        let mut id = 0;
        n.begin_measurement();
        for round in 0..40 {
            for src in m.nodes() {
                let dst = NodeId((src.0 + 5) % m.len() as u32);
                if dst != src {
                    let now = n.now();
                    n.inject(src, data(id, src, dst, now));
                    id += 1;
                }
            }
            n.run(10);
            let _ = round;
        }
        assert!(n.drain(30_000), "SDM network failed to drain");
        n.end_measurement();
        assert_eq!(n.stats.packets_delivered, id);
    }
}
