//! Network interface: packet injection (with source queueing), flit
//! serialisation under credit flow control, and ejection/reassembly.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::arbiter::RoundRobin;
use crate::arena::ConfigArena;
use crate::config::RouterConfig;
use crate::dense::RxTable;
use crate::flit::{Flit, Packet, PacketId, Switching};
use crate::geometry::NodeId;
use crate::node::DeliveredPacket;
use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::Cycle;

struct Stream {
    packet: Packet,
    next: u8,
    vc: u8,
}

crate::impl_snap!(Stream { packet, next, vc });

/// A node's network interface for the packet-switched network.
///
/// Packets wait in an unbounded source queue (open-loop methodology), are
/// serialised one at a time onto the router's local input port — one flit
/// per cycle, subject to per-VC credits — and reassembled on ejection.
pub struct Nic {
    id: NodeId,
    buf_depth: u8,
    inject_queue: VecDeque<Packet>,
    current: Option<Stream>,
    /// Credit view of the router's local input port VCs.
    credits: Vec<u8>,
    /// Upper bound on the VCs new streams may start in. On a torus,
    /// injected packets must begin in dateline class 0 (the lower VC
    /// half); node constructors set this from the topology.
    inject_vc_limit: u8,
    vc_rr: RoundRobin,
    /// Flits received so far per in-flight inbound packet.
    rx: RxTable,
    /// Configuration-payload slab; replaced by the harness's shared arena
    /// via [`Nic::set_arena`] when the node joins a network.
    arena: Arc<ConfigArena>,
    delivered: Vec<DeliveredPacket>,
    // O(1) occupancy bookkeeping: flits across all queued packets and flits
    // held in partial reassembly, kept in sync by enqueue/next_flit and
    // accept_ejected so `occupancy` never scans the source queue. Derived:
    // never serialised, rescanned by `load_state`.
    queued_flits: usize,
    rx_flits: usize,
}

impl Nic {
    pub fn new(id: NodeId, cfg: &RouterConfig) -> Self {
        Nic {
            id,
            buf_depth: cfg.buf_depth,
            // Open-loop sources keep the queue near-empty below
            // saturation; pre-seeding the capacity keeps bursty arrivals
            // off the allocator in the steady state (DESIGN.md §17).
            inject_queue: VecDeque::with_capacity(32),
            current: None,
            credits: vec![cfg.buf_depth; cfg.vcs_per_port as usize],
            inject_vc_limit: cfg.vcs_per_port,
            vc_rr: RoundRobin::new(cfg.vcs_per_port as usize),
            rx: RxTable::new(),
            arena: Arc::new(ConfigArena::new()),
            delivered: Vec::with_capacity(8),
            queued_flits: 0,
            rx_flits: 0,
        }
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Adopt the network-wide payload arena (see
    /// [`NodeModel::attach_arena`](crate::node::NodeModel::attach_arena)).
    pub fn set_arena(&mut self, arena: Arc<ConfigArena>) {
        self.arena = arena;
    }

    /// Queue a packet for injection.
    pub fn enqueue(&mut self, pkt: Packet) {
        self.queued_flits += pkt.len_flits as usize;
        self.inject_queue.push_back(pkt);
    }

    /// Put a packet at the *front* of the queue (configuration messages get
    /// priority over queued data, keeping setup latency low; they are <1 %
    /// of traffic so data packets are barely delayed).
    pub fn enqueue_front(&mut self, pkt: Packet) {
        self.queued_flits += pkt.len_flits as usize;
        self.inject_queue.push_front(pkt);
    }

    /// Credit returned by the router's local input port.
    pub fn credit(&mut self, vc: u8) {
        let c = &mut self.credits[vc as usize];
        debug_assert!(*c < self.buf_depth, "NIC credit overflow");
        *c += 1;
    }

    /// Restrict new streams to the first `limit` VCs (torus dateline
    /// class 0; see [`crate::router::PsPipeline`] for the class rules).
    pub fn set_inject_vc_limit(&mut self, limit: u8) {
        self.inject_vc_limit = limit.clamp(1, self.credits.len() as u8);
    }

    /// Produce the next packet-switched flit to inject this cycle, if
    /// bandwidth and credits allow. At most one flit per cycle (the local
    /// port is one flit wide). A new packet only starts on a VC below
    /// `active_vcs`, the router's active VC count (VC power gating).
    pub fn next_flit(&mut self, active_vcs: u8) -> Option<Flit> {
        if self.current.is_none() {
            if self.inject_queue.is_empty() {
                return None;
            }
            let mut vc_mask = 0u64;
            debug_assert!(self.credits.len() <= 64, "NIC VC mask packs VCs into a u64");
            let sel = active_vcs.min(self.inject_vc_limit);
            for v in 0..sel as usize {
                if self.credits[v] > 0 {
                    vc_mask |= 1 << v;
                }
            }
            let vc = self.vc_rr.grant_mask(vc_mask)?;
            let packet = self.inject_queue.pop_front().expect("checked non-empty");
            self.queued_flits -= packet.len_flits as usize;
            self.current = Some(Stream {
                packet,
                next: 0,
                vc: vc as u8,
            });
        }
        let s = self.current.as_mut().expect("stream present");
        if self.credits[s.vc as usize] == 0 {
            return None; // head-of-line stall at the source
        }
        let mut flit = Flit::of_packet_in(&self.arena, &s.packet, s.next, Switching::Packet);
        flit.vc = s.vc;
        self.credits[s.vc as usize] -= 1;
        s.next += 1;
        if s.next == s.packet.len_flits {
            self.current = None;
        }
        Some(flit)
    }

    /// Accept an ejected data flit; completes a packet when its tail
    /// arrives.
    pub fn accept_ejected(&mut self, now: Cycle, flit: Flit) {
        debug_assert!(
            flit.config.is_none(),
            "configuration flits are consumed before the NIC"
        );
        self.rx.bump(flit.packet);
        self.rx_flits += 1;
        if flit.kind().is_tail() {
            let done = self.rx.remove(flit.packet).expect("just inserted");
            self.rx_flits -= done as usize;
            self.delivered.push(DeliveredPacket {
                id: flit.packet,
                src: flit.src(),
                dst: flit.dst(),
                switching: flit.switching(),
                len_flits: flit.seq + 1,
                created: flit.created,
                delivered: now,
                measured: flit.measured(),
            });
        }
    }

    /// Hand completed packets to the caller.
    pub fn drain_delivered(&mut self, sink: &mut Vec<DeliveredPacket>) {
        if self.delivered.is_empty() {
            return;
        }
        sink.append(&mut self.delivered);
    }

    /// Flits still owned by the NIC (queued, mid-stream, or partially
    /// reassembled) — used for drain detection.
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.queued_flits,
            self.scan_queued_flits(),
            "queued-flit counter drifted"
        );
        debug_assert_eq!(self.rx_flits, self.rx.total(), "rx-flit counter drifted");
        let streaming = self
            .current
            .as_ref()
            .map(|s| (s.packet.len_flits - s.next) as usize)
            .unwrap_or(0);
        self.queued_flits + streaming + self.rx_flits
    }

    /// Flits across all queued packets, by a scan of the source queue:
    /// what `queued_flits` tracks.
    fn scan_queued_flits(&self) -> usize {
        self.inject_queue.iter().map(|p| p.len_flits as usize).sum()
    }

    /// Length of the source queue in packets (saturation detection).
    pub fn queue_len(&self) -> usize {
        self.inject_queue.len() + usize::from(self.current.is_some())
    }

    /// Serialise all mutable NIC state: everything except the identity
    /// and configuration set at construction, and the flit counts a scan
    /// of the queue and reassembly table derives.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        self.inject_queue.save(w);
        self.current.save(w);
        self.credits.save(w);
        self.vc_rr.save(w);
        self.rx.save(w);
        self.delivered.save(w);
    }

    /// Inverse of [`Nic::save_state`], into a freshly constructed NIC of
    /// the same configuration.
    pub fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.inject_queue = Snap::load(r)?;
        self.current = Snap::load(r)?;
        let credits: Vec<u8> = Snap::load(r)?;
        if credits.len() != self.credits.len() {
            return Err(SnapshotError::Mismatch("NIC VC count"));
        }
        self.credits = credits;
        let vc_rr: RoundRobin = Snap::load(r)?;
        vc_rr.check_restored(&self.vc_rr)?;
        self.vc_rr = vc_rr;
        self.rx = Snap::load(r)?;
        self.delivered = Snap::load(r)?;
        self.queued_flits = self.scan_queued_flits();
        self.rx_flits = self.rx.total();
        Ok(())
    }

    /// Purge every trace of `pid` after the packet lost a flit to a link
    /// fault: cancel a mid-injection stream (the network already counts
    /// the packet lost) and drop any partial reassembly so the rx buffer
    /// cannot wait forever for flits that no longer exist. Returns the
    /// number of flits discarded here.
    pub fn abort_packet(&mut self, pid: PacketId) -> usize {
        let mut dropped = 0;
        if self.current.as_ref().is_some_and(|s| s.packet.id == pid) {
            let s = self.current.take().expect("just matched");
            dropped += (s.packet.len_flits - s.next) as usize;
        }
        if let Some(count) = self.rx.remove(pid) {
            self.rx_flits -= count as usize;
            dropped += count as usize;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{MsgClass, PacketId};

    fn nic() -> Nic {
        Nic::new(NodeId(0), &RouterConfig::default())
    }

    /// Every VC of the default router is active.
    const ALL_VCS: u8 = 4;

    fn pkt(id: u64, len: u8) -> Packet {
        Packet::data(PacketId(id), NodeId(0), NodeId(5), len, 0)
    }

    #[test]
    fn serialises_one_flit_per_call() {
        let mut n = nic();
        n.enqueue(pkt(1, 5));
        let mut seqs = Vec::new();
        while let Some(f) = n.next_flit(ALL_VCS) {
            seqs.push(f.seq);
            if seqs.len() > 10 {
                break;
            }
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(n.occupancy(), 0);
    }

    #[test]
    fn respects_credits() {
        let mut n = nic();
        n.enqueue(pkt(1, 5));
        // Only the head is credit-funded if we pre-drain VC credits.
        // Stream starts on some VC v; exhaust it after 2 flits.
        let f0 = n.next_flit(ALL_VCS).unwrap();
        let vc = f0.vc;
        let _f1 = n.next_flit(ALL_VCS).unwrap();
        n.credits[vc as usize] = 0;
        assert!(n.next_flit(ALL_VCS).is_none(), "must stall without credits");
        n.credit(vc);
        assert!(n.next_flit(ALL_VCS).is_some());
    }

    #[test]
    fn packets_do_not_interleave() {
        let mut n = nic();
        n.enqueue(pkt(1, 3));
        n.enqueue(pkt(2, 3));
        let mut ids = Vec::new();
        while let Some(f) = n.next_flit(ALL_VCS) {
            ids.push((f.packet, f.seq));
        }
        assert_eq!(
            ids,
            vec![
                (PacketId(1), 0),
                (PacketId(1), 1),
                (PacketId(1), 2),
                (PacketId(2), 0),
                (PacketId(2), 1),
                (PacketId(2), 2)
            ]
        );
    }

    #[test]
    fn gated_vcs_not_used_for_new_packets() {
        let mut n = nic();
        n.enqueue(pkt(1, 1));
        let f = n.next_flit(1).unwrap();
        assert_eq!(f.vc, 0);
    }

    #[test]
    fn reassembly_and_delivery() {
        let mut n = nic();
        let p = Packet::data(PacketId(9), NodeId(3), NodeId(0), 4, 10);
        for s in 0..4 {
            let f = Flit::of_packet(&p, s, Switching::Circuit);
            n.accept_ejected(50 + s as Cycle, f);
        }
        let mut sink = Vec::new();
        n.drain_delivered(&mut sink);
        assert_eq!(sink.len(), 1);
        let d = &sink[0];
        assert_eq!(d.delivered, 53);
        assert_eq!(d.created, 10);
        assert_eq!(d.switching, Switching::Circuit);
        assert_eq!(n.occupancy(), 0);
    }

    #[test]
    fn config_priority_queueing() {
        let mut n = nic();
        n.enqueue(pkt(1, 5));
        n.enqueue_front(Packet::config(
            PacketId(2),
            NodeId(0),
            NodeId(5),
            crate::flit::ConfigKind::Setup(crate::flit::SetupInfo {
                src: NodeId(0),
                dst: NodeId(5),
                slot: 0,
                duration: 4,
                path_id: 0,
            }),
            0,
        ));
        let f = n.next_flit(ALL_VCS).unwrap();
        assert_eq!(f.packet, PacketId(2));
        assert_eq!(f.class(), MsgClass::Config);
    }
}
