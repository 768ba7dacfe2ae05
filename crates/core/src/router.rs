//! The hybrid-switched router (Figure 2).
//!
//! A canonical VC wormhole pipeline extended with:
//!
//! * **slot tables** per input port that demultiplex every arriving flit to
//!   the packet- or the circuit-switched data path;
//! * **circuit-switched latches** — a CS flit spends exactly one cycle in
//!   the router (the crossbar is pre-configured from the slot table) and one
//!   on the link, reaching the downstream router at `T+2` (§II-D);
//! * **time-slot stealing** — in a reserved slot with no CS flit present,
//!   packet-switched traffic may use the crossbar output (§II-D); the
//!   one-bit advance wire of the paper is modelled exactly by the fact that
//!   flits in flight for cycle `T` are latched before the cycle executes;
//! * **configuration-message processing** — `setup` reserves slots on
//!   arrival (incrementing the slot id by 2 per hop for the two-stage CS
//!   pipeline), `teardown` walks the reserved path by slot-table reference
//!   and invalidates it, and failures turn into `ack` messages heading back
//!   to the source (§II-B).

use std::sync::Arc;

use noc_sim::routing::{west_first_route, xy_route};
use noc_sim::{
    ConfigArena, ConfigKind, Credit, Cycle, Direction, EventKind, Flit, HybridCtrl, Mesh, MsgClass,
    NodeId, NodeOutputs, Packet, PacketId, Port, PsOutput, PsPipeline, RouterConfig, Snap,
    SnapshotError, SnapshotReader, SnapshotWriter, Switching,
};

use crate::slot_table::SlotTables;

/// DLT maintenance event observed by the router while processing
/// configuration messages; consumed by the node (§III-A1: the DLT "is
/// updated when a new connection is setup in the router").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DltObservation {
    /// A setup for a circuit to `dst` reserved slots here.
    Insert {
        dst: NodeId,
        slot: u16,
        duration: u8,
        in_port: Port,
    },
    /// A circuit-switched flit traversed the reservation to `dst` on
    /// `in_port` at `slot`: the path is confirmed complete and safe to
    /// hitchhike (a setup alone may still fail downstream, leaving a
    /// partial path).
    Confirm {
        dst: NodeId,
        in_port: Port,
        slot: u16,
    },
    /// The circuit to `dst` was torn down.
    Remove { dst: NodeId },
}

impl Snap for DltObservation {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            DltObservation::Insert {
                dst,
                slot,
                duration,
                in_port,
            } => {
                w.u8(0);
                dst.save(w);
                w.u16(*slot);
                w.u8(*duration);
                in_port.save(w);
            }
            DltObservation::Confirm { dst, in_port, slot } => {
                w.u8(1);
                dst.save(w);
                in_port.save(w);
                w.u16(*slot);
            }
            DltObservation::Remove { dst } => {
                w.u8(2);
                dst.save(w);
            }
        }
    }

    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => DltObservation::Insert {
                dst: Snap::load(r)?,
                slot: r.u16()?,
                duration: r.u8()?,
                in_port: Snap::load(r)?,
            },
            1 => DltObservation::Confirm {
                dst: Snap::load(r)?,
                in_port: Snap::load(r)?,
                slot: r.u16()?,
            },
            2 => DltObservation::Remove {
                dst: Snap::load(r)?,
            },
            _ => return Err(SnapshotError::Corrupt("DLT observation tag")),
        })
    }
}

/// Per-cycle switching constraints handed to the PS pipeline.
struct TdmCtrl {
    outputs: [PsOutput; Port::COUNT],
    inputs_blocked: [bool; Port::COUNT],
}

impl HybridCtrl for TdmCtrl {
    fn ps_output_state(&self, _now: Cycle, o: Port) -> PsOutput {
        self.outputs[o.index()]
    }

    fn ps_input_blocked(&self, _now: Cycle, p: Port) -> bool {
        self.inputs_blocked[p.index()]
    }
}

/// The TDM hybrid-switched router.
pub struct TdmRouter {
    pub pipeline: PsPipeline,
    pub slots: SlotTables,
    /// CS flit arriving this cycle per input port, with its resolved output.
    cs_latch: [Option<(Flit, Port)>; Port::COUNT],
    /// Configuration packets generated here (acks), to be injected by the
    /// local NIC.
    pub protocol_out: Vec<Packet>,
    /// DLT updates for the local node.
    pub dlt_observations: Vec<DltObservation>,
    /// Circuit-switched flits whose path ends at this node.
    pub cs_ejected: Vec<Flit>,
    /// Time-slot stealing enabled (§II-D); disabling turns reserved-idle
    /// outputs into blocked ones (ablation).
    pub time_slot_stealing: bool,
    /// Credits owed upstream for configuration flits consumed on arrival
    /// (a consumed flit never reaches the buffer-read stage where credits
    /// are normally returned). Drained into the wires each cycle.
    pending_credits: Vec<(Port, u8)>,
    /// Configuration-payload arena the router reads `setup`/`teardown`
    /// payloads from and re-interns advanced-slot forwards into. Private
    /// by default; the owning network swaps in its shared arena.
    arena: Arc<ConfigArena>,
    next_protocol_id: u64,
}

impl TdmRouter {
    pub fn new(
        id: NodeId,
        mesh: Mesh,
        cfg: RouterConfig,
        slot_capacity: u16,
        slot_active: u16,
        reservation_cap: f64,
    ) -> Self {
        TdmRouter {
            pipeline: PsPipeline::new(id, mesh, cfg),
            slots: SlotTables::new(slot_capacity, slot_active, reservation_cap),
            cs_latch: Default::default(),
            // Small per-cycle scratch: seeded so steady-state churn
            // stays off the allocator (DESIGN.md §17).
            protocol_out: Vec::with_capacity(8),
            dlt_observations: Vec::with_capacity(8),
            cs_ejected: Vec::with_capacity(8),
            time_slot_stealing: true,
            pending_credits: Vec::with_capacity(8),
            arena: Arc::new(ConfigArena::new()),
            next_protocol_id: 0,
        }
    }

    pub fn id(&self) -> NodeId {
        self.pipeline.id
    }

    /// The configuration-payload arena this router reads from.
    pub fn arena(&self) -> &Arc<ConfigArena> {
        &self.arena
    }

    /// Attach the network-wide shared arena (replaces the private one).
    pub fn set_arena(&mut self, arena: Arc<ConfigArena>) {
        self.arena = arena;
    }

    fn protocol_packet_id(&mut self) -> PacketId {
        let id = (1u64 << 63) | ((self.pipeline.id.0 as u64) << 40) | self.next_protocol_id;
        self.next_protocol_id += 1;
        PacketId(id)
    }

    /// A flit arrives on `port` at the start of cycle `now`. Every arrival
    /// consults the slot table (the input demultiplexer of Figure 2).
    pub fn accept_flit(&mut self, now: Cycle, port: Port, flit: Flit) {
        self.pipeline.events.slot_lookups += 1;
        if flit.switching() == Switching::Circuit {
            let out = self.slots.lookup(port, now).unwrap_or_else(|| {
                panic!(
                    "CS flit {:?} (src {:?} dst {:?} seq {} true_dst {:?}) arrived at {:?} \
                         port {:?} in unreserved slot {} (cycle {}) — teardown raced ahead of data",
                    flit.packet,
                    flit.src(),
                    flit.dst(),
                    flit.seq,
                    flit.true_dst(),
                    self.id(),
                    port,
                    self.slots.slot_of(now),
                    now,
                )
            });
            debug_assert!(
                self.cs_latch[port.index()].is_none(),
                "two CS flits in one cycle"
            );
            self.pipeline.events.cs_latch_writes += 1;
            if flit.kind().is_head() && out != Port::Local {
                let entry = self.slots.entry(port, now).expect("the slot is reserved");
                self.dlt_observations.push(DltObservation::Confirm {
                    dst: entry.dst,
                    in_port: port,
                    slot: self.slots.slot_of(now),
                });
            }
            self.cs_latch[port.index()] = Some((flit, out));
            return;
        }
        if flit.class() == MsgClass::Config && flit.kind().is_head() {
            match self.arena.get(flit.config) {
                ConfigKind::Setup(_) | ConfigKind::Teardown(_) => {
                    self.process_config(now, port, flit);
                    return;
                }
                _ => {}
            }
        }
        self.pipeline.accept_flit(now, port, flit);
    }

    /// Inject a circuit-switched flit from the local NIC on this node's own
    /// connection. The local input port's slot table must hold the
    /// reservation; returns `false` (no injection) otherwise.
    pub fn inject_cs_local(&mut self, now: Cycle, flit: Flit) -> bool {
        self.pipeline.events.slot_lookups += 1;
        let Some(out) = self.slots.lookup(Port::Local, now) else {
            return false;
        };
        debug_assert!(self.cs_latch[Port::Local.index()].is_none());
        self.pipeline.events.cs_latch_writes += 1;
        self.cs_latch[Port::Local.index()] = Some((flit, out));
        true
    }

    /// Attempt to inject a hitchhiking flit onto a circuit passing through
    /// this router on `in_port` (§III-A1). Fails on contention: an upstream
    /// CS flit already occupies the slot, or the reservation is gone.
    pub fn inject_cs_hitchhike(
        &mut self,
        now: Cycle,
        flit: Flit,
        in_port: Port,
        expected_dst: NodeId,
    ) -> bool {
        self.pipeline.events.slot_lookups += 1;
        if self.cs_latch[in_port.index()].is_some() {
            return false; // upstream burst wins
        }
        if self.cs_latch[Port::Local.index()].is_some() {
            return false; // our own crossbar input is taken
        }
        let Some(entry) = self.slots.entry(in_port, now) else {
            return false; // reservation vanished (torn down)
        };
        if entry.dst != expected_dst {
            return false; // slot now belongs to a different path
        }
        let out = entry.out;
        self.pipeline.events.cs_latch_writes += 1;
        self.cs_latch[Port::Local.index()] = Some((flit, out));
        true
    }

    /// Return the buffer credit of a configuration flit consumed on
    /// arrival: the upstream router (or local NIC) budgeted a buffer slot
    /// for it, and the normal switch-traversal credit return never runs.
    fn consume_config_credit(&mut self, in_port: Port, vc: u8) {
        match in_port {
            Port::Local => self.pipeline.local_credits.push(vc),
            p => self.pending_credits.push((p, vc)),
        }
    }

    /// Process `setup`/`teardown` on arrival (the reservation check of
    /// §II-B happens when the message enters the router).
    fn process_config(&mut self, now: Cycle, in_port: Port, mut flit: Flit) {
        let kind = self.arena.get(flit.config);
        match kind {
            ConfigKind::Setup(info) => {
                let out = if info.dst == self.id() {
                    Port::Local
                } else {
                    self.route_for_setup(&flit)
                };
                match self.slots.try_reserve(
                    in_port,
                    info.slot,
                    info.duration,
                    out,
                    info.path_id,
                    info.dst,
                ) {
                    Ok(written) => {
                        self.pipeline.trace.record(
                            now,
                            self.pipeline.id.0,
                            EventKind::CircuitSetup,
                            in_port.index() as u8,
                            info.path_id,
                        );
                        self.pipeline.events.slot_updates += written as u64;
                        self.dlt_observations.push(DltObservation::Insert {
                            dst: info.dst,
                            slot: info.slot % self.slots.active(),
                            duration: info.duration,
                            in_port,
                        });
                        if out == Port::Local {
                            // Reached the destination: ack success.
                            self.pipeline.events.config_flits_delivered += 1;
                            self.arena.free(flit.config);
                            self.consume_config_credit(in_port, flit.vc);
                            self.emit_ack(now, info, true);
                        } else {
                            // Forward with the slot id advanced by 2 — the
                            // circuit pipeline is two-stage (§II-B). The
                            // stale payload is freed and the advanced one
                            // re-interned.
                            let mut fwd = info;
                            fwd.slot = (info.slot + 2) % self.slots.active();
                            self.arena.free(flit.config);
                            flit.config = self.arena.alloc(ConfigKind::Setup(fwd));
                            flit.set_forced_out(Some(out));
                            self.pipeline.accept_flit(now, in_port, flit);
                        }
                    }
                    Err(_) => {
                        // Abort: ack failure back to the source (§II-B). The
                        // already-reserved upstream slots are cleaned by the
                        // teardown the source sends on receiving the ack.
                        self.pipeline.events.setup_failures += 1;
                        self.pipeline.events.config_flits_delivered += 1;
                        self.arena.free(flit.config);
                        self.consume_config_credit(in_port, flit.vc);
                        self.emit_ack(now, info, false);
                    }
                }
            }
            ConfigKind::Teardown(info) => {
                match self.slots.release_path(in_port, info.path_id) {
                    Some((out, cleared)) => {
                        self.pipeline.trace.record(
                            now,
                            self.pipeline.id.0,
                            EventKind::CircuitTeardown,
                            in_port.index() as u8,
                            info.path_id,
                        );
                        self.pipeline.events.slot_updates += cleared as u64;
                        self.dlt_observations
                            .push(DltObservation::Remove { dst: info.dst });
                        if out == Port::Local {
                            self.pipeline.events.config_flits_delivered += 1;
                            self.arena.free(flit.config);
                            self.consume_config_credit(in_port, flit.vc);
                        } else {
                            // The teardown payload is hop-invariant: the
                            // interned handle travels on unchanged.
                            flit.set_forced_out(Some(out));
                            self.pipeline.accept_flit(now, in_port, flit);
                        }
                    }
                    None => {
                        // Reached the node where the setup failed (§II-B).
                        self.pipeline.events.config_flits_delivered += 1;
                        self.arena.free(flit.config);
                        self.consume_config_credit(in_port, flit.vc);
                    }
                }
            }
            ConfigKind::Ack { .. } => unreachable!("acks are routed, not processed"),
        }
    }

    /// Pick the output for a setup (and hence for its circuit): minimal
    /// adaptive routing under the west-first turn model, scored by
    /// downstream credit availability (§II-B "path selection"). On a torus
    /// the turn-model deadlock argument does not apply, so setups fall back
    /// to deterministic wrap-aware dimension-order routing.
    fn route_for_setup(&self, flit: &Flit) -> Port {
        if self.pipeline.cfg.adaptive_config_routing && !self.pipeline.mesh.is_torus() {
            west_first_route(&self.pipeline.mesh, self.id(), flit.dst(), |d| {
                self.pipeline.out_score(d)
            })
        } else {
            xy_route(&self.pipeline.mesh, self.id(), flit.dst())
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
        let ack = Packet::config(
            id,
            self.id(),
            info.src,
            ConfigKind::Ack { info, success },
            now,
        );
        self.protocol_out.push(ack);
    }

    /// Advance one cycle: circuit-switched traversal, then the
    /// packet-switched pipeline under the hybrid constraints.
    pub fn step(&mut self, now: Cycle, out: &mut NodeOutputs) {
        // Credits for configuration flits consumed on arrival.
        for (port, vc) in self.pending_credits.drain(..) {
            let dir = port
                .direction()
                .expect("local credits go via local_credits");
            out.credits.push((dir, noc_sim::Credit { vc }));
        }
        // Build the per-cycle constraint view.
        let mut ctrl = TdmCtrl {
            outputs: [PsOutput::Free; Port::COUNT],
            inputs_blocked: [false; Port::COUNT],
        };
        // One pass over the latches yields both the blocked inputs and the
        // outputs busy with a circuit flit this cycle; the slot tables
        // answer "reserved in this slot" with a single byte (maintained
        // incrementally by reserve/release).
        let mut latched_outs = 0u8;
        for (p, l) in self.cs_latch.iter().enumerate() {
            if let Some((_, cs_out)) = l {
                latched_outs |= 1 << cs_out.index();
                ctrl.inputs_blocked[p] = true;
            }
        }
        let reserved_outs = self.slots.reserved_outputs(now);
        for o in Port::ALL {
            let bit = 1u8 << o.index();
            ctrl.outputs[o.index()] = if latched_outs & bit != 0 {
                PsOutput::Busy
            } else if reserved_outs & bit != 0 {
                if self.time_slot_stealing {
                    PsOutput::ReservedIdle
                } else {
                    PsOutput::Busy
                }
            } else {
                PsOutput::Free
            };
        }

        // Circuit-switched traversal: one cycle through the pre-configured
        // crossbar, no buffering.
        let mut used_outputs = 0u8;
        for p in 0..Port::COUNT {
            let Some((mut flit, o)) = self.cs_latch[p].take() else {
                continue;
            };
            debug_assert_eq!(used_outputs & (1 << o.index()), 0, "CS output collision");
            used_outputs |= 1 << o.index();
            self.pipeline.events.xbar_traversals += 1;
            match o.direction() {
                Some(d) => {
                    flit.hops += 1;
                    self.pipeline.events.link_flits += 1;
                    self.pipeline.trace.record(
                        now,
                        self.pipeline.id.0,
                        EventKind::LinkTraverse,
                        o.index() as u8,
                        flit.packet.0,
                    );
                    out.flits.push((d, flit));
                }
                None => {
                    self.pipeline.events.cs_flits_delivered += 1;
                    self.pipeline.trace.record(
                        now,
                        self.pipeline.id.0,
                        EventKind::Eject,
                        Port::Local.index() as u8,
                        flit.packet.0,
                    );
                    self.cs_ejected.push(flit);
                }
            }
        }

        self.pipeline.step(now, &ctrl, out);
    }

    /// Reset all slot tables to `new_active` entries (dynamic granularity
    /// doubling, §II-C).
    pub fn reset_slots(&mut self, new_active: u16) {
        let cleared = self.slots.reset(new_active);
        self.pipeline.events.slot_updates += cleared as u64;
        self.pipeline.events.slot_table_resizes += 1;
    }

    /// Deferred signals not visible in [`TdmRouter::occupancy`]: credits
    /// owed to upstream neighbours and DLT observations the node has not
    /// yet folded in. The activity scheduler must not let a node sleep
    /// while either is pending — the next step drains them.
    pub fn has_deferred_signals(&self) -> bool {
        !self.pending_credits.is_empty() || !self.dlt_observations.is_empty()
    }

    /// Flits owned by the router (drain detection).
    pub fn occupancy(&self) -> usize {
        self.pipeline.occupancy()
            + self.cs_latch.iter().flatten().count()
            + self.cs_ejected.len()
            + self
                .protocol_out
                .iter()
                .map(|p| p.len_flits as usize)
                .sum::<usize>()
    }

    /// Purge everything belonging to `pid` after the network dropped one
    /// of its flits on a dead link: the packet-switched pipeline (buffer
    /// credits refunded via `credits`), the circuit latches, and ejected
    /// circuit flits not yet consumed by the node. CS flits are never
    /// buffered, so they carry no credit to refund. Returns the flits
    /// discarded.
    pub fn purge_packet(
        &mut self,
        pid: PacketId,
        arena: &ConfigArena,
        credits: &mut Vec<(Direction, Credit)>,
    ) -> usize {
        let mut dropped = self.pipeline.purge_packet(pid, arena, credits);
        for l in &mut self.cs_latch {
            if l.as_ref().is_some_and(|(f, _)| f.packet == pid) {
                *l = None;
                dropped += 1;
            }
        }
        let before = self.cs_ejected.len();
        self.cs_ejected.retain(|f| f.packet != pid);
        dropped + before - self.cs_ejected.len()
    }

    /// Serialise the router's mutable state (snapshot seam, DESIGN.md §14).
    /// `time_slot_stealing` is configuration and the trace sink is
    /// telemetry (checkpoints are refused while telemetry is armed); the
    /// arena is serialised once at network level.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        self.pipeline.save_state(w);
        self.slots.save_state(w);
        self.cs_latch.save(w);
        self.protocol_out.save(w);
        self.dlt_observations.save(w);
        self.cs_ejected.save(w);
        self.pending_credits.save(w);
        w.u64(self.next_protocol_id);
    }

    /// Inverse of [`TdmRouter::save_state`].
    pub fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.pipeline.load_state(r)?;
        self.slots.load_state(r)?;
        self.cs_latch = Snap::load(r)?;
        self.protocol_out = Snap::load(r)?;
        self.dlt_observations = Snap::load(r)?;
        self.cs_ejected = Snap::load(r)?;
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

    fn router_at(m: Mesh, c: Coord) -> TdmRouter {
        TdmRouter::new(m.id(c), m, RouterConfig::default(), 16, 16, 0.9)
    }

    fn setup_flit(
        arena: &ConfigArena,
        src: NodeId,
        dst: NodeId,
        slot: u16,
        duration: u8,
        path_id: u64,
    ) -> Flit {
        let info = SetupInfo {
            src,
            dst,
            slot,
            duration,
            path_id,
        };
        let p = Packet::config(
            PacketId(1000 + path_id),
            src,
            dst,
            ConfigKind::Setup(info),
            0,
        );
        Flit::of_packet_in(arena, &p, 0, Switching::Packet)
    }

    fn cs_flit(packet: u64, src: NodeId, dst: NodeId, seq: u8, len: u8) -> Flit {
        let p = Packet::data(PacketId(packet), src, dst, len, 0);
        Flit::of_packet(&p, seq, Switching::Circuit)
    }

    #[test]
    fn setup_reserves_and_forwards_with_slot_plus_two() {
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1)); // node 5
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup_flit(r.arena(), src, dst, 6, 4, 42));
        // Reservation made at West for slots 6..10 toward East.
        assert_eq!(r.slots.lookup(Port::West, 6), Some(Port::East));
        assert_eq!(r.slots.lookup(Port::West, 9), Some(Port::East));
        assert!(r.slots.lookup(Port::West, 10).is_none());
        // The forwarded setup leaves through East with slot 8.
        let mut out = NodeOutputs::default();
        for now in 0..3 {
            r.step(now, &mut out);
        }
        assert_eq!(out.flits.len(), 1);
        let (dir, f) = &out.flits[0];
        assert_eq!(*dir, noc_sim::Direction::East);
        match r.arena().get(f.config) {
            ConfigKind::Setup(i) => assert_eq!(i.slot, 8),
            other => panic!("unexpected payload {other:?}"),
        }
        // DLT observation recorded.
        assert!(matches!(
            r.dlt_observations[0],
            DltObservation::Insert { dst: d, slot: 6, duration: 4, in_port: Port::West } if d == dst
        ));
    }

    #[test]
    fn setup_at_destination_produces_success_ack() {
        let m = mesh();
        let dst = m.id(Coord::new(1, 1));
        let mut r = router_at(m, Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        r.accept_flit(0, Port::West, setup_flit(r.arena(), src, dst, 4, 4, 7));
        // Reserved to Local.
        assert_eq!(r.slots.lookup(Port::West, 4), Some(Port::Local));
        assert_eq!(r.protocol_out.len(), 1);
        let ack = &r.protocol_out[0];
        assert_eq!(ack.dst, src);
        match ack.config.as_ref().unwrap() {
            ConfigKind::Ack { info, success } => {
                assert!(*success);
                assert_eq!(info.path_id, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn conflicting_setup_produces_failure_ack() {
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1));
        let src1 = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup_flit(r.arena(), src1, dst, 6, 4, 1));
        // Second setup from the south wants the same East output at an
        // overlapping slot → Figure 1's setup3 failure.
        let src2 = m.id(Coord::new(1, 3));
        r.accept_flit(1, Port::South, setup_flit(r.arena(), src2, dst, 7, 4, 2));
        assert_eq!(r.pipeline.events.setup_failures, 1);
        let ack = r
            .protocol_out
            .iter()
            .find(|p| p.dst == src2)
            .expect("failure ack");
        match ack.config.as_ref().unwrap() {
            ConfigKind::Ack { success, info } => {
                assert!(!success);
                assert_eq!(info.path_id, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // South's table is untouched.
        assert!(r.slots.lookup(Port::South, 7).is_none());
    }

    #[test]
    fn cs_flit_single_cycle_traversal() {
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup_flit(r.arena(), src, dst, 6, 4, 1));
        // A CS flit arrives at cycle 6 (≡ slot 6 mod 16).
        let f = cs_flit(50, src, dst, 0, 4);
        r.accept_flit(6, Port::West, f);
        let mut out = NodeOutputs::default();
        r.step(6, &mut out);
        // Leaves the same cycle it arrived.
        let cs: Vec<_> = out
            .flits
            .iter()
            .filter(|(_, f)| f.switching() == Switching::Circuit)
            .collect();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].0, noc_sim::Direction::East);
        assert_eq!(r.pipeline.events.cs_latch_writes, 1);
        // CS flits are never buffered.
        assert_eq!(r.pipeline.events.buffer_writes, 1); // only the setup flit
    }

    #[test]
    fn cs_ejects_at_path_end() {
        let m = mesh();
        let dst = m.id(Coord::new(1, 1));
        let mut r = router_at(m, Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        r.accept_flit(0, Port::West, setup_flit(r.arena(), src, dst, 4, 4, 1));
        r.accept_flit(4, Port::West, cs_flit(51, src, dst, 0, 4));
        let mut out = NodeOutputs::default();
        r.step(4, &mut out);
        assert_eq!(r.cs_ejected.len(), 1);
        assert_eq!(r.pipeline.events.cs_flits_delivered, 1);
    }

    #[test]
    #[should_panic(expected = "unreserved slot")]
    fn cs_flit_in_unreserved_slot_panics() {
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        r.accept_flit(
            3,
            Port::West,
            cs_flit(52, src, m.id(Coord::new(3, 1)), 0, 4),
        );
    }

    #[test]
    fn teardown_walks_path_and_clears() {
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup_flit(r.arena(), src, dst, 6, 4, 9));
        assert!(r.slots.lookup(Port::West, 6).is_some());
        // Flush the forwarded setup flit out of the pipeline first.
        {
            let mut out = NodeOutputs::default();
            for now in 0..4 {
                r.step(now, &mut out);
            }
        }
        // Teardown with the same path id arrives on the same port.
        let info = SetupInfo {
            src,
            dst,
            slot: 6,
            duration: 4,
            path_id: 9,
        };
        let p = Packet::config(PacketId(2000), src, dst, ConfigKind::Teardown(info), 10);
        let f = Flit::of_packet_in(r.arena(), &p, 0, Switching::Packet);
        r.accept_flit(10, Port::West, f);
        assert!(r.slots.lookup(Port::West, 6).is_none());
        // Forwarded along the reserved output (East).
        let mut out = NodeOutputs::default();
        for now in 10..13 {
            r.step(now, &mut out);
        }
        assert_eq!(out.flits.len(), 1);
        assert!(matches!(
            r.arena().get(out.flits[0].1.config),
            ConfigKind::Teardown(i) if i.path_id == 9
        ));
        assert!(r
            .dlt_observations
            .iter()
            .any(|o| matches!(o, DltObservation::Remove { dst: d } if *d == dst)));
    }

    #[test]
    fn teardown_past_failure_point_is_consumed() {
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        let info = SetupInfo {
            src,
            dst,
            slot: 6,
            duration: 4,
            path_id: 77,
        };
        let p = Packet::config(PacketId(3000), src, dst, ConfigKind::Teardown(info), 0);
        let f = Flit::of_packet_in(r.arena(), &p, 0, Switching::Packet);
        r.accept_flit(0, Port::West, f);
        let mut out = NodeOutputs::default();
        for now in 0..4 {
            r.step(now, &mut out);
        }
        assert!(
            out.flits.is_empty(),
            "teardown for unknown path must die here"
        );
    }

    #[test]
    fn ps_flit_steals_idle_reserved_slot_but_yields_to_cs() {
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        // Reserve ALL slots West→East so every cycle is reserved.
        r.accept_flit(0, Port::West, setup_flit(r.arena(), src, dst, 0, 8, 1));
        r.accept_flit(0, Port::West, setup_flit(r.arena(), src, dst, 8, 6, 2)); // 14 of 16 (cap 0.9)
                                                                                // A PS flit from the south also heading East.
        let ps = {
            let p = Packet::data(PacketId(60), m.id(Coord::new(1, 3)), dst, 1, 0);
            let mut f = Flit::of_packet(&p, 0, Switching::Packet);
            f.vc = 0;
            f
        };
        r.accept_flit(0, Port::South, ps);
        let mut out = NodeOutputs::default();
        let mut stolen_at = None;
        for now in 0..8 {
            out.clear();
            r.step(now, &mut out);
            if out
                .flits
                .iter()
                .any(|(_, f)| f.switching() == Switching::Packet && f.class() == MsgClass::Data)
            {
                stolen_at = Some(now);
                break;
            }
        }
        // It left within the reserved region by stealing.
        assert!(
            stolen_at.is_some(),
            "PS flit starved despite idle reserved slots"
        );
        assert!(r.pipeline.events.slots_stolen >= 1);

        // Now with a CS flit occupying the slot, a fresh PS flit must wait
        // that cycle.
        let ps2 = {
            let p = Packet::data(PacketId(61), m.id(Coord::new(1, 3)), dst, 1, 0);
            let mut f = Flit::of_packet(&p, 0, Switching::Packet);
            f.vc = 1;
            f
        };
        let t0 = 16; // slot 0, reserved for path 1
        r.accept_flit(t0, Port::South, ps2);
        r.accept_flit(t0, Port::West, cs_flit(62, src, dst, 0, 4));
        out.clear();
        r.step(t0, &mut out);
        let ps_left = out
            .flits
            .iter()
            .any(|(_, f)| f.switching() == Switching::Packet && f.class() == MsgClass::Data);
        assert!(!ps_left, "PS flit must not share the output with a CS flit");
    }

    #[test]
    fn hitchhike_injection_and_contention() {
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup_flit(r.arena(), src, dst, 6, 4, 1));

        // Free slot: hitchhike succeeds and the flit leaves East.
        let mine = cs_flit(70, r.id(), dst, 0, 4);
        assert!(r.inject_cs_hitchhike(6, mine, Port::West, dst));
        let mut out = NodeOutputs::default();
        r.step(6, &mut out);
        assert_eq!(
            out.flits
                .iter()
                .filter(|(_, f)| f.switching() == Switching::Circuit)
                .count(),
            1
        );

        // Contention: upstream flit already latched → sharing fails.
        r.accept_flit(22, Port::West, cs_flit(71, src, dst, 0, 4)); // slot 6 again
        let mine2 = cs_flit(72, r.id(), dst, 0, 4);
        assert!(!r.inject_cs_hitchhike(22, mine2, Port::West, dst));

        // Wrong expected destination: reservation belongs to another path.
        let mine3 = cs_flit(73, r.id(), m.id(Coord::new(2, 2)), 0, 4);
        assert!(!r.inject_cs_hitchhike(38, mine3, Port::West, m.id(Coord::new(2, 2))));
    }

    #[test]
    fn local_cs_injection_follows_reservation() {
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1));
        let dst = m.id(Coord::new(3, 1));
        // The node's own setup passes through its router via the local port.
        r.accept_flit(0, Port::Local, setup_flit(r.arena(), r.id(), dst, 2, 4, 5));
        assert_eq!(r.slots.lookup(Port::Local, 2), Some(Port::East));
        assert!(r.inject_cs_local(2, cs_flit(80, r.id(), dst, 0, 4)));
        // Unreserved slot: no injection.
        assert!(!r.inject_cs_local(7, cs_flit(81, r.id(), dst, 0, 4)));
    }

    #[test]
    fn reset_clears_reservations_and_counts() {
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup_flit(r.arena(), src, dst, 6, 4, 1));
        r.reset_slots(16);
        assert!(r.slots.lookup(Port::West, 6).is_none());
        assert_eq!(r.pipeline.events.slot_table_resizes, 1);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use noc_sim::{Coord, SetupInfo};

    fn mesh() -> Mesh {
        Mesh::square(4)
    }

    fn router_at(m: Mesh, c: Coord) -> TdmRouter {
        TdmRouter::new(m.id(c), m, RouterConfig::default(), 16, 16, 0.9)
    }

    fn setup_flit(
        arena: &ConfigArena,
        src: NodeId,
        dst: NodeId,
        slot: u16,
        duration: u8,
        path_id: u64,
    ) -> Flit {
        let info = SetupInfo {
            src,
            dst,
            slot,
            duration,
            path_id,
        };
        let p = Packet::config(
            PacketId(5000 + path_id),
            src,
            dst,
            ConfigKind::Setup(info),
            0,
        );
        Flit::of_packet_in(arena, &p, 0, Switching::Packet)
    }

    fn cs_flit(packet: u64, src: NodeId, dst: NodeId, seq: u8, len: u8) -> Flit {
        let p = Packet::data(PacketId(packet), src, dst, len, 0);
        Flit::of_packet(&p, seq, Switching::Circuit)
    }

    #[test]
    fn consumed_setup_returns_the_upstream_credit() {
        // A setup that terminates at this router (destination reached) must
        // hand the buffer credit back to the port it arrived on.
        let m = mesh();
        let dst = m.id(Coord::new(1, 1));
        let mut r = router_at(m, Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let mut f = setup_flit(r.arena(), src, dst, 4, 4, 7);
        f.vc = 2;
        r.accept_flit(0, Port::West, f);
        let mut out = NodeOutputs::default();
        r.step(0, &mut out);
        assert!(
            out.credits
                .iter()
                .any(|(d, c)| *d == noc_sim::Direction::West && c.vc == 2),
            "consumed setup leaked its credit: {:?}",
            out.credits
        );
    }

    #[test]
    fn consumed_local_setup_credits_the_nic() {
        // Setup injected locally that fails immediately must credit the NIC.
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1));
        let dst = m.id(Coord::new(3, 1));
        // Fill the local table so the local setup fails (cap 0.9 × 16 = 14).
        r.accept_flit(0, Port::Local, setup_flit(r.arena(), r.id(), dst, 0, 8, 1));
        r.accept_flit(0, Port::Local, setup_flit(r.arena(), r.id(), dst, 8, 6, 2));
        let mut f = setup_flit(r.arena(), r.id(), dst, 14, 2, 3);
        f.vc = 1;
        r.accept_flit(0, Port::Local, f); // CapReached → consumed
        assert!(r.pipeline.local_credits.contains(&1), "NIC credit missing");
        // And the failure ack was generated for the local node.
        assert!(r
            .protocol_out
            .iter()
            .any(|p| matches!(p.config, Some(ConfigKind::Ack { success: false, .. }))));
    }

    #[test]
    fn cs_flit_blocks_ps_from_same_input_that_cycle() {
        let m = mesh();
        let mut r = router_at(m, Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup_flit(r.arena(), src, dst, 6, 4, 1));
        // Stage a PS flit at West heading North (different output), ready
        // for SA by cycle 6.
        let ps = {
            let p = Packet::data(PacketId(99), src, m.id(Coord::new(1, 0)), 1, 0);
            let mut f = Flit::of_packet(&p, 0, Switching::Packet);
            f.vc = 1; // vc0 still holds the forwarded setup flit
            f
        };
        r.accept_flit(4, Port::West, ps);
        let mut out = NodeOutputs::default();
        for now in 4..6 {
            out.clear();
            r.step(now, &mut out);
        }
        // Cycle 6: a CS flit arrives on West; the PS flit must not be
        // granted this cycle (shared crossbar input), even toward North.
        r.accept_flit(6, Port::West, cs_flit(100, src, dst, 0, 4));
        out.clear();
        r.step(6, &mut out);
        let ps_left = out
            .flits
            .iter()
            .any(|(_, f)| f.switching() == Switching::Packet && f.class() == MsgClass::Data);
        assert!(!ps_left, "PS flit shared the crossbar input with a CS flit");
        // Within the next couple of cycles it goes (it may lose one SA
        // round to the setup flit sharing the input port).
        let mut left = false;
        for now in 7..10 {
            out.clear();
            r.step(now, &mut out);
            left |= out
                .flits
                .iter()
                .any(|(_, f)| f.switching() == Switching::Packet && f.class() == MsgClass::Data);
        }
        assert!(left, "PS flit never resumed after the CS cycle");
    }
}
