//! The SDM hybrid router: a VC wormhole pipeline whose links are
//! partitioned into planes.
//!
//! Packet-switched flits bind their packet to one plane per output link and
//! occupy it for `P` cycles per flit (the phit-serialisation of a
//! width-partitioned link), so at most `P` packets share a link and flits
//! of one packet are spaced `P` cycles apart. Circuit-switched flits follow
//! a per-plane reservation (`circuits[in_port][plane] → out_port`) and
//! bypass buffering entirely. Plane 0 is never circuit-reserved, keeping
//! the packet-switched network alive.

use std::sync::Arc;

use noc_sim::arbiter::{load_arbiters, RoundRobin};
use noc_sim::routing::xy_route;
use noc_sim::stats::EnergyEvents;
use noc_sim::{
    ConfigArena, ConfigKind, Credit, Cycle, EventKind, Flit, FlitRings, Mesh, MsgClass, NodeId,
    NodeOutputs, Packet, PacketId, Port, RouterConfig, Snap, SnapshotError, SnapshotReader,
    SnapshotWriter, Switching, TraceSink, VcCtl, VcState,
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

struct SdmOutPort {
    alloc: Vec<Option<(u8, u8)>>,
    credits: Vec<u8>,
    planes: Vec<Plane>,
    exists: bool,
}

noc_sim::impl_snap!(CircuitEntry { path_id, out, dst });
noc_sim::impl_snap!(Plane {
    busy_until,
    bound,
    circuit,
});

/// Which dimension a port's link runs in (0 = X, 1 = Y, 2 = none/local);
/// used by the torus dateline class rule. Mirrors the PS pipeline.
#[inline]
fn port_dim(p: usize) -> u8 {
    match Port::from_index(p) {
        Port::Local => 2,
        Port::North | Port::South => 1,
        Port::East | Port::West => 0,
    }
}

/// The SDM hybrid router.
pub struct SdmRouter {
    pub id: NodeId,
    pub mesh: Mesh,
    pub cfg: RouterConfig,
    planes_n: u8,
    /// Torus dateline state: VCs below `vc_half` are class 0, the rest
    /// class 1; zero on a mesh (no partition). Same contract as the PS
    /// pipeline's dateline discipline.
    vc_half: u8,
    /// Whether the link out of each port crosses a torus wrap edge.
    wrap_out: [bool; Port::COUNT],
    /// Input VC buffers: one fixed-depth ring per VC, flat over
    /// `port * vcs_per_port + vc`.
    buf: FlitRings,
    /// Per-VC pipeline control rows, parallel to the rings.
    ctl: Vec<VcCtl>,
    // O(1) occupancy bookkeeping and stage-candidate masks over the flat
    // VC index, as in the PS pipeline: `buffered` = Σ ring lengths,
    // `rc_mask` = Idle VCs holding flits, `wait_mask` = Waiting VCs,
    // `act_mask` = Active VCs (so the waiting/active counts are the masks'
    // popcounts). The stage loops walk only the set bits and skip a stage
    // whose mask is empty. Derived state: never serialised, recomputed by
    // `scan_counters` after restore, cross-checked against it by
    // `debug_validate_counters`.
    buffered: u32,
    rc_mask: u64,
    wait_mask: u64,
    act_mask: u64,
    outputs: Vec<SdmOutPort>,
    /// `circuits[in_port][plane]`.
    circuits: Vec<Vec<Option<CircuitEntry>>>,
    va_arb: Vec<RoundRobin>,
    sa_arb_out: Vec<RoundRobin>,
    /// CS flits arriving this cycle, with resolved outputs.
    cs_incoming: Vec<(Flit, Port)>,
    pub events: EnergyEvents,
    pub ejected: Vec<Flit>,
    pub cs_ejected: Vec<Flit>,
    pub local_credits: Vec<u8>,
    pub protocol_out: Vec<Packet>,
    /// Credits owed upstream for configuration flits consumed on arrival.
    pending_credits: Vec<(Port, u8)>,
    /// Flit-lifecycle telemetry sink (a copied-discriminant branch when
    /// disabled).
    pub trace: TraceSink,
    /// Configuration-payload slab the `ConfigRef`s of in-flight flits
    /// resolve against; swapped for the network-wide arena on attach.
    arena: Arc<ConfigArena>,
    next_protocol_id: u64,
}

impl SdmRouter {
    pub fn new(id: NodeId, mesh: Mesh, cfg: RouterConfig, planes: u8) -> Self {
        assert!(planes >= 2, "SDM needs at least one PS and one CS plane");
        let vcs = cfg.vcs_per_port as usize;
        assert!(
            Port::COUNT * vcs <= 64,
            "stage masks are u64 words: at most {} VCs per port",
            64 / Port::COUNT
        );
        if mesh.is_torus() {
            assert!(
                cfg.vcs_per_port >= 2 && cfg.vcs_per_port.is_multiple_of(2),
                "torus dateline routing splits the VC range into two \
                 classes: vcs_per_port must be even and at least 2"
            );
        }
        let vc_half = if mesh.is_torus() {
            cfg.vcs_per_port / 2
        } else {
            0
        };
        let mut wrap_out = [false; Port::COUNT];
        for p in Port::ALL {
            if let Some(d) = p.direction() {
                wrap_out[p.index()] = mesh.wraps(id, d);
            }
        }
        SdmRouter {
            id,
            mesh,
            cfg,
            planes_n: planes,
            vc_half,
            wrap_out,
            buf: FlitRings::new(Port::COUNT * vcs, cfg.buf_depth),
            ctl: vec![
                VcCtl {
                    state: VcState::Idle,
                    stage_cycle: 0,
                };
                Port::COUNT * vcs
            ],
            buffered: 0,
            rc_mask: 0,
            wait_mask: 0,
            act_mask: 0,
            outputs: Port::ALL
                .iter()
                .map(|&p| SdmOutPort {
                    alloc: vec![None; vcs],
                    credits: vec![cfg.buf_depth; vcs],
                    planes: vec![Plane::default(); planes as usize],
                    exists: match p.direction() {
                        None => true,
                        Some(d) => mesh.neighbor(id, d).is_some(),
                    },
                })
                .collect(),
            circuits: (0..Port::COUNT)
                .map(|_| vec![None; planes as usize])
                .collect(),
            va_arb: (0..Port::COUNT)
                .map(|_| RoundRobin::new(Port::COUNT * vcs))
                .collect(),
            sa_arb_out: (0..Port::COUNT)
                .map(|_| RoundRobin::new(Port::COUNT))
                .collect(),
            cs_incoming: Vec::with_capacity(8),
            events: EnergyEvents::default(),
            ejected: Vec::with_capacity(8),
            cs_ejected: Vec::with_capacity(8),
            local_credits: Vec::with_capacity(8),
            protocol_out: Vec::with_capacity(8),
            pending_credits: Vec::with_capacity(8),
            trace: TraceSink::Disabled,
            arena: Arc::new(ConfigArena::new()),
            next_protocol_id: 0,
        }
    }

    pub fn planes(&self) -> u8 {
        self.planes_n
    }

    /// Flat ring index of input VC `vc` at port `p`.
    #[inline]
    fn vci(&self, p: usize, vc: usize) -> usize {
        p * self.cfg.vcs_per_port as usize + vc
    }

    /// The configuration-payload arena this router resolves against.
    pub fn arena(&self) -> &Arc<ConfigArena> {
        &self.arena
    }

    /// Adopt the network-wide payload arena.
    pub fn set_arena(&mut self, arena: Arc<ConfigArena>) {
        self.arena = arena;
    }

    /// The circuit table entry at (`port`, `plane`).
    pub fn circuit_at(&self, port: Port, plane: u8) -> Option<&CircuitEntry> {
        self.circuits[port.index()][plane as usize].as_ref()
    }

    fn protocol_packet_id(&mut self) -> PacketId {
        let id = (3u64 << 62) | ((self.id.0 as u64) << 40) | self.next_protocol_id;
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
                    self.id
                )
            });
            self.events.cs_latch_writes += 1;
            self.cs_incoming.push((flit, entry.out));
            return;
        }
        if flit.class() == MsgClass::Config && flit.kind().is_head() && flit.config.is_some() {
            match self.arena.get(flit.config) {
                ConfigKind::Setup(_) | ConfigKind::Teardown(_) => {
                    self.process_config(now, port, flit);
                    return;
                }
                _ => {}
            }
        }
        let i = self.vci(port.index(), flit.vc as usize);
        assert!(self.buf.len(i) < self.cfg.buf_depth as usize, "VC overflow");
        self.buffer(i, flit);
    }

    /// Buffer `flit` in ring `i` (the BW stage), keeping the counters.
    fn buffer(&mut self, i: usize, flit: Flit) {
        if self.ctl[i].state == VcState::Idle {
            self.rc_mask |= 1 << i;
        }
        self.buf.push_back(i, flit);
        self.buffered += 1;
        self.events.buffer_writes += 1;
    }

    /// Inject a circuit-switched flit from the local NIC.
    pub fn inject_cs_local(&mut self, _now: Cycle, flit: Flit) -> bool {
        let plane = flit.vc;
        let Some(entry) = self.circuits[Port::Local.index()][plane as usize] else {
            return false;
        };
        self.events.cs_latch_writes += 1;
        self.cs_incoming.push((flit, entry.out));
        true
    }

    /// Return the buffer credit of a configuration flit consumed on
    /// arrival (see the TDM router for the rationale).
    fn consume_config_credit(&mut self, in_port: Port, vc: u8) {
        match in_port {
            Port::Local => self.local_credits.push(vc),
            p => self.pending_credits.push((p, vc)),
        }
    }

    fn process_config(&mut self, now: Cycle, in_port: Port, mut flit: Flit) {
        let kind = self.arena.get(flit.config);
        match kind {
            ConfigKind::Setup(info) => {
                let plane = info.slot as usize;
                let out = if info.dst == self.id {
                    Port::Local
                } else {
                    xy_route(&self.mesh, self.id, info.dst)
                };
                let ok = plane >= 1
                    && plane < self.planes_n as usize
                    && self.circuits[in_port.index()][plane].is_none()
                    && (out == Port::Local || !self.outputs[out.index()].planes[plane].circuit);
                if ok {
                    self.circuits[in_port.index()][plane] = Some(CircuitEntry {
                        path_id: info.path_id,
                        out,
                        dst: info.dst,
                    });
                    self.events.slot_updates += 1;
                    self.trace.record(
                        now,
                        self.id.0,
                        EventKind::CircuitSetup,
                        in_port.index() as u8,
                        info.path_id,
                    );
                    if out == Port::Local {
                        self.events.config_flits_delivered += 1;
                        self.arena.free(flit.config);
                        self.consume_config_credit(in_port, flit.vc);
                        self.emit_ack(now, info, true);
                    } else {
                        self.outputs[out.index()].planes[plane].circuit = true;
                        // The plane id is hop-invariant, so the forwarded
                        // flit keeps its arena handle unchanged.
                        flit.set_forced_out(Some(out));
                        self.buffer_config(in_port, flit);
                    }
                } else {
                    self.events.setup_failures += 1;
                    self.events.config_flits_delivered += 1;
                    self.arena.free(flit.config);
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
                        self.events.slot_updates += 1;
                        self.trace.record(
                            now,
                            self.id.0,
                            EventKind::CircuitTeardown,
                            in_port.index() as u8,
                            info.path_id,
                        );
                        if e.out == Port::Local {
                            self.events.config_flits_delivered += 1;
                            self.arena.free(flit.config);
                            self.consume_config_credit(in_port, flit.vc);
                        } else {
                            self.outputs[e.out.index()].planes[plane].circuit = false;
                            // Teardown payloads are hop-invariant too.
                            flit.set_forced_out(Some(e.out));
                            self.buffer_config(in_port, flit);
                        }
                    }
                    None => {
                        self.events.config_flits_delivered += 1;
                        self.arena.free(flit.config);
                        self.consume_config_credit(in_port, flit.vc);
                    }
                }
            }
            ConfigKind::Ack { .. } => unreachable!("acks are routed"),
        }
    }

    /// Buffer a processed configuration flit at the port it arrived on (it
    /// consumed that port's upstream credit, so the slot is guaranteed).
    fn buffer_config(&mut self, in_port: Port, flit: Flit) {
        let i = self.vci(in_port.index(), flit.vc as usize);
        assert!(
            self.buf.len(i) < self.cfg.buf_depth as usize,
            "config buffering overflow"
        );
        self.buffer(i, flit);
    }

    fn emit_ack(&mut self, now: Cycle, info: noc_sim::SetupInfo, success: bool) {
        let id = self.protocol_packet_id();
        self.trace.record(
            now,
            self.id.0,
            EventKind::CircuitAck,
            success as u8,
            info.path_id,
        );
        let pkt = Packet::config(
            id,
            self.id,
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
        for (mut flit, o) in self.cs_incoming.drain(..) {
            self.events.xbar_traversals += 1;
            match o.direction() {
                Some(d) => {
                    flit.hops += 1;
                    self.events.link_flits += 1;
                    self.trace.record(
                        now,
                        self.id.0,
                        EventKind::LinkTraverse,
                        o.index() as u8,
                        flit.packet.0,
                    );
                    out.flits.push((d, flit));
                }
                None => {
                    self.events.cs_flits_delivered += 1;
                    self.trace.record(
                        now,
                        self.id.0,
                        EventKind::Eject,
                        Port::Local.index() as u8,
                        flit.packet.0,
                    );
                    self.cs_ejected.push(flit);
                }
            }
        }

        // Stage gating on the candidate masks: skipping a stage is
        // state-identical to scanning zero eligible VCs, because the
        // round-robin arbiters only advance on a grant.
        if self.rc_mask != 0 {
            self.refresh_rc(now);
        }
        if self.wait_mask != 0 {
            self.do_va(now);
        }
        if self.act_mask != 0 {
            self.do_sa_st(now, out);
        }
        #[cfg(debug_assertions)]
        self.debug_validate_counters();
    }

    /// The derived counters and masks recomputed by a full scan of the
    /// rings and VC states: `(buffered, rc_mask, wait_mask, act_mask)`.
    fn scan_counters(&self) -> (u32, u64, u64, u64) {
        let (mut buffered, mut rc, mut wait, mut act) = (0u32, 0u64, 0u64, 0u64);
        for i in 0..self.ctl.len() {
            buffered += self.buf.len(i) as u32;
            let bit = 1u64 << i;
            match self.ctl[i].state {
                VcState::Idle if !self.buf.is_empty(i) => rc |= bit,
                VcState::Idle => {}
                VcState::Waiting { .. } => wait |= bit,
                VcState::Active { .. } => act |= bit,
            }
        }
        (buffered, rc, wait, act)
    }

    /// Cross-check the counters and masks against a full scan (debug
    /// builds only; the release hot path trusts the increments).
    #[cfg(debug_assertions)]
    fn debug_validate_counters(&self) {
        debug_assert_eq!(
            (self.buffered, self.rc_mask, self.wait_mask, self.act_mask),
            self.scan_counters(),
            "SDM router counters drifted from a full scan"
        );
    }

    fn refresh_rc(&mut self, now: Cycle) {
        // Ascending bit order is the flat (port, vc) lexicographic order
        // of a full scan.
        let mut cand = self.rc_mask;
        while cand != 0 {
            let i = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            let Some(&front) = self.buf.front(i) else {
                unreachable!("rc_mask bit on an empty VC")
            };
            if !front.kind().is_head() {
                continue;
            }
            let out_port = match front.forced_out() {
                Some(f) => f,
                None => xy_route(&self.mesh, self.id, front.dst()),
            };
            self.buf.front_mut(i).expect("front").set_forced_out(None);
            self.ctl[i].state = VcState::Waiting { out: out_port };
            self.ctl[i].stage_cycle = now;
            self.rc_mask &= !(1u64 << i);
            self.wait_mask |= 1u64 << i;
        }
    }

    fn do_va(&mut self, now: Cycle) {
        let vcs = self.cfg.vcs_per_port as usize;
        let torus = self.vc_half > 0;
        let half = self.vc_half as usize;
        // One walk over the Waiting VCs builds every output's request set
        // at once. That equals a per-output rescan: a VC waits on exactly
        // one output, so a grant at one output never changes another's
        // set. On a torus a second mask per output marks the requesters
        // whose next-hop VC class is 1: continuing in the same dimension
        // carries the inbound class (encoded in the input VC index),
        // crossing the wrap link sets it, and a dimension switch or local
        // input resets it to 0 (same rule as the PS pipeline).
        let mut all_reqs = [0u64; Port::COUNT];
        let mut all_class1 = [0u64; Port::COUNT];
        let mut cand = self.wait_mask;
        while cand != 0 {
            let i = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            let ctl = self.ctl[i];
            let VcState::Waiting { out } = ctl.state else {
                unreachable!("wait_mask bit on a non-Waiting VC")
            };
            if ctl.stage_cycle >= now {
                continue;
            }
            let (o, bit) = (out.index(), 1u64 << i);
            all_reqs[o] |= bit;
            if torus && out != Port::Local {
                let (p, vc) = (i / vcs, i % vcs);
                let class_in = p != Port::Local.index() && vc >= half;
                let same_dim = port_dim(p) == port_dim(o);
                if (same_dim && class_in) || self.wrap_out[o] {
                    all_class1[o] |= bit;
                }
            }
        }
        for o in 0..Port::COUNT {
            let (mut reqs, class1) = (all_reqs[o], all_class1[o]);
            if reqs == 0 || !self.outputs[o].exists {
                continue;
            }
            let partitioned = torus && o != Port::Local.index();
            for v in 0..vcs {
                if self.outputs[o].alloc[v].is_some() {
                    continue;
                }
                // Dateline partition: downstream VCs below `half` only
                // serve class-0 packets, the rest only class 1. Ejection
                // (Local) grants from the full set.
                let eligible = if partitioned {
                    if v < half {
                        reqs & !class1
                    } else {
                        reqs & class1
                    }
                } else {
                    reqs
                };
                let Some(w) = self.va_arb[o].grant_mask(eligible) else {
                    if eligible == reqs {
                        break;
                    }
                    continue;
                };
                reqs &= !(1 << w);
                let (p, vc) = (w / vcs, w % vcs);
                let ctl = &mut self.ctl[w];
                let VcState::Waiting { out } = ctl.state else {
                    unreachable!()
                };
                ctl.state = VcState::Active {
                    out,
                    out_vc: v as u8,
                };
                ctl.stage_cycle = now;
                self.wait_mask &= !(1u64 << w);
                self.act_mask |= 1u64 << w;
                self.outputs[o].alloc[v] = Some((p as u8, vc as u8));
                self.events.va_ops += 1;
                if self.trace.wants(EventKind::VaGrant) {
                    let pkt = self.buf.front(w).map_or(0, |f| f.packet.0);
                    self.trace
                        .record(now, self.id.0, EventKind::VaGrant, o as u8, pkt);
                }
            }
        }
    }

    /// A usable plane for `packet` on output `o` at `now`: the plane the
    /// packet is already bound to (if idle), else any free unclaimed plane.
    fn plane_for(&self, o: usize, packet: PacketId, now: Cycle) -> Option<usize> {
        let planes = &self.outputs[o].planes;
        if let Some(k) = planes.iter().position(|pl| pl.bound == Some(packet)) {
            return (planes[k].busy_until <= now).then_some(k);
        }
        planes
            .iter()
            .position(|pl| !pl.circuit && pl.bound.is_none() && pl.busy_until <= now)
    }

    fn do_sa_st(&mut self, now: Cycle, out: &mut NodeOutputs) {
        let vcs = self.cfg.vcs_per_port as usize;
        // Phase 1: one candidate per input port.
        let mut candidates: [Option<(usize, Port, u8)>; Port::COUNT] = [None; Port::COUNT];
        for (p, cand) in candidates.iter_mut().enumerate() {
            // This port's slice of the Active mask, visited in the
            // rotation order `(p + off) % vcs`: the bits at or above the
            // start VC ascending, then the bits below it.
            let port_act = (self.act_mask >> (p * vcs)) & ((1u64 << vcs) - 1);
            let below = (1u64 << (p % vcs)) - 1;
            let (mut hi, mut lo) = (port_act & !below, port_act & below);
            let mut chosen = None;
            while hi | lo != 0 {
                let bits = if hi != 0 { &mut hi } else { &mut lo };
                let vc = bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                let i = p * vcs + vc;
                let ctl = self.ctl[i];
                let VcState::Active { out: o, out_vc } = ctl.state else {
                    unreachable!("act_mask bit on a non-Active VC")
                };
                if ctl.stage_cycle >= now {
                    continue;
                }
                let Some(front) = self.buf.front(i) else {
                    continue;
                };
                if o != Port::Local && self.outputs[o.index()].credits[out_vc as usize] == 0 {
                    continue;
                }
                if self.plane_for(o.index(), front.packet, now).is_none() {
                    continue;
                }
                chosen = Some((vc, o, out_vc));
                break;
            }
            if let Some((vc, _, _)) = chosen {
                self.events.sa_ops += 1;
                if self.trace.wants(EventKind::SaGrant) {
                    let pkt = self.buf.front(p * vcs + vc).map_or(0, |f| f.packet.0);
                    self.trace
                        .record(now, self.id.0, EventKind::SaGrant, p as u8, pkt);
                }
            }
            *cand = chosen;
        }
        // Phase 2: one grant per output port.
        for o in Port::ALL {
            let mut mask = 0u64;
            for (p, c) in candidates.iter().enumerate() {
                if matches!(c, Some((_, op, _)) if *op == o) {
                    mask |= 1 << p;
                }
            }
            let Some(p) = self.sa_arb_out[o.index()].grant_mask(mask) else {
                continue;
            };
            let (vc, _, out_vc) = candidates[p].unwrap();
            self.traverse(now, p, vc, o, out_vc, out);
        }
    }

    fn traverse(
        &mut self,
        now: Cycle,
        in_port: usize,
        in_vc: usize,
        out_port: Port,
        out_vc: u8,
        out: &mut NodeOutputs,
    ) {
        let i = self.vci(in_port, in_vc);
        let mut flit = self.buf.pop_front(i).expect("granted empty VC");
        self.buffered -= 1;
        let is_tail = flit.kind().is_tail();
        if is_tail {
            self.ctl[i].state = VcState::Idle;
            self.ctl[i].stage_cycle = now;
            self.act_mask &= !(1u64 << i);
            if !self.buf.is_empty(i) {
                // The next packet's head is already queued behind the tail.
                self.rc_mask |= 1u64 << i;
            }
            self.outputs[out_port.index()].alloc[out_vc as usize] = None;
        }
        self.events.buffer_reads += 1;
        self.events.xbar_traversals += 1;
        self.trace.record(
            now,
            self.id.0,
            EventKind::SwitchTraversal,
            in_port as u8,
            flit.packet.0,
        );

        // Bind and occupy the plane: P cycles of phit serialisation.
        let o = out_port.index();
        let k = self
            .plane_for(o, flit.packet, now)
            .expect("SA checked plane availability");
        let plane = &mut self.outputs[o].planes[k];
        plane.busy_until = now + self.planes_n as Cycle;
        plane.bound = if is_tail { None } else { Some(flit.packet) };

        match Port::from_index(in_port).direction() {
            Some(d) => out.credits.push((d, Credit { vc: in_vc as u8 })),
            None => self.local_credits.push(in_vc as u8),
        }

        flit.vc = out_vc;
        match out_port.direction() {
            Some(d) => {
                self.outputs[o].credits[out_vc as usize] -= 1;
                flit.hops += 1;
                self.events.link_flits += 1;
                self.trace.record(
                    now,
                    self.id.0,
                    EventKind::LinkTraverse,
                    out_port.index() as u8,
                    flit.packet.0,
                );
                out.flits.push((d, flit));
            }
            None => {
                match flit.class() {
                    MsgClass::Config => self.events.config_flits_delivered += 1,
                    MsgClass::Data => self.events.ps_flits_delivered += 1,
                }
                self.trace.record(
                    now,
                    self.id.0,
                    EventKind::Eject,
                    Port::Local.index() as u8,
                    flit.packet.0,
                );
                self.ejected.push(flit);
            }
        }
    }

    pub fn accept_credit(&mut self, dir: noc_sim::Direction, credit: Credit) {
        let out = &mut self.outputs[dir.as_port().index()];
        debug_assert!(out.credits[credit.vc as usize] < self.cfg.buf_depth);
        out.credits[credit.vc as usize] += 1;
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
        self.buffered as usize
            + self.cs_incoming.len()
            + self.ejected.len()
            + self.cs_ejected.len()
            + self
                .protocol_out
                .iter()
                .map(|p| p.len_flits as usize)
                .sum::<usize>()
    }

    /// Powered buffer flit slots (no VC gating in the SDM baseline).
    pub fn powered_buffer_slots(&self) -> u32 {
        Port::COUNT as u32 * self.cfg.vcs_per_port as u32 * self.cfg.buf_depth as u32
    }

    /// Serialise all mutable router state. Construction-derived fields
    /// (geometry, `exists` flags, the arena, the trace sink) are skipped —
    /// restore targets a freshly built router of the same configuration.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        // Byte-compatible with the pre-ring `Vec<Vec<VcBuf>>` encoding:
        // nested u64 counts, then per VC the ring in FIFO order (u64 length
        // + flits), the state tag and the stage cycle (DESIGN.md §17).
        let vcs = self.cfg.vcs_per_port as usize;
        w.usize(Port::COUNT);
        for p in 0..Port::COUNT {
            w.usize(vcs);
            for vc in 0..vcs {
                let i = p * vcs + vc;
                self.buf.save_ring(i, w);
                self.ctl[i].state.save(w);
                w.u64(self.ctl[i].stage_cycle);
            }
        }
        for out in &self.outputs {
            out.alloc.save(w);
            out.credits.save(w);
            out.planes.save(w);
        }
        self.circuits.save(w);
        self.va_arb.save(w);
        self.sa_arb_out.save(w);
        self.cs_incoming.save(w);
        self.events.save(w);
        self.ejected.save(w);
        self.cs_ejected.save(w);
        self.local_credits.save(w);
        self.protocol_out.save(w);
        self.pending_credits.save(w);
        w.u64(self.next_protocol_id);
    }

    /// Inverse of [`SdmRouter::save_state`].
    pub fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let vcs = self.cfg.vcs_per_port as usize;
        if r.seq_len()? != Port::COUNT {
            return Err(SnapshotError::Corrupt("SDM input geometry"));
        }
        for p in 0..Port::COUNT {
            if r.seq_len()? != vcs {
                return Err(SnapshotError::Corrupt("SDM input geometry"));
            }
            for vc in 0..vcs {
                let i = p * vcs + vc;
                self.buf.load_ring(i, r)?;
                self.ctl[i].state = Snap::load(r)?;
                self.ctl[i].stage_cycle = r.u64()?;
            }
        }
        for out in &mut self.outputs {
            let alloc: Vec<Option<(u8, u8)>> = Snap::load(r)?;
            let credits: Vec<u8> = Snap::load(r)?;
            let planes: Vec<Plane> = Snap::load(r)?;
            if alloc.len() != out.alloc.len()
                || credits.len() != out.credits.len()
                || planes.len() != out.planes.len()
            {
                return Err(SnapshotError::Corrupt("SDM output geometry"));
            }
            out.alloc = alloc;
            out.credits = credits;
            out.planes = planes;
        }
        let circuits: Vec<Vec<Option<CircuitEntry>>> = Snap::load(r)?;
        if circuits.len() != self.circuits.len()
            || circuits
                .iter()
                .zip(&self.circuits)
                .any(|(a, b)| a.len() != b.len())
        {
            return Err(SnapshotError::Corrupt("SDM circuit-table geometry"));
        }
        self.circuits = circuits;
        self.va_arb = load_arbiters(r, &self.va_arb)?;
        self.sa_arb_out = load_arbiters(r, &self.sa_arb_out)?;
        self.cs_incoming = Snap::load(r)?;
        self.events = Snap::load(r)?;
        self.ejected = Snap::load(r)?;
        self.cs_ejected = Snap::load(r)?;
        self.local_credits = Snap::load(r)?;
        self.protocol_out = Snap::load(r)?;
        self.pending_credits = Snap::load(r)?;
        self.next_protocol_id = r.u64()?;
        (self.buffered, self.rc_mask, self.wait_mask, self.act_mask) = self.scan_counters();
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

    fn setup(arena: &ConfigArena, src: NodeId, dst: NodeId, plane: u16, pid: u64) -> Flit {
        let info = SetupInfo {
            src,
            dst,
            slot: plane,
            duration: 4,
            path_id: pid,
        };
        let p = Packet::config(PacketId(900 + pid), src, dst, ConfigKind::Setup(info), 0);
        Flit::of_packet_in(arena, &p, 0, Switching::Packet)
    }

    #[test]
    fn circuit_claims_plane_and_conflicts() {
        let m = mesh();
        let mut r = router(Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup(r.arena(), src, dst, 1, 1));
        assert!(r.circuit_at(Port::West, 1).is_some());
        // Same plane from another input toward the same output: conflict.
        let src2 = m.id(Coord::new(1, 0));
        r.accept_flit(1, Port::North, setup(r.arena(), src2, dst, 1, 2));
        assert_eq!(r.events.setup_failures, 1);
        // A different plane works.
        r.accept_flit(2, Port::North, setup(r.arena(), src2, dst, 2, 3));
        assert!(r.circuit_at(Port::North, 2).is_some());
    }

    #[test]
    fn plane_zero_is_never_circuit_switched() {
        let m = mesh();
        let mut r = router(Coord::new(1, 1));
        let src = m.id(Coord::new(0, 1));
        let dst = m.id(Coord::new(3, 1));
        r.accept_flit(0, Port::West, setup(r.arena(), src, dst, 0, 1));
        assert_eq!(r.events.setup_failures, 1);
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
        r.accept_flit(0, Port::West, setup(r.arena(), src, dst, 2, 1));
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
        r.accept_flit(0, Port::West, setup(r.arena(), src, dst, 1, 1));
        let info = SetupInfo {
            src,
            dst,
            slot: 1,
            duration: 4,
            path_id: 1,
        };
        let p = Packet::config(PacketId(999), src, dst, ConfigKind::Teardown(info), 5);
        r.accept_flit(
            5,
            Port::West,
            Flit::of_packet_in(r.arena(), &p, 0, Switching::Packet),
        );
        assert!(r.circuit_at(Port::West, 1).is_none());
        // Plane reusable by another circuit.
        r.accept_flit(6, Port::West, setup(r.arena(), src, dst, 1, 2));
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
            r.accept_flit(0, Port::Local, setup(r.arena(), r.id, dst, plane, pid));
        }
        assert_eq!(r.free_local_plane(0), None);
    }
}
