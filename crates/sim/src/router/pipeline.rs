//! The packet-switched virtual-channel wormhole pipeline.
//!
//! Stage timing (head flits): a flit buffered at cycle `T` completes buffer
//! write + route computation at `T`, VC allocation at `T+1`, switch
//! allocation + switch traversal at `T+2`, and link traversal during `T+3`,
//! arriving at the next router at `T+4` — the canonical 4-cycle router the
//! paper extends. Circuit-switched flits (handled by the hybrid routers
//! built on top of this pipeline) instead spend 1 cycle in the router and
//! 1 on the link, arriving downstream at `T+2` (§II-D).
//!
//! Hot state is laid out structure-of-arrays (DESIGN.md §13, §17): input
//! VC buffers are fixed-depth rings the router owns outright
//! ([`crate::rings`]), with per-VC pipeline control state and the
//! output-side allocation/credit tables in matching flat arrays, so the
//! RC/VA/SA scans walk contiguous memory instead of chasing per-port
//! heap buffers.
//!
//! On a torus the pipeline also enforces the dateline VC-class discipline
//! that makes wrap-around dimension-order routing deadlock-free: the VC
//! range of every inter-router output is split in half, a packet starts in
//! class 0 (lower half), moves to class 1 (upper half) when its link
//! crosses the wrap edge, keeps its class while continuing in the same
//! dimension, and resets to class 0 on a dimension switch or ejection. The
//! class is encoded in the VC index itself, so flits carry no extra state.

use std::sync::Arc;

use noc_telemetry::{EventKind, TraceSink};

use crate::arbiter::{load_arbiters, RoundRobin};
use crate::config::RouterConfig;
use crate::flit::{Credit, Flit, MsgClass, PacketId};
use crate::geometry::{Direction, NodeId, Port};
use crate::node::NodeOutputs;
use crate::rings::FlitRings;
use crate::routing::{west_first_route, xy_route};
use crate::snapshot::{RouteOverrides, Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::EnergyEvents;
use crate::topology::Mesh;
use crate::Cycle;

use super::{HybridCtrl, PsOutput};

/// State of one input virtual channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcState {
    /// No packet assigned.
    Idle,
    /// Head flit routed; waiting for an output VC.
    Waiting { out: Port },
    /// Output VC allocated; flits stream through switch allocation.
    Active { out: Port, out_vc: u8 },
}

/// Per-VC pipeline control row: the state machine plus its stage-gating
/// timestamp. The flits themselves live in the VC ring of the same index
/// (DESIGN.md §17).
#[derive(Clone, Copy, Debug)]
pub struct VcCtl {
    pub state: VcState,
    /// Cycle the current state was entered (stage gating: a flit advances at
    /// most one pipeline stage per cycle).
    pub stage_cycle: Cycle,
}

impl Snap for VcState {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            VcState::Idle => w.u8(0),
            VcState::Waiting { out } => {
                w.u8(1);
                out.save(w);
            }
            VcState::Active { out, out_vc } => {
                w.u8(2);
                out.save(w);
                w.u8(*out_vc);
            }
        }
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => VcState::Idle,
            1 => VcState::Waiting {
                out: Snap::load(r)?,
            },
            2 => VcState::Active {
                out: Snap::load(r)?,
                out_vc: r.u8()?,
            },
            _ => return Err(SnapshotError::Corrupt("vc state tag")),
        })
    }
}

/// Per-output-port scalar state: the structure-of-arrays row that remains
/// once allocation and credits move into the flat per-VC tables.
#[derive(Clone, Copy, Debug)]
pub struct OutMeta {
    /// Downstream active VC count; VA only grants VCs below this.
    pub downstream_vcs: u8,
    /// Whether this port is wired (false on mesh-edge directions).
    pub exists: bool,
}

// SoA row-size contract (see the 32-byte Flit assert in `crate::flit`).
const _: () = assert!(
    std::mem::size_of::<OutMeta>() == 2,
    "OutMeta must stay a 2-byte POD row (DESIGN.md §13)"
);

/// Which dimension a port's link runs in (0 = X, 1 = Y, 2 = none/local);
/// used by the torus dateline class rule.
#[inline]
fn port_dim(p: usize) -> u8 {
    match Port::from_index(p) {
        Port::Local => 2,
        Port::North | Port::South => 1,
        Port::East | Port::West => 0,
    }
}

/// The occupancy counters and stage-candidate masks of a
/// [`PsPipeline`], as a full scan of its rings and VC states derives them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counters {
    buffered: u32,
    busy_vcs: u32,
    gated_busy: u32,
    rc_mask: u64,
    wait_mask: u64,
    act_mask: u64,
}

/// The packet-switched pipeline shared by all router models.
#[derive(Clone, Debug)]
pub struct PsPipeline {
    pub id: NodeId,
    pub mesh: Mesh,
    pub cfg: RouterConfig,
    /// Input VC buffers: one fixed-depth ring per VC, flat over
    /// `port * vcs_per_port + vc`.
    buf: FlitRings,
    /// Per-VC pipeline control rows, parallel to the rings.
    ctl: Vec<VcCtl>,
    /// Packet currently owning each input VC (valid while the VC is not
    /// `Idle`); lets the fault path identify which VC state to tear down
    /// when a packet loses flits to a dead link.
    vc_owner: Vec<PacketId>,
    /// Fault-reroute table installed by the harness while links are down;
    /// `None` on the fault-free path.
    route_overrides: Option<Arc<RouteOverrides>>,
    /// Which (input port, input VC) owns each downstream VC, flat over
    /// `out_port * vcs_per_port + vc`.
    out_alloc: Vec<Option<(u8, u8)>>,
    /// Credits (free downstream buffer slots) per downstream VC, flat over
    /// `out_port * vcs_per_port + vc`.
    out_credits: Vec<u8>,
    /// Per-output scalar rows (downstream VC count, wiring).
    out_meta: [OutMeta; Port::COUNT],
    /// Flits ejected through the local port this cycle; drained by the NIC.
    pub ejected: Vec<Flit>,
    /// Credits owed to the local NIC; drained by the node each cycle.
    pub local_credits: Vec<u8>,
    pub events: EnergyEvents,
    /// Telemetry sink (disabled unless the harness arms a trace). Recording
    /// is node-local, so phase 2 stays order-independent.
    pub trace: TraceSink,
    /// Locally active VC count (VC power gating); VCs ≥ this receive no new
    /// allocations but keep functioning until drained.
    active_vcs: u8,
    /// Torus dateline state: VCs below `vc_half` are class 0, the rest
    /// class 1. Zero on non-torus topologies (no partition).
    vc_half: u8,
    /// Per-output flag: the link out of this port crosses the wrap edge
    /// (precomputed from [`Mesh::wraps`] at construction).
    wrap_out: [bool; Port::COUNT],
    va_arb: Vec<RoundRobin>,
    sa_arb_in: Vec<RoundRobin>,
    sa_arb_out: Vec<RoundRobin>,
    // Utilisation sampling for the VC gating controller. Sampling is
    // time-based so the activity scheduler can skip idle cycles: the first
    // step after a gap credits the skipped cycles with `prev_busy` (the busy
    // count at the end of the previous step, which is constant while the
    // node sleeps — nothing arrives and nothing moves).
    busy_vc_samples: u64,
    active_vc_samples: u64,
    last_sample: Cycle,
    prev_busy: u32,
    // Derived O(1) bookkeeping so the per-cycle hot path can skip whole
    // pipeline stages instead of scanning every VC. The derivation is
    // `scan_counters`: debug builds check it every step, and
    // `rebuild_derived` reapplies it after restore, fault purges and
    // gating changes, so none of these is serialised. `buffered` = Σ fifo
    // lengths, `busy_vcs` = VCs with flits or non-idle state,
    // `gated_busy` = busy VCs at index ≥ `active_vcs`.
    buffered: u32,
    busy_vcs: u32,
    gated_busy: u32,
    // Stage-candidate masks over the flat VC index (the same u64 geometry
    // as the VA/SA request words): `rc_mask` = Idle VCs holding flits,
    // `wait_mask` = Waiting VCs, `act_mask` = Active VCs. The stage loops
    // walk only the set bits instead of scanning every VC.
    rc_mask: u64,
    wait_mask: u64,
    act_mask: u64,
}

impl PsPipeline {
    pub fn new(id: NodeId, mesh: Mesh, cfg: RouterConfig) -> Self {
        let vcs = cfg.vcs_per_port as usize;
        // The VA/SA request-gathering masks are single u64 words over
        // `Port::COUNT * vcs` bits — a true cap, asserted here once.
        assert!(
            Port::COUNT * vcs <= 64,
            "request masks are u64 words: at most {} VCs per port",
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
        let mut out_meta = [OutMeta {
            downstream_vcs: cfg.vcs_per_port,
            exists: true,
        }; Port::COUNT];
        for p in Port::ALL {
            if let Some(d) = p.direction() {
                out_meta[p.index()].exists = mesh.neighbor(id, d).is_some();
                wrap_out[p.index()] = mesh.wraps(id, d);
            }
        }
        PsPipeline {
            id,
            mesh,
            cfg,
            buf: FlitRings::new(Port::COUNT * vcs, cfg.buf_depth),
            ctl: vec![
                VcCtl {
                    state: VcState::Idle,
                    stage_cycle: 0,
                };
                Port::COUNT * vcs
            ],
            vc_owner: vec![PacketId(0); Port::COUNT * vcs],
            route_overrides: None,
            out_alloc: vec![None; Port::COUNT * vcs],
            out_credits: vec![cfg.buf_depth; Port::COUNT * vcs],
            out_meta,
            // Per-cycle scratch: seeded so steady-state churn stays
            // off the allocator (DESIGN.md §17).
            ejected: Vec::with_capacity(8),
            local_credits: Vec::with_capacity(8),
            events: EnergyEvents::default(),
            trace: TraceSink::Disabled,
            active_vcs: cfg.vcs_per_port,
            vc_half,
            wrap_out,
            va_arb: (0..Port::COUNT)
                .map(|_| RoundRobin::new(Port::COUNT * vcs))
                .collect(),
            sa_arb_in: (0..Port::COUNT).map(|_| RoundRobin::new(vcs)).collect(),
            sa_arb_out: (0..Port::COUNT)
                .map(|_| RoundRobin::new(Port::COUNT))
                .collect(),
            busy_vc_samples: 0,
            active_vc_samples: 0,
            last_sample: 0,
            prev_busy: 0,
            buffered: 0,
            busy_vcs: 0,
            gated_busy: 0,
            rc_mask: 0,
            wait_mask: 0,
            act_mask: 0,
        }
    }

    /// The counters and stage masks recomputed by a full scan of the rings
    /// and VC states (cold paths and debug checks only).
    fn scan_counters(&self) -> Counters {
        let vcs = self.cfg.vcs_per_port as usize;
        let mut c = Counters::default();
        for (i, vc) in self.ctl.iter().enumerate() {
            let bit = 1u64 << i;
            c.buffered += self.buf.len(i) as u32;
            match vc.state {
                VcState::Idle if !self.buf.is_empty(i) => c.rc_mask |= bit,
                VcState::Idle => {}
                VcState::Waiting { .. } => c.wait_mask |= bit,
                VcState::Active { .. } => c.act_mask |= bit,
            }
            if self.vc_busy(i) {
                c.busy_vcs += 1;
                if ((i % vcs) as u8) >= self.active_vcs {
                    c.gated_busy += 1;
                }
            }
        }
        c
    }

    /// Recompute the counters and stage-candidate masks from the
    /// authoritative rings and VC states (cold paths only: snapshot
    /// restore, fault purge, gating change).
    fn rebuild_derived(&mut self) {
        let c = self.scan_counters();
        (self.buffered, self.busy_vcs, self.gated_busy) = (c.buffered, c.busy_vcs, c.gated_busy);
        (self.rc_mask, self.wait_mask, self.act_mask) = (c.rc_mask, c.wait_mask, c.act_mask);
    }

    /// Flat index of input VC `v` at port `p`.
    #[inline]
    fn vci(&self, p: usize, v: usize) -> usize {
        p * self.cfg.vcs_per_port as usize + v
    }

    /// Flits buffered in input VC `v` of port `p` (tests, benches, drain
    /// inspection).
    pub fn vc_len(&self, p: Port, v: usize) -> usize {
        self.buf.len(self.vci(p.index(), v))
    }

    /// Pipeline state of input VC `v` of port `p`.
    pub fn vc_state(&self, p: Port, v: usize) -> VcState {
        self.ctl[self.vci(p.index(), v)].state
    }

    /// Busy for utilisation sampling: holds flits or mid-packet state.
    #[inline]
    fn vc_busy(&self, i: usize) -> bool {
        !self.buf.is_empty(i) || self.ctl[i].state != VcState::Idle
    }

    /// Whether the output toward `p` is wired.
    pub fn out_exists(&self, p: Port) -> bool {
        self.out_meta[p.index()].exists
    }

    /// Credits currently held for downstream VC `v` of output `p`.
    pub fn out_credit(&self, p: Port, v: usize) -> u8 {
        self.out_credits[self.vci(p.index(), v)]
    }

    /// Downstream advertised active VC count for output `p`.
    pub fn downstream_vcs(&self, p: Port) -> u8 {
        self.out_meta[p.index()].downstream_vcs
    }

    /// Congestion score of output `p` used by adaptive routing: free
    /// credits plus a bonus per unallocated VC.
    pub fn port_score(&self, p: Port) -> u32 {
        let o = p.index();
        let mut s = 0u32;
        for v in 0..self.out_meta[o].downstream_vcs as usize {
            let i = self.vci(o, v);
            s += self.out_credits[i] as u32;
            if self.out_alloc[i].is_none() {
                s += 3;
            }
        }
        s
    }

    /// Buffer an arriving packet-switched flit (the BW stage).
    pub fn accept_flit(&mut self, now: Cycle, port: Port, flit: Flit) {
        let i = self.vci(port.index(), flit.vc as usize);
        assert!(
            self.buf.len(i) < self.cfg.buf_depth as usize,
            "flow-control violation: VC overflow at {:?} port {:?} vc {}",
            self.id,
            port,
            flit.vc
        );
        let _ = now;
        if self.buf.is_empty(i) && self.ctl[i].state == VcState::Idle {
            self.busy_vcs += 1;
            self.rc_mask |= 1 << i;
            if flit.vc >= self.active_vcs {
                self.gated_busy += 1;
            }
        }
        self.buf.push_back(i, flit);
        self.buffered += 1;
        self.events.buffer_writes += 1;
    }

    /// Apply a returned credit from the downstream router in `dir`.
    pub fn accept_credit(&mut self, dir: Direction, credit: Credit) {
        let i = self.vci(dir.as_port().index(), credit.vc as usize);
        let c = &mut self.out_credits[i];
        debug_assert!(*c < self.cfg.buf_depth, "credit overflow");
        *c += 1;
    }

    /// Apply a downstream active-VC-count advertisement.
    pub fn accept_vc_count(&mut self, dir: Direction, count: u8) {
        self.out_meta[dir.as_port().index()].downstream_vcs = count.min(self.cfg.vcs_per_port);
    }

    /// Congestion score of the output toward `dir` (adaptive routing).
    pub fn out_score(&self, dir: Direction) -> u32 {
        self.port_score(dir.as_port())
    }

    pub fn active_vcs(&self) -> u8 {
        self.active_vcs
    }

    /// Set the local active VC count (power gating). VCs above the count
    /// stop receiving new allocations (the NIC reads the count when it
    /// starts a packet; the node advertises it upstream) but continue to
    /// operate until empty, so a packet granted just before the transition
    /// is never stranded.
    pub fn set_active_vcs(&mut self, count: u8) {
        self.active_vcs = count.clamp(1, self.cfg.vcs_per_port);
        // Re-derive the gated-straggler count against the new threshold
        // (rare: only when the gating controller retunes).
        self.rebuild_derived();
    }

    /// Advance the pipeline one cycle. `ctrl` supplies the hybrid switching
    /// constraints ([`super::NullCtrl`] for a pure packet router).
    pub fn step<C: HybridCtrl>(&mut self, now: Cycle, ctrl: &C, out: &mut NodeOutputs) {
        self.sample_utilization(now);
        // Stage gating on the candidate masks. Skipping a stage is
        // state-identical to running it over zero eligible VCs: the
        // round-robin arbiters only advance on a successful grant, so an
        // empty scan never mutates anything. SA/ST also needs a buffered
        // flit: an Active VC still waiting for its body flits cannot bid.
        if self.rc_mask != 0 {
            self.refresh_rc(now);
        }
        if self.wait_mask != 0 {
            self.do_va(now);
        }
        if self.act_mask != 0 && self.buffered != 0 {
            self.do_sa_st(now, ctrl, out);
        }
        self.prev_busy = self.busy_vcs;
        #[cfg(debug_assertions)]
        self.debug_validate_counters();
    }

    /// The incremental counters and masks as they stand.
    #[cfg(any(test, debug_assertions))]
    fn counters(&self) -> Counters {
        Counters {
            buffered: self.buffered,
            busy_vcs: self.busy_vcs,
            gated_busy: self.gated_busy,
            rc_mask: self.rc_mask,
            wait_mask: self.wait_mask,
            act_mask: self.act_mask,
        }
    }

    /// Cross-check the incremental occupancy counters against a full scan
    /// (debug builds only; the release hot path trusts the increments).
    #[cfg(debug_assertions)]
    fn debug_validate_counters(&self) {
        debug_assert_eq!(
            self.counters(),
            self.scan_counters(),
            "pipeline counters drifted from a full scan"
        );
    }

    /// Route computation for VCs whose head flit reached the FIFO front.
    fn refresh_rc(&mut self, now: Cycle) {
        // RC candidates are exactly the `rc_mask` bits: Idle VCs holding a
        // (head) flit.
        let mut cand = self.rc_mask;
        while cand != 0 {
            let i = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            debug_assert!(self.ctl[i].state == VcState::Idle && !self.buf.is_empty(i));
            // `Flit` is a 32-byte POD: copying the front out of the ring is
            // cheaper than holding a borrow across the route computation.
            let Some(&front) = self.buf.front(i) else {
                continue;
            };
            if !front.kind().is_head() {
                // Stale body flits can only appear through a protocol
                // bug; the flow-control invariants make this unreachable.
                debug_assert!(false, "non-head flit at idle VC front");
                continue;
            }
            let owner = front.packet;
            let out_port = self.route_head(&front);
            debug_assert!(
                self.out_meta[out_port.index()].exists,
                "routed to a non-existent port"
            );
            if let Some(forced) = self.buf.front_mut(i).unwrap().take_forced_out() {
                debug_assert_eq!(forced, out_port);
            }
            self.ctl[i].state = VcState::Waiting { out: out_port };
            self.ctl[i].stage_cycle = now;
            self.vc_owner[i] = owner;
            self.rc_mask &= !(1u64 << i);
            self.wait_mask |= 1u64 << i;
        }
    }

    /// Compute the output port for a head flit: a forced route if present
    /// (configuration processing at hybrid routers), west-first adaptive
    /// for configuration packets on a mesh, dimension-order otherwise.
    /// Torus routing is always deterministic dimension-order — the
    /// turn-model deadlock argument behind adaptive configuration routing
    /// only holds on a mesh.
    fn route_head(&self, flit: &Flit) -> Port {
        if let Some(p) = flit.forced_out() {
            return p;
        }
        // Fault detours take precedence over the normal route computation:
        // while any link is down the override table carries a BFS next hop
        // over the live links for every reachable destination. Unreachable
        // destinations fall through to the default route and account the
        // drop at the dead link.
        if let Some(ovr) = &self.route_overrides {
            if flit.dst() != self.id {
                if let Some(d) = ovr.dir(self.id.0, flit.dst().0) {
                    return d.as_port();
                }
            }
        }
        if flit.class() == MsgClass::Config
            && self.cfg.adaptive_config_routing
            && !self.mesh.is_torus()
        {
            west_first_route(&self.mesh, self.id, flit.dst(), |d| {
                self.port_score(d.as_port())
            })
        } else {
            xy_route(&self.mesh, self.id, flit.dst())
        }
    }

    /// VC allocation: for each output port, match free downstream VCs to
    /// waiting input VCs with a round-robin arbiter.
    fn do_va(&mut self, now: Cycle) {
        let vcs = self.cfg.vcs_per_port as usize;
        debug_assert!(Port::COUNT * vcs <= 64, "too many VCs per port");
        let torus = self.vc_half > 0;
        let half = self.vc_half as usize;
        // One scan over the input VCs builds the request mask of every
        // output port at once (bit `p * vcs + vc` — the flat VC index).
        // Pre-computing all sets up front is equivalent to the per-output
        // rescan: a grant at output `o` only removes a VC from `o`'s own
        // set (a VC waits on exactly one output), which the in-loop bit
        // clear already handles. On a torus a second mask per output marks
        // the requesters whose next-hop VC class is 1: continuing in the
        // same dimension carries the inbound class (encoded in the input
        // VC index), crossing the wrap link sets it, and a dimension
        // switch or local input resets it to 0.
        let mut reqs = [0u64; Port::COUNT];
        let mut class1 = [0u64; Port::COUNT];
        let mut cand = self.wait_mask;
        while cand != 0 {
            let i = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            let ctl = &self.ctl[i];
            let VcState::Waiting { out } = ctl.state else {
                unreachable!("wait_mask bit on a non-Waiting VC")
            };
            if ctl.stage_cycle < now {
                let bit = 1u64 << i;
                let o = out.index();
                reqs[o] |= bit;
                if torus && out != Port::Local {
                    let (p, vc) = (i / vcs, i % vcs);
                    let class_in = p != Port::Local.index() && vc >= half;
                    let same_dim = port_dim(p) == port_dim(o);
                    if (same_dim && class_in) || self.wrap_out[o] {
                        class1[o] |= bit;
                    }
                }
            }
        }
        for (o, req) in reqs.iter_mut().enumerate() {
            if *req == 0 || !self.out_meta[o].exists {
                continue;
            }
            let limit = self.out_meta[o].downstream_vcs as usize;
            let partitioned = torus && o != Port::Local.index();
            if partitioned {
                // VC gating never runs on a torus (asserted at scenario
                // construction), so the full class ranges stay grantable.
                debug_assert_eq!(
                    limit, vcs,
                    "torus dateline classes are incompatible with VC gating"
                );
            }
            for v in 0..limit {
                if self.out_alloc[o * vcs + v].is_some() {
                    continue;
                }
                // Dateline partition: downstream VCs below `half` only
                // serve class-0 packets, the rest only class 1. Ejection
                // (Local) and mesh outputs grant from the full set.
                let eligible = if partitioned {
                    if v < half {
                        *req & !class1[o]
                    } else {
                        *req & class1[o]
                    }
                } else {
                    *req
                };
                let Some(w) = self.va_arb[o].grant_mask(eligible) else {
                    if eligible == *req {
                        break;
                    }
                    continue;
                };
                let (p, vc) = (w / vcs, w % vcs);
                *req &= !(1 << w);
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
                self.out_alloc[o * vcs + v] = Some((p as u8, vc as u8));
                self.events.va_ops += 1;
                if self.trace.wants(EventKind::VaGrant) {
                    let pkt = self.buf.front(w).map_or(0, |f| f.packet.0);
                    self.trace
                        .record(now, self.id.0, EventKind::VaGrant, o as u8, pkt);
                }
            }
        }
    }

    /// Switch allocation (input-first separable) + switch traversal.
    ///
    /// The hybrid constraints are read only where they can matter: an
    /// input port with no bidding VC never asks `ps_input_blocked`, and an
    /// output's `ps_output_state` is read once, the first time a bidder
    /// names it (`asked` marks the filled entries of `avail`).
    fn do_sa_st<C: HybridCtrl>(&mut self, now: Cycle, ctrl: &C, out: &mut NodeOutputs) {
        let vcs = self.cfg.vcs_per_port as usize;
        let bidders = self.act_mask & !ctrl.ps_blocked_vcs();
        let mut avail = [PsOutput::Free; Port::COUNT];
        let mut asked = 0u8;

        // Phase 1: each input port nominates one eligible VC, and the
        // nominee's output collects the port's request bit.
        let mut candidates: [Option<(u8, u8)>; Port::COUNT] = [None; Port::COUNT];
        let mut out_reqs = [0u64; Port::COUNT];
        let mut req_outs = 0u8;
        for (p, cand) in candidates.iter_mut().enumerate() {
            // This port's slice of the Active VCs that may bid: bit `vc`
            // of `port_act`.
            let mut port_act = (bidders >> (p * vcs)) & ((1u64 << vcs) - 1);
            if port_act == 0 || ctrl.ps_input_blocked(now, Port::from_index(p)) {
                continue;
            }
            let mut req_mask = 0u64;
            while port_act != 0 {
                let vc = port_act.trailing_zeros() as usize;
                port_act &= port_act - 1;
                let ctl = &self.ctl[p * vcs + vc];
                let VcState::Active { out, out_vc } = ctl.state else {
                    unreachable!("act_mask bit on a non-Active VC")
                };
                if ctl.stage_cycle >= now || self.buf.is_empty(p * vcs + vc) {
                    continue;
                }
                let o = out.index();
                if asked & (1 << o) == 0 {
                    avail[o] = ctrl.ps_output_state(now, out);
                    asked |= 1 << o;
                }
                if avail[o] == PsOutput::Busy {
                    continue;
                }
                if out == Port::Local || self.out_credits[o * vcs + out_vc as usize] > 0 {
                    req_mask |= 1 << vc;
                }
            }
            if let Some(vc) = self.sa_arb_in[p].grant_mask(req_mask) {
                let VcState::Active { out, out_vc } = self.ctl[p * vcs + vc].state else {
                    unreachable!()
                };
                *cand = Some((vc as u8, out_vc));
                out_reqs[out.index()] |= 1 << p;
                req_outs |= 1 << out.index();
                self.events.sa_ops += 1;
                if self.trace.wants(EventKind::SaGrant) {
                    let pkt = self.buf.front(p * vcs + vc).map_or(0, |f| f.packet.0);
                    self.trace
                        .record(now, self.id.0, EventKind::SaGrant, p as u8, pkt);
                }
            }
        }

        // Phase 2: each requested output grants one input port, in port
        // order; the winner traverses.
        while req_outs != 0 {
            let o = req_outs.trailing_zeros() as usize;
            req_outs &= req_outs - 1;
            let p = self.sa_arb_out[o]
                .grant_mask(out_reqs[o])
                .expect("a requested output always grants");
            let (vc, out_vc) = candidates[p].unwrap();
            self.traverse(
                now,
                Port::from_index(p),
                vc,
                Port::from_index(o),
                out_vc,
                avail[o],
                out,
            );
        }
    }

    /// Switch traversal of one granted flit.
    // All eight arguments are the (input, output, timing) coordinates of a
    // single grant; bundling them into a struct would just rename the call.
    #[allow(clippy::too_many_arguments)]
    fn traverse(
        &mut self,
        now: Cycle,
        in_port: Port,
        in_vc: u8,
        out_port: Port,
        out_vc: u8,
        avail: PsOutput,
        out: &mut NodeOutputs,
    ) {
        let i = self.vci(in_port.index(), in_vc as usize);
        let mut flit = self.buf.pop_front(i).expect("SA granted an empty VC");
        let is_tail = flit.kind().is_tail();
        if is_tail {
            self.ctl[i].state = VcState::Idle;
            self.ctl[i].stage_cycle = now;
        }
        let now_idle = self.buf.is_empty(i) && self.ctl[i].state == VcState::Idle;
        self.buffered -= 1;
        if is_tail {
            self.act_mask &= !(1u64 << i);
            if !self.buf.is_empty(i) {
                // The next packet's head is already queued behind the tail:
                // the VC re-enters the RC candidate set immediately.
                self.rc_mask |= 1u64 << i;
            }
            let oi = self.vci(out_port.index(), out_vc as usize);
            self.out_alloc[oi] = None;
        }
        if now_idle {
            self.busy_vcs -= 1;
            if in_vc >= self.active_vcs {
                self.gated_busy -= 1;
            }
        }
        self.events.buffer_reads += 1;
        self.events.xbar_traversals += 1;
        self.trace.record(
            now,
            self.id.0,
            EventKind::SwitchTraversal,
            in_port.index() as u8,
            flit.packet.0,
        );
        if avail == PsOutput::ReservedIdle {
            self.events.slots_stolen += 1;
            self.trace.record(
                now,
                self.id.0,
                EventKind::SlotSteal,
                out_port.index() as u8,
                flit.packet.0,
            );
        }

        // Return the freed buffer slot upstream.
        match in_port.direction() {
            Some(d) => out.credits.push((d, Credit { vc: in_vc })),
            None => self.local_credits.push(in_vc),
        }

        flit.vc = out_vc;
        match out_port.direction() {
            Some(d) => {
                let oi = self.vci(out_port.index(), out_vc as usize);
                self.out_credits[oi] -= 1;
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
                // Ejection: count delivery by class/switching.
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

    /// Every `Active` input VC that holds a flit, as `(flat VC index,
    /// output port, front flit's packet)`: the VCs that can bid for the
    /// switch. A hybrid router uses it to build
    /// [`HybridCtrl::ps_blocked_vcs`] before stepping.
    pub fn sa_bidders(&self) -> impl Iterator<Item = (usize, Port, PacketId)> + '_ {
        let mut cand = self.act_mask;
        std::iter::from_fn(move || {
            while cand != 0 {
                let i = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let VcState::Active { out, .. } = self.ctl[i].state else {
                    unreachable!("act_mask bit on a non-Active VC")
                };
                if let Some(front) = self.buf.front(i) {
                    return Some((i, out, front.packet));
                }
            }
            None
        })
    }

    /// Circuit-switched traversal of one latched flit through the
    /// pre-configured crossbar to output `o`: onto the link, or into
    /// `cs_ejected` at the path's end. CS flits are never buffered.
    #[inline]
    pub fn cs_traverse(
        &mut self,
        now: Cycle,
        mut flit: Flit,
        o: Port,
        out: &mut NodeOutputs,
        cs_ejected: &mut Vec<Flit>,
    ) {
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
                cs_ejected.push(flit);
            }
        }
    }

    fn sample_utilization(&mut self, now: Cycle) {
        // Credit cycles skipped by the activity scheduler: while this node
        // slept, `busy_vcs` held `prev_busy` (no deliveries, no traversals)
        // and the active VC count was unchanged, so the skipped samples are
        // reconstructed exactly. In always-step mode the gap is 1 and this
        // is a no-op.
        let gap = now.saturating_sub(self.last_sample);
        if gap > 1 {
            let skipped = gap - 1;
            self.busy_vc_samples += skipped * self.prev_busy as u64;
            self.active_vc_samples += skipped * self.active_vcs as u64 * Port::COUNT as u64;
        }
        self.busy_vc_samples += self.busy_vcs as u64;
        self.active_vc_samples += self.active_vcs as u64 * Port::COUNT as u64;
        self.last_sample = now;
    }

    /// VC utilisation µ since the last call (for the gating controller);
    /// resets the sampling window.
    pub fn take_utilization(&mut self) -> f64 {
        let u = if self.active_vc_samples == 0 {
            0.0
        } else {
            self.busy_vc_samples as f64 / self.active_vc_samples as f64
        };
        self.busy_vc_samples = 0;
        self.active_vc_samples = 0;
        u
    }

    /// Total flits currently buffered (drain detection).
    pub fn occupancy(&self) -> usize {
        self.buffered as usize + self.ejected.len()
    }

    /// Powered-on buffer flit slots: a VC counts while it is below the
    /// active count or still holds state (stragglers keep their buffers on
    /// until drained — the gating model never strands a packet).
    pub fn powered_buffer_slots(&self) -> u32 {
        // All VCs below the active threshold are powered on every port;
        // above it only the busy stragglers (tracked by `gated_busy`) are.
        self.cfg.buf_depth as u32 * (Port::COUNT as u32 * self.active_vcs as u32 + self.gated_busy)
    }

    /// Install (or clear) the fault-reroute table consulted by
    /// `route_head`.
    pub fn set_route_overrides(&mut self, overrides: Option<Arc<RouteOverrides>>) {
        self.route_overrides = overrides;
    }

    /// Remove every flit of `pid` from the input buffers (and the not-yet
    /// -drained ejection staging) after the network dropped part of the
    /// packet on a dead link.
    ///
    /// Freed buffer slots are refunded upstream: credits for inter-router
    /// input ports are pushed into `credits` (the harness delivers them
    /// over the credit wires exactly as a normal traversal would), local
    /// -port slots go straight to `local_credits` for the NIC. If the
    /// purged packet owned a VC's pipeline state, that state is torn down
    /// and its downstream VC allocation released. Returns the number of
    /// flits discarded.
    pub fn purge_packet(&mut self, pid: PacketId, credits: &mut Vec<(Direction, Credit)>) -> usize {
        let vcs = self.cfg.vcs_per_port as usize;
        let mut removed_total = 0usize;
        for i in 0..self.ctl.len() {
            let (p, v) = (i / vcs, (i % vcs) as u8);
            let removed = self.buf.retain(i, |f| f.packet != pid);
            if removed > 0 {
                match Port::from_index(p).direction() {
                    Some(d) => credits.extend((0..removed).map(|_| (d, Credit { vc: v }))),
                    None => self.local_credits.extend((0..removed).map(|_| v)),
                }
                removed_total += removed;
            }
            let ctl = &mut self.ctl[i];
            if ctl.state != VcState::Idle && self.vc_owner[i] == pid {
                if let VcState::Active { out, out_vc } = ctl.state {
                    self.out_alloc[out.index() * vcs + out_vc as usize] = None;
                }
                ctl.state = VcState::Idle;
            }
        }
        let before = self.ejected.len();
        self.ejected.retain(|f| f.packet != pid);
        removed_total += before - self.ejected.len();
        self.rebuild_derived();
        removed_total
    }

    /// Serialise the pipeline's mutable state (everything except the
    /// identity/configuration fields fixed at construction, the telemetry
    /// sink — disarmed around checkpoints — the reroute table, which the
    /// harness reinstalls from its own fault state, and the counters and
    /// masks `rebuild_derived` rescans).
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        // Byte-compatible with the pre-ring `Vec<VcBuf>` encoding: a u64
        // count, then per VC the ring in FIFO order (u64 length + flits),
        // the state tag and the stage cycle (DESIGN.md §17).
        w.usize(self.ctl.len());
        for (i, ctl) in self.ctl.iter().enumerate() {
            self.buf.save_ring(i, w);
            ctl.state.save(w);
            w.u64(ctl.stage_cycle);
        }
        self.vc_owner.save(w);
        self.out_alloc.save(w);
        self.out_credits.save(w);
        for m in &self.out_meta {
            w.u8(m.downstream_vcs);
        }
        self.ejected.save(w);
        self.local_credits.save(w);
        self.events.save(w);
        w.u8(self.active_vcs);
        self.va_arb.save(w);
        self.sa_arb_in.save(w);
        self.sa_arb_out.save(w);
        w.u64(self.busy_vc_samples);
        w.u64(self.active_vc_samples);
        w.u64(self.last_sample);
        w.u32(self.prev_busy);
    }

    /// Inverse of [`PsPipeline::save_state`], into a freshly constructed
    /// pipeline of the same configuration.
    pub fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        if r.seq_len()? != self.ctl.len() {
            return Err(SnapshotError::Mismatch("pipeline VC geometry"));
        }
        for i in 0..self.ctl.len() {
            self.buf.load_ring(i, r)?;
            self.ctl[i].state = Snap::load(r)?;
            self.ctl[i].stage_cycle = r.u64()?;
        }
        let vc_owner: Vec<PacketId> = Snap::load(r)?;
        let out_alloc: Vec<Option<(u8, u8)>> = Snap::load(r)?;
        let out_credits: Vec<u8> = Snap::load(r)?;
        if vc_owner.len() != self.vc_owner.len()
            || out_alloc.len() != self.out_alloc.len()
            || out_credits.len() != self.out_credits.len()
        {
            return Err(SnapshotError::Mismatch("pipeline VC geometry"));
        }
        self.vc_owner = vc_owner;
        self.out_alloc = out_alloc;
        self.out_credits = out_credits;
        for m in &mut self.out_meta {
            m.downstream_vcs = r.u8()?;
        }
        self.ejected = Snap::load(r)?;
        self.local_credits = Snap::load(r)?;
        self.events = Snap::load(r)?;
        self.active_vcs = r.u8()?;
        self.va_arb = load_arbiters(r, &self.va_arb)?;
        self.sa_arb_in = load_arbiters(r, &self.sa_arb_in)?;
        self.sa_arb_out = load_arbiters(r, &self.sa_arb_out)?;
        self.busy_vc_samples = r.u64()?;
        self.active_vc_samples = r.u64()?;
        self.last_sample = r.u64()?;
        self.prev_busy = r.u32()?;
        self.check_vc_tables()?;
        self.rebuild_derived();
        Ok(())
    }

    /// Reject restored VC tables that do not fit the built router: VC
    /// counts outside the port's VC range, a VC state naming an unwired
    /// output or a downstream VC past the range, and an `Active` input VC
    /// and its downstream VC's `out_alloc` entry that do not name each
    /// other.
    fn check_vc_tables(&self) -> Result<(), SnapshotError> {
        let vcs = self.cfg.vcs_per_port;
        if !(1..=vcs).contains(&self.active_vcs) {
            return Err(SnapshotError::Corrupt("active VC count"));
        }
        if self.out_meta.iter().any(|m| m.downstream_vcs > vcs) {
            return Err(SnapshotError::Corrupt("downstream VC count"));
        }
        let vcs = vcs as usize;
        for (i, ctl) in self.ctl.iter().enumerate() {
            let fits = match ctl.state {
                VcState::Idle => true,
                VcState::Waiting { out } => self.out_meta[out.index()].exists,
                VcState::Active { out, out_vc } => {
                    self.out_meta[out.index()].exists
                        && (out_vc as usize) < vcs
                        && self.out_alloc[out.index() * vcs + out_vc as usize]
                            == Some(((i / vcs) as u8, (i % vcs) as u8))
                }
            };
            if !fits {
                return Err(SnapshotError::Corrupt("VC state does not fit the router"));
            }
        }
        for (o, alloc) in self.out_alloc.iter().enumerate() {
            let Some((p, v)) = *alloc else { continue };
            let owner = VcState::Active {
                out: Port::from_index(o / vcs),
                out_vc: (o % vcs) as u8,
            };
            if v as usize >= vcs
                || self.ctl.get(p as usize * vcs + v as usize).map(|c| c.state) != Some(owner)
            {
                return Err(SnapshotError::Corrupt(
                    "downstream VC allocated to no active VC",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, Packet, PacketId, Switching};
    use crate::geometry::Coord;
    use crate::node::NodeOutputs;
    use crate::router::NullCtrl;

    fn mk(mesh: Mesh, node: NodeId) -> PsPipeline {
        PsPipeline::new(node, mesh, RouterConfig::default())
    }

    fn head_flit(src: NodeId, dst: NodeId, vc: u8) -> Flit {
        let p = Packet::data(PacketId(1), src, dst, 1, 0);
        let mut f = Flit::of_packet(&p, 0, Switching::Packet);
        f.vc = vc;
        f
    }

    /// Flit `seq` of a `len`-flit packet `pid` to `dst`, on input VC `vc`.
    fn packet_flit(pid: u64, dst: NodeId, len: u8, seq: u8, vc: u8) -> Flit {
        let p = Packet::data(PacketId(pid), NodeId(0), dst, len, 0);
        let mut f = Flit::of_packet(&p, seq, Switching::Packet);
        f.vc = vc;
        f
    }

    /// A ctrl that frees every output and withholds the flat input VCs
    /// of its mask from switch allocation.
    struct BlockVcs(u64);

    impl HybridCtrl for BlockVcs {
        fn ps_output_state(&self, _now: Cycle, _o: Port) -> PsOutput {
            PsOutput::Free
        }

        fn ps_blocked_vcs(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn blocked_vc_keeps_its_flit_while_its_input_neighbour_leaves() {
        let m = Mesh::square(3);
        let dst = m.id(Coord::new(2, 1));
        let mut r = mk(m, m.id(Coord::new(1, 1)));
        r.accept_flit(0, Port::West, packet_flit(10, dst, 1, 0, 0));
        r.accept_flit(0, Port::West, packet_flit(11, dst, 1, 0, 1));
        let west_vc0 = BlockVcs(1 << (Port::West.index() * 4));
        let mut out = NodeOutputs::default();
        for now in 0..6 {
            r.step(now, &west_vc0, &mut out);
        }
        let sent: Vec<PacketId> = out.flits.drain(..).map(|(_, f)| f.packet).collect();
        assert_eq!(sent, [PacketId(11)], "VC 1 of the same input leaves");
        assert_eq!(r.vc_len(Port::West, 0), 1, "the blocked VC keeps its flit");
        r.step(6, &BlockVcs(0), &mut out);
        let sent: Vec<PacketId> = out.flits.drain(..).map(|(_, f)| f.packet).collect();
        assert_eq!(sent, [PacketId(10)], "clearing the mask lets VC 0 go");
    }

    /// A ctrl that fails the test if switch allocation consults it.
    struct NoSwitchAllocation;

    impl HybridCtrl for NoSwitchAllocation {
        fn ps_output_state(&self, _now: Cycle, o: Port) -> PsOutput {
            panic!("switch allocation asked about output {o:?} with no flit to send")
        }

        fn ps_input_blocked(&self, _now: Cycle, p: Port) -> bool {
            panic!("switch allocation asked about input {p:?} with no flit to send")
        }
    }

    #[test]
    fn an_active_vc_without_a_flit_leaves_switch_allocation_untouched() {
        let m = Mesh::square(3);
        let east = m.id(Coord::new(2, 1));
        let mut r = mk(m, m.id(Coord::new(1, 1)));
        // The head of a two-flit packet leaves; its VC stays Active and
        // empty, waiting for the tail.
        r.accept_flit(0, Port::West, packet_flit(1, east, 2, 0, 0));
        let mut out = NodeOutputs::default();
        for now in 0..3 {
            r.step(now, &NullCtrl, &mut out);
        }
        assert_eq!(out.flits.len(), 1, "the head left");
        assert!(matches!(r.vc_state(Port::West, 0), VcState::Active { .. }));
        assert_eq!(r.occupancy(), 0);
        let arbiters = |r: &PsPipeline| format!("{:?}", (&r.va_arb, &r.sa_arb_in, &r.sa_arb_out));
        let (arbs, events, counters) = (arbiters(&r), r.events, r.counters());
        out.clear();
        for now in 3..8 {
            r.step(now, &NoSwitchAllocation, &mut out);
        }
        assert!(out.flits.is_empty() && out.credits.is_empty());
        assert_eq!(arbiters(&r), arbs, "an arbiter pointer moved");
        assert_eq!(r.events, events);
        assert_eq!(r.counters(), counters);
        // The tail arrives: the VC bids again and the packet completes.
        r.accept_flit(8, Port::West, packet_flit(1, east, 2, 1, 0));
        r.step(8, &NullCtrl, &mut out);
        assert_eq!(out.flits.len(), 1, "the tail left");
        assert_eq!(r.vc_state(Port::West, 0), VcState::Idle);
    }

    #[test]
    fn sa_bidders_are_the_active_vcs_holding_a_flit() {
        let m = Mesh::square(3);
        let east = m.id(Coord::new(2, 1));
        let mut r = mk(m, m.id(Coord::new(1, 1)));
        // West VC 0: the head of a two-flit packet leaves, so the VC is
        // Active and empty. West VC 1: Active, held back with its flit.
        r.accept_flit(0, Port::West, packet_flit(1, east, 2, 0, 0));
        r.accept_flit(0, Port::West, packet_flit(2, east, 1, 0, 1));
        let hold = BlockVcs(1 << (Port::West.index() * 4 + 1));
        let mut out = NodeOutputs::default();
        r.step(0, &hold, &mut out);
        r.step(1, &hold, &mut out);
        // Local VC 2: routed in the step it arrives, so Waiting.
        r.accept_flit(2, Port::Local, packet_flit(3, east, 1, 0, 2));
        r.step(2, &hold, &mut out);
        // South VC 3: Idle with a flit.
        r.accept_flit(3, Port::South, packet_flit(4, east, 1, 0, 3));
        assert_eq!(out.flits.len(), 1, "the two-flit packet's head left");
        assert!(matches!(r.vc_state(Port::West, 0), VcState::Active { .. }));
        assert!(matches!(
            r.vc_state(Port::Local, 2),
            VcState::Waiting { .. }
        ));
        assert_eq!(r.vc_state(Port::South, 3), VcState::Idle);
        let bidders: Vec<_> = r.sa_bidders().collect();
        assert_eq!(
            bidders,
            [(Port::West.index() * 4 + 1, Port::East, PacketId(2))]
        );
    }

    #[test]
    fn single_flit_traverses_in_three_cycles() {
        // Center node of a 3x3 mesh; flit from West heading East.
        let m = Mesh::square(3);
        let center = m.id(Coord::new(1, 1));
        let dst = m.id(Coord::new(2, 1));
        let mut r = mk(m, center);
        let f = head_flit(m.id(Coord::new(0, 1)), dst, 0);
        r.accept_flit(10, Port::West, f);

        let mut out = NodeOutputs::default();
        // Cycle 10: RC. Cycle 11: VA. Cycle 12: SA+ST → emitted.
        for now in 10..12 {
            r.step(now, &NullCtrl, &mut out);
            assert!(out.flits.is_empty(), "left too early at {now}");
        }
        r.step(12, &NullCtrl, &mut out);
        assert_eq!(out.flits.len(), 1);
        let (dir, f) = &out.flits[0];
        assert_eq!(*dir, Direction::East);
        assert_eq!(f.hops, 1);
        // Credit returned upstream (to the West neighbour).
        assert!(out
            .credits
            .iter()
            .any(|(d, c)| *d == Direction::West && c.vc == 0));
        assert_eq!(r.events.buffer_writes, 1);
        assert_eq!(r.events.buffer_reads, 1);
        assert_eq!(r.events.xbar_traversals, 1);
        assert_eq!(r.events.link_flits, 1);
    }

    #[test]
    fn ejection_at_destination() {
        let m = Mesh::square(3);
        let center = m.id(Coord::new(1, 1));
        let mut r = mk(m, center);
        let f = head_flit(m.id(Coord::new(0, 1)), center, 2);
        r.accept_flit(0, Port::West, f);
        let mut out = NodeOutputs::default();
        for now in 0..3 {
            r.step(now, &NullCtrl, &mut out);
        }
        assert!(out.flits.is_empty());
        assert_eq!(r.ejected.len(), 1);
        assert_eq!(r.events.ps_flits_delivered, 1);
    }

    #[test]
    fn busy_output_blocks_and_reserved_idle_counts_steal() {
        struct FixedCtrl(PsOutput);
        impl HybridCtrl for FixedCtrl {
            fn ps_output_state(&self, _now: Cycle, o: Port) -> PsOutput {
                if o == Port::East {
                    self.0
                } else {
                    PsOutput::Free
                }
            }
        }

        let m = Mesh::square(3);
        let center = m.id(Coord::new(1, 1));
        let dst = m.id(Coord::new(2, 1));

        // Busy: flit never leaves through East.
        let mut r = mk(m, center);
        r.accept_flit(0, Port::West, head_flit(m.id(Coord::new(0, 1)), dst, 0));
        let mut out = NodeOutputs::default();
        for now in 0..6 {
            r.step(now, &FixedCtrl(PsOutput::Busy), &mut out);
        }
        assert!(out.flits.is_empty());
        assert_eq!(r.occupancy(), 1);

        // ReservedIdle: leaves, and the steal is counted.
        let mut r = mk(m, center);
        r.accept_flit(0, Port::West, head_flit(m.id(Coord::new(0, 1)), dst, 0));
        let mut out = NodeOutputs::default();
        for now in 0..3 {
            r.step(now, &FixedCtrl(PsOutput::ReservedIdle), &mut out);
        }
        assert_eq!(out.flits.len(), 1);
        assert_eq!(r.events.slots_stolen, 1);
    }

    #[test]
    fn credits_limit_in_flight_flits() {
        // With no credits returned, at most buf_depth flits cross per VC.
        let m = Mesh::square(3);
        let center = m.id(Coord::new(1, 1));
        let dst = m.id(Coord::new(2, 1));
        let mut r = mk(m, center);
        let src = m.id(Coord::new(0, 1));
        // One long packet: head + 8 body + tail = 10 flits on vc 0.
        let p = Packet::data(PacketId(2), src, dst, 10, 0);
        let mut out = NodeOutputs::default();
        let mut sent = 0u8;
        let mut crossed = 0;
        for now in 0..40 {
            // Feed respecting our own buffer depth.
            while sent < 10 && r.vc_len(Port::West, 0) < 5 {
                let mut f = Flit::of_packet(&p, sent, Switching::Packet);
                f.vc = 0;
                r.accept_flit(now, Port::West, f);
                sent += 1;
            }
            out.flits.clear();
            out.credits.clear();
            r.step(now, &NullCtrl, &mut out);
            crossed += out.flits.len();
        }
        // Downstream returned no credits: only the initial 5 may cross.
        assert_eq!(crossed, 5);

        // Returning one credit releases exactly one more flit.
        r.accept_credit(Direction::East, Credit { vc: 0 });
        let mut extra = 0;
        for now in 40..50 {
            out.flits.clear();
            r.step(now, &NullCtrl, &mut out);
            extra += out.flits.len();
        }
        assert_eq!(extra, 1);
    }

    #[test]
    fn tail_frees_vc_for_next_packet() {
        let m = Mesh::square(3);
        let center = m.id(Coord::new(1, 1));
        let dst = m.id(Coord::new(2, 1));
        let src = m.id(Coord::new(0, 1));
        let mut r = mk(m, center);
        // Two 2-flit packets back-to-back in the same VC.
        for pid in 0..2u64 {
            let p = Packet::data(PacketId(pid), src, dst, 2, 0);
            for s in 0..2 {
                let mut f = Flit::of_packet(&p, s, Switching::Packet);
                f.vc = 1;
                r.accept_flit(0, Port::West, f);
            }
        }
        let mut out = NodeOutputs::default();
        let mut got = Vec::new();
        for now in 0..20 {
            out.flits.clear();
            r.step(now, &NullCtrl, &mut out);
            for (_, f) in out.flits.drain(..) {
                got.push((f.packet, f.kind()));
            }
            // Replenish downstream credits so the stream never stalls.
            for v in 0..4 {
                while r.out_credit(Port::East, v) < 5 {
                    r.accept_credit(Direction::East, Credit { vc: v as u8 });
                }
            }
        }
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], (PacketId(0), FlitKind::Head));
        assert_eq!(got[1], (PacketId(0), FlitKind::Tail));
        assert_eq!(got[2], (PacketId(1), FlitKind::Head));
        assert_eq!(got[3], (PacketId(1), FlitKind::Tail));
    }

    #[test]
    fn gating_reduces_powered_slots_only_when_idle() {
        let m = Mesh::square(3);
        let center = m.id(Coord::new(1, 1));
        let mut r = mk(m, center);
        let full = r.powered_buffer_slots();
        assert_eq!(full, 5 * 4 * 5); // 5 ports × 4 VCs × depth 5
        r.set_active_vcs(2);
        assert_eq!(r.powered_buffer_slots(), 5 * 2 * 5);
        // A straggler in a gated VC keeps that VC powered.
        let f = head_flit(m.id(Coord::new(0, 1)), center, 3);
        r.accept_flit(0, Port::West, f);
        assert_eq!(r.powered_buffer_slots(), 5 * 2 * 5 + 5);
    }

    #[test]
    fn trace_records_flit_lifecycle() {
        use noc_telemetry::TelemetryConfig;
        let m = Mesh::square(3);
        let center = m.id(Coord::new(1, 1));
        let dst = m.id(Coord::new(2, 1));
        let mut r = mk(m, center);
        r.trace = TraceSink::ring(&TelemetryConfig::default());
        r.accept_flit(10, Port::West, head_flit(m.id(Coord::new(0, 1)), dst, 0));
        let mut out = NodeOutputs::default();
        for now in 10..=12 {
            r.step(now, &NullCtrl, &mut out);
        }
        let ring = r.trace.take().unwrap();
        let kinds: Vec<EventKind> = ring.events().map(|e| e.kind).collect();
        for k in [
            EventKind::VaGrant,
            EventKind::SaGrant,
            EventKind::SwitchTraversal,
            EventKind::LinkTraverse,
        ] {
            assert!(kinds.contains(&k), "missing {k:?} in {kinds:?}");
        }
        assert!(
            ring.events().all(|e| e.id == 1 && e.node == center.0),
            "payloads must carry the packet id and node index"
        );
    }

    #[test]
    fn utilization_window_resets() {
        let m = Mesh::square(3);
        let center = m.id(Coord::new(1, 1));
        let mut r = mk(m, center);
        let mut out = NodeOutputs::default();
        r.step(0, &NullCtrl, &mut out);
        assert_eq!(r.take_utilization(), 0.0);
        let dst = m.id(Coord::new(2, 1));
        r.accept_flit(1, Port::West, head_flit(m.id(Coord::new(0, 1)), dst, 0));
        r.step(1, &NullCtrl, &mut out);
        let u = r.take_utilization();
        assert!(u > 0.0 && u < 1.0);
    }

    /// Drive a flit through RC+VA only and return its allocated out VC.
    fn va_out_vc(r: &mut PsPipeline, in_port: Port, flit: Flit) -> (Port, u8) {
        let in_vc = flit.vc;
        r.accept_flit(100, in_port, flit);
        let mut out = NodeOutputs::default();
        r.step(100, &NullCtrl, &mut out); // RC
        r.step(101, &NullCtrl, &mut out); // VA
        match r.vc_state(in_port, in_vc as usize) {
            VcState::Active { out, out_vc } => (out, out_vc),
            s => panic!("VA did not complete: {s:?}"),
        }
    }

    #[test]
    fn torus_dateline_wrap_link_moves_to_class_one() {
        // 4x4 torus, router at (3,1): a flit for (0,1) goes East across
        // the wrap edge and must land in the class-1 VC half (>= 2 of 4).
        let t = Mesh::torus(4, 4);
        let mut r = mk(t, t.id(Coord::new(3, 1)));
        let f = head_flit(t.id(Coord::new(1, 1)), t.id(Coord::new(0, 1)), 0);
        let (out, out_vc) = va_out_vc(&mut r, Port::West, f);
        assert_eq!(out, Port::East);
        assert!(out_vc >= 2, "wrap link must allocate a class-1 VC");

        // Same router, destination (2,1): West, no wrap → class 0.
        let mut r = mk(t, t.id(Coord::new(3, 1)));
        let f = head_flit(t.id(Coord::new(1, 1)), t.id(Coord::new(2, 1)), 0);
        let (out, out_vc) = va_out_vc(&mut r, Port::East, f);
        assert_eq!(out, Port::West);
        assert!(out_vc < 2, "non-wrap link must allocate a class-0 VC");
    }

    #[test]
    fn torus_dateline_class_carries_in_dimension_and_resets_across() {
        let t = Mesh::torus(4, 4);
        // Router (0,1): a class-1 flit (vc 3) continuing East to (2,1)
        // stays class 1 — no dimension switch yet.
        let mut r = mk(t, t.id(Coord::new(0, 1)));
        let f = head_flit(t.id(Coord::new(3, 1)), t.id(Coord::new(2, 1)), 3);
        let (out, out_vc) = va_out_vc(&mut r, Port::West, f);
        assert_eq!(out, Port::East);
        assert!(out_vc >= 2, "same-dimension hop must keep class 1");

        // Router (2,1): a class-1 flit switching to the Y dimension
        // (destination (2,2)) resets to class 0.
        let mut r = mk(t, t.id(Coord::new(2, 1)));
        let f = head_flit(t.id(Coord::new(3, 1)), t.id(Coord::new(2, 2)), 3);
        let (out, out_vc) = va_out_vc(&mut r, Port::West, f);
        assert_eq!(out, Port::South);
        assert!(out_vc < 2, "dimension switch must reset to class 0");

        // Local injection starts in class 0 even on a high input VC.
        let mut r = mk(t, t.id(Coord::new(1, 1)));
        let f = head_flit(t.id(Coord::new(1, 1)), t.id(Coord::new(2, 1)), 3);
        let (out, out_vc) = va_out_vc(&mut r, Port::Local, f);
        assert_eq!(out, Port::East);
        assert!(out_vc < 2, "local injection starts in class 0");
    }

    #[test]
    fn torus_ejection_accepts_both_classes() {
        let t = Mesh::torus(4, 4);
        let here = t.id(Coord::new(1, 1));
        let mut r = mk(t, here);
        let f = head_flit(t.id(Coord::new(3, 1)), here, 3);
        let (out, _) = va_out_vc(&mut r, Port::West, f);
        assert_eq!(out, Port::Local);
        let mut outb = NodeOutputs::default();
        r.step(102, &NullCtrl, &mut outb);
        assert_eq!(r.ejected.len(), 1, "class-1 flit must eject normally");
    }

    #[test]
    #[should_panic(expected = "even")]
    fn torus_rejects_odd_vc_counts() {
        let t = Mesh::torus(3, 3);
        let cfg = RouterConfig {
            vcs_per_port: 3,
            ..RouterConfig::default()
        };
        let _ = PsPipeline::new(t.id(Coord::new(0, 0)), t, cfg);
    }
}
