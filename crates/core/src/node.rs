//! The TDM hybrid tile: NIC + hybrid router + source-side circuit policy.
//!
//! Implements the node-level behaviour of §II and §III:
//!
//! * **switching decision** (§II-A): a message is circuit-switched only when
//!   an established connection exists and the estimated stall before its
//!   time-slot (including queued CS messages) is acceptable; everything
//!   else — including messages whose path setup is still in flight — is
//!   packet-switched immediately ("packet transmission does not wait for a
//!   successful circuit-switched path setup");
//! * **path configuration** (§II-B): frequency-triggered setup, resend with
//!   a different slot id on failure, retry cool-downs, idle-connection
//!   eviction, and teardown of partially constructed paths;
//! * **path sharing** (§III-A): hitchhiker rides on through-circuits from
//!   the DLT, vicinity rides on own circuits ending next to the
//!   destination, contention fallback to packet switching, and the 2-bit
//!   failure counters that eventually request a dedicated path;
//! * **aggressive VC power gating** (§III-B) via the shared controller.

use std::collections::VecDeque;

use noc_sim::routing::xy_route;
use noc_sim::{
    ConfigKind, Credit, Cycle, DeliveredPacket, Direction, EventKind, Flit, MsgClass, Nic, NodeId,
    NodeModel, NodeOutputs, NodeTable, Packet, PacketId, Port, PowerState, RingSink,
    RouteOverrides, SetupInfo, Snap, SnapshotError, SnapshotReader, SnapshotWriter, Switching,
    TraceSink, VcGatingController,
};

use crate::config::TdmConfig;
use crate::dlt::Dlt;
use crate::registry::{ConnRegistry, FrequencyTracker, PendingSetup};
use crate::router::{DltObservation, TdmRouter};

/// A data message waiting for its circuit's time-slot.
#[derive(Clone, Debug)]
struct QueuedCs {
    packet: Packet,
    /// Vicinity-sharing: the real destination; the packet's `dst` is the
    /// circuit endpoint.
    true_dst: Option<NodeId>,
}

/// A message waiting to hitchhike on a through-circuit (§III-A1).
#[derive(Clone, Debug)]
struct ShareMsg {
    packet: Packet,
    /// DLT key: destination of the circuit being ridden.
    ride_dst: NodeId,
    /// Real destination (differs from `ride_dst` under combined
    /// hitchhiker+vicinity sharing).
    final_dst: NodeId,
    /// When the message started waiting for the ride's slot.
    queued_at: Cycle,
}

/// An in-progress circuit-switched burst (one flit per cycle).
#[derive(Clone, Debug)]
struct CsStream {
    flits: Vec<Flit>,
    next: usize,
    via: StreamVia,
    /// The original message, for packet-switched fallback if the ride is
    /// torn down mid-burst.
    origin: Packet,
    /// Real destination of the message.
    final_dst: NodeId,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamVia {
    /// Our own connection (local slot-table reservation).
    Own,
    /// Hitchhiking on a circuit entering the router on this port.
    Hitchhike { in_port: Port, ride_dst: NodeId },
}

noc_sim::impl_snap!(QueuedCs { packet, true_dst });
noc_sim::impl_snap!(ShareMsg {
    packet,
    ride_dst,
    final_dst,
    queued_at,
});
noc_sim::impl_snap!(CsStream {
    flits,
    next,
    via,
    origin,
    final_dst,
});

impl Snap for StreamVia {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            StreamVia::Own => w.u8(0),
            StreamVia::Hitchhike { in_port, ride_dst } => {
                w.u8(1);
                in_port.save(w);
                ride_dst.save(w);
            }
        }
    }

    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => StreamVia::Own,
            1 => StreamVia::Hitchhike {
                in_port: Snap::load(r)?,
                ride_dst: Snap::load(r)?,
            },
            _ => return Err(SnapshotError::Corrupt("stream-via tag")),
        })
    }
}

/// The hybrid tile model.
pub struct TdmNode {
    id: NodeId,
    cfg: TdmConfig,
    nic: Nic,
    pub router: TdmRouter,
    pub registry: ConnRegistry,
    pub dlt: Dlt,
    freq: FrequencyTracker,
    gating: Option<VcGatingController>,
    /// CS messages waiting per connection endpoint.
    cs_queues: NodeTable<VecDeque<QueuedCs>>,
    share_queue: VecDeque<ShareMsg>,
    streaming: Option<CsStream>,
    /// Flits across all `cs_queues` entries (O(1) occupancy).
    queued_cs_flits: usize,
    /// Flits across `share_queue` (O(1) occupancy).
    share_flits: usize,
    /// Vicinity-sharing failure counters per real destination (2-bit).
    share_fails: NodeTable<u8>,
    next_path_id: u64,
    /// Network-wide CS freeze during a slot-table resize (§II-C).
    cs_frozen: bool,
    /// Rotating scan origin so retries pick different slot ids.
    slot_scan: u16,
    /// Recycled CS-burst buffer: `build_cs_flits` refills this instead of
    /// allocating a fresh `Vec` per burst (DESIGN.md §17). Scratch only —
    /// never snapshotted; capacity plateaus at the longest burst seen.
    spare_flits: Vec<Flit>,
    /// Destinations a profiled circuit plan pinned: their connections are
    /// exempt from LRU/idle eviction. A resize still tears the circuits
    /// down with everything else, but the pins survive, so a reactively
    /// re-established connection to a planned destination is pinned again.
    pinned: NodeTable<u8>,
}

impl TdmNode {
    pub fn new(id: NodeId, cfg: &TdmConfig) -> Self {
        let mut router = TdmRouter::new(
            id,
            cfg.net.mesh,
            cfg.net.router,
            cfg.slot_capacity,
            cfg.initial_active(),
            cfg.reservation_cap,
        );
        router.time_slot_stealing = cfg.time_slot_stealing;
        router.hitchhiker = cfg.sharing.hitchhiker;
        let n = cfg.net.mesh.len();
        let mut nic = Nic::new(id, &cfg.net.router);
        if cfg.net.mesh.is_torus() {
            assert!(
                cfg.gating.is_none(),
                "VC gating is incompatible with torus dateline classes"
            );
            nic.set_inject_vc_limit(cfg.net.router.vcs_per_port / 2);
        }
        TdmNode {
            id,
            cfg: *cfg,
            nic,
            router,
            registry: ConnRegistry::new(n),
            dlt: Dlt::new(cfg.sharing.dlt_entries),
            freq: FrequencyTracker::new(cfg.policy.freq_window, n),
            gating: cfg.gating.map(VcGatingController::new),
            cs_queues: NodeTable::new(n),
            share_queue: VecDeque::with_capacity(8),
            streaming: None,
            queued_cs_flits: 0,
            share_flits: 0,
            share_fails: NodeTable::new(n),
            next_path_id: 0,
            cs_frozen: false,
            slot_scan: (id.0 as u16).wrapping_mul(7),
            spare_flits: Vec::new(),
            pinned: NodeTable::new(n),
        }
    }

    pub fn config(&self) -> &TdmConfig {
        &self.cfg
    }

    fn fresh_path_id(&mut self) -> u64 {
        let id = ((self.id.0 as u64) << 32) | self.next_path_id;
        self.next_path_id += 1;
        id
    }

    fn protocol_packet_id(&mut self) -> PacketId {
        // Namespaced: never collides with driver-allocated data ids.
        PacketId((1 << 62) | ((self.id.0 as u64) << 40) | self.fresh_path_id())
    }

    /// Cycles until the next occurrence of `slot` at or after `now`.
    fn wait_for_slot(&self, now: Cycle, slot: u16) -> u64 {
        let s = self.router.slots.active() as u64;
        let d = slot as u64 + s - self.router.slots.slot_of(now) as u64;
        // `d < 2s` for every slot id below `s`, the only ones a node
        // holds, so a compare replaces the second division; the modulus
        // stays as the general case.
        if d < s {
            d
        } else if d < 2 * s {
            d - s
        } else {
            d % s
        }
    }

    /// Estimated delivery time of a circuit-switched message to `dst`:
    /// wait for the nearest run's slot, queueing behind earlier CS
    /// messages (each consumes one run occurrence), then 2 cycles per hop.
    fn cs_estimate(&self, now: Cycle, dst: NodeId, queue_key: NodeId) -> Option<u64> {
        let runs = self.registry.runs(queue_key);
        if runs.is_empty() {
            return None;
        }
        let s = self.router.slots.active() as u64;
        let slot_wait = runs
            .iter()
            .map(|c| self.wait_for_slot(now, c.slot))
            .min()
            .expect("non-empty runs");
        let queued = self.cs_queues.get(queue_key).map_or(0, |q| q.len()) as u64;
        let eff_period = s / runs.len() as u64;
        let hops = self.cfg.net.mesh.hops(self.id, dst) as u64;
        Some(slot_wait + queued * eff_period + 2 * hops + 2)
    }

    /// Estimated packet-switched delivery time to `dst`: pipeline latency
    /// per hop plus serialisation of the flits queued ahead at the NIC —
    /// the congestion signal that makes the adaptive budget favour
    /// circuits exactly when the packet-switched network clogs up.
    fn ps_estimate(&self, dst: NodeId) -> u64 {
        let hops = self.cfg.net.mesh.hops(self.id, dst) as u64;
        4 * hops + 8 + self.nic.queue_len() as u64 * self.cfg.net.ps_packet_flits as u64
    }

    /// The §II-A switching decision: is a circuit-switched delivery
    /// estimate acceptable compared to packet switching?
    fn within_budget(&self, cs_est: u64, dst: NodeId) -> bool {
        let b = self.cfg.policy.wait_budget;
        let s = self.router.slots.active() as f64;
        let budget = (self.ps_estimate(dst) as f64 * b.ps_factor).max(b.floor_periods * s);
        cs_est as f64 <= budget
    }

    // --- switching decision (§II-A, §V-A2) --------------------------------

    /// Decide how to send a freshly injected data packet.
    fn dispatch(&mut self, now: Cycle, pkt: Packet) {
        let dst = pkt.dst;
        let count = self.freq.record(dst, now);

        if self.cs_frozen || !pkt.cs_eligible {
            // Frozen network, CPU traffic, or a GPU message without slack:
            // always packet-switched (§V-A2). Ineligible traffic never
            // warms up circuits either — circuits only pay off for flows
            // that will actually ride them.
            self.nic.enqueue(pkt);
            return;
        }

        // 1. Own established connection (possibly several slot runs).
        if let Some(conn) = self.registry.get(dst).copied() {
            let cs_len = pkt.len_flits.saturating_sub(1).max(1);
            if cs_len <= conn.duration {
                let cs_est = self.cs_estimate(now, dst, dst).expect("connection exists");
                if self.within_budget(cs_est, dst) {
                    self.queued_cs_flits += pkt.len_flits as usize;
                    self.cs_queues.entry_or_default(dst).push_back(QueuedCs {
                        packet: pkt,
                        true_dst: None,
                    });
                    // A backlog means the pair outgrew its bandwidth share:
                    // request another slot run (§II-C granularity).
                    if self.cs_queues.get(dst).is_some_and(|q| q.len() >= 2) {
                        self.maybe_add_run(now, dst);
                    }
                    return;
                }
            }
            // Stalling too long: packet-switch this one (§II-A).
            self.nic.enqueue(pkt);
            return;
        }

        // 2. Hitchhiker-sharing on a through-circuit ending at dst.
        if self.cfg.sharing.hitchhiker {
            if let Some(e) = self.dlt.lookup(dst) {
                let ride = e.dst;
                self.share_flits += pkt.len_flits as usize;
                self.router.pipeline.trace.record(
                    now,
                    self.id.0,
                    EventKind::ShareEnqueue,
                    Port::Local.index() as u8,
                    pkt.id.0,
                );
                self.share_queue.push_back(ShareMsg {
                    packet: pkt,
                    ride_dst: ride,
                    final_dst: dst,
                    queued_at: now,
                });
                return;
            }
        }

        // 3. Vicinity-sharing on an own circuit ending next to dst.
        if self.cfg.sharing.vicinity {
            if let Some(conn) = self.registry.vicinity_of(&self.cfg.net.mesh, dst).copied() {
                if pkt.len_flits <= conn.duration {
                    let cs_est = self
                        .cs_estimate(now, conn.dst, conn.dst)
                        .expect("connection exists");
                    if self.within_budget(cs_est, dst) {
                        self.queued_cs_flits += pkt.len_flits as usize;
                        self.cs_queues
                            .entry_or_default(conn.dst)
                            .push_back(QueuedCs {
                                packet: pkt,
                                true_dst: Some(dst),
                            });
                        return;
                    }
                }
            }
            // 4. Combined sharing: hitchhike to a neighbour of dst.
            if self.cfg.sharing.hitchhiker {
                if let Some(e) = self.dlt.lookup_vicinity(&self.cfg.net.mesh, dst) {
                    let ride = e.dst;
                    self.share_flits += pkt.len_flits as usize;
                    self.router.pipeline.trace.record(
                        now,
                        self.id.0,
                        EventKind::ShareEnqueue,
                        Port::Local.index() as u8,
                        pkt.id.0,
                    );
                    self.share_queue.push_back(ShareMsg {
                        packet: pkt,
                        ride_dst: ride,
                        final_dst: dst,
                        queued_at: now,
                    });
                    return;
                }
            }
        }

        // 5. Packet-switched; consider requesting a circuit.
        self.nic.enqueue(pkt);
        if count >= self.cfg.policy.setup_after_msgs {
            self.maybe_initiate_setup(now, dst);
        }
    }

    // --- path configuration (§II-B) ----------------------------------------

    fn maybe_initiate_setup(&mut self, now: Cycle, dst: NodeId) {
        if self.cs_frozen
            || dst == self.id
            || self.registry.get(dst).is_some()
            || self.registry.pending_for(dst)
            || self.registry.in_cooldown(dst, now)
            || self.registry.pending_count() >= 4
        {
            return;
        }
        if self.cfg.net.mesh.hops(self.id, dst) < 2 {
            // One-hop circuits save nothing over the pipeline (§II-A's
            // short-distance stall concern).
            return;
        }
        if self.registry.len() >= self.cfg.policy.max_connections as usize {
            // Evict an idle connection to make room (§II-B) — but never a
            // pinned one (profiled circuit plans own their slots).
            let victim =
                self.registry
                    .lru_idle_excluding(now, self.cfg.policy.idle_teardown, &self.pinned);
            match victim {
                Some(v) => self.teardown_connection(now, v.dst),
                None => return,
            }
        }
        self.issue_setup(now, dst, 0, self.slot_scan);
    }

    /// Request a circuit on behalf of a profiled [`CircuitPlan`]
    /// (`noc-sim`): bypasses the frequency trigger (`setup_after_msgs`)
    /// — the profile already decided this flow deserves a path — and,
    /// with `pin`, marks the destination exempt from LRU/idle eviction.
    /// All other setup guards (distance, capacity, pending budget) still
    /// apply, so a plan can never wedge the protocol.
    pub fn request_planned_circuit(&mut self, now: Cycle, dst: NodeId, pin: bool) {
        if dst == self.id {
            return;
        }
        if pin && self.cfg.net.mesh.hops(self.id, dst) >= 2 {
            self.pinned.insert(dst, 1);
        }
        self.maybe_initiate_setup(now, dst);
    }

    /// Whether `dst` is pinned by a circuit plan.
    pub fn is_pinned(&self, dst: NodeId) -> bool {
        self.pinned.get(dst).is_some()
    }

    /// Request an additional slot run for an already-connected pair whose
    /// circuit queue is backing up (§II-C: bandwidth share per connection
    /// is the granularity knob).
    fn maybe_add_run(&mut self, now: Cycle, dst: NodeId) {
        if self.cs_frozen
            || self.registry.runs(dst).len() >= self.cfg.policy.max_runs_per_pair as usize
            || self.registry.pending_for(dst)
            || self.registry.in_cooldown(dst, now)
            || self.registry.pending_count() >= 4
        {
            return;
        }
        self.issue_setup(now, dst, 0, self.slot_scan);
    }

    fn issue_setup(&mut self, now: Cycle, dst: NodeId, attempts: u8, scan_from: u16) {
        let duration = self.cfg.reserve_duration();
        let est_out = xy_route(&self.cfg.net.mesh, self.id, dst);
        let Some(slot) = self
            .router
            .slots
            .find_free_run(Port::Local, est_out, duration, scan_from)
        else {
            // Local table exhausted: counts as a capacity failure for the
            // dynamic-granularity controller (§II-C).
            self.router.pipeline.events.setup_failures += 1;
            self.registry
                .set_cooldown(dst, now, self.cfg.policy.retry_cooldown);
            return;
        };
        self.slot_scan = self.slot_scan.wrapping_add(duration as u16 + 3);
        let path_id = self.fresh_path_id();
        let info = SetupInfo {
            src: self.id,
            dst,
            slot,
            duration,
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
                slot,
                duration,
                attempts,
                issued: now,
            },
        );
        self.router.pipeline.events.setup_attempts += 1;
        self.nic.enqueue_front(pkt);
    }

    /// Send teardowns for every run of an established connection and
    /// forget the pair.
    fn teardown_connection(&mut self, now: Cycle, dst: NodeId) {
        let Some(conns) = self.registry.remove(dst) else {
            return;
        };
        // Any messages still queued for it go packet-switched.
        if let Some(q) = self.cs_queues.remove(dst) {
            for m in q {
                self.queued_cs_flits -= m.packet.len_flits as usize;
                self.requeue_ps(m.packet, m.true_dst);
            }
        }
        for conn in conns {
            let info = SetupInfo {
                src: self.id,
                dst,
                slot: conn.slot,
                duration: conn.duration,
                path_id: conn.path_id,
            };
            let pkt = Packet::config(
                self.protocol_packet_id(),
                self.id,
                dst,
                ConfigKind::Teardown(info),
                now,
            );
            self.nic.enqueue_front(pkt);
        }
    }

    fn send_teardown_for(&mut self, now: Cycle, info: SetupInfo) {
        let pkt = Packet::config(
            self.protocol_packet_id(),
            self.id,
            info.dst,
            ConfigKind::Teardown(info),
            now,
        );
        self.nic.enqueue_front(pkt);
    }

    /// Requeue a CS-diverted message onto the packet-switched network.
    fn requeue_ps(&mut self, mut pkt: Packet, true_dst: Option<NodeId>) {
        if let Some(td) = true_dst {
            pkt.dst = td;
        }
        self.nic.enqueue(pkt);
    }

    /// Handle an `ack` that reached this (source) node.
    fn handle_ack(&mut self, now: Cycle, info: SetupInfo, success: bool) {
        if success {
            self.registry.clear_cooldown(info.dst);
            if self.registry.confirm(info.path_id, now).is_none() {
                // Stale ack (state was reset): reclaim the orphan path.
                self.send_teardown_for(now, info);
            }
            return;
        }
        // Failure: clear the partial path, then maybe resend with a
        // different slot id (§II-B).
        let pending = self.registry.fail(info.path_id);
        self.send_teardown_for(now, info);
        let Some(p) = pending else { return };
        if p.attempts < self.cfg.policy.setup_retries && !self.cs_frozen {
            let scan = p.slot.wrapping_add(p.duration as u16 + 1);
            self.issue_setup(now, p.dst, p.attempts + 1, scan);
        } else {
            self.registry
                .set_cooldown(p.dst, now, self.cfg.policy.retry_cooldown);
        }
    }

    // --- circuit-switched streaming ----------------------------------------

    /// Build the flits of a CS burst into the recycled spare buffer.
    fn build_cs_flits(&mut self, q: &QueuedCs) -> Vec<Flit> {
        let (len, dst) = match q.true_dst {
            // Vicinity: header flit + payload, addressed to the circuit end.
            Some(_) => (q.packet.len_flits, q.packet.dst),
            // Plain CS: the header flit is not needed on a reserved path.
            None => (q.packet.len_flits.saturating_sub(1).max(1), q.packet.dst),
        };
        let mut shaped = q.packet.clone();
        shaped.dst = dst;
        shaped.len_flits = len;
        let mut flits = std::mem::take(&mut self.spare_flits);
        flits.clear();
        flits.extend((0..len).map(|s| {
            let mut f = Flit::of_packet(&shaped, s, Switching::Circuit);
            f.set_true_dst(q.true_dst);
            f
        }));
        flits
    }

    /// Return a finished burst's buffer to the spare slot for reuse.
    fn recycle_flits(&mut self, flits: Vec<Flit>) {
        if flits.capacity() > self.spare_flits.capacity() {
            self.spare_flits = flits;
        }
    }

    /// Advance or start circuit-switched streaming; returns whether the
    /// local port was used for a CS flit this cycle.
    fn pump_cs(&mut self, now: Cycle) -> bool {
        // Continue an in-progress burst.
        if let Some(s) = &mut self.streaming {
            let flit = s.flits[s.next];
            let ok = match s.via {
                StreamVia::Own => self.router.inject_cs_local(now, flit),
                StreamVia::Hitchhike { in_port, ride_dst } => self
                    .router
                    .inject_cs_hitchhike(now, flit, in_port, ride_dst),
            };
            if !ok {
                // Only a shared ride can vanish mid-burst (the owner tore
                // the path down; its teardown raced through our router
                // between two of our flits). Resend the whole message
                // packet-switched: already-delivered head flits without a
                // tail are inert at the receiver, and the fresh tail
                // completes reassembly exactly once.
                let s = self.streaming.take().expect("streaming");
                assert!(
                    matches!(s.via, StreamVia::Hitchhike { .. }),
                    "own CS burst interrupted mid-stream at {:?}",
                    self.id
                );
                self.router.pipeline.events.sharing_failures += 1;
                let CsStream {
                    flits,
                    origin,
                    final_dst,
                    ..
                } = s;
                self.requeue_ps(origin, Some(final_dst));
                self.recycle_flits(flits);
                return false;
            }
            let done = {
                let s = self.streaming.as_mut().expect("streaming");
                s.next += 1;
                s.next == s.flits.len()
            };
            if done {
                let s = self.streaming.take().expect("streaming");
                self.recycle_flits(s.flits);
            }
            return true;
        }
        if self.cs_frozen {
            return false;
        }
        // Nothing queued for a circuit and nothing waiting to hitchhike:
        // the scans below are guaranteed no-ops (the flit counters are
        // exact — see the `occupancy` debug asserts).
        if self.queued_cs_flits == 0 && self.share_queue.is_empty() {
            return false;
        }

        let slot_now = self.router.slots.slot_of(now);

        // Start a burst on an own connection run whose slot begins now.
        let starting: Option<NodeId> = self
            .registry
            .iter()
            .find(|c| {
                c.slot == slot_now && self.cs_queues.get(c.dst).is_some_and(|q| !q.is_empty())
            })
            .map(|c| c.dst);
        if let Some(dst) = starting {
            let q = self
                .cs_queues
                .get_mut(dst)
                .and_then(|q| q.pop_front())
                .expect("non-empty queue");
            self.queued_cs_flits -= q.packet.len_flits as usize;
            let flits = self.build_cs_flits(&q);
            if q.true_dst.is_some() {
                self.router.pipeline.events.vicinity_rides += 1;
            }
            self.registry.touch(dst, slot_now, now);
            let final_dst = q.true_dst.unwrap_or(dst);
            let mut stream = CsStream {
                flits,
                next: 0,
                via: StreamVia::Own,
                origin: q.packet.clone(),
                final_dst,
            };
            let ok = self.router.inject_cs_local(now, stream.flits[0]);
            assert!(ok, "own reservation missing at {:?}", self.id);
            stream.next = 1;
            if stream.next < stream.flits.len() {
                self.streaming = Some(stream);
            } else {
                self.recycle_flits(stream.flits);
            }
            return true;
        }

        // Age out share messages whose ride disappeared or that have waited
        // more than two periods (e.g. starved by own-connection bursts on
        // the same slot): they fall back to packet switching.
        let period = self.router.slots.active() as u64;
        let expired: Vec<usize> = self
            .share_queue
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                self.dlt.lookup(m.ride_dst).is_none()
                    || now.saturating_sub(m.queued_at) > 2 * period
            })
            .map(|(i, _)| i)
            .collect();
        for i in expired.into_iter().rev() {
            let msg = self.share_queue.remove(i).expect("index valid");
            self.share_flits -= msg.packet.len_flits as usize;
            self.router.pipeline.trace.record(
                now,
                self.id.0,
                EventKind::ShareExpire,
                Port::Local.index() as u8,
                msg.packet.id.0,
            );
            self.share_failed(now, msg);
        }

        // Try to hitchhike (§III-A1): the ride's slot must begin now.
        if let Some(pos) = self.share_queue.iter().position(|m| {
            self.dlt
                .lookup(m.ride_dst)
                .is_some_and(|e| e.slot == slot_now)
        }) {
            let msg = self.share_queue.remove(pos).expect("position valid");
            self.share_flits -= msg.packet.len_flits as usize;
            let e = *self.dlt.lookup(msg.ride_dst).expect("checked above");
            let vicinity = msg.final_dst != msg.ride_dst;
            let q = QueuedCs {
                packet: {
                    let mut p = msg.packet.clone();
                    p.dst = msg.ride_dst;
                    p
                },
                true_dst: if vicinity { Some(msg.final_dst) } else { None },
            };
            let flits = self.build_cs_flits(&q);
            if flits.len() as u8 > e.duration {
                // Reservation too short (e.g. non-vicinity path): fall back.
                self.recycle_flits(flits);
                self.share_failed(now, msg);
                return false;
            }
            let mut stream = CsStream {
                flits,
                next: 0,
                via: StreamVia::Hitchhike {
                    in_port: e.in_port,
                    ride_dst: e.dst,
                },
                origin: msg.packet.clone(),
                final_dst: msg.final_dst,
            };
            let ok = self
                .router
                .inject_cs_hitchhike(now, stream.flits[0], e.in_port, e.dst);
            if !ok {
                // Contention with the upstream source: packet-switch (§III-A1).
                self.recycle_flits(stream.flits);
                self.share_failed(now, msg);
                return false;
            }
            self.dlt.record_success(e.dst);
            if vicinity {
                self.router.pipeline.events.vicinity_rides += 1;
            } else {
                self.router.pipeline.events.hitchhike_rides += 1;
            }
            stream.next = 1;
            if stream.next < stream.flits.len() {
                self.streaming = Some(stream);
            } else {
                self.recycle_flits(stream.flits);
            }
            return true;
        }
        false
    }

    /// A sharing attempt failed: fall back to packet switching and bump the
    /// 2-bit counters; request a dedicated path when they saturate.
    fn share_failed(&mut self, now: Cycle, msg: ShareMsg) {
        self.router.pipeline.events.sharing_failures += 1;
        let final_dst = msg.final_dst;
        let trigger = if msg.ride_dst == final_dst {
            self.dlt.record_failure(msg.ride_dst)
        } else {
            let c = self.share_fails.entry_or_default(final_dst);
            *c += 1;
            if *c >= crate::dlt::FAIL_LIMIT {
                self.share_fails.remove(final_dst);
                true
            } else {
                false
            }
        };
        self.requeue_ps(msg.packet, Some(final_dst));
        if trigger {
            // Counter reached '10': generate a dedicated setup (§III-A).
            self.maybe_initiate_setup(now, final_dst);
        }
    }

    /// Fold the router's DLT observations into the DLT (§III-A1: the DLT
    /// "is updated when a new connection is setup in the router").
    fn apply_dlt_observations(&mut self) {
        for obs in self.router.dlt_observations.drain(..) {
            if !self.cfg.sharing.hitchhiker {
                continue;
            }
            match obs {
                DltObservation::Insert {
                    dst,
                    slot,
                    duration,
                    in_port,
                } => {
                    // Only through-traffic is rideable: not our own circuits
                    // (in the registry) and not circuits ending here.
                    if in_port != Port::Local && dst != self.id {
                        self.router.pipeline.events.dlt_updates +=
                            self.dlt.insert(dst, slot, duration, in_port);
                    }
                }
                DltObservation::Confirm { dst, in_port, slot } => {
                    self.dlt
                        .confirm(dst, in_port, slot, self.router.slots.active());
                }
                DltObservation::Remove { dst } => self.dlt.remove(dst),
            }
        }
    }

    // --- resize support (§II-C) --------------------------------------------

    /// Freeze circuit switching (resize phase 1): flush queued CS work onto
    /// the packet-switched network and stop starting new bursts.
    pub fn set_cs_frozen(&mut self, frozen: bool) {
        self.cs_frozen = frozen;
        if frozen {
            // Canonical ascending-id order: the flush lands messages on the
            // packet-switched network in a deterministic sequence however
            // the queues were populated.
            for (_, q) in self.cs_queues.drain_sorted() {
                for m in q {
                    self.requeue_ps(m.packet, m.true_dst);
                }
            }
            let shares: Vec<_> = self.share_queue.drain(..).collect();
            for m in shares {
                self.requeue_ps(m.packet, Some(m.final_dst));
            }
            self.queued_cs_flits = 0;
            self.share_flits = 0;
        }
    }

    /// Whether this node still has a circuit burst in flight (the resize
    /// controller waits for all of these before resetting).
    pub fn cs_streaming(&self) -> bool {
        self.streaming.is_some()
    }

    /// Resize phase 2: reset all slot tables to `new_active` entries and
    /// restart path setup from scratch.
    pub fn reset_for_resize(&mut self, new_active: u16) {
        assert!(self.streaming.is_none(), "reset during an active CS burst");
        self.router.reset_slots(new_active);
        self.registry.clear();
        self.dlt.clear();
        self.share_fails.clear();
    }
}

impl NodeModel for TdmNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn inject(&mut self, now: Cycle, pkt: Packet) {
        match pkt.class {
            MsgClass::Data => self.dispatch(now, pkt),
            MsgClass::Config => self.nic.enqueue_front(pkt),
        }
    }

    fn accept_flit(&mut self, now: Cycle, from: Direction, flit: Flit) {
        self.router.accept_flit(now, from.as_port(), flit);
    }

    fn accept_credit(&mut self, _now: Cycle, from: Direction, credit: Credit) {
        self.router.pipeline.accept_credit(from, credit);
    }

    fn accept_vc_count(&mut self, _now: Cycle, from: Direction, count: u8) {
        self.router.pipeline.accept_vc_count(from, count);
    }

    fn step(&mut self, now: Cycle, out: &mut NodeOutputs) {
        // Each drain below runs only when its queue holds something: a
        // step woken by a credit, or one that only moves a latched circuit
        // flit, skips them all.
        // Local-port credits freed last cycle.
        if !self.router.pipeline.local_credits.is_empty() {
            for vc in self.router.pipeline.local_credits.drain(..) {
                self.nic.credit(vc);
            }
        }

        // DLT maintenance from configuration messages seen by the router.
        if !self.router.dlt_observations.is_empty() {
            self.apply_dlt_observations();
        }

        // Acks generated by our own router (first-hop setup failures).
        // Taken and handed back drained: `handle_ack` needs `&mut self`
        // but never pushes into this queue — only the router's step does.
        if !self.router.protocol_out.is_empty() {
            let mut protocol = std::mem::take(&mut self.router.protocol_out);
            for pkt in protocol.drain(..) {
                if pkt.dst == self.id {
                    if let Some(ConfigKind::Ack { info, success }) = pkt.config {
                        self.handle_ack(now, info, success);
                    }
                } else {
                    self.nic.enqueue_front(pkt);
                }
            }
            self.router.protocol_out = protocol;
        }

        // Circuit-switched ejections: vicinity hop-offs re-enter the
        // packet-switched network for their final hop (§III-A2).
        // `route_dst` resolves the hop-off field: it names this node for a
        // completed delivery and a neighbour for a vicinity forward.
        if !self.router.cs_ejected.is_empty() {
            for flit in self.router.cs_ejected.drain(..) {
                let td = flit.route_dst();
                if td != self.id {
                    if flit.kind().is_tail() {
                        let mut p = Packet::data(
                            flit.packet,
                            flit.src(),
                            td,
                            self.cfg.net.ps_packet_flits,
                            flit.created(),
                        );
                        p.measured = flit.measured();
                        self.nic.enqueue(p);
                    }
                } else {
                    self.nic.accept_ejected(now, flit);
                }
            }
        }

        // Local port: circuit-switched bursts take priority; otherwise one
        // packet-switched flit.
        let cs_used = self.pump_cs(now);
        if !cs_used {
            if let Some(f) = self.nic.next_flit(self.router.pipeline.active_vcs()) {
                self.router.accept_flit(now, Port::Local, f);
            }
        }

        self.router.step(now, out);

        // Packet-switched ejections: data to the NIC, acks to the policy.
        if !self.router.pipeline.ejected.is_empty() {
            let mut ejected = std::mem::take(&mut self.router.pipeline.ejected);
            for flit in ejected.drain(..) {
                if flit.class() == MsgClass::Config {
                    if let Some(ConfigKind::Ack { info, success }) = flit.config() {
                        self.handle_ack(now, info, success);
                    }
                    continue;
                }
                self.nic.accept_ejected(now, flit);
            }
            self.router.pipeline.ejected = ejected;
        }

        // Aggressive VC power gating (§III-B).
        if let Some(g) = &mut self.gating {
            if let Some(n) = g.on_cycle(now, &mut self.router.pipeline) {
                self.router.pipeline.trace.record(
                    now,
                    self.id.0,
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

    fn set_trace_sink(&mut self, sink: TraceSink) {
        self.router.pipeline.trace = sink;
    }

    fn take_trace(&mut self) -> Option<Box<RingSink>> {
        self.router.pipeline.trace.take()
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

    fn events(&self) -> noc_sim::EnergyEvents {
        self.router.pipeline.events
    }

    fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.queued_cs_flits,
            self.cs_queues
                .values()
                .flat_map(|q| q.iter())
                .map(|m| m.packet.len_flits as usize)
                .sum::<usize>(),
            "queued-CS flit counter out of sync"
        );
        debug_assert_eq!(
            self.share_flits,
            self.share_queue
                .iter()
                .map(|m| m.packet.len_flits as usize)
                .sum::<usize>(),
            "share-queue flit counter out of sync"
        );
        let streaming = self
            .streaming
            .as_ref()
            .map(|s| s.flits.len() - s.next)
            .unwrap_or(0);
        self.router.occupancy()
            + self.nic.occupancy()
            + self.queued_cs_flits
            + self.share_flits
            + streaming
    }

    fn power_state(&self) -> PowerState {
        PowerState {
            buffer_slots: self.router.pipeline.powered_buffer_slots(),
            slot_entries: self.router.slots.powered_entries(),
            dlt_entries: if self.cfg.sharing.hitchhiker {
                self.cfg.sharing.dlt_entries as u32
            } else {
                0
            },
        }
    }

    fn sleep_until(&self, now: Cycle) -> Option<Cycle> {
        // Anything in flight — flits in the router/NIC, a CS burst mid-
        // stream, credits owed, or unprocessed DLT observations — means the
        // next step does real work.
        if self.streaming.is_some()
            || self.nic.occupancy() != 0
            || self.router.occupancy() != 0
            || !self.router.pipeline.local_credits.is_empty()
            || self.router.has_deferred_signals()
        {
            return None;
        }
        let mut wake = match &self.gating {
            Some(g) => g.next_eval(),
            None => Cycle::MAX,
        };
        // Messages waiting for a TDM slot are deferred, not active: the
        // slot-table wheel says exactly when `pump_cs` can next make
        // progress, so wake at the earliest relevant slot occurrence
        // (strictly after `now` — `pump_cs` already ran this cycle). The
        // exact flit counter says when every queue is empty.
        if self.queued_cs_flits != 0 {
            for (dst, q) in self.cs_queues.iter() {
                if q.is_empty() {
                    continue;
                }
                let runs = self.registry.runs(dst);
                if runs.is_empty() {
                    // A queue without a connection should not exist; stay
                    // awake rather than strand it.
                    return None;
                }
                for c in runs {
                    wake = wake.min(now + 1 + self.wait_for_slot(now + 1, c.slot));
                }
            }
        }
        let period = self.router.slots.active() as u64;
        for m in &self.share_queue {
            let Some(e) = self.dlt.lookup(m.ride_dst) else {
                // Ride vanished: the next `pump_cs` expires the message.
                return None;
            };
            // Next chance to board, capped by the two-period expiry
            // deadline (the first cycle where `now - queued_at > 2·S`).
            wake = wake
                .min(now + 1 + self.wait_for_slot(now + 1, e.slot))
                .min(m.queued_at + 2 * period + 1);
        }
        Some(wake)
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.nic.save_state(w);
        self.router.save_state(w);
        self.registry.save_state(w);
        self.dlt.save_state(w);
        self.freq.save_state(w);
        if let Some(g) = &self.gating {
            g.save_state(w);
        }
        self.cs_queues.save(w);
        self.share_queue.save(w);
        self.streaming.save(w);
        self.share_fails.save(w);
        w.u64(self.next_path_id);
        w.bool(self.cs_frozen);
        w.u16(self.slot_scan);
        self.pinned.save(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.nic.load_state(r)?;
        self.router.load_state(r)?;
        self.registry.load_state(r)?;
        self.dlt.load_state(r)?;
        self.freq.load_state(r)?;
        if let Some(g) = &mut self.gating {
            g.load_state(r)?;
        }
        self.cs_queues.load_state(r)?;
        self.share_queue = Snap::load(r)?;
        self.streaming = Snap::load(r)?;
        self.share_fails.load_state(r)?;
        self.next_path_id = r.u64()?;
        self.cs_frozen = r.bool()?;
        self.slot_scan = r.u16()?;
        self.pinned.load_state(r)?;
        // The O(1) occupancy counters are derived state: recompute instead
        // of trusting the snapshot (they can then never disagree with the
        // queues they summarise).
        self.queued_cs_flits = self
            .cs_queues
            .values()
            .flat_map(|q| q.iter())
            .map(|m| m.packet.len_flits as usize)
            .sum();
        self.share_flits = self
            .share_queue
            .iter()
            .map(|m| m.packet.len_flits as usize)
            .sum();
        Ok(())
    }

    fn set_route_overrides(&mut self, overrides: Option<std::sync::Arc<RouteOverrides>>) {
        self.router.pipeline.set_route_overrides(overrides);
    }

    fn abort_packet(&mut self, pid: PacketId, credits: &mut Vec<(Direction, Credit)>) -> usize {
        let mut dropped = self.nic.abort_packet(pid) + self.router.purge_packet(pid, credits);
        // A burst mid-stream for the lost packet: drop the unsent tail
        // (already-sent flits were purged from wires by the harness).
        if self.streaming.as_ref().is_some_and(|s| s.origin.id == pid) {
            let s = self.streaming.take().expect("checked above");
            dropped += s.flits.len() - s.next;
            self.recycle_flits(s.flits);
        }
        // Queued circuit work and share-queue entries never entered the
        // network; their flits still count as dropped so the occupancy
        // books balance.
        let mut queued_dropped = 0usize;
        self.cs_queues.retain(|_, q| {
            q.retain(|m| {
                if m.packet.id == pid {
                    queued_dropped += m.packet.len_flits as usize;
                    false
                } else {
                    true
                }
            });
            true
        });
        self.queued_cs_flits -= queued_dropped;
        dropped += queued_dropped;
        let mut share_dropped = 0usize;
        self.share_queue.retain(|m| {
            if m.packet.id == pid {
                share_dropped += m.packet.len_flits as usize;
                false
            } else {
                true
            }
        });
        self.share_flits -= share_dropped;
        dropped + share_dropped
    }
}

#[cfg(test)]
// Traffic loops here advance a packet id alongside other per-iteration
// work; an explicit counter reads better than iterator gymnastics.
#[allow(clippy::explicit_counter_loop)]
mod tests {
    use super::*;
    use crate::config::{SharingConfig, WaitBudget};
    use crate::network::TdmNetwork;
    use noc_sim::{Coord, Mesh, NetworkConfig};

    fn cfg4() -> TdmConfig {
        let mut cfg = TdmConfig {
            net: NetworkConfig::with_mesh(Mesh::square(4)),
            slot_capacity: 32,
            ..TdmConfig::default()
        };
        cfg.policy.setup_after_msgs = 3;
        cfg
    }

    fn data(id: u64, src: NodeId, dst: NodeId, now: Cycle) -> Packet {
        Packet::data(PacketId(id), src, dst, 5, now)
    }

    /// Warm a circuit src→dst inside a running network and return it.
    fn warmed(cfg: TdmConfig, src: NodeId, dst: NodeId) -> TdmNetwork {
        let mut net = TdmNetwork::new(cfg);
        let mut id = 5_000;
        for _ in 0..25 {
            let now = net.now();
            net.inject(src, data(id, src, dst, now));
            id += 1;
            net.run(25);
        }
        assert!(net.drain(5_000));
        assert!(
            net.net.nodes[src.index()].registry.get(dst).is_some(),
            "circuit must be established"
        );
        net
    }

    /// Every per-destination table in a snapshot must span this node's
    /// mesh. Restored from a blob written over a smaller mesh, the node
    /// would panic at its first insert of a destination outside it.
    #[test]
    fn restore_rejects_tables_over_another_mesh() {
        let small = TdmConfig {
            net: NetworkConfig::with_mesh(Mesh::square(3)),
            ..cfg4()
        };
        let centre = |c: &TdmConfig| TdmNode::new(c.net.mesh.id(Coord::new(1, 1)), c);
        let mut w = SnapshotWriter::new();
        centre(&small).save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        assert!(centre(&small)
            .load_state(&mut SnapshotReader::new(&bytes))
            .is_ok());
        assert_eq!(
            centre(&cfg4()).load_state(&mut SnapshotReader::new(&bytes)),
            Err(SnapshotError::Mismatch("NodeTable universe"))
        );
    }

    #[test]
    fn ineligible_messages_never_use_an_existing_circuit() {
        let cfg = cfg4();
        let m = cfg.net.mesh;
        let (src, dst) = (m.id(Coord::new(0, 0)), m.id(Coord::new(3, 3)));
        let mut net = warmed(cfg, src, dst);
        net.begin_measurement();
        for i in 0..10u64 {
            let now = net.now();
            let mut p = data(9_000 + i, src, dst, now);
            p.cs_eligible = false; // CPU-style traffic (§V-A2)
            net.inject(src, p);
            assert!(net.drain(1_000));
        }
        net.end_measurement();
        assert_eq!(net.stats().packets_delivered, 10);
        assert_eq!(net.stats().cs_packets_delivered, 0);
    }

    #[test]
    fn one_hop_pairs_never_request_circuits() {
        let cfg = cfg4();
        let m = cfg.net.mesh;
        let (src, dst) = (m.id(Coord::new(0, 0)), m.id(Coord::new(1, 0)));
        let mut net = TdmNetwork::new(cfg);
        let mut id = 0;
        for _ in 0..30 {
            let now = net.now();
            net.inject(src, data(id, src, dst, now));
            id += 1;
            net.run(20);
        }
        net.drain(2_000);
        assert_eq!(net.net.total_events().setup_attempts, 0);
    }

    #[test]
    fn backlog_requests_additional_slot_runs() {
        let mut cfg = cfg4();
        cfg.policy.wait_budget = WaitBudget {
            ps_factor: 4.0,
            floor_periods: 4.0,
        };
        let m = cfg.net.mesh;
        let (src, dst) = (m.id(Coord::new(0, 0)), m.id(Coord::new(3, 3)));
        let mut net = warmed(cfg, src, dst);
        // Saturate the single circuit: bursts of several messages at once.
        let mut id = 0;
        for _ in 0..40 {
            let now = net.now();
            for _ in 0..3 {
                net.inject(src, data(id, src, dst, now));
                id += 1;
            }
            net.run(30);
        }
        net.drain(10_000);
        let runs = net.net.nodes[src.index()].registry.runs(dst).len();
        assert!(runs >= 2, "expected extra slot runs, got {runs}");
        assert!(runs <= cfg.policy.max_runs_per_pair as usize);
    }

    #[test]
    fn eviction_makes_room_for_new_circuits() {
        let mut cfg = cfg4();
        cfg.policy.max_connections = 1;
        cfg.policy.idle_teardown = 200;
        let m = cfg.net.mesh;
        let src = m.id(Coord::new(0, 0));
        let (d1, d2) = (m.id(Coord::new(3, 0)), m.id(Coord::new(3, 3)));
        let mut net = warmed(cfg, src, d1);
        // Let the first circuit idle past the eviction threshold, then
        // hammer a second destination.
        net.run(400);
        let mut id = 0;
        for _ in 0..30 {
            let now = net.now();
            net.inject(src, data(id, src, d2, now));
            id += 1;
            net.run(25);
        }
        net.drain(5_000);
        let node = &net.net.nodes[src.index()];
        assert!(
            node.registry.get(d2).is_some(),
            "second circuit not established"
        );
        assert!(node.registry.get(d1).is_none(), "first circuit not evicted");
        assert_eq!(node.registry.len(), 1);
    }

    #[test]
    fn vicinity_sharing_delivers_to_neighbours_of_endpoints() {
        let mut cfg = cfg4();
        cfg.sharing = SharingConfig {
            hitchhiker: false,
            vicinity: true,
            dlt_entries: 8,
        };
        let m = cfg.net.mesh;
        let src = m.id(Coord::new(0, 0));
        let dst = m.id(Coord::new(3, 2));
        let neighbour = m.id(Coord::new(3, 3));
        let mut net = warmed(cfg, src, dst);
        net.begin_measurement();
        net.net.collect_delivered = true;
        let mut id = 0;
        for _ in 0..15 {
            let now = net.now();
            net.inject(src, data(id, src, neighbour, now));
            id += 1;
            net.run(40);
        }
        assert!(net.drain(5_000));
        net.end_measurement();
        assert_eq!(net.stats().packets_delivered, 15);
        // Every packet reached the true destination.
        assert!(net.net.delivered_log.iter().all(|d| d.dst == neighbour));
        let ev = net.net.total_events();
        assert!(ev.vicinity_rides > 0, "no vicinity rides happened");
        // No dedicated circuit to the neighbour was needed.
        assert!(net.net.nodes[src.index()].registry.get(neighbour).is_none());
    }

    #[test]
    fn freeze_flushes_queued_circuit_work_to_ps() {
        let cfg = cfg4();
        let m = cfg.net.mesh;
        let (src, dst) = (m.id(Coord::new(0, 0)), m.id(Coord::new(3, 3)));
        let mut net = warmed(cfg, src, dst);
        // Queue circuit work, then freeze before it streams.
        let mut id = 0;
        for _ in 0..5 {
            let now = net.now();
            net.inject(src, data(id, src, dst, now));
            id += 1;
        }
        for node in &mut net.net.nodes {
            node.set_cs_frozen(true);
        }
        net.net.wake_all();
        assert!(net.drain(5_000), "frozen network must still drain via PS");
        for node in &mut net.net.nodes {
            node.set_cs_frozen(false);
        }
    }

    #[test]
    fn power_state_reflects_configuration() {
        let cfg = cfg4();
        let node = TdmNode::new(NodeId(0), &cfg);
        let ps = node.power_state();
        assert_eq!(ps.slot_entries, 32 * 5);
        assert_eq!(ps.dlt_entries, 0, "sharing disabled → DLT unpowered");
        let mut cfg2 = cfg;
        cfg2.sharing = SharingConfig::HITCHHIKER;
        let node2 = TdmNode::new(NodeId(0), &cfg2);
        assert_eq!(node2.power_state().dlt_entries, 8);
    }

    #[test]
    fn wait_for_slot_is_modular() {
        let cfg = cfg4();
        let node = TdmNode::new(NodeId(0), &cfg);
        let s = node.router.slots.active() as u64; // 32
        assert_eq!(node.wait_for_slot(0, 5), 5);
        assert_eq!(node.wait_for_slot(5, 5), 0);
        assert_eq!(node.wait_for_slot(6, 5), s - 1);
        assert_eq!(node.wait_for_slot(3 * s + 7, 7), 0);
    }

    #[test]
    fn stale_success_ack_triggers_cleanup_teardown() {
        let cfg = cfg4();
        let m = cfg.net.mesh;
        let mut node = TdmNode::new(m.id(Coord::new(0, 0)), &cfg);
        let info = noc_sim::SetupInfo {
            src: node.id(),
            dst: m.id(Coord::new(3, 3)),
            slot: 4,
            duration: 4,
            path_id: 42,
        };
        // The orphan path has reservations at this node's router (made
        // before the state reset wiped the registry).
        node.router
            .slots
            .try_reserve(Port::Local, 4, 4, Port::East, 42, info.dst)
            .expect("reserve orphan slots");
        // No pending setup for path 42: the node must emit a teardown to
        // reclaim the orphan path.
        node.handle_ack(100, info, true);
        assert!(node.registry.get(info.dst).is_none());
        let mut out = NodeOutputs::default();
        let mut saw_teardown = false;
        for now in 100..120 {
            node.step(now, &mut out);
            if !out.flits.is_empty() {
                for (_, f) in out.flits.drain(..) {
                    if let Some(ConfigKind::Teardown(i)) = f.config() {
                        assert_eq!(i.path_id, 42);
                        saw_teardown = true;
                    }
                }
            }
        }
        assert!(saw_teardown, "orphan path was not reclaimed");
    }
}
