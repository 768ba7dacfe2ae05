//! The TDM hybrid network: the generic harness plus the network-wide
//! dynamic time-division granularity controller (§II-C).
//!
//! Slot indices are derived from the global cycle count, so the modulus S
//! (the active slot-table size) must be identical at every router. Growing
//! it therefore happens in two phases: **freeze** — every node stops
//! starting circuit-switched bursts and flushes queued CS work onto the
//! packet-switched network, while in-flight bursts and configuration
//! messages drain; then **reset** — every slot table is cleared, the active
//! entry count doubles, and path setup restarts ("once the capacity of the
//! slot table is increased, all slot tables are reset, and the path setup
//! procedure restarts").

use noc_sim::{
    CircuitPlan, Cycle, DeliveredPacket, EnergyEvents, EventKind, Fabric, FabricSnapshot,
    FaultEvent, Mesh, NetStats, Network, NodeId, NodeModel, Packet, Snap, SnapshotError,
    SnapshotReader, SnapshotWriter, TelemetryConfig, TelemetryReport,
};

use crate::config::TdmConfig;
use crate::node::TdmNode;

#[derive(Clone, Copy, Debug)]
enum ResizePhase {
    /// Watching the failure counters.
    Observing {
        window_start: Cycle,
        failures_at_start: u64,
    },
    /// CS frozen; reset to `target` entries when the deadline passes and
    /// all bursts finished.
    Freezing { deadline: Cycle, target: u16 },
}

impl Snap for ResizePhase {
    fn save(&self, w: &mut SnapshotWriter) {
        match *self {
            ResizePhase::Observing {
                window_start,
                failures_at_start,
            } => {
                w.u8(0);
                w.u64(window_start);
                w.u64(failures_at_start);
            }
            ResizePhase::Freezing { deadline, target } => {
                w.u8(1);
                w.u64(deadline);
                w.u16(target);
            }
        }
    }

    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(ResizePhase::Observing {
                window_start: r.u64()?,
                failures_at_start: r.u64()?,
            }),
            1 => Ok(ResizePhase::Freezing {
                deadline: r.u64()?,
                target: r.u16()?,
            }),
            _ => Err(SnapshotError::Corrupt("resize-phase tag")),
        }
    }
}

/// Slot indices are cycle-derived, so a circuit crossing a killed (or
/// revived) link cannot simply be "rerouted": its slot reservations on the
/// old path are stale and a path `setup` dropped on a dead link leaves the
/// originator's pending entry stuck forever (setups route obliviously, not
/// around faults). A link event therefore triggers the same network-wide
/// freeze → drain → reset sequence the resize controller uses; the ack
/// protocol then rebuilds every hot circuit along routes that avoid the
/// fault (packet-switched traffic follows the recomputed route overrides).
#[derive(Clone, Copy, Debug)]
struct RepairState {
    /// Reset no earlier than this (lets in-flight bursts and config
    /// messages drain before the tables are wiped).
    deadline: Cycle,
    /// When the link event was observed (repair-latency accounting).
    fault_cycle: Cycle,
}

noc_sim::impl_snap!(RepairState {
    deadline,
    fault_cycle,
});

/// A mesh of TDM hybrid tiles.
pub struct TdmNetwork {
    pub net: Network<TdmNode>,
    cfg: TdmConfig,
    phase: Option<ResizePhase>,
    /// Completed doublings (diagnostics / tests).
    pub resizes: u32,
    /// When the last grow completed — shrinking is suppressed for several
    /// windows afterwards to prevent grow/shrink oscillation.
    last_grow: Cycle,
    /// In-flight fault repair (freeze → drain → reset), if any.
    repair: Option<RepairState>,
    /// Fault-timeline events already handled; compared against
    /// `Network::faults_applied` to detect new link events.
    link_events_seen: usize,
}

impl TdmNetwork {
    pub fn new(cfg: TdmConfig) -> Self {
        let phase = cfg.resize.map(|_| ResizePhase::Observing {
            window_start: 0,
            failures_at_start: 0,
        });
        let net = Network::new(cfg.net.mesh, |id| TdmNode::new(id, &cfg));
        TdmNetwork {
            net,
            cfg,
            phase,
            resizes: 0,
            last_grow: 0,
            repair: None,
            link_events_seen: 0,
        }
    }

    pub fn config(&self) -> &TdmConfig {
        &self.cfg
    }

    pub fn now(&self) -> Cycle {
        self.net.now()
    }

    pub fn inject(&mut self, node: NodeId, pkt: Packet) {
        self.net.inject(node, pkt);
    }

    /// Current network-wide active slot-table size S.
    pub fn active_slots(&self) -> u16 {
        self.net.nodes[0].router.slots.active()
    }

    /// Advance one cycle, running the repair and resize controllers first.
    /// A fault repair pre-empts any concurrent resize decision (both end in
    /// the same global table reset, so running either suffices).
    pub fn step(&mut self) {
        self.run_repair_controller();
        if self.repair.is_none() {
            self.run_resize_controller();
        }
        self.net.step();
    }

    /// Run `cycles` steps.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Drive a fault repair: when the harness applies a fault-timeline
    /// event (link kill *or* revive), freeze circuit switching everywhere,
    /// let in-flight bursts drain, then reset every slot table — the resize
    /// template at unchanged granularity. See [`RepairState`] for why
    /// revives also need the reset.
    fn run_repair_controller(&mut self) {
        let now = self.net.now();
        match self.repair {
            None => {
                let applied = self.net.faults_applied();
                if applied > self.link_events_seen {
                    self.link_events_seen = applied;
                    for node in &mut self.net.nodes {
                        node.set_cs_frozen(true);
                    }
                    // Freezing flushed queued CS work to the NICs behind
                    // the harness's back: resynchronise its caches.
                    self.net.wake_all();
                    let freeze = self
                        .cfg
                        .resize
                        .map_or(2 * self.active_slots() as u64 + 256, |rc| rc.freeze_cycles);
                    self.repair = Some(RepairState {
                        deadline: now + freeze,
                        fault_cycle: now,
                    });
                }
            }
            Some(RepairState {
                deadline,
                fault_cycle,
            }) => {
                if now < deadline || self.net.nodes.iter().any(|n| n.cs_streaming()) {
                    return;
                }
                let active = self.active_slots();
                for node in &mut self.net.nodes {
                    // Every held circuit is torn down by the reset and
                    // re-established around the fault by the normal setup
                    // protocol — record each as a reroute.
                    let id = node.id().0;
                    let paths: Vec<u64> = node.registry.iter().map(|c| c.path_id).collect();
                    for path_id in paths {
                        node.router.pipeline.trace.record(
                            now,
                            id,
                            EventKind::CircuitRerouted,
                            0,
                            path_id,
                        );
                    }
                    node.reset_for_resize(active);
                    node.set_cs_frozen(false);
                }
                self.net.wake_all();
                self.net.stats.repairs += 1;
                self.net.stats.repair_cycle_sum += now - fault_cycle;
                // Events applied while frozen are covered by this reset.
                self.link_events_seen = self.net.faults_applied();
                // The reset moots any in-flight resize decision: restart
                // observation cleanly.
                if self.cfg.resize.is_some() {
                    let failures: u64 = self
                        .net
                        .nodes
                        .iter()
                        .map(|n| n.events().setup_failures)
                        .sum();
                    self.phase = Some(ResizePhase::Observing {
                        window_start: now,
                        failures_at_start: failures,
                    });
                }
                self.repair = None;
            }
        }
    }

    fn run_resize_controller(&mut self) {
        let Some(rc) = self.cfg.resize else { return };
        let now = self.net.now();
        match self.phase {
            Some(ResizePhase::Observing {
                window_start,
                failures_at_start,
            }) => {
                if now < window_start + rc.window {
                    return;
                }
                let failures: u64 = self
                    .net
                    .nodes
                    .iter()
                    .map(|n| n.events().setup_failures)
                    .sum();
                let window_failures = failures - failures_at_start;
                let active = self.active_slots();
                let mean_reserved = self
                    .net
                    .nodes
                    .iter()
                    .map(|n| n.router.slots.reserved_fraction_total())
                    .sum::<f64>()
                    / self.net.nodes.len() as f64;
                let grow =
                    window_failures >= rc.fail_threshold as u64 && active < self.cfg.slot_capacity;
                let shrink = !grow
                    && rc.shrink_below > 0.0
                    && mean_reserved < rc.shrink_below
                    && window_failures < (rc.fail_threshold / 4).max(1) as u64
                    && active > rc.initial_active
                    // Hysteresis: a recent grow means the demand is real.
                    && now > self.last_grow + 6 * rc.window;
                if grow || shrink {
                    // Phase 1: freeze circuit switching network-wide.
                    let target = if grow {
                        (active * 2).min(self.cfg.slot_capacity)
                    } else {
                        (active / 2).max(rc.initial_active)
                    };
                    for node in &mut self.net.nodes {
                        node.set_cs_frozen(true);
                    }
                    // The freeze mutated nodes behind the harness's back
                    // (queued CS work flushed to the NICs): resynchronise
                    // the activity scheduler and its occupancy caches.
                    self.net.wake_all();
                    self.phase = Some(ResizePhase::Freezing {
                        deadline: now + rc.freeze_cycles,
                        target,
                    });
                } else {
                    self.phase = Some(ResizePhase::Observing {
                        window_start: now,
                        failures_at_start: failures,
                    });
                }
            }
            Some(ResizePhase::Freezing { deadline, target }) => {
                if now < deadline || self.net.nodes.iter().any(|n| n.cs_streaming()) {
                    return;
                }
                // Phase 2: reset at the new granularity.
                let new_active = target;
                if new_active > self.active_slots() {
                    self.last_grow = now;
                }
                for node in &mut self.net.nodes {
                    node.reset_for_resize(new_active);
                    node.set_cs_frozen(false);
                }
                // Same: external mutation of every node (slot tables,
                // registries, power state) invalidates the harness caches.
                self.net.wake_all();
                self.resizes += 1;
                let failures: u64 = self
                    .net
                    .nodes
                    .iter()
                    .map(|n| n.events().setup_failures)
                    .sum();
                self.phase = Some(ResizePhase::Observing {
                    window_start: now,
                    failures_at_start: failures,
                });
            }
            None => {}
        }
    }

    // Measurement plumbing (mirrors `Network`).

    pub fn begin_measurement(&mut self) {
        self.net.begin_measurement();
    }

    pub fn end_measurement(&mut self) {
        self.net.end_measurement();
    }

    pub fn stats(&self) -> &noc_sim::NetStats {
        &self.net.stats
    }

    pub fn drain(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.net.is_drained() {
                return true;
            }
            self.step();
        }
        self.net.is_drained()
    }
}

/// The TDM hybrid network as a [`Fabric`]: forwards to the inner
/// [`Network<TdmNode>`] but routes [`Fabric::step`] through the dynamic
/// slot-table resize controller and exposes the resize hooks.
impl Fabric for TdmNetwork {
    fn mesh(&self) -> Mesh {
        self.net.mesh
    }

    fn now(&self) -> Cycle {
        TdmNetwork::now(self)
    }

    fn inject(&mut self, node: NodeId, pkt: Packet) {
        TdmNetwork::inject(self, node, pkt);
    }

    fn step(&mut self) {
        TdmNetwork::step(self);
    }

    fn begin_measurement(&mut self) {
        TdmNetwork::begin_measurement(self);
    }

    fn end_measurement(&mut self) {
        TdmNetwork::end_measurement(self);
    }

    fn stats(&self) -> &NetStats {
        &self.net.stats
    }

    fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.net.stats
    }

    fn total_events(&self) -> EnergyEvents {
        self.net.total_events()
    }

    fn is_drained(&self) -> bool {
        self.net.is_drained()
    }

    fn set_collect_delivered(&mut self, on: bool) {
        self.net.collect_delivered = on;
    }

    fn delivered_log(&self) -> &[DeliveredPacket] {
        &self.net.delivered_log
    }

    fn clear_delivered_log(&mut self) {
        self.net.delivered_log.clear();
    }

    fn set_always_step(&mut self, on: bool) {
        self.net.set_always_step(on);
    }

    fn configure_telemetry(&mut self, cfg: &TelemetryConfig) {
        self.net.configure_telemetry(cfg);
    }

    fn telemetry_report(&mut self) -> Option<TelemetryReport> {
        self.net.take_telemetry()
    }

    fn telemetry_window_count(&self) -> usize {
        self.net.telemetry_window_count()
    }

    fn telemetry_windows_from(&self, from: usize) -> Vec<noc_sim::WindowSnapshot> {
        self.net.telemetry_windows_from(from)
    }

    fn telemetry_metric_names(&self) -> Vec<String> {
        self.net.telemetry_metric_names()
    }

    fn active_slots(&self) -> Option<u16> {
        Some(TdmNetwork::active_slots(self))
    }

    fn resizes(&self) -> u32 {
        self.resizes
    }

    fn drain(&mut self, max_cycles: u64) -> bool {
        TdmNetwork::drain(self, max_cycles)
    }

    fn checkpoint(&self) -> Result<FabricSnapshot, SnapshotError> {
        FabricSnapshot::capture(|w| {
            self.phase.save(w);
            self.repair.save(w);
            w.u32(self.resizes);
            w.u64(self.last_grow);
            w.usize(self.link_events_seen);
            self.net.save_into(w)
        })
    }

    fn restore(&mut self, snap: &FabricSnapshot) -> Result<(), SnapshotError> {
        let mut r = snap.payload();
        self.phase = Snap::load(&mut r)?;
        self.repair = Snap::load(&mut r)?;
        self.resizes = r.u32()?;
        self.last_grow = r.u64()?;
        self.link_events_seen = r.usize()?;
        self.net.load_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt("trailing bytes after snapshot"));
        }
        Ok(())
    }

    fn set_faults(&mut self, timeline: Vec<FaultEvent>) -> Result<(), SnapshotError> {
        self.net.set_faults(timeline);
        Ok(())
    }

    /// Pre-establish a profiled circuit plan: request every planned flow
    /// at its source node (bypassing the frequency trigger), then step
    /// the network until the setup handshakes settle. Requests go out in
    /// rounds — a source's pending-setup budget (4) and slot contention
    /// can defer flows, so unestablished flows are re-requested until no
    /// round makes progress. Runs before traffic, so the simulated
    /// cycles it burns are part of the (unmeasured) warm-up.
    fn install_circuit_plan(&mut self, plan: &CircuitPlan) -> Result<u32, SnapshotError> {
        let nodes = self.net.nodes.len();
        for f in &plan.flows {
            if f.src.index() >= nodes || f.dst.index() >= nodes {
                return Err(SnapshotError::Unsupported(
                    "circuit plan references a node outside the mesh",
                ));
            }
        }
        let established = |net: &Network<TdmNode>, f: &noc_sim::PlannedFlow| {
            net.nodes[f.src.index()].registry.get(f.dst).is_some()
        };
        let mut done = 0;
        for _round in 0..8 {
            for f in &plan.flows {
                if !established(&self.net, f) {
                    let now = self.net.now();
                    self.net.nodes[f.src.index()].request_planned_circuit(now, f.dst, plan.pin);
                }
            }
            // The requests queued setups behind the harness's back: wake
            // the sources (asleep after an earlier round's settle) and
            // refresh the occupancy caches the settle loop reads.
            self.net.wake_all();
            // Let the setup/ack handshakes (and any retries) settle.
            for _ in 0..50_000 {
                let pending = self
                    .net
                    .nodes
                    .iter()
                    .any(|n| n.registry.pending_count() > 0);
                if !pending && self.net.is_drained() {
                    break;
                }
                self.step();
            }
            let now_done = plan
                .flows
                .iter()
                .filter(|f| established(&self.net, f))
                .count() as u32;
            if now_done as usize == plan.flows.len() || now_done == done {
                return Ok(now_done);
            }
            done = now_done;
        }
        Ok(done)
    }

    fn arena_live(&self) -> usize {
        self.net.arena().live()
    }
}

#[cfg(test)]
// Traffic loops here advance a packet id alongside other per-iteration
// work; an explicit counter reads better than iterator gymnastics.
#[allow(clippy::explicit_counter_loop)]
mod tests {
    use super::*;
    use crate::config::ResizeConfig;
    use noc_sim::{Coord, Mesh, NetworkConfig, PacketId};

    fn small_cfg() -> TdmConfig {
        TdmConfig {
            net: NetworkConfig::with_mesh(Mesh::square(4)),
            slot_capacity: 32,
            ..TdmConfig::default()
        }
    }

    fn data(net: &TdmNetwork, id: u64, src: NodeId, dst: NodeId) -> Packet {
        Packet::data(
            PacketId(id),
            src,
            dst,
            net.cfg.net.ps_packet_flits,
            net.now(),
        )
    }

    #[test]
    fn packets_deliver_without_any_circuits() {
        // Below the setup threshold everything is packet-switched.
        let mut net = TdmNetwork::new(small_cfg());
        let src = net.cfg.net.mesh.id(Coord::new(0, 0));
        let dst = net.cfg.net.mesh.id(Coord::new(3, 3));
        net.begin_measurement();
        net.inject(src, data(&net, 1, src, dst));
        assert!(net.drain(500));
        net.end_measurement();
        assert_eq!(net.stats().packets_delivered, 1);
        assert_eq!(net.stats().cs_packets_delivered, 0);
    }

    #[test]
    fn frequent_pair_establishes_circuit_and_uses_it() {
        let mut net = TdmNetwork::new(small_cfg());
        let src = net.cfg.net.mesh.id(Coord::new(0, 0));
        let dst = net.cfg.net.mesh.id(Coord::new(3, 3));
        net.begin_measurement();
        // Far more than setup_after_msgs packets, spaced out.
        let mut id = 0;
        for burst in 0..30 {
            net.inject(src, data(&net, id, src, dst));
            id += 1;
            net.run(20);
            let _ = burst;
        }
        assert!(net.drain(3_000), "failed to drain");
        net.end_measurement();
        assert_eq!(net.stats().packets_delivered, 30);
        // A circuit was set up and used for the later messages.
        let node = &net.net.nodes[src.index()];
        assert!(
            node.registry.get(dst).is_some(),
            "no connection established"
        );
        assert!(
            net.stats().cs_packets_delivered >= 10,
            "only {} CS packets",
            net.stats().cs_packets_delivered
        );
        let ev = net.net.total_events();
        assert!(ev.setup_attempts >= 1);
        assert!(ev.cs_flit_fraction() > 0.2);
    }

    #[test]
    fn cs_packets_have_lower_latency_than_ps_at_zero_load() {
        // Measure PS-only latency, then CS latency over the same distance.
        let cfg = small_cfg();
        let src = cfg.net.mesh.id(Coord::new(0, 0));
        let dst = cfg.net.mesh.id(Coord::new(3, 3));

        // PS: one isolated packet.
        let mut ps_net = TdmNetwork::new(cfg);
        ps_net.begin_measurement();
        ps_net.inject(src, data(&ps_net, 1, src, dst));
        assert!(ps_net.drain(500));
        ps_net.end_measurement();
        let ps_lat = ps_net.stats().avg_latency();

        // CS: warm up a circuit, then measure isolated packets. Use a
        // 16-slot table: the mean slot wait (S/2) must not swamp the
        // per-hop saving — exactly the paper's UR observation about large
        // tables (§IV-B).
        let mut cs_cfg = cfg;
        cs_cfg.slot_capacity = 16;
        let mut cs_net = TdmNetwork::new(cs_cfg);
        let mut id = 100;
        for _ in 0..20 {
            cs_net.inject(src, data(&cs_net, id, src, dst));
            id += 1;
            cs_net.run(25);
        }
        assert!(cs_net.drain(3_000));
        assert!(cs_net.net.nodes[src.index()].registry.get(dst).is_some());
        cs_net.begin_measurement();
        for i in 0..10u64 {
            // Stagger to sample all slot phases — draining ends at a fixed
            // phase relative to the reservation.
            cs_net.run(i * 5 % 16);
            cs_net.inject(src, data(&cs_net, id, src, dst));
            id += 1;
            assert!(cs_net.drain(500));
        }
        cs_net.end_measurement();
        let cs_lat = cs_net.stats().avg_latency();
        assert_eq!(cs_net.stats().cs_packets_delivered, 10, "not all went CS");
        // 6 hops: PS ≈ 4 cycles/hop + serialisation; CS ≈ 2 cycles/hop +
        // slot wait. Averaged over random phases CS must win.
        assert!(
            cs_lat < ps_lat,
            "CS latency {cs_lat:.1} not below PS latency {ps_lat:.1}"
        );
    }

    #[test]
    fn resize_doubles_active_entries_under_pressure() {
        let mut cfg = small_cfg();
        cfg.slot_capacity = 64;
        cfg.resize = Some(ResizeConfig {
            initial_active: 8,
            fail_threshold: 4,
            window: 400,
            freeze_cycles: 120,
            shrink_below: 0.0,
        });
        // Tiny tables: 8 slots hold only one 4-slot connection per port, so
        // concurrent setups from one source must fail repeatedly.
        let mut net = TdmNetwork::new(cfg);
        assert_eq!(net.active_slots(), 8);
        let m = cfg.net.mesh;
        let src = m.id(Coord::new(0, 0));
        // One source hammers three destinations → local table exhausts.
        let dsts = [
            m.id(Coord::new(3, 0)),
            m.id(Coord::new(3, 1)),
            m.id(Coord::new(3, 2)),
        ];
        let mut id = 0;
        for _ in 0..200 {
            for &d in &dsts {
                net.inject(src, data(&net, id, src, d));
                id += 1;
            }
            net.run(12);
        }
        assert!(net.resizes >= 1, "controller never resized");
        assert!(net.active_slots() >= 16);
        assert!(net.drain(20_000), "network must drain after resizes");
    }

    #[test]
    fn config_traffic_stays_below_one_percent() {
        // §II-B: "configuration messages correspond to less than 1% of
        // total traffic".
        let mut net = TdmNetwork::new(small_cfg());
        let m = net.cfg.net.mesh;
        let src = m.id(Coord::new(0, 0));
        let dst = m.id(Coord::new(3, 3));
        let mut id = 0;
        for _ in 0..400 {
            net.inject(src, data(&net, id, src, dst));
            id += 1;
            net.run(15);
        }
        net.drain(5_000);
        let ev = net.net.total_events();
        assert!(ev.cs_flits_delivered > 0);
        assert!(
            ev.config_flit_fraction() < 0.01,
            "config fraction {:.4}",
            ev.config_flit_fraction()
        );
    }

    #[test]
    fn circuit_plan_preestablishes_flows() {
        use noc_sim::{CircuitPlan, PlannedFlow};
        let mut net = TdmNetwork::new(small_cfg());
        let m = net.cfg.net.mesh;
        let flows = vec![
            PlannedFlow {
                src: m.id(Coord::new(0, 0)),
                dst: m.id(Coord::new(3, 3)),
            },
            PlannedFlow {
                src: m.id(Coord::new(3, 0)),
                dst: m.id(Coord::new(0, 3)),
            },
        ];
        let plan = CircuitPlan {
            flows: flows.clone(),
            pin: true,
        };
        let established = net.install_circuit_plan(&plan).unwrap();
        assert_eq!(established, 2, "both planned circuits must establish");
        for f in &flows {
            let node = &net.net.nodes[f.src.index()];
            assert!(node.registry.get(f.dst).is_some());
            assert!(node.is_pinned(f.dst));
        }
        // The very first data packet on a planned flow rides the circuit —
        // no frequency threshold, no setup latency.
        net.begin_measurement();
        net.inject(flows[0].src, data(&net, 1, flows[0].src, flows[0].dst));
        assert!(net.drain(500));
        net.end_measurement();
        assert_eq!(net.stats().cs_packets_delivered, 1);
    }

    /// A source's pending-setup budget (4) defers two of six planned
    /// flows to a second request round, by which time the settle loop has
    /// let the source fall asleep: the round must wake it, or its setups
    /// sit in the NIC unseen while the loop spins out its cycle budget.
    #[test]
    fn circuit_plan_second_round_reaches_a_sleeping_source() {
        use noc_sim::{CircuitPlan, PlannedFlow};
        let mut net = TdmNetwork::new(TdmConfig::vc4(NetworkConfig::with_mesh(Mesh::square(6))));
        let m = net.cfg.net.mesh;
        let src = m.id(Coord::new(0, 0));
        let flows: Vec<PlannedFlow> = [(5, 5), (5, 0), (0, 5), (3, 3), (2, 4), (4, 2)]
            .into_iter()
            .map(|(x, y)| PlannedFlow {
                src,
                dst: m.id(Coord::new(x, y)),
            })
            .collect();
        let plan = CircuitPlan { flows, pin: true };
        let established = net.install_circuit_plan(&plan).unwrap();
        assert_eq!(established, 6, "every planned flow establishes");
        assert!(net.now() < 1_000, "install took {} cycles", net.now());
        let held: usize = net.net.nodes.iter().map(|n| n.occupancy()).sum();
        assert_eq!(net.net.total_occupancy(), held);
    }

    #[test]
    fn circuit_plan_rejects_out_of_mesh_flows() {
        use noc_sim::{CircuitPlan, PlannedFlow};
        let mut net = TdmNetwork::new(small_cfg());
        let plan = CircuitPlan {
            flows: vec![PlannedFlow {
                src: NodeId(0),
                dst: NodeId(99),
            }],
            pin: false,
        };
        assert!(net.install_circuit_plan(&plan).is_err());
    }

    #[test]
    fn pinned_circuits_survive_eviction_pressure() {
        use noc_sim::{CircuitPlan, PlannedFlow};
        // One connection slot per node: reactive traffic to a second
        // destination would evict the planned circuit unless it is pinned.
        let mut cfg = small_cfg();
        cfg.policy.max_connections = 1;
        cfg.policy.idle_teardown = 0;
        let mut net = TdmNetwork::new(cfg);
        let m = net.cfg.net.mesh;
        let src = m.id(Coord::new(0, 0));
        let planned_dst = m.id(Coord::new(3, 3));
        let other_dst = m.id(Coord::new(0, 3));
        let plan = CircuitPlan {
            flows: vec![PlannedFlow {
                src,
                dst: planned_dst,
            }],
            pin: true,
        };
        assert_eq!(net.install_circuit_plan(&plan).unwrap(), 1);
        // Hammer a different destination hard enough to trip the reactive
        // setup trigger many times over.
        let mut id = 0;
        for _ in 0..60 {
            net.inject(src, data(&net, id, src, other_dst));
            id += 1;
            net.run(20);
        }
        assert!(net.drain(5_000));
        let node = &net.net.nodes[src.index()];
        assert!(
            node.registry.get(planned_dst).is_some(),
            "pinned circuit was evicted"
        );
        assert!(node.registry.get(other_dst).is_none(), "no room unpinned");
    }
}
