//! The cycle-driven network harness: wires node models together with
//! fixed-latency links, delivers credits and advertisements, and
//! integrates leakage state.
//!
//! Wire timing: a flit emitted during `step(T)` finished switch traversal in
//! `T`, spends `T+1` on the link and is buffered at the neighbour at the
//! start of `T+2`; credits and VC-count advertisements travel on dedicated
//! wires and arrive at `T+1`. This gives circuit-switched flits the paper's
//! two-cycle per-hop latency (§II-D: a flit forwarded at `T` reaches the
//! downstream router at `T+2`).
//!
//! # Wire representation
//!
//! Because every wire has a *fixed* latency (flits exactly 2 cycles,
//! credits/VC counts exactly 1), the in-flight set never holds signals due
//! at more than one future cycle of each parity. Each wire is therefore a
//! pair of per-node slot vectors indexed by delivery-cycle parity instead
//! of a timestamped queue: delivery drains slot `now & 1`, and emission
//! pushes into slot `(now + latency) & 1`. For the 2-cycle flit wires
//! that is the *same* slot just drained, so the buffers double-buffer
//! themselves with no timestamps, no front-of-queue comparisons, and no
//! steady-state allocation (the vectors retain their capacity).
//!
//! # Stepping phases and the determinism contract
//!
//! The per-cycle work splits into three phases:
//!
//! 1. **Deliver** the wire slots due this cycle into each node.
//! 2. **Step** every node, each writing flits/credits into its own
//!    [`NodeOutputs`] outbox.
//! 3. **Route** every outbox onto the wire slots in ascending node order.
//!
//! Phase 2 is order-independent as a property of the model: the paper's
//! routers all act in the same cycle, and a router reads only its own
//! state and the signals delivered to it in phase 1. Any visit order
//! therefore yields the same results (configuration-payload handle
//! numbers aside, which are pure names — see `arena.rs`);
//! `exhaustive_order.rs` pins this over every permutation of a 2×2
//! fabric. Nodes are visited in ascending order, and phase 3 fixes the
//! order in which signals land on the wires, so a run is a function of
//! its inputs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use noc_telemetry::{EventKind, TelemetryConfig, TelemetryReport, TraceSink, WindowSnapshot};

use crate::arena::ConfigArena;
use crate::dense::BitSet;
use crate::flit::{Credit, Flit, MsgClass, Packet, PacketId, Switching};
use crate::geometry::{Direction, NodeId};
use crate::node::{DeliveredPacket, NodeModel, NodeOutputs, PowerState};
use crate::snapshot::{
    FabricSnapshot, FaultEvent, RouteOverrides, Snap, SnapshotError, SnapshotReader, SnapshotWriter,
};
use crate::stats::{EnergyEvents, NetStats};
use crate::topology::{Mesh, TopoTables};
use crate::Cycle;

/// Harness-level telemetry state, boxed behind an `Option` so an untraced
/// network pays one null check at each instrumentation site. Node sinks
/// record the router-level event kinds during the stepping phase; this
/// records the kinds only the harness can see — injections and
/// activity-scheduler sleep/wake transitions — plus the per-link flit
/// counters and the metrics windows.
pub struct NetTelemetry {
    cfg: TelemetryConfig,
    /// Harness-originated events (inject, node sleep/wake).
    sink: TraceSink,
    /// Sleep-state shadow for NodeSleep/NodeWake edge detection.
    asleep: Vec<bool>,
    /// Flits sent per outgoing link, `[node * 4 + direction]`.
    link_flits: Vec<u64>,
    /// Closed metrics windows, columns as [`WINDOW_METRICS`].
    windows: Vec<WindowSnapshot>,
    /// The window counters at the last boundary: the sum of
    /// `link_flits`, then `NetStats`' delivered packets and flits.
    base: [u64; 3],
    /// Next metrics-window boundary (`Cycle::MAX` when windowing is off).
    next_window: Cycle,
    /// End of the last snapshotted window (guards the final flush).
    last_window_end: Cycle,
}

/// The metrics-window columns, in value order. The first four are window
/// deltas of counters the harness already keeps: the per-link flit
/// counters, and `NetStats`' measured data deliveries (`packet_latency`
/// counts them too — the column name is part of the telemetry output,
/// which envelope windows and `noc-serve` frames expose by name). The
/// last three are gauges read at the window boundary.
const WINDOW_METRICS: [&str; 7] = [
    "link_flits",
    "packets_delivered",
    "flits_delivered",
    "packet_latency",
    "active_nodes",
    "buffered_flits",
    "inflight_flits",
];

impl NetTelemetry {
    fn new(cfg: &TelemetryConfig, n: usize, now: Cycle, stats: &NetStats) -> Self {
        NetTelemetry {
            cfg: *cfg,
            sink: TraceSink::ring(cfg),
            asleep: vec![false; n],
            link_flits: vec![0; n * 4],
            windows: Vec::new(),
            base: [0, stats.packets_delivered, stats.flits_delivered],
            next_window: if cfg.window > 0 {
                now + cfg.window
            } else {
                Cycle::MAX
            },
            last_window_end: now,
        }
    }

    /// `begin_measurement` zeroes the `NetStats` counters: shift their base
    /// by what they held, so an open window keeps what it counted before
    /// the reset. The base may wrap below zero; deltas wrap back.
    fn follow_reset(&mut self, stats: &NetStats) {
        self.base[1] = self.base[1].wrapping_sub(stats.packets_delivered);
        self.base[2] = self.base[2].wrapping_sub(stats.flits_delivered);
    }

    /// Close the window ending at `end`: counters as deltas since the
    /// last boundary, and the `gauges` read at `end`.
    fn close_window(&mut self, end: Cycle, stats: &NetStats, gauges: [u64; 3]) {
        let now = [
            self.link_flits.iter().sum(),
            stats.packets_delivered,
            stats.flits_delivered,
        ];
        let [links, packets, flits] = std::array::from_fn(|k| now[k].wrapping_sub(self.base[k]));
        self.base = now;
        let [active, buffered, inflight] = gauges;
        self.windows.push(WindowSnapshot {
            start: self.last_window_end,
            end,
            values: vec![links, packets, flits, packets, active, buffered, inflight],
        });
        self.last_window_end = end;
    }
}

/// Link-fault machinery, boxed behind an `Option` so the fault-free path
/// pays one pointer null check per cycle.
///
/// A fault kills the *flit* data path of a physical link in both
/// directions; the credit and VC-count wires keep working (they model
/// sideband signalling, and dropping credits would permanently shrink
/// upstream buffer budgets — the network could then never drain after a
/// revive). Flits caught mid-flight on a killed wire, and flits emitted
/// onto a dead link later, are dropped with full accounting: their
/// packet is globally purged (buffers, VC state, partial reassembly),
/// upstream buffer slots are refunded as credits, and interned
/// configuration payloads are released, so `ConfigArena::live()` returns
/// to zero once traffic drains.
struct FaultState {
    /// The scheduled timeline, sorted by cycle; `next` indexes the first
    /// event not yet applied.
    timeline: Vec<FaultEvent>,
    next: usize,
    /// Down flags per *directed* link, `[node * 4 + direction]`.
    down: Box<[bool]>,
    /// Reroute table shared with every node while links are down.
    overrides: Option<Arc<RouteOverrides>>,
    /// Packet ids already purged (sorted; binary-searched so each lost
    /// packet is counted and swept exactly once).
    lost: Vec<u64>,
    /// Packets that lost a flit at the phase-3 emission guard this cycle;
    /// drained and purged before phase 4.
    pending_lost: Vec<PacketId>,
}

/// A mesh network of `N` tiles.
pub struct Network<N: NodeModel> {
    pub mesh: Mesh,
    pub nodes: Vec<N>,
    /// Per-node inbound flit slots, indexed by delivery-cycle parity
    /// (flit links are exactly 2 cycles; see the module docs).
    flit_slots: [Vec<Vec<(Direction, Flit)>>; 2],
    /// Per-node inbound credit slots (1-cycle wires).
    credit_slots: [Vec<Vec<(Direction, Credit)>>; 2],
    /// Per-node inbound active-VC-count slots (1-cycle wires).
    vc_count_slots: [Vec<Vec<(Direction, u8)>>; 2],
    /// Per-node output scratch, reused every cycle; written by the
    /// node-stepping phase.
    outboxes: Vec<NodeOutputs>,
    now: Cycle,
    pub stats: NetStats,
    /// When set, every measured delivered packet is also appended to
    /// [`Network::delivered_log`] (per-class post-processing, e.g. separate
    /// CPU/GPU latencies for Figure 8).
    pub collect_delivered: bool,
    pub delivered_log: Vec<DeliveredPacket>,
    events_baseline: EnergyEvents,
    scratch_delivered: Vec<DeliveredPacket>,
    // --- Activity scheduler (see the module docs / DESIGN.md §10) ---
    /// Persistently-active nodes: bit `i` set ⇔ node `i` is stepped every
    /// cycle until it declares quiescence via `NodeModel::sleep_until`.
    active_mask: BitSet,
    /// Wake-on-delivery masks, one per delivery-cycle parity (mirroring the
    /// wire slots): bit `i` set ⇔ node `i` has a signal due at the next
    /// cycle of that parity and must be stepped then.
    wake_mask: [BitSet; 2],
    /// Scratch: the set of nodes stepped this cycle.
    step_mask: BitSet,
    /// Pending timed wake-ups as (cycle, node) — TDM slot turns, gating
    /// epochs, share-queue deadlines.
    timers: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Earliest outstanding timer per node (avoids re-queueing duplicates).
    timer_at: Vec<Cycle>,
    /// Force-step every node every cycle (bit-identity testing).
    always_step: bool,
    // --- O(1) occupancy & leakage bookkeeping (derived: never
    // serialised, rebuilt by `rebuild_caches`) ---
    /// Cached per-node occupancy, refreshed whenever a node is stepped or
    /// injected into; `total_occ` is their sum.
    occ_cache: Vec<usize>,
    total_occ: usize,
    /// Flits currently on wires (either parity slot).
    inflight_flits: usize,
    /// Cached per-node power state + running sums, so leakage integration
    /// is O(1) per cycle instead of O(N) while staying cycle-exact (a
    /// sleeping node's power state cannot change).
    power_cache: Vec<PowerState>,
    leak_buffer: u64,
    leak_slot: u64,
    leak_dlt: u64,
    /// Telemetry state, present only while a trace is armed
    /// (see [`Network::configure_telemetry`]).
    telemetry: Option<Box<NetTelemetry>>,
    /// Network-wide configuration-payload slab, shared with every node
    /// via [`NodeModel::attach_arena`].
    arena: Arc<ConfigArena>,
    /// Flat neighbour table precomputed from the topology at construction;
    /// the phase-3 wire-routing loop probes this instead of re-deriving
    /// coordinates per flit. Shared process-wide per topology shape
    /// ([`TopoTables::shared`]) so batch sweeps don't rebuild adjacency
    /// once per point.
    tables: Arc<TopoTables>,
    /// Link-fault state, present only once [`Network::set_faults`] arms a
    /// schedule.
    faults: Option<Box<FaultState>>,
    /// Test-only phase-2 scheduling override: step nodes in this order
    /// instead of ascending index. Exercises the order-independence half
    /// of the determinism contract (see [`Network::set_step_order`]).
    #[cfg(feature = "exhaustive")]
    step_order: Option<Vec<usize>>,
}

impl<N: NodeModel> Network<N> {
    /// Build a network, constructing each tile with `make_node`.
    pub fn new(mesh: Mesh, mut make_node: impl FnMut(NodeId) -> N) -> Self {
        fn slots<T>(n: usize) -> [Vec<Vec<T>>; 2] {
            [
                (0..n).map(|_| Vec::new()).collect(),
                (0..n).map(|_| Vec::new()).collect(),
            ]
        }
        let n = mesh.len();
        let mut net = Network {
            mesh,
            nodes: mesh.nodes().map(&mut make_node).collect(),
            flit_slots: slots(n),
            credit_slots: slots(n),
            vc_count_slots: slots(n),
            outboxes: (0..n).map(|_| NodeOutputs::default()).collect(),
            now: 0,
            stats: NetStats::default(),
            collect_delivered: false,
            delivered_log: Vec::new(),
            events_baseline: EnergyEvents::default(),
            // Each node ejects at most one PS flit per cycle through its
            // 1-wide local port, so `n` bounds per-cycle completions; the
            // headroom keeps hybrid nodes with extra delivery paths
            // (circuit ejection, share-queue handoff) allocation-free too.
            scratch_delivered: Vec::with_capacity(2 * n),
            active_mask: BitSet::new(n),
            wake_mask: [BitSet::new(n), BitSet::new(n)],
            step_mask: BitSet::new(n),
            timers: BinaryHeap::new(),
            timer_at: vec![Cycle::MAX; n],
            always_step: false,
            occ_cache: vec![0; n],
            total_occ: 0,
            inflight_flits: 0,
            power_cache: vec![PowerState::default(); n],
            leak_buffer: 0,
            leak_slot: 0,
            leak_dlt: 0,
            telemetry: None,
            arena: Arc::new(ConfigArena::new()),
            tables: TopoTables::shared(&mesh),
            faults: None,
            #[cfg(feature = "exhaustive")]
            step_order: None,
        };
        let arena = net.arena.clone();
        for node in &mut net.nodes {
            node.attach_arena(&arena);
        }
        net.wake_all();
        net
    }

    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The shared configuration-payload arena.
    pub fn arena(&self) -> &Arc<ConfigArena> {
        &self.arena
    }

    /// Queue a packet at `node`'s NIC. Measured data packets count toward
    /// the offered load.
    pub fn inject(&mut self, node: NodeId, pkt: Packet) {
        if pkt.measured && pkt.class == MsgClass::Data {
            self.stats.packets_offered += 1;
        }
        let i = node.index();
        if let Some(t) = &mut self.telemetry {
            t.sink
                .record(self.now, node.0, EventKind::Inject, 0, pkt.id.0);
        }
        self.nodes[i].inject(self.now, pkt);
        // An injection is external work: wake the node and refresh its
        // occupancy so drain detection stays exact between cycles.
        self.active_mask.set(i);
        let occ = self.nodes[i].occupancy();
        self.total_occ = self.total_occ - self.occ_cache[i] + occ;
        self.occ_cache[i] = occ;
    }

    /// Advance the network one cycle, stepping only the active set: nodes
    /// holding work, nodes with a wire delivery due this cycle, and nodes
    /// whose wake timer expired. Cycle cost is O(active), and the result is
    /// bit-identical to stepping everything (see [`Network::set_always_step`]
    /// and the bit-identity property tests).
    //
    // Kept out of line. This is the whole per-cycle kernel, and LLVM
    // inlines it into its caller when it has only one (`Fabric::step` or
    // `TdmNetwork::step`). Inlined there it ran about 30% slower at low
    // load: median 1040 vs 827 ns/cycle on `network_step`'s
    // packet_64n_0.004flits point over 20 interleaved runs on a shared
    // 2-core x86-64 Xeon host.
    #[inline(never)]
    pub fn step(&mut self) {
        let now = self.now;

        // Apply link-fault events due this cycle before the step set is
        // built: kills purge the affected wires (and the packets that lost
        // flits), revives clear the down flags, and either rebuilds the
        // reroute table and wakes everything.
        if self
            .faults
            .as_deref()
            .is_some_and(|f| f.timeline.get(f.next).is_some_and(|e| e.at <= now))
        {
            self.apply_due_faults(now);
        }

        let par = (now & 1) as usize;
        let n = self.nodes.len();
        let words = self.step_mask.words().len();

        // 0. Build the step set. The wake set for this parity is consumed
        // here and re-filled by phase 3 with deliveries due two cycles out.
        self.step_mask
            .assign_union(&self.active_mask, &self.wake_mask[par]);
        self.wake_mask[par].clear_all();
        while let Some(&Reverse((t, i))) = self.timers.peek() {
            if t > now {
                break;
            }
            self.timers.pop();
            let i = i as usize;
            if self.timer_at[i] == t {
                self.timer_at[i] = Cycle::MAX;
            }
            self.step_mask.set(i);
        }
        if self.always_step {
            self.step_mask.set_all();
        }

        // A sleeping node must never have a delivery due: every wire push
        // sets the destination's wake bit for the delivery parity.
        #[cfg(debug_assertions)]
        for i in 0..n {
            if !self.step_mask.get(i) {
                debug_assert!(
                    self.flit_slots[par][i].is_empty()
                        && self.credit_slots[par][i].is_empty()
                        && self.vc_count_slots[par][i].is_empty(),
                    "sleeping node {i} has pending deliveries"
                );
            }
        }

        // 1. Deliver the wire slots due this cycle. Per node: flits first,
        // then credits, then VC counts (credit and VC-count application
        // touch disjoint router state, so their relative order is free).
        // Most slots of a stepped node are empty; they are skipped.
        for w in 0..words {
            let mut bits = self.step_mask.words()[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let flits = &mut self.flit_slots[par][i];
                if !flits.is_empty() {
                    self.inflight_flits -= flits.len();
                    for (dir, flit) in flits.drain(..) {
                        self.nodes[i].accept_flit(now, dir, flit);
                    }
                }
                let credits = &mut self.credit_slots[par][i];
                if !credits.is_empty() {
                    for (dir, credit) in credits.drain(..) {
                        self.nodes[i].accept_credit(now, dir, credit);
                    }
                }
                let counts = &mut self.vc_count_slots[par][i];
                if !counts.is_empty() {
                    for (dir, count) in counts.drain(..) {
                        self.nodes[i].accept_vc_count(now, dir, count);
                    }
                }
            }
        }

        // 2. Step the active set, each node into its own outbox.
        #[cfg(feature = "exhaustive")]
        let order = self.step_order.as_deref();
        #[cfg(not(feature = "exhaustive"))]
        let order: Option<&[usize]> = None;
        match order {
            Some(order) => {
                // Exhaustive-schedule harness: same step set, caller's
                // order. Phase 2 is order-independent, so this is
                // observationally equivalent to the canonical loop below.
                for &i in order {
                    if self.step_mask.get(i) {
                        self.outboxes[i].clear();
                        self.nodes[i].step(now, &mut self.outboxes[i]);
                    }
                }
            }
            None => {
                for w in 0..words {
                    let mut bits = self.step_mask.words()[w];
                    while bits != 0 {
                        let i = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.outboxes[i].clear();
                        self.nodes[i].step(now, &mut self.outboxes[i]);
                    }
                }
            }
        }

        // 3. Route the stepped outboxes onto the wires in ascending node
        // order (the determinism contract — see the module docs).
        // Flits re-fill the slot drained in phase 1 (same parity at
        // `now + 2`); 1-cycle signals go to the opposite slot. Every push
        // sets the destination's wake bit for its delivery parity. An
        // empty outbox (an idle wake) is skipped.
        let Network {
            outboxes,
            flit_slots,
            credit_slots,
            vc_count_slots,
            step_mask,
            wake_mask,
            inflight_flits,
            telemetry,
            tables,
            stats,
            arena,
            faults,
            ..
        } = self;
        for (w, &mask_word) in step_mask.words().iter().enumerate() {
            let mut bits = mask_word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let out = &mut outboxes[i];
                if out.is_empty() {
                    continue;
                }
                for (dir, flit) in out.flits.drain(..) {
                    // A flit emitted onto a dead link is dropped at the link
                    // driver: free its config payload, refund the buffer
                    // credit the emitter spent (packet-switched only — CS
                    // flits are unbuffered), and queue the packet for a
                    // global purge before phase 4.
                    if let Some(f) = faults.as_deref_mut() {
                        if f.down[i * 4 + dir.index()] {
                            arena.free(flit.config);
                            stats.flits_dropped_fault += 1;
                            if flit.switching() == Switching::Packet {
                                credit_slots[par ^ 1][i].push((dir, Credit { vc: flit.vc }));
                                wake_mask[par ^ 1].set(i);
                            }
                            if let Some(t) = telemetry.as_deref_mut() {
                                t.sink.record(
                                    now,
                                    i as u32,
                                    EventKind::FlitDroppedFault,
                                    dir.index() as u8,
                                    flit.packet.0,
                                );
                            }
                            f.pending_lost.push(flit.packet);
                            continue;
                        }
                    }
                    let nb = tables
                        .neighbor(i, dir)
                        .unwrap_or_else(|| panic!("node {i} emitted a flit off the {dir:?} edge"));
                    flit_slots[par][nb].push((dir.opposite(), flit));
                    wake_mask[par].set(nb);
                    *inflight_flits += 1;
                    if let Some(t) = telemetry.as_deref_mut() {
                        t.link_flits[i * 4 + dir.index()] += 1;
                    }
                }
                for (dir, credit) in out.credits.drain(..) {
                    let nb = tables.neighbor(i, dir).unwrap_or_else(|| {
                        panic!("node {i} emitted a credit off the {dir:?} edge")
                    });
                    credit_slots[par ^ 1][nb].push((dir.opposite(), credit));
                    wake_mask[par ^ 1].set(nb);
                }
                for (dir, count) in out.vc_counts.drain(..) {
                    if let Some(nb) = tables.neighbor(i, dir) {
                        vc_count_slots[par ^ 1][nb].push((dir.opposite(), count));
                        wake_mask[par ^ 1].set(nb);
                    }
                }
            }
        }

        // 3b. Purge packets that lost a flit at the emission guard: sweep
        // their remaining flits out of wires and node buffers so the fault
        // leaves no stranded state (runs before phase 4 so the occupancy
        // refresh below sees post-purge node state).
        let pend = match &mut self.faults {
            Some(f) if !f.pending_lost.is_empty() => std::mem::take(&mut f.pending_lost),
            _ => Vec::new(),
        };
        for pid in pend {
            if self.register_lost(pid) {
                self.purge_lost_packet(now, pid);
            }
        }

        // 4. Refresh caches for the stepped nodes, collect deliveries, make
        // sleep decisions, and integrate leakage from the running sums.
        // Power state and occupancy can only change in a stepped cycle, so
        // updating stepped nodes keeps the sums exact for sleepers too.
        self.scratch_delivered.clear();
        let mut stepped = 0u64;
        for w in 0..words {
            let mut bits = self.step_mask.words()[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                stepped += 1;
                if let Some(t) = &mut self.telemetry {
                    // A sleeping node only steps again once something woke
                    // it: record the wake edge.
                    if t.asleep[i] {
                        t.asleep[i] = false;
                        t.sink.record(now, i as u32, EventKind::NodeWake, 0, 0);
                    }
                }
                let node = &mut self.nodes[i];
                node.drain_delivered(&mut self.scratch_delivered);
                let occ = node.occupancy();
                self.total_occ = self.total_occ - self.occ_cache[i] + occ;
                self.occ_cache[i] = occ;
                let ps = node.power_state();
                let old = self.power_cache[i];
                self.power_cache[i] = ps;
                self.leak_buffer =
                    self.leak_buffer - old.buffer_slots as u64 + ps.buffer_slots as u64;
                self.leak_slot = self.leak_slot - old.slot_entries as u64 + ps.slot_entries as u64;
                self.leak_dlt = self.leak_dlt - old.dlt_entries as u64 + ps.dlt_entries as u64;
                match node.sleep_until(now) {
                    // `t <= now + 1` is "wake next cycle": same as active.
                    None => self.active_mask.set(i),
                    Some(t) if t <= now + 1 => self.active_mask.set(i),
                    Some(t) => {
                        self.active_mask.clear(i);
                        if let Some(tel) = &mut self.telemetry {
                            if !tel.asleep[i] {
                                tel.asleep[i] = true;
                                tel.sink.record(now, i as u32, EventKind::NodeSleep, 0, t);
                            }
                        }
                        if t != Cycle::MAX && t < self.timer_at[i] {
                            self.timer_at[i] = t;
                            self.timers.push(Reverse((t, i as u32)));
                        }
                    }
                }
            }
        }
        self.stats.leakage.buffer_slot_cycles += self.leak_buffer;
        self.stats.leakage.slot_entry_cycles += self.leak_slot;
        self.stats.leakage.dlt_entry_cycles += self.leak_dlt;
        self.stats.leakage.router_cycles += n as u64;
        self.stats.nodes_stepped += stepped;
        self.stats.node_cycles += n as u64;
        for d in &self.scratch_delivered {
            self.stats.record_delivery(d);
            if self.collect_delivered && d.measured {
                self.delivered_log.push(*d);
            }
        }
        if self
            .telemetry
            .as_deref()
            .is_some_and(|t| now + 1 >= t.next_window)
        {
            let gauges = self.window_gauges();
            let t = self.telemetry.as_deref_mut().expect("checked above");
            t.close_window(now + 1, &self.stats, gauges);
            t.next_window += t.cfg.window;
        }

        self.now += 1;
    }

    /// Run `cycles` steps.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Start a measurement window: resets statistics and snapshots event
    /// counters so [`Network::end_measurement`] reports window deltas.
    pub fn begin_measurement(&mut self) {
        if let Some(t) = &mut self.telemetry {
            t.follow_reset(&self.stats);
        }
        self.stats.begin_measurement(self.now);
        self.events_baseline = self.total_events();
    }

    /// Close the measurement window: fixes `measured_cycles` and stores the
    /// event-counter delta in `stats.events`.
    pub fn end_measurement(&mut self) {
        self.stats.end_measurement(self.now);
        self.stats.events = self.total_events().diff(&self.events_baseline);
    }

    /// Sum of all node event counters since construction.
    pub fn total_events(&self) -> EnergyEvents {
        let mut e = EnergyEvents::default();
        for node in &self.nodes {
            let ne = node.events();
            e.merge(&ne);
        }
        e
    }

    /// True when no flit is buffered anywhere and no wire is in flight.
    /// O(1): maintained incrementally by the step loop.
    pub fn is_drained(&self) -> bool {
        debug_assert_eq!(
            self.total_occ,
            self.nodes.iter().map(|n| n.occupancy()).sum::<usize>(),
            "network occupancy counter drifted"
        );
        debug_assert_eq!(
            self.inflight_flits,
            self.flit_slots
                .iter()
                .flat_map(|s| s.iter())
                .map(|w| w.len())
                .sum::<usize>(),
            "in-flight flit counter drifted"
        );
        self.total_occ == 0 && self.inflight_flits == 0
    }

    /// Step until drained or `max_cycles` elapse; returns whether the
    /// network drained.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_drained() {
                return true;
            }
            self.step();
        }
        self.is_drained()
    }

    /// Total flits held by nodes (saturation detection). O(1): maintained
    /// incrementally by the step loop.
    pub fn total_occupancy(&self) -> usize {
        self.total_occ
    }

    /// Force the harness to step every node every cycle, disabling the
    /// activity scheduler. The simulated network is bit-identical either
    /// way (the bit-identity property tests run both modes side by side);
    /// only wall-clock cost and the `nodes_stepped` counter differ.
    pub fn set_always_step(&mut self, on: bool) {
        self.always_step = on;
    }

    /// Whether the activity scheduler is disabled.
    pub fn always_step(&self) -> bool {
        self.always_step
    }

    /// Override the phase-2 node-stepping order (test-only; `exhaustive`
    /// feature). `order` must be a permutation of `0..n`; the step *set*
    /// is unchanged — only the visit order differs. Phase 2 is
    /// order-independent by contract, so every permutation must be
    /// observationally equivalent to the canonical ascending order; the
    /// exhaustive-schedule test enumerates all of them on a 2×2 fabric.
    #[cfg(feature = "exhaustive")]
    pub fn set_step_order(&mut self, order: Option<Vec<usize>>) {
        if let Some(order) = &order {
            let n = self.nodes.len();
            assert_eq!(order.len(), n, "order must cover every node");
            let mut seen = vec![false; n];
            for &i in order {
                assert!(!std::mem::replace(&mut seen[i], true), "duplicate {i}");
            }
        }
        self.step_order = order;
    }

    /// Mark every node active and re-derive the harness caches from node
    /// state. Must be called after mutating nodes from outside the harness
    /// (resize controllers, circuit-plan requests, tests poking `nodes`
    /// directly), so the scheduler never acts on stale cached state.
    pub fn wake_all(&mut self) {
        self.active_mask.set_all();
        self.rebuild_caches();
    }

    /// Re-derive the occupancy, in-flight and power caches by a scan of
    /// the nodes and wires. The activity masks are left alone, so a
    /// restore that calls this keeps `nodes_stepped` as captured.
    fn rebuild_caches(&mut self) {
        self.total_occ = 0;
        self.leak_buffer = 0;
        self.leak_slot = 0;
        self.leak_dlt = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            let occ = node.occupancy();
            self.occ_cache[i] = occ;
            self.total_occ += occ;
            let ps = node.power_state();
            self.power_cache[i] = ps;
            self.leak_buffer += ps.buffer_slots as u64;
            self.leak_slot += ps.slot_entries as u64;
            self.leak_dlt += ps.dlt_entries as u64;
        }
        self.inflight_flits = self.flit_slots.iter().flatten().map(Vec::len).sum();
    }

    /// Arm telemetry: install a fresh ring sink in every node (via
    /// [`NodeModel::set_trace_sink`]) and reset the harness-level event
    /// sink, link counters and metrics windows. Telemetry only observes —
    /// the simulated network evolves bit-identically traced or not.
    pub fn configure_telemetry(&mut self, cfg: &TelemetryConfig) {
        for node in &mut self.nodes {
            node.set_trace_sink(TraceSink::ring(cfg));
        }
        self.telemetry = Some(Box::new(NetTelemetry::new(
            cfg,
            self.nodes.len(),
            self.now,
            &self.stats,
        )));
    }

    /// Disarm telemetry and assemble the report: drain every node's ring
    /// (leaving the sinks disabled), merge with the harness events, flush
    /// the final partial metrics window, and sort the merged event stream
    /// into canonical order. `None` when telemetry was never armed.
    pub fn take_telemetry(&mut self) -> Option<TelemetryReport> {
        let mut t = self.telemetry.take()?;
        if t.cfg.window > 0 && self.now > t.last_window_end {
            t.close_window(self.now, &self.stats, self.window_gauges());
        }
        let mut report = TelemetryReport {
            nodes: self.nodes.len() as u32,
            mesh_width: self.mesh.kx() as u32,
            link_flits: std::mem::take(&mut t.link_flits),
            metric_names: &WINDOW_METRICS,
            windows: std::mem::take(&mut t.windows),
            ..Default::default()
        };
        let mut rings: Vec<_> = self
            .nodes
            .iter_mut()
            .filter_map(|n| n.take_trace())
            .collect();
        rings.extend(t.sink.take());
        for ring in &rings {
            report.recorded += ring.recorded();
            report.dropped += ring.dropped();
            report.events.extend(ring.events().copied());
        }
        report.sort_events();
        Some(report)
    }

    /// The metrics-window gauges as they stand: active nodes, buffered
    /// flits and flits on wires.
    fn window_gauges(&self) -> [u64; 3] {
        [
            self.active_mask.count_ones(),
            self.total_occ as u64,
            self.inflight_flits as u64,
        ]
    }

    /// Number of closed metrics windows recorded so far. Non-destructive
    /// (telemetry stays armed), so a live run's harness can poll this once
    /// per cycle and stream the new windows to subscribers as they close.
    pub fn telemetry_window_count(&self) -> usize {
        self.telemetry.as_deref().map_or(0, |t| t.windows.len())
    }

    /// Clone the closed metrics windows from index `from` on (empty when
    /// telemetry is unarmed or nothing new closed). Pair with
    /// [`Network::telemetry_metric_names`] to label the value columns.
    pub fn telemetry_windows_from(&self, from: usize) -> Vec<WindowSnapshot> {
        self.telemetry
            .as_deref()
            .map_or_else(Vec::new, |t| t.windows.get(from..).unwrap_or(&[]).to_vec())
    }

    /// The metrics-window column names (empty when telemetry is
    /// unarmed).
    pub fn telemetry_metric_names(&self) -> Vec<String> {
        match self.telemetry {
            Some(_) => WINDOW_METRICS.iter().map(|n| n.to_string()).collect(),
            None => Vec::new(),
        }
    }

    // --- Link faults (see `FaultState`) ---

    /// Arm a link-fault schedule. Each event names one *physical* link by
    /// its (node, direction) endpoint; kills and revives affect both
    /// directions. Events may be given in any order; they are applied at
    /// their exact cycle with a deterministic tie-break. Panics if an
    /// event names a non-existent link (off the edge of an open mesh).
    pub fn set_faults(&mut self, mut timeline: Vec<FaultEvent>) {
        timeline.sort_by_key(|e| (e.at, e.node, e.dir.index(), e.up));
        for ev in &timeline {
            assert!(
                (ev.node as usize) < self.nodes.len()
                    && self.tables.neighbor(ev.node as usize, ev.dir).is_some(),
                "fault event names a non-existent link: node {} {:?}",
                ev.node,
                ev.dir
            );
        }
        let n = self.nodes.len();
        self.faults = Some(Box::new(FaultState {
            timeline,
            next: 0,
            down: vec![false; n * 4].into_boxed_slice(),
            overrides: None,
            lost: Vec::new(),
            pending_lost: Vec::new(),
        }));
    }

    /// Fault-timeline events applied so far. Monotonic (unlike the
    /// `NetStats` fault counters, which measurement windows reset), so
    /// wrapping repair controllers can trigger off it reliably.
    pub fn faults_applied(&self) -> usize {
        self.faults.as_deref().map_or(0, |f| f.next)
    }

    /// Apply every fault event due at `now`, then purge the packets that
    /// lost flits on killed wires and refresh the reroute table.
    fn apply_due_faults(&mut self, now: Cycle) {
        let mut changed = false;
        let mut wire_lost: Vec<PacketId> = Vec::new();
        loop {
            let ev = {
                let f = self.faults.as_deref().expect("fault state present");
                match f.timeline.get(f.next) {
                    Some(e) if e.at <= now => *e,
                    _ => break,
                }
            };
            let i = ev.node as usize;
            let nb = self
                .tables
                .neighbor(i, ev.dir)
                .expect("validated by set_faults");
            let fwd = i * 4 + ev.dir.index();
            let rev = nb * 4 + ev.dir.opposite().index();
            let f = self.faults.as_deref_mut().expect("fault state present");
            f.next += 1;
            // Flag flips are idempotent: a kill of an already-dead link (or
            // a revive of a live one) is a silent no-op, so overlapping
            // schedules stay well defined.
            let mut flipped = false;
            for idx in [fwd, rev] {
                if f.down[idx] == ev.up {
                    f.down[idx] = !ev.up;
                    flipped = true;
                }
            }
            if !flipped {
                continue;
            }
            changed = true;
            if ev.up {
                self.stats.link_up_events += 1;
            } else {
                self.stats.link_down_events += 1;
            }
            if let Some(t) = &mut self.telemetry {
                let kind = if ev.up {
                    EventKind::LinkUp
                } else {
                    EventKind::LinkDown
                };
                t.sink.record(now, ev.node, kind, ev.dir.index() as u8, 0);
            }
            if !ev.up {
                // Flits already in flight on either direction of the wire
                // are lost with it.
                self.purge_wire_link(now, i, ev.dir, &mut wire_lost);
                self.purge_wire_link(now, nb, ev.dir.opposite(), &mut wire_lost);
            }
        }
        for pid in wire_lost {
            if self.register_lost(pid) {
                self.purge_lost_packet(now, pid);
            }
        }
        if changed {
            self.rebuild_overrides();
            // Topology change: every node must re-evaluate routes, retries
            // and sleep decisions against fresh state.
            self.wake_all();
        }
    }

    /// Drop every in-flight flit travelling from `i` toward `dir`,
    /// refunding the emitter's buffer credit for packet-switched flits and
    /// recording the owning packets in `lost`.
    fn purge_wire_link(&mut self, now: Cycle, i: usize, dir: Direction, lost: &mut Vec<PacketId>) {
        let Some(nb) = self.tables.neighbor(i, dir) else {
            return;
        };
        let from = dir.opposite();
        let par_next = ((now + 1) & 1) as usize;
        for par in 0..2 {
            let mut k = 0;
            while k < self.flit_slots[par][nb].len() {
                if self.flit_slots[par][nb][k].0 != from {
                    k += 1;
                    continue;
                }
                let (_, f) = self.flit_slots[par][nb].remove(k);
                self.arena.free(f.config);
                self.inflight_flits -= 1;
                self.stats.flits_dropped_fault += 1;
                if f.switching() == Switching::Packet {
                    self.credit_slots[par_next][i].push((dir, Credit { vc: f.vc }));
                    self.wake_mask[par_next].set(i);
                }
                if let Some(t) = &mut self.telemetry {
                    t.sink.record(
                        now,
                        nb as u32,
                        EventKind::FlitDroppedFault,
                        from.index() as u8,
                        f.packet.0,
                    );
                }
                lost.push(f.packet);
            }
        }
    }

    /// Record `pid` as lost to a fault. Returns `false` when the packet was
    /// already purged (each lost packet is swept and counted exactly once).
    fn register_lost(&mut self, pid: PacketId) -> bool {
        let f = self.faults.as_deref_mut().expect("fault state present");
        match f.lost.binary_search(&pid.0) {
            Ok(_) => false,
            Err(pos) => {
                f.lost.insert(pos, pid.0);
                self.stats.packets_dropped_fault += 1;
                true
            }
        }
    }

    /// Globally purge a packet that lost a flit: sweep its stragglers off
    /// every wire and out of every node (buffers, VC state, partial
    /// reassembly), freeing config payloads and refunding buffer credits so
    /// the fault leaves no stranded occupancy and no arena leak.
    fn purge_lost_packet(&mut self, now: Cycle, pid: PacketId) {
        let par_next = ((now + 1) & 1) as usize;
        let n = self.nodes.len();
        for par in 0..2 {
            for j in 0..n {
                let mut k = 0;
                while k < self.flit_slots[par][j].len() {
                    if self.flit_slots[par][j][k].1.packet != pid {
                        k += 1;
                        continue;
                    }
                    let (from, f) = self.flit_slots[par][j].remove(k);
                    self.arena.free(f.config);
                    self.inflight_flits -= 1;
                    self.stats.flits_dropped_fault += 1;
                    if f.switching() == Switching::Packet {
                        // The sender sits upstream of input port `from`.
                        if let Some(s) = self.tables.neighbor(j, from) {
                            self.credit_slots[par_next][s]
                                .push((from.opposite(), Credit { vc: f.vc }));
                            self.wake_mask[par_next].set(s);
                        }
                    }
                    if let Some(t) = &mut self.telemetry {
                        t.sink.record(
                            now,
                            j as u32,
                            EventKind::FlitDroppedFault,
                            from.index() as u8,
                            f.packet.0,
                        );
                    }
                }
            }
        }
        let mut credits: Vec<(Direction, Credit)> = Vec::new();
        for i in 0..n {
            credits.clear();
            let dropped = self.nodes[i].abort_packet(pid, &self.arena, &mut credits);
            for &(dir, c) in &credits {
                if let Some(nb) = self.tables.neighbor(i, dir) {
                    self.credit_slots[par_next][nb].push((dir.opposite(), c));
                    self.wake_mask[par_next].set(nb);
                }
            }
            if dropped > 0 {
                self.stats.flits_dropped_fault += dropped as u64;
                let occ = self.nodes[i].occupancy();
                self.total_occ = self.total_occ - self.occ_cache[i] + occ;
                self.occ_cache[i] = occ;
                // Step the node next cycle so its power cache and sleep
                // decision are refreshed against post-purge state.
                self.active_mask.set(i);
            }
        }
    }

    /// Recompute the reroute table from the current down flags and install
    /// it in every node (or clear it once all links are back up). Routes
    /// are minimal-hop over the surviving links, built by one BFS per
    /// destination with a deterministic direction-order tie-break.
    fn rebuild_overrides(&mut self) {
        let n = self.nodes.len();
        let f = self.faults.as_deref_mut().expect("fault state present");
        if !f.down.contains(&true) {
            f.overrides = None;
            for node in &mut self.nodes {
                node.set_route_overrides(None);
            }
            return;
        }
        let mut next = vec![RouteOverrides::NO_ROUTE; n * n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        for dst in 0..n {
            visited.iter_mut().for_each(|v| *v = false);
            visited[dst] = true;
            queue.clear();
            queue.push_back(dst);
            while let Some(v) = queue.pop_front() {
                for d in Direction::ALL {
                    let Some(u) = self.tables.neighbor(v, d) else {
                        continue;
                    };
                    // `u` reaches `v` by leaving in the opposite direction
                    // (links are symmetric, wrap links included).
                    let out = d.opposite();
                    debug_assert_eq!(self.tables.neighbor(u, out), Some(v));
                    if visited[u] || f.down[u * 4 + out.index()] {
                        continue;
                    }
                    visited[u] = true;
                    next[u * n + dst] = out.index() as u8;
                    queue.push_back(u);
                }
            }
        }
        let ovr = Arc::new(RouteOverrides::new(n as u32, next.into_boxed_slice()));
        f.overrides = Some(ovr.clone());
        for node in &mut self.nodes {
            node.set_route_overrides(Some(ovr.clone()));
        }
    }

    // --- Checkpoint / restore (see DESIGN.md §14) ---

    /// Serialise the harness and every node into a framed snapshot.
    /// Fails while telemetry is armed (ring sinks and metrics windows are
    /// deliberately outside the snapshot seam — disarm via
    /// [`Network::take_telemetry`] first).
    pub fn checkpoint(&self) -> Result<FabricSnapshot, SnapshotError> {
        FabricSnapshot::capture(|w| self.save_into(w))
    }

    /// Restore from a snapshot taken by [`Network::checkpoint`] on a
    /// network built from the *same* configuration (geometry mismatches are
    /// rejected). The restored network continues bit-identically to the
    /// one that was checkpointed.
    pub fn restore(&mut self, snap: &FabricSnapshot) -> Result<(), SnapshotError> {
        let mut r = snap.payload();
        self.load_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt("trailing bytes after snapshot"));
        }
        Ok(())
    }

    /// Append the harness state to `w`. Composable seam: fabric wrappers
    /// (the TDM resize controller, the SDM backend) call this and then
    /// append their own state.
    ///
    /// Not serialised: scratch buffers (outboxes, step mask), the topology
    /// tables (structural, rebuilt by the constructor), the reroute table
    /// (recomputed from the down flags on load), the occupancy, in-flight
    /// and power caches (rescanned on load by `rebuild_caches`), and
    /// telemetry (must be disarmed).
    pub fn save_into(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        if self.telemetry.is_some() {
            return Err(SnapshotError::Unsupported(
                "checkpoint while telemetry is armed",
            ));
        }
        w.u64(self.now);
        w.bool(self.always_step);
        w.bool(self.collect_delivered);
        self.delivered_log.save(w);
        self.stats.save(w);
        self.events_baseline.save(w);
        for slots in &self.flit_slots {
            slots.save(w);
        }
        for slots in &self.credit_slots {
            slots.save(w);
        }
        for slots in &self.vc_count_slots {
            slots.save(w);
        }
        self.active_mask.save(w);
        self.wake_mask[0].save(w);
        self.wake_mask[1].save(w);
        // The heap's internal layout is iteration-order dependent; encode
        // the sorted entry list so equal states produce equal bytes.
        let mut timers: Vec<(u64, u32)> = self.timers.iter().map(|r| r.0).collect();
        timers.sort_unstable();
        timers.save(w);
        self.timer_at.save(w);
        self.arena.save_state(w);
        match self.faults.as_deref() {
            None => w.bool(false),
            Some(f) => {
                w.bool(true);
                debug_assert!(f.pending_lost.is_empty(), "snapshot mid-step");
                f.timeline.save(w);
                w.usize(f.next);
                f.down.save(w);
                f.lost.save(w);
            }
        }
        w.usize(self.nodes.len());
        for node in &self.nodes {
            node.save_state(w)?;
        }
        Ok(())
    }

    /// Inverse of [`Network::save_into`].
    pub fn load_from(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        if self.telemetry.is_some() {
            return Err(SnapshotError::Unsupported(
                "restore while telemetry is armed",
            ));
        }
        let n = self.nodes.len();
        self.now = r.u64()?;
        self.always_step = r.bool()?;
        self.collect_delivered = r.bool()?;
        self.delivered_log = Vec::load(r)?;
        self.stats = NetStats::load(r)?;
        self.events_baseline = EnergyEvents::load(r)?;
        fn wire<T: Snap>(
            r: &mut SnapshotReader,
            n: usize,
        ) -> Result<Vec<Vec<(Direction, T)>>, SnapshotError> {
            let slots = Vec::<Vec<(Direction, T)>>::load(r)?;
            if slots.len() != n {
                return Err(SnapshotError::Mismatch("wire slot count"));
            }
            Ok(slots)
        }
        for par in 0..2 {
            self.flit_slots[par] = wire::<Flit>(r, n)?;
        }
        for par in 0..2 {
            self.credit_slots[par] = wire::<Credit>(r, n)?;
        }
        for par in 0..2 {
            self.vc_count_slots[par] = wire::<u8>(r, n)?;
        }
        let words = self.step_mask.words().len();
        let mask = |r: &mut SnapshotReader| -> Result<BitSet, SnapshotError> {
            let m = BitSet::load(r)?;
            if m.words().len() != words {
                return Err(SnapshotError::Mismatch("activity mask width"));
            }
            Ok(m)
        };
        self.active_mask = mask(r)?;
        self.wake_mask[0] = mask(r)?;
        self.wake_mask[1] = mask(r)?;
        let timers = Vec::<(u64, u32)>::load(r)?;
        if timers.iter().any(|&(_, i)| i as usize >= n) {
            return Err(SnapshotError::Mismatch("timer node index"));
        }
        self.timers = timers.into_iter().map(Reverse).collect();
        self.timer_at = Vec::load(r)?;
        if self.timer_at.len() != n {
            return Err(SnapshotError::Mismatch("per-node table length"));
        }
        self.arena.load_state(r)?;
        self.faults = if r.bool()? {
            let timeline = Vec::load(r)?;
            let next = r.usize()?;
            let down = Box::<[bool]>::load(r)?;
            let lost = Vec::load(r)?;
            if down.len() != n * 4 || next > timeline.len() {
                return Err(SnapshotError::Mismatch("fault state shape"));
            }
            Some(Box::new(FaultState {
                timeline,
                next,
                down,
                overrides: None,
                lost,
                pending_lost: Vec::new(),
            }))
        } else {
            None
        };
        if r.usize()? != n {
            return Err(SnapshotError::Mismatch("node count"));
        }
        for node in &mut self.nodes {
            node.load_state(r)?;
        }
        // Rescan the caches and reinstall the reroute table from the
        // restored down flags (or clear any stale one). Deliberately no
        // `wake_all`: the restored activity masks already match the
        // checkpointed run, and waking everything would perturb
        // `nodes_stepped`.
        self.rebuild_caches();
        if self.faults.is_some() {
            self.rebuild_overrides();
        } else {
            for node in &mut self.nodes {
                node.set_route_overrides(None);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::flit::{PacketId, Switching};
    use crate::geometry::Coord;
    use crate::node::{PacketNode, PowerState};

    fn net(k: u16) -> Network<PacketNode> {
        let cfg = NetworkConfig::with_mesh(Mesh::square(k));
        Network::new(cfg.mesh, |id| PacketNode::new(id, &cfg, None))
    }

    #[test]
    fn single_packet_crosses_network() {
        let mut n = net(4);
        let src = n.mesh.id(Coord::new(0, 0));
        let dst = n.mesh.id(Coord::new(3, 3));
        n.begin_measurement();
        n.inject(src, Packet::data(PacketId(1), src, dst, 5, 0));
        assert!(n.drain(500), "packet must be delivered");
        n.end_measurement();
        assert_eq!(n.stats.packets_delivered, 1);
        assert_eq!(n.stats.flits_delivered, 5);
        // 6 hops at 4 cycles each plus serialisation and interface costs:
        // zero-load latency must be positive and modest.
        let lat = n.stats.avg_latency();
        assert!(
            lat > 24.0 && lat < 60.0,
            "unexpected zero-load latency {lat}"
        );
    }

    #[test]
    fn latency_includes_source_queueing() {
        let mut fast = net(4);
        let mut slow = net(4);
        let src = fast.mesh.id(Coord::new(0, 0));
        let dst = fast.mesh.id(Coord::new(3, 0));
        fast.begin_measurement();
        slow.begin_measurement();
        // One packet alone vs. ten packets queued at once: the tenth waits.
        fast.inject(src, Packet::data(PacketId(0), src, dst, 5, 0));
        for i in 0..10 {
            slow.inject(src, Packet::data(PacketId(i), src, dst, 5, 0));
        }
        assert!(fast.drain(1000) && slow.drain(1000));
        fast.end_measurement();
        slow.end_measurement();
        assert!(slow.stats.avg_latency() > fast.stats.avg_latency() + 5.0);
        assert_eq!(slow.stats.packets_delivered, 10);
    }

    #[test]
    fn all_pairs_deliver() {
        let mut n = net(3);
        let mut pid = 0;
        for src in n.mesh.nodes() {
            for dst in n.mesh.nodes() {
                if src != dst {
                    n.inject(src, Packet::data(PacketId(pid), src, dst, 5, 0));
                    pid += 1;
                }
            }
        }
        n.begin_measurement();
        assert!(n.drain(20_000), "network failed to drain");
        n.end_measurement();
        assert_eq!(n.stats.packets_delivered, pid);
    }

    #[test]
    fn leakage_integrates_every_cycle() {
        let mut n = net(2);
        n.begin_measurement();
        n.run(10);
        n.end_measurement();
        assert_eq!(n.stats.leakage.router_cycles, 40);
        // 4 routers × 5 ports × 4 VCs × 5 slots × 10 cycles
        assert_eq!(n.stats.leakage.buffer_slot_cycles, 4 * 5 * 4 * 5 * 10);
    }

    #[test]
    fn events_window_excludes_warmup() {
        let mut n = net(3);
        let src = n.mesh.id(Coord::new(0, 0));
        let dst = n.mesh.id(Coord::new(2, 2));
        n.inject(src, Packet::data(PacketId(0), src, dst, 5, 0));
        n.drain(500);
        let warm = n.total_events();
        assert!(warm.buffer_writes > 0);
        n.begin_measurement();
        n.run(5);
        n.end_measurement();
        assert_eq!(
            n.stats.events.buffer_writes, 0,
            "warm-up events leaked into window"
        );
    }

    /// Minimal instrumented tile for the wire-timing tests: emits one
    /// pre-programmed signal of each kind eastward and records the cycle
    /// each inbound signal arrives.
    struct Probe {
        id: NodeId,
        emit_flit_at: Option<Cycle>,
        emit_credit_at: Option<Cycle>,
        emit_vc_count_at: Option<Cycle>,
        arrivals: Vec<(Cycle, &'static str)>,
    }

    impl Probe {
        fn new(id: NodeId) -> Self {
            Probe {
                id,
                emit_flit_at: None,
                emit_credit_at: None,
                emit_vc_count_at: None,
                arrivals: Vec::new(),
            }
        }
    }

    impl NodeModel for Probe {
        fn id(&self) -> NodeId {
            self.id
        }
        fn inject(&mut self, _now: Cycle, _pkt: Packet) {}
        fn accept_flit(&mut self, now: Cycle, _from: Direction, _flit: Flit) {
            self.arrivals.push((now, "flit"));
        }
        fn accept_credit(&mut self, now: Cycle, _from: Direction, _credit: Credit) {
            self.arrivals.push((now, "credit"));
        }
        fn accept_vc_count(&mut self, now: Cycle, _from: Direction, _count: u8) {
            self.arrivals.push((now, "vc_count"));
        }
        fn step(&mut self, now: Cycle, out: &mut NodeOutputs) {
            if self.emit_flit_at == Some(now) {
                let p = Packet::data(PacketId(1), self.id, self.id, 1, now);
                out.flits
                    .push((Direction::East, Flit::of_packet(&p, 0, Switching::Packet)));
            }
            if self.emit_credit_at == Some(now) {
                out.credits.push((Direction::East, Credit { vc: 0 }));
            }
            if self.emit_vc_count_at == Some(now) {
                out.vc_counts.push((Direction::East, 2));
            }
        }
        fn drain_delivered(&mut self, _sink: &mut Vec<DeliveredPacket>) {}
        fn events(&self) -> EnergyEvents {
            EnergyEvents::default()
        }
        fn occupancy(&self) -> usize {
            0
        }
        fn power_state(&self) -> PowerState {
            PowerState::default()
        }
    }

    /// The ring-slot wires must preserve the timing contract exactly: a
    /// flit emitted during `step(T)` arrives at `T+2`; credits and VC
    /// counts arrive at `T+1`.
    #[test]
    fn ring_wires_keep_fixed_latencies() {
        let m = Mesh::new(2, 1);
        let mut n = Network::new(m, |id| {
            let mut p = Probe::new(id);
            if id.index() == 0 {
                p.emit_flit_at = Some(3);
                p.emit_credit_at = Some(4);
                p.emit_vc_count_at = Some(6);
            }
            p
        });
        n.run(10);
        assert_eq!(
            n.nodes[1].arrivals,
            vec![(5, "flit"), (5, "credit"), (7, "vc_count")]
        );
        assert!(n.nodes[0].arrivals.is_empty());
    }

    /// Back-to-back emissions on consecutive cycles land on consecutive
    /// cycles: the two parity slots never collide or coalesce.
    #[test]
    fn ring_wires_double_buffer_consecutive_cycles() {
        let m = Mesh::new(2, 1);
        for start in [0u64, 1] {
            let mut n = Network::new(m, Probe::new);
            n.run(start);
            // Emit a flit on every one of four consecutive cycles.
            for t in 0..4 {
                n.nodes[0].emit_flit_at = Some(start + t);
                n.step();
            }
            n.run(4);
            let got: Vec<Cycle> = n.nodes[1].arrivals.iter().map(|&(t, _)| t).collect();
            assert_eq!(got, vec![start + 2, start + 3, start + 4, start + 5]);
        }
    }

    #[test]
    fn traced_run_collects_events_counters_and_windows() {
        let mut n = net(3);
        n.configure_telemetry(&TelemetryConfig {
            window: 50,
            ..TelemetryConfig::default()
        });
        let src = n.mesh.id(Coord::new(0, 0));
        let dst = n.mesh.id(Coord::new(2, 2));
        n.begin_measurement();
        n.inject(src, Packet::data(PacketId(1), src, dst, 5, 0));
        assert!(n.drain(500));
        n.end_measurement();
        let link_flits_counted = n.stats.events.link_flits;
        let report = n.take_telemetry().expect("telemetry was armed");
        assert!(n.take_telemetry().is_none(), "report is taken once");

        // The harness per-link counters agree with the routers' own
        // link-flit event counter.
        assert_eq!(report.total_link_flits(), link_flits_counted);
        assert_eq!(report.link_flits.len(), 9 * 4);
        // Inject, sleep/wake (harness) and the flit lifecycle (routers)
        // all appear; the stream is sorted.
        let has = |k: EventKind| report.events.iter().any(|e| e.kind == k);
        assert!(has(EventKind::Inject));
        assert!(has(EventKind::VaGrant));
        assert!(has(EventKind::LinkTraverse));
        assert!(has(EventKind::Eject));
        assert!(has(EventKind::NodeSleep));
        assert!(report.events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // Metrics: windows were snapshotted under the fixed column list.
        assert!(!report.windows.is_empty());
        assert_eq!(report.metric_names, WINDOW_METRICS);
        // A second run traces wake edges for nodes slept mid-run.
        assert!(report.recorded > 0);
    }

    /// Window counters are deltas of the harness's own counters, and a
    /// window open across `begin_measurement` keeps what it counted before
    /// the `NetStats` reset.
    #[test]
    fn metrics_windows_keep_counts_across_the_measurement_reset() {
        let mut n = net(3);
        n.configure_telemetry(&TelemetryConfig {
            window: 1_000,
            ..TelemetryConfig::default()
        });
        let src = n.mesh.id(Coord::new(0, 0));
        let dst = n.mesh.id(Coord::new(2, 2));
        n.inject(src, Packet::data(PacketId(1), src, dst, 5, 0));
        assert!(n.drain(400));
        n.begin_measurement();
        let now = n.now();
        n.inject(src, Packet::data(PacketId(2), src, dst, 3, now));
        assert!(n.drain(400));
        let stats = n.stats.clone();
        let report = n.take_telemetry().expect("telemetry was armed");
        let col = |name: &str| WINDOW_METRICS.iter().position(|m| *m == name).unwrap();
        let [w] = &report.windows[..] else {
            panic!("one partial window: {:?}", report.windows)
        };
        assert_eq!(stats.packets_delivered, 1);
        assert_eq!(w.values[col("packets_delivered")], 2);
        assert_eq!(w.values[col("flits_delivered")], 8);
        assert_eq!(w.values[col("packet_latency")], 2);
        assert_eq!(w.values[col("link_flits")], report.total_link_flits());
        assert_eq!(report.total_link_flits(), 8 * 4, "8 flits over 4 hops");
    }

    /// The final partial window reads its gauges at the flush: a run that
    /// closes one full window with flits in flight and then drains ends
    /// on a window that holds none.
    #[test]
    fn final_partial_window_reads_the_gauges_at_the_flush() {
        let mut n = net(3);
        n.configure_telemetry(&TelemetryConfig {
            window: 100,
            ..TelemetryConfig::default()
        });
        let src = n.mesh.id(Coord::new(0, 0));
        let dst = n.mesh.id(Coord::new(2, 2));
        n.run(95);
        n.inject(src, Packet::data(PacketId(1), src, dst, 5, 95));
        n.run(5);
        assert!(n.drain(90));
        let report = n.take_telemetry().expect("telemetry was armed");
        let col = |name: &str| WINDOW_METRICS.iter().position(|m| *m == name).unwrap();
        let [full, last] = &report.windows[..] else {
            panic!("one full and one partial window: {:?}", report.windows)
        };
        let held = |w: &WindowSnapshot| {
            [
                w.values[col("buffered_flits")],
                w.values[col("inflight_flits")],
            ]
        };
        assert_ne!(held(full), [0, 0], "the full window closed mid-flight");
        assert_eq!(held(last), [0, 0], "the drained run's last window");
    }

    /// Tracing must be a pure observer: delivered-packet streams and stats
    /// are bit-identical with telemetry armed or absent.
    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        let build = |traced: bool| {
            let mut n = net(4);
            if traced {
                n.configure_telemetry(&TelemetryConfig::default());
            }
            n.collect_delivered = true;
            let mut pid = 0;
            for src in n.mesh.nodes() {
                for dst in n.mesh.nodes() {
                    if src != dst {
                        n.inject(src, Packet::data(PacketId(pid), src, dst, 5, 0));
                        pid += 1;
                    }
                }
            }
            n.begin_measurement();
            assert!(n.drain(20_000));
            n.end_measurement();
            n
        };
        let plain = build(false);
        let traced = build(true);
        assert_eq!(plain.now(), traced.now());
        assert_eq!(plain.delivered_log, traced.delivered_log);
        assert_eq!(plain.stats.latency_sum, traced.stats.latency_sum);
        assert_eq!(plain.stats.nodes_stepped, traced.stats.nodes_stepped);
    }
}
