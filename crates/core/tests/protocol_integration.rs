//! Protocol-level integration tests: the setup/ack/teardown lifecycle,
//! slot arithmetic, sharing and dynamic granularity observed end-to-end on
//! a real network.

// Traffic loops here advance a packet id alongside other per-iteration
// work; an explicit counter reads better than iterator gymnastics.
#![allow(clippy::explicit_counter_loop)]

use noc_sim::{
    Coord, EventKind, Fabric, Mesh, NetworkConfig, NodeId, NodeModel, Packet, PacketId, Port,
    Switching, TelemetryConfig,
};
use tdm_noc::{ResizeConfig, SharingConfig, TdmConfig, TdmNetwork, WaitBudget};

fn cfg(mesh: Mesh) -> TdmConfig {
    let mut cfg = TdmConfig {
        net: NetworkConfig::with_mesh(mesh),
        slot_capacity: 32,
        ..TdmConfig::default()
    };
    cfg.policy.setup_after_msgs = 3;
    cfg
}

fn data(id: u64, src: NodeId, dst: NodeId, now: u64) -> Packet {
    Packet::data(PacketId(id), src, dst, 5, now)
}

/// Drive one frequent pair until its circuit is confirmed; return the net.
fn establish(cfg: TdmConfig, src: NodeId, dst: NodeId) -> TdmNetwork {
    let mut net = TdmNetwork::new(cfg);
    let mut id = 10_000;
    for _ in 0..30 {
        let now = net.now();
        net.inject(src, data(id, src, dst, now));
        id += 1;
        net.run(25);
    }
    assert!(net.drain(5_000));
    net
}

#[test]
fn setup_reserves_slots_along_the_whole_path_with_plus_two_arithmetic() {
    let mesh = Mesh::square(5);
    let src = mesh.id(Coord::new(0, 2));
    let dst = mesh.id(Coord::new(4, 2)); // straight east: unique minimal path
    let net = establish(cfg(mesh), src, dst);

    let conn = *net.net.nodes[src.index()]
        .registry
        .get(dst)
        .expect("circuit established");
    let s = net.active_slots() as u64;

    // Walk the path: source local port, then East→West hops.
    let hops = [
        (src, Port::Local),
        (mesh.id(Coord::new(1, 2)), Port::West),
        (mesh.id(Coord::new(2, 2)), Port::West),
        (mesh.id(Coord::new(3, 2)), Port::West),
        (dst, Port::West),
    ];
    for (i, &(node, port)) in hops.iter().enumerate() {
        let slot = (conn.slot as u64 + 2 * i as u64) % s;
        let entry = net.net.nodes[node.index()]
            .router
            .slots
            .entry(port, slot)
            .unwrap_or_else(|| panic!("no reservation at hop {i} ({node:?})"));
        assert_eq!(entry.path_id, conn.path_id, "wrong path at hop {i}");
        assert_eq!(entry.dst, dst);
        // Duration slots are all reserved for this path.
        for k in 0..conn.duration as u64 {
            let e = net.net.nodes[node.index()]
                .router
                .slots
                .entry(port, (slot + k) % s)
                .expect("duration slot reserved");
            assert_eq!(e.path_id, conn.path_id);
        }
    }
    // The final hop ends at the destination's local output.
    let final_slot = (conn.slot as u64 + 2 * (hops.len() as u64 - 1)) % s;
    let e = net.net.nodes[dst.index()]
        .router
        .slots
        .lookup(Port::West, final_slot);
    assert_eq!(e, Some(Port::Local));
}

#[test]
fn teardown_cleans_every_router_on_eviction() {
    let mesh = Mesh::square(5);
    let src = mesh.id(Coord::new(0, 2));
    let d1 = mesh.id(Coord::new(4, 2));

    // Force eviction: cap connections at 1, let it idle, hammer another dst.
    let mut cfg2 = cfg(mesh);
    cfg2.policy.max_connections = 1;
    cfg2.policy.idle_teardown = 100;
    let mut net = establish(cfg2, src, d1);
    let conn = *net.net.nodes[src.index()]
        .registry
        .get(d1)
        .expect("established");
    net.run(300); // let it idle past the threshold
    let d2 = mesh.id(Coord::new(0, 0)); // hops(src,d2)=2
    let mut id = 50_000;
    for _ in 0..20 {
        let now = net.now();
        net.inject(src, data(id, src, d2, now));
        id += 1;
        net.run(25);
    }
    assert!(net.drain(5_000));
    assert!(
        net.net.nodes[src.index()].registry.get(d1).is_none(),
        "not evicted"
    );
    // No router anywhere still holds the old path id.
    let s = net.active_slots() as u64;
    for node in &net.net.nodes {
        for port in Port::ALL {
            for slot in 0..s {
                if let Some(e) = node.router.slots.entry(port, slot) {
                    assert_ne!(
                        e.path_id,
                        conn.path_id,
                        "stale reservation at {:?}",
                        node.id()
                    );
                }
            }
        }
    }
}

#[test]
fn circuits_actually_bypass_buffering() {
    // Compare buffer writes per delivered flit: CS flits must not touch
    // the input buffers at any hop.
    let mesh = Mesh::square(5);
    let src = mesh.id(Coord::new(0, 2));
    let dst = mesh.id(Coord::new(4, 2));
    let mut net = establish(cfg(mesh), src, dst);
    let before = net.net.total_events();
    net.begin_measurement();
    // Send 10 messages over the established circuit, spaced a period apart.
    let mut id = 90_000;
    for _ in 0..10 {
        let now = net.now();
        net.inject(src, data(id, src, dst, now));
        id += 1;
        assert!(net.drain(1_000));
    }
    net.end_measurement();
    let delta = net.net.total_events().diff(&before);
    assert_eq!(net.stats().cs_packets_delivered, 10, "all rode the circuit");
    assert_eq!(delta.cs_flits_delivered, 40);
    // The CS data flits were never buffered: any buffer writes in the
    // window belong to stray config traffic (none expected here).
    assert!(
        delta.buffer_writes <= 2,
        "{} buffer writes during pure circuit traffic",
        delta.buffer_writes
    );
    assert_eq!(
        delta.cs_latch_writes,
        40 * 5,
        "one latch write per hop per flit"
    );
}

#[test]
fn hitchhiker_lifecycle_insert_confirm_ride() {
    let mesh = Mesh::square(5);
    let mut c = cfg(mesh);
    c.sharing = SharingConfig::HITCHHIKER;
    let owner = mesh.id(Coord::new(0, 2));
    let mid = mesh.id(Coord::new(2, 2));
    let dst = mesh.id(Coord::new(4, 2));
    let mut net = establish(c, owner, dst);

    // The midpoint's DLT has a confirmed entry for the through-circuit.
    let e = net.net.nodes[mid.index()].dlt.lookup(dst).copied();
    let e = e.expect("confirmed DLT entry at the midpoint");
    assert_eq!(e.in_port, Port::West);

    // The midpoint rides it; no setup of its own.
    net.net.collect_delivered = true;
    net.begin_measurement();
    let setups_before = net.net.total_events().setup_attempts;
    let mut id = 70_000;
    for _ in 0..10 {
        let now = net.now();
        net.inject(mid, data(id, mid, dst, now));
        id += 1;
        assert!(net.drain(1_500));
    }
    net.end_measurement();
    let ev = net.net.total_events();
    assert!(ev.hitchhike_rides >= 8, "only {} rides", ev.hitchhike_rides);
    assert_eq!(
        ev.setup_attempts, setups_before,
        "midpoint set up its own path"
    );
    assert!(net.net.nodes[mid.index()].registry.get(dst).is_none());
    // Rides are delivered as circuit-switched packets.
    assert!(net
        .net
        .delivered_log
        .iter()
        .filter(|d| d.src == mid)
        .all(|d| d.switching == Switching::Circuit));
}

#[test]
fn resize_grows_under_pressure_and_shrinks_when_quiet() {
    let mesh = Mesh::square(4);
    let mut c = cfg(mesh);
    c.slot_capacity = 64;
    c.resize = Some(ResizeConfig {
        initial_active: 8,
        fail_threshold: 4,
        window: 400,
        freeze_cycles: 120,
        shrink_below: 0.10,
    });
    c.policy.wait_budget = WaitBudget {
        ps_factor: 2.0,
        floor_periods: 1.0,
    };
    let mut net = TdmNetwork::new(c);
    let src = mesh.id(Coord::new(0, 0));
    let dsts = [
        mesh.id(Coord::new(3, 0)),
        mesh.id(Coord::new(3, 1)),
        mesh.id(Coord::new(3, 2)),
    ];
    let mut id = 0;
    for _ in 0..200 {
        for &d in &dsts {
            let now = net.now();
            net.inject(src, data(id, src, d, now));
            id += 1;
        }
        net.run(12);
    }
    assert!(net.active_slots() > 8, "tables never grew");
    let grown = net.active_slots();
    let grow_resizes = net.resizes;
    assert!(net.drain(20_000));
    // Go quiet long enough for the shrink hysteresis to expire.
    net.run(20_000);
    assert!(net.resizes > grow_resizes, "no shrink happened");
    assert!(net.active_slots() < grown, "tables never shrank");
}

#[test]
fn vicinity_message_reaches_true_destination_via_hop_off() {
    let mesh = Mesh::square(5);
    let mut c = cfg(mesh);
    c.sharing = SharingConfig::FULL;
    let src = mesh.id(Coord::new(0, 2));
    let endpoint = mesh.id(Coord::new(4, 2));
    let neighbour = mesh.id(Coord::new(4, 3));
    let mut net = establish(c, src, endpoint);
    net.net.collect_delivered = true;
    net.begin_measurement();
    let mut id = 80_000;
    for _ in 0..8 {
        let now = net.now();
        net.inject(src, data(id, src, neighbour, now));
        id += 1;
        assert!(net.drain(1_500));
    }
    net.end_measurement();
    assert_eq!(net.stats().packets_delivered, 8);
    assert!(net.net.delivered_log.iter().all(|d| d.dst == neighbour));
    assert!(net.net.total_events().vicinity_rides >= 6);
}

#[test]
fn trace_reconstructs_a_circuit_lifecycle() {
    // Arm telemetry on every router, warm a circuit, send messages over it
    // and verify the trace shows the reservation at every hop, and that a
    // message crossed every hop circuit-switched.
    let mesh = Mesh::square(4);
    let src = mesh.id(Coord::new(0, 1));
    let dst = mesh.id(Coord::new(3, 1));
    let mut net = TdmNetwork::new(cfg(mesh));
    net.configure_telemetry(&TelemetryConfig::default());
    net.set_collect_delivered(true);
    let mut id = 0;
    for _ in 0..25 {
        let now = net.now();
        net.inject(src, data(id, src, dst, now));
        id += 1;
        net.run(25);
    }
    assert!(net.drain(5_000));
    let conn = *net.net.nodes[src.index()]
        .registry
        .get(dst)
        .expect("circuit");
    let report = net
        .telemetry_report()
        .expect("TDM fabrics record telemetry");
    assert_eq!(report.dropped, 0, "the rings must hold the whole run");
    let hops = mesh.hops(src, dst);

    // One reservation per router: source, intermediates and destination.
    let mut reserved_at: Vec<u32> = report
        .events
        .iter()
        .filter(|e| e.kind == EventKind::CircuitSetup && e.id == conn.path_id)
        .map(|e| e.node)
        .collect();
    assert_eq!(
        reserved_at.len() as u32,
        hops + 1,
        "one reservation per hop"
    );
    reserved_at.sort_unstable();
    reserved_at.dedup();
    assert_eq!(
        reserved_at.len() as u32,
        hops + 1,
        "one router per reservation"
    );
    assert!(reserved_at.contains(&src.0) && reserved_at.contains(&dst.0));

    // A message that rode the circuit end to end left one link per hop.
    let circuit_msg = net
        .net
        .delivered_log
        .iter()
        .find(|d| d.src == src && d.dst == dst && d.switching == Switching::Circuit)
        .expect("a message rode the circuit");
    let mut link_nodes: Vec<u32> = report
        .events
        .iter()
        .filter(|e| e.kind == EventKind::LinkTraverse && e.id == circuit_msg.id.0)
        .map(|e| e.node)
        .collect();
    link_nodes.sort_unstable();
    link_nodes.dedup();
    assert_eq!(link_nodes.len() as u32, hops, "one link crossed per hop");
}
