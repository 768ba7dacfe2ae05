//! Protocol debugging with the telemetry trace: watch a circuit get
//! reserved hop by hop, carry traffic, and get torn down.
//!
//! Run with: `cargo run --release --example trace_debugging`

use tdm_hybrid_noc::prelude::*;
use tdm_hybrid_noc::sim::{EventKind, Port, Switching, TelemetryConfig};

fn main() {
    let mesh = Mesh::square(4);
    let mut cfg = TdmConfig::vc4(NetworkConfig::with_mesh(mesh));
    cfg.slot_capacity = 16;
    cfg.policy.setup_after_msgs = 3;
    cfg.policy.idle_teardown = 300;
    cfg.policy.max_connections = 1;
    let mut net = TdmNetwork::new(cfg);
    net.configure_telemetry(&TelemetryConfig::default());
    net.set_collect_delivered(true);

    let src = NodeId(4); // (0,1)
    let dst = NodeId(7); // (3,1)
    let mut id = 0;

    // Frequent traffic earns a circuit; a later burst to another
    // destination evicts it.
    for _ in 0..15 {
        let pkt = Packet::data(PacketId(id), src, dst, 5, net.now());
        id += 1;
        net.inject(src, pkt);
        net.run(25);
    }
    net.run(400); // idle past the eviction threshold
    let dst2 = NodeId(12); // (0,3)
    for _ in 0..15 {
        let pkt = Packet::data(PacketId(id), src, dst2, 5, net.now());
        id += 1;
        net.inject(src, pkt);
        net.run(25);
    }
    assert!(net.drain(5_000));
    let report = net
        .telemetry_report()
        .expect("TDM fabrics record telemetry");

    println!("Reservation / release events (per node, in cycle order):\n");
    for node in mesh.nodes() {
        let events: Vec<String> = report
            .events
            .iter()
            .filter(|e| e.node == node.0)
            .filter_map(|e| {
                let what = match e.kind {
                    EventKind::CircuitSetup => "RESERVE",
                    EventKind::CircuitTeardown => "RELEASE",
                    _ => return None,
                };
                let in_port = Port::ALL[e.port as usize];
                Some(format!(
                    "  [{:>5}] {what}  in={in_port:?} path {:#x}",
                    e.cycle, e.id
                ))
            })
            .collect();
        if !events.is_empty() {
            println!("node {node:?}:");
            for e in &events {
                println!("{e}");
            }
        }
    }

    // Follow one circuit-switched packet end to end.
    let followed = net
        .net
        .delivered_log
        .iter()
        .find(|d| d.switching == Switching::Circuit);
    if let Some(d) = followed {
        println!("\njourney of circuit-switched packet {:?}:", d.id);
        for e in report.events.iter().filter(|e| {
            e.id == d.id.0 && matches!(e.kind, EventKind::LinkTraverse | EventKind::Eject)
        }) {
            let out = Port::ALL[e.port as usize];
            println!("  [{:>5}] {:?} → {out:?}", e.cycle, NodeId(e.node));
        }
        println!("(each flit crosses one router and one link every 2 cycles — §II-D)");
    }
}
