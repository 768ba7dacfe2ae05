//! Ring-datapath fault and restore pins (DESIGN.md §17).
//!
//! Every VC FIFO is a fixed-depth ring in its router's own
//! [`FlitRings`](noc_sim::FlitRings), so two seams deserve their own pins:
//!
//! * the fault purge sweeps flits *out of the rings* — a permanent link
//!   kill on the TDM backend catches data, config and CS flits resident
//!   in rings, and after the drain the config arena holds zero live
//!   payload allocations (every swept config flit released its ref);
//! * ring `head`/`len` counters survive a mid-packet checkpoint→restore
//!   — a snapshot taken while wormholes occupy rings (heads rotated by
//!   prior traffic) restores into a fresh fabric that continues
//!   bit-identically to the original.

use noc_bench::{BackendKind, ScenarioSpec};
use noc_sim::{
    Direction, FaultEvent, Mesh, Network, NetworkConfig, NodeId, Packet, PacketId, PacketNode,
};
use noc_traffic::{run_phases, PhaseConfig, TrafficPattern};

/// Permanent mid-run link kill on the hybrid backend at a loaded point:
/// flits die inside VC rings (not just on wires), the repair FSM tears
/// circuits down, survivors drain around the dead link, and the arena
/// leaks nothing.
#[test]
fn permanent_fault_sweep_on_slab_rings_frees_arena() {
    let spec = ScenarioSpec::synthetic(
        BackendKind::HybridTdmVc4,
        4,
        TrafficPattern::Transpose,
        0.20,
        PhaseConfig::quick(),
        17,
    )
    .with_faults(vec![FaultEvent {
        at: 1_500,
        node: 5,
        dir: Direction::East,
        up: false,
    }]);
    let mut fabric = spec.build_fabric().expect("builds");
    fabric
        .set_faults(spec.faults.clone())
        .expect("tdm backend takes faults");
    let mut source = spec.build_source().expect("synthetic source");
    let result = run_phases(fabric.as_mut(), &mut source, spec.phases);

    assert_eq!(result.stats.link_down_events, 1, "one directed kill");
    assert!(
        result.stats.flits_dropped_fault > 0,
        "a loaded kill must catch flits resident in VC rings"
    );
    assert!(
        result.stats.packets_delivered > 100,
        "survivors keep flowing around the dead link"
    );
    assert!(fabric.drain(20_000), "survivors must drain");
    assert_eq!(
        fabric.arena_live(),
        0,
        "flits swept from VC rings leaked config-arena refs"
    );
}

/// Deterministic multi-length traffic that keeps wormholes in flight.
fn drive(net: &mut Network<PacketNode>, cycles: u64, inject: bool, next_id: &mut u64) {
    let n = 64u64;
    for c in 0..cycles {
        if inject {
            for s in (0..n).step_by(3) {
                let dst = (s * 17 + c) % n;
                if dst == s {
                    continue;
                }
                let pkt = Packet::data(
                    PacketId(*next_id),
                    NodeId(s as u32),
                    NodeId(dst as u32),
                    1 + ((s + c) % 5) as u8,
                    net.now(),
                );
                *next_id += 1;
                net.inject(NodeId(s as u32), pkt);
            }
        }
        net.step();
    }
}

/// Checkpoint taken mid-packet — rings non-empty, heads rotated by the
/// preceding hundreds of cycles of wormhole churn — restores into a
/// fresh fabric whose continuation is byte-identical to the original's.
#[test]
fn mid_packet_checkpoint_restores_ring_counters() {
    let mesh = Mesh::square(8);
    let cfg = NetworkConfig::with_mesh(mesh);
    let mut net = Network::new(mesh, |id| PacketNode::new(id, &cfg, None));
    let mut next_id = 0u64;
    drive(&mut net, 300, true, &mut next_id);
    assert!(
        net.total_occupancy() > 0,
        "checkpoint must land mid-packet (flits resident in rings)"
    );
    let snap = net.checkpoint().expect("mid-packet checkpoint");

    let mut restored = Network::new(mesh, |id| PacketNode::new(id, &cfg, None));
    restored.restore(&snap).expect("mid-packet restore");

    // Same continuation on both fabrics: inject a second wave, then let
    // everything drain. Identical end-state checkpoints pin every ring's
    // restored FIFO content and the head/len counters that schedule it.
    let mut id_a = next_id;
    let mut id_b = next_id;
    drive(&mut net, 200, true, &mut id_a);
    drive(&mut restored, 200, true, &mut id_b);
    assert!(net.drain(20_000) && restored.drain(20_000), "both drain");
    assert_eq!(
        net.stats.packets_delivered, restored.stats.packets_delivered,
        "restored run delivered a different packet count"
    );
    let end_a = net.checkpoint().expect("end checkpoint");
    let end_b = restored.checkpoint().expect("end checkpoint");
    assert_eq!(
        end_a.as_bytes(),
        end_b.as_bytes(),
        "continuation diverged after mid-packet restore"
    );
}
