//! Conformance tests for the canonical packet-switched router: wormhole
//! ordering, atomic VC allocation, arbitration fairness, gating
//! advertisements, and network-level flow-control invariants.

use noc_sim::{
    Coord, Direction, Flit, GatingConfig, Mesh, Network, NetworkConfig, NodeId, NodeModel,
    NodeOutputs, NullCtrl, Packet, PacketId, PacketNode, Port, PsPipeline, RouterConfig, Switching,
};

fn flit_of(pid: u64, src: NodeId, dst: NodeId, seq: u8, len: u8, vc: u8) -> Flit {
    let p = Packet::data(PacketId(pid), src, dst, len, 0);
    let mut f = Flit::of_packet(&p, seq, Switching::Packet);
    f.vc = vc;
    f
}

fn center_pipeline() -> (Mesh, PsPipeline) {
    let m = Mesh::square(3);
    let center = m.id(Coord::new(1, 1));
    (m, PsPipeline::new(center, m, RouterConfig::default()))
}

fn replenish_credits(p: &mut PsPipeline) {
    for port in [Port::North, Port::East, Port::South, Port::West] {
        for v in 0..4u8 {
            while p.out_credit(port, v as usize) < 5 {
                p.accept_credit(port.direction().unwrap(), noc_sim::Credit { vc: v });
            }
        }
    }
}

#[test]
fn wormhole_never_interleaves_packets_on_one_out_vc() {
    // Two 4-flit packets from different input ports compete for East; the
    // emitted per-VC flit sequence must be contiguous per packet.
    let (m, mut r) = center_pipeline();
    let dst = m.id(Coord::new(2, 1));
    for s in 0..4u8 {
        r.accept_flit(
            0,
            Port::West,
            flit_of(1, m.id(Coord::new(0, 1)), dst, s, 4, 0),
        );
        r.accept_flit(
            0,
            Port::North,
            flit_of(2, m.id(Coord::new(1, 0)), dst, s, 4, 0),
        );
    }
    let mut out = NodeOutputs::default();
    let mut per_vc: std::collections::HashMap<u8, Vec<u64>> = Default::default();
    for now in 0..40 {
        out.clear();
        r.step(now, &NullCtrl, &mut out);
        for (_, f) in out.flits.drain(..) {
            per_vc.entry(f.vc).or_default().push(f.packet.0);
        }
        replenish_credits(&mut r);
    }
    let total: usize = per_vc.values().map(Vec::len).sum();
    assert_eq!(total, 8, "all flits must leave");
    for (vc, pids) in per_vc {
        // Within one downstream VC, a packet's flits are contiguous.
        let mut runs = 1;
        for w in pids.windows(2) {
            if w[0] != w[1] {
                runs += 1;
            }
        }
        let distinct: std::collections::HashSet<u64> = pids.iter().copied().collect();
        assert_eq!(
            runs,
            distinct.len(),
            "vc {vc}: packets interleaved: {pids:?}"
        );
    }
}

#[test]
fn switch_allocation_is_fair_across_input_ports() {
    // Saturate two input ports toward the same output for a long time:
    // grant counts must be roughly equal.
    let (m, mut r) = center_pipeline();
    let dst = m.id(Coord::new(2, 1));
    let mut sent = [0u64; 2];
    let mut pid = 0;
    let mut got = [0u64; 2];
    let srcs = [m.id(Coord::new(0, 1)), m.id(Coord::new(1, 0))];
    let ports = [Port::West, Port::North];
    let mut out = NodeOutputs::default();
    for now in 0..2_000 {
        for (i, &port) in ports.iter().enumerate() {
            if r.vc_len(port, 0) < 5 {
                r.accept_flit(now, port, flit_of(pid, srcs[i], dst, 0, 1, 0));
                pid += 1;
                sent[i] += 1;
            }
        }
        out.clear();
        r.step(now, &NullCtrl, &mut out);
        for (_, f) in out.flits.drain(..) {
            // Identify source port by src coordinate.
            if f.src() == srcs[0] {
                got[0] += 1;
            } else {
                got[1] += 1;
            }
        }
        replenish_credits(&mut r);
    }
    let ratio = got[0] as f64 / got[1] as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "unfair arbitration: {got:?} (sent {sent:?})"
    );
}

#[test]
fn vc_count_advertisements_propagate_through_harness() {
    // Gating at one node must inform its neighbours within a few cycles.
    let cfg = NetworkConfig::with_mesh(Mesh::square(2));
    let gate_cfg = GatingConfig {
        epoch: 16,
        ..Default::default()
    };
    let mut net = Network::new(cfg.mesh, |id| {
        // Only node 0 gates.
        let g = if id == NodeId(0) {
            Some(gate_cfg)
        } else {
            None
        };
        PacketNode::new(id, &cfg, g)
    });
    net.run(100); // idle: node 0 gates down to min_vcs
                  // Node 1 is node 0's east neighbour; its West output must advertise
                  // node 0's reduced VC count.
    let n1 = &net.nodes[1];
    assert_eq!(
        n1.router.pipeline.downstream_vcs(Port::West),
        gate_cfg.min_vcs,
        "advertisement did not reach the neighbour"
    );
    // Unaffected directions keep the full count at other nodes.
    let n3 = &net.nodes[3];
    assert_eq!(
        n3.router.pipeline.downstream_vcs(Port::West),
        cfg.router.vcs_per_port
    );
}

#[test]
fn traffic_to_gated_node_still_flows() {
    let cfg = NetworkConfig::with_mesh(Mesh::square(3));
    let gate_cfg = GatingConfig {
        epoch: 16,
        min_vcs: 1,
        ..Default::default()
    };
    let mut net = Network::new(cfg.mesh, |id| PacketNode::new(id, &cfg, Some(gate_cfg)));
    net.run(200); // everything gates down
    net.begin_measurement();
    let mut id = 0;
    for src in cfg.mesh.nodes() {
        for dst in cfg.mesh.nodes() {
            if src != dst {
                net.inject(src, Packet::data(PacketId(id), src, dst, 5, net.now()));
                id += 1;
            }
        }
    }
    assert!(net.drain(20_000), "gated network must still deliver");
    net.end_measurement();
    assert_eq!(net.stats.packets_delivered, id);
}

#[test]
fn head_of_line_packet_does_not_block_other_vcs() {
    // VC0 heads to a credit-starved output; VC1 to a free one. VC1's
    // packet must still get through (that is what VCs are for).
    let (m, mut r) = center_pipeline();
    let east = m.id(Coord::new(2, 1));
    let south = m.id(Coord::new(1, 2));
    let west_src = m.id(Coord::new(0, 1));
    // Fill East: 4 packets of 5 flits on all 4 VCs, no credits returned.
    let mut pid = 100;
    let mut out = NodeOutputs::default();
    for _ in 0..30 {
        for vc in 0..4u8 {
            if r.vc_len(Port::North, vc as usize) < 5 {
                r.accept_flit(
                    0,
                    Port::North,
                    flit_of(pid, m.id(Coord::new(1, 0)), east, 0, 1, vc),
                );
                pid += 1;
            }
        }
        out.clear();
        r.step(0, &NullCtrl, &mut out);
    }
    // East is now credit-starved. A West→South packet on vc1 must pass.
    r.accept_flit(40, Port::West, flit_of(7, west_src, south, 0, 1, 1));
    let mut delivered = false;
    for now in 41..60 {
        out.clear();
        r.step(now, &NullCtrl, &mut out);
        if out
            .flits
            .iter()
            .any(|(d, f)| *d == Direction::South && f.packet == PacketId(7))
        {
            delivered = true;
            break;
        }
    }
    assert!(
        delivered,
        "unrelated traffic was blocked by a stalled output"
    );
}

#[test]
fn config_packets_route_adaptively_around_congestion() {
    // With East congested, a config packet with both E and S productive
    // must pick South (west-first allows any minimal direction once no
    // West hop remains).
    let m = Mesh::square(4);
    let src = m.id(Coord::new(1, 0));
    let mut r = PsPipeline::new(src, m, RouterConfig::default());
    // Starve East of credits entirely (packets drain until all four
    // downstream VCs run out; none are ever returned).
    let mut out = NodeOutputs::default();
    let mut pid = 0;
    for now in 0..40u64 {
        if r.vc_len(Port::West, 0) < 5 {
            r.accept_flit(
                now,
                Port::West,
                flit_of(pid, m.id(Coord::new(0, 0)), m.id(Coord::new(3, 0)), 0, 1, 0),
            );
            pid += 1;
        }
        out.clear();
        r.step(now, &NullCtrl, &mut out);
        // No credits returned for East.
    }
    // At least one East VC is drained and parked with zero credits, so
    // East's congestion score is strictly below South's.
    assert!(r.port_score(Port::East) < r.port_score(Port::South));
    // A config packet from here to (3,2): E and S both minimal; neither
    // is a West hop, so both are west-first-legal; S has far more credit.
    let dst = m.id(Coord::new(3, 2));
    let info = noc_sim::SetupInfo {
        src,
        dst,
        slot: 0,
        duration: 4,
        path_id: 1,
    };
    let p = Packet::config(
        PacketId(999),
        src,
        dst,
        noc_sim::ConfigKind::Setup(info),
        50,
    );
    let mut f = Flit::of_packet(&p, 0, Switching::Packet);
    f.vc = 3;
    r.accept_flit(50, Port::Local, f);
    let mut dir = None;
    for now in 50..70 {
        out.clear();
        r.step(now, &NullCtrl, &mut out);
        if let Some((d, f)) = out.flits.iter().find(|(_, f)| f.packet == PacketId(999)) {
            // The payload rides through the pipeline untouched.
            assert_eq!(f.config(), Some(noc_sim::ConfigKind::Setup(info)));
            dir = Some(*d);
            break;
        }
    }
    assert_eq!(
        dir,
        Some(Direction::South),
        "config packet did not avoid congestion"
    );
}

#[test]
fn packet_node_inject_to_delivery_roundtrip() {
    let cfg = NetworkConfig::with_mesh(Mesh::square(3));
    let mut node = PacketNode::new(NodeId(4), &cfg, None); // center
                                                           // Inject a packet addressed to this very node: it must go out the
                                                           // local port and come back... no — local destination short-circuits
                                                           // through the router's local output.
    node.inject(0, Packet::data(PacketId(1), NodeId(4), NodeId(4), 3, 0));
    let mut out = NodeOutputs::default();
    let mut sink = Vec::new();
    for now in 0..30 {
        out.clear();
        node.step(now, &mut out);
        node.drain_delivered(&mut sink);
        if !sink.is_empty() {
            break;
        }
    }
    assert_eq!(sink.len(), 1);
    assert!(
        out.flits.is_empty(),
        "self-addressed packet must not leave the node"
    );
    assert_eq!(sink[0].len_flits, 3);
}
