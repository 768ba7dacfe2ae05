//! SDM baseline integration: plane exclusivity across a network, the
//! serialisation penalty, and the plane-count ceiling under contention.

use noc_sdm::{SdmConfig, SdmNode};
use noc_sim::{Coord, Mesh, Network, NetworkConfig, NodeId, NodeModel, Packet, PacketId};

fn cfg(k: u16) -> SdmConfig {
    SdmConfig {
        net: NetworkConfig::with_mesh(Mesh::square(k)),
        ..Default::default()
    }
}

fn net(c: SdmConfig) -> Network<SdmNode> {
    Network::new(c.net.mesh, move |id| SdmNode::new(id, &c))
}

fn data(id: u64, src: NodeId, dst: NodeId, now: u64) -> Packet {
    Packet::data(PacketId(id), src, dst, 5, now)
}

#[test]
fn sdm_packet_latency_exceeds_unpartitioned_baseline() {
    // The serialisation penalty (§I: "packet serialisation delay"):
    // the same isolated packet takes visibly longer on the SDM network
    // than on the unpartitioned baseline.
    let c = cfg(5);
    let m = c.net.mesh;
    let (src, dst) = (m.id(Coord::new(0, 2)), m.id(Coord::new(4, 2)));

    let mut sdm = net(c);
    sdm.begin_measurement();
    sdm.inject(src, data(1, src, dst, 0));
    assert!(sdm.drain(2_000));
    sdm.end_measurement();
    let sdm_lat = sdm.stats.avg_latency();

    let base_cfg = c.net;
    let mut base = Network::new(m, |id| noc_sim::PacketNode::new(id, &base_cfg, None));
    base.begin_measurement();
    base.inject(src, data(1, src, dst, 0));
    assert!(base.drain(2_000));
    base.end_measurement();
    let base_lat = base.stats.avg_latency();

    assert!(
        sdm_lat > base_lat + 5.0,
        "SDM {sdm_lat} vs baseline {base_lat}: serialisation penalty missing"
    );
}

#[test]
fn circuits_on_different_planes_coexist_on_one_link() {
    // Two sources behind the same column send to two destinations through
    // shared links; both earn circuits (different planes) and both stream.
    let c = cfg(5);
    let m = c.net.mesh;
    let mut n = net(c);
    let s1 = m.id(Coord::new(0, 2));
    let s2 = m.id(Coord::new(0, 2)); // same source node, two destinations
    let d1 = m.id(Coord::new(4, 2));
    let d2 = m.id(Coord::new(3, 2));
    let mut id = 0;
    for _ in 0..40 {
        let now = n.now();
        n.inject(s1, data(id, s1, d1, now));
        id += 1;
        n.inject(s2, data(id, s2, d2, now));
        id += 1;
        n.run(25);
    }
    assert!(n.drain(8_000));
    let node = &n.nodes[s1.index()];
    assert!(node.registry.get(d1).is_some(), "first circuit missing");
    assert!(node.registry.get(d2).is_some(), "second circuit missing");
    let (p1, p2) = (
        node.registry.get(d1).unwrap().slot,
        node.registry.get(d2).unwrap().slot,
    );
    assert_ne!(
        p1, p2,
        "two circuits cannot share a plane on the same links"
    );
    let ev = n.total_events();
    assert!(ev.cs_flits_delivered > 50, "circuits unused");
}

#[test]
fn plane_exhaustion_fails_further_setups_until_capacity_frees() {
    // With 4 planes (3 circuit-capable), a fourth same-source circuit
    // cannot form.
    let c = cfg(5);
    let m = c.net.mesh;
    let mut n = net(c);
    let src = m.id(Coord::new(0, 2));
    let dsts = [
        m.id(Coord::new(4, 0)),
        m.id(Coord::new(4, 1)),
        m.id(Coord::new(4, 3)),
        m.id(Coord::new(4, 4)),
    ];
    let mut id = 0;
    for _ in 0..80 {
        for &d in &dsts {
            let now = n.now();
            n.inject(src, data(id, src, d, now));
            id += 1;
        }
        n.run(30);
    }
    assert!(n.drain(10_000));
    let established = dsts
        .iter()
        .filter(|d| n.nodes[src.index()].registry.get(**d).is_some())
        .count();
    assert!(
        established <= 3,
        "{established} circuits exceed the plane ceiling"
    );
    assert!(n.total_events().setup_failures > 0, "the ceiling never bit");
}

#[test]
fn sdm_network_is_deterministic() {
    let run = || {
        let c = cfg(4);
        let m = c.net.mesh;
        let mut n = net(c);
        let mut id = 0;
        for round in 0..60u32 {
            for src in m.nodes() {
                if (src.0 + round) % 4 == 0 {
                    let dst = NodeId((src.0 * 5 + 3) % 16);
                    if dst != src {
                        let now = n.now();
                        n.inject(src, data(id, src, dst, now));
                        id += 1;
                    }
                }
            }
            n.run(10);
        }
        n.drain(20_000);
        let ev = n.total_events();
        (
            n.stats.packets_delivered,
            ev.cs_flits_delivered,
            ev.buffer_writes,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn restore_mid_burst_rebuilds_derived_state() {
    // Checkpoint while a circuit burst is mid-stream at its source,
    // partly reassembled at its destination, and more packets wait in the
    // source's CS and PS queues. The counters and stage masks are not
    // serialised, so the restored fabric must rebuild them from the
    // authoritative state: same occupancy (which debug builds also check
    // against a full rescan), same snapshot bytes, same continuation.
    let c = cfg(4);
    let m = c.net.mesh;
    let (src, dst, ps_dst) = (
        m.id(Coord::new(0, 0)),
        m.id(Coord::new(3, 0)),
        m.id(Coord::new(0, 3)),
    );
    let mut n = net(c);
    n.collect_delivered = true;
    let mut id = 0;
    let mut send = |n: &mut Network<SdmNode>, to: NodeId| {
        let mut p = data(id, src, to, n.now());
        p.measured = true;
        n.inject(src, p);
        id += 1;
    };
    for _ in 0..20 {
        send(&mut n, dst);
        n.run(30);
    }
    assert!(n.drain(3_000));
    assert!(
        n.nodes[src.index()].registry.get(dst).is_some(),
        "no circuit"
    );
    assert!(n.nodes[src.index()].registry.get(ps_dst).is_none());

    // Two bursts on the circuit (the second queues behind the first) and
    // six packet-switched packets (more than the NIC has VC streams).
    for _ in 0..2 {
        send(&mut n, dst);
    }
    for _ in 0..6 {
        send(&mut n, ps_dst);
    }
    // The 4-flit burst leaves P = 4 cycles per flit and crosses 3 hops at
    // 2 cycles each: after 10 cycles its head has been ejected and its
    // tail is still at the source.
    n.run(10);
    let owned = |n: &Network<SdmNode>, at: NodeId| {
        let node = &n.nodes[at.index()];
        node.occupancy() - node.router.occupancy()
    };
    assert!(owned(&n, dst) > 0, "destination is not mid-reassembly");
    assert!(
        owned(&n, src) > 5 + 2 * 5,
        "source queues are not backed up"
    );

    let snap = n.checkpoint().expect("checkpoint");
    let mut restored = net(c);
    restored.restore(&snap).expect("restore");
    for at in m.nodes() {
        assert_eq!(
            restored.nodes[at.index()].occupancy(),
            n.nodes[at.index()].occupancy(),
            "occupancy of {at:?} after restore"
        );
    }
    assert_eq!(
        restored.checkpoint().expect("checkpoint").as_bytes(),
        snap.as_bytes(),
        "restored fabric re-encodes differently"
    );

    assert!(n.drain(5_000));
    assert!(restored.drain(5_000));
    assert!(!n.delivered_log.is_empty());
    assert_eq!(n.delivered_log, restored.delivered_log);
    assert_eq!(n.total_events(), restored.total_events());
}
