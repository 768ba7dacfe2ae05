//! Exhaustive phase-2 schedule permutation (DESIGN.md §17).
//!
//! The determinism contract (see `network.rs` module docs) rests on phase
//! 2 — the node-stepping loop — being order-independent: each node reads
//! only its own VC rings, NIC, and outbox. This test *proves* the claim
//! on a 2×2 fabric by enumerating all 4! = 24 node-visit permutations and
//! asserting observational equivalence with the canonical ascending
//! order: identical delivery stats and a byte-identical `NOCSNAP`
//! checkpoint after every run. Runs only with `--features exhaustive`
//! (wired into `scripts/ci.sh`).
#![cfg(feature = "exhaustive")]

use noc_sim::{Mesh, Network, NetworkConfig, NodeId, Packet, PacketId, PacketNode};

/// Deterministic traffic: every cycle in the injection window, each node
/// sends a packet across the diagonal (transpose on 2×2) plus a rotating
/// neighbour target, mixing short and long packets so wormholes interleave
/// and every VC/ring sees multi-cycle occupancy.
fn drive(net: &mut Network<PacketNode>, cycles: u64) {
    let n = 4u64;
    let mut next_id = 0u64;
    for c in 0..cycles {
        if c < cycles / 2 {
            for s in 0..n {
                let dst = if c % 3 == 0 { (s + 1) % n } else { n - 1 - s };
                if dst == s {
                    continue;
                }
                let len = 1 + ((s + c) % 5) as u8;
                let pkt = Packet::data(
                    PacketId(next_id),
                    NodeId(s as u32),
                    NodeId(dst as u32),
                    len,
                    net.now(),
                );
                next_id += 1;
                net.inject(NodeId(s as u32), pkt);
            }
        }
        net.step();
    }
}

/// Heap's algorithm, iterative: all permutations of `0..4`.
fn permutations() -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut a = vec![0usize, 1, 2, 3];
    let mut c = [0usize; 4];
    out.push(a.clone());
    let mut i = 0;
    while i < 4 {
        if c[i] < i {
            if i % 2 == 0 {
                a.swap(0, i);
            } else {
                a.swap(c[i], i);
            }
            out.push(a.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    assert_eq!(out.len(), 24);
    out
}

fn run(order: Option<Vec<usize>>) -> (Vec<u8>, u64, u64) {
    let mesh = Mesh::square(2);
    let cfg = NetworkConfig::with_mesh(mesh);
    let mut net = Network::new(mesh, |id| PacketNode::new(id, &cfg, None));
    net.set_step_order(order);
    drive(&mut net, 400);
    let snap = net.checkpoint().expect("checkpoint");
    (
        snap.as_bytes().to_vec(),
        net.stats.packets_delivered,
        net.stats.flits_delivered,
    )
}

#[test]
fn all_schedule_permutations_are_observationally_equivalent() {
    let (canon_snap, canon_pkts, canon_flits) = run(None);
    assert!(canon_pkts > 100, "fabric carried too little traffic");
    for perm in permutations() {
        let (snap, pkts, flits) = run(Some(perm.clone()));
        assert_eq!(pkts, canon_pkts, "delivery count diverged under {perm:?}");
        assert_eq!(flits, canon_flits, "flit count diverged under {perm:?}");
        assert_eq!(
            snap, canon_snap,
            "checkpoint bytes diverged under schedule {perm:?}"
        );
    }
}
