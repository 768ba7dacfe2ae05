//! Exhaustive phase-2 schedule permutation on a hybrid fabric.
//!
//! The determinism contract (`noc_sim::network` module docs) says any
//! node-visit order gives the same run, checkpoint bytes included.
//! noc-sim pins it on packet-switched nodes; this test pins it where
//! configuration messages travel: a 2×2 Hybrid-TDM-VC4 fabric whose
//! `setup`s, `ack`s and circuits are all in play. Every one of the 4! = 24
//! node-visit orders must write byte-identical `NOCSNAP` checkpoints after
//! 40 cycles (setups in flight), 400 (circuits carrying flits) and 2,000
//! (drained), with equal delivery and circuit counters. Runs only with
//! `--features exhaustive` (wired into `scripts/ci.sh`).
#![cfg(feature = "exhaustive")]

use noc_sim::{Fabric, Mesh, NetworkConfig, NodeId, Packet, PacketId};
use tdm_noc::{TdmConfig, TdmNetwork};

const CHECKPOINTS: [u64; 3] = [40, 400, 2_000];

/// At each checkpoint cycle: the checkpoint bytes, then packets
/// delivered, setup attempts and circuit-switched flits delivered.
/// For the first half of the run every node sends a 5-flit packet to its
/// diagonal every 6 cycles, often enough to set up circuits.
fn run(order: Option<Vec<usize>>) -> Vec<(Vec<u8>, [u64; 3])> {
    let mesh = Mesh::square(2);
    let mut tdm = TdmNetwork::new(TdmConfig::vc4(NetworkConfig::with_mesh(mesh)));
    tdm.net.set_step_order(order);
    let end = CHECKPOINTS[2];
    let mut next_id = 0;
    let mut out = Vec::new();
    while tdm.now() < end {
        let now = tdm.now();
        if now < end / 2 && now.is_multiple_of(6) {
            for s in 0..4 {
                let pkt = Packet::data(PacketId(next_id), NodeId(s), NodeId(3 - s), 5, now);
                tdm.inject(NodeId(s), pkt);
                next_id += 1;
            }
        }
        tdm.step();
        if CHECKPOINTS.contains(&tdm.now()) {
            let snap = Fabric::checkpoint(&tdm).expect("checkpoint");
            let ev = tdm.net.total_events();
            let counts = [
                tdm.stats().packets_delivered,
                ev.setup_attempts,
                ev.cs_flits_delivered,
            ];
            out.push((snap.as_bytes().to_vec(), counts));
        }
    }
    assert!(tdm.net.is_drained(), "the run must end drained");
    out
}

#[test]
fn all_schedule_permutations_write_identical_hybrid_checkpoints() {
    let canon = run(None);
    let [_, setups_40, cs_40] = canon[0].1;
    assert!(setups_40 > 0 && cs_40 == 0, "setups in flight at 40");
    assert!(canon[1].1[2] > 0, "circuits carry flits by 400");
    // Every 4-digit base-4 number with distinct digits is a visit order.
    let orders: Vec<Vec<usize>> = (0..256)
        .map(|k| (0..4).map(|d| (k >> (2 * d)) & 3).collect())
        .filter(|p: &Vec<usize>| (0..4).all(|i| p.contains(&i)))
        .collect();
    assert_eq!(orders.len(), 24);
    for perm in orders {
        let got = run(Some(perm.clone()));
        for (at, ((snap, counts), (canon_snap, canon_counts))) in
            CHECKPOINTS.iter().zip(got.iter().zip(&canon))
        {
            assert_eq!(
                counts, canon_counts,
                "counters diverged at {at} under {perm:?}"
            );
            assert!(
                snap == canon_snap,
                "checkpoint bytes diverged at {at} under {perm:?}"
            );
        }
    }
}
