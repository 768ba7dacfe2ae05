//! Scalability scenario (§IV-D): the same transpose workload on growing
//! meshes, comparing the hybrid network's throughput and energy to the
//! baseline. Larger networks get 256-entry slot tables, as in the paper.
//!
//! Run with: `cargo run --release --example scalability [--big]`
//! (`--big` adds the 16×16 mesh; it takes a few minutes.)

use tdm_hybrid_noc::prelude::*;

fn sat_goodput(mesh: Mesh, tdm: bool, rate: f64) -> (f64, f64, EnergyBreakdown) {
    let net_cfg = NetworkConfig::with_mesh(mesh);
    let phases = PhaseConfig {
        warmup_cycles: 2_000,
        warmup_packets: 1_000,
        measure_cycles: 8_000,
        measure_packets: 60_000,
        drain_cycles: 4_000,
    };
    let mut source = SyntheticSource::new(mesh, TrafficPattern::Transpose, rate, 5, 77);
    let (result, stats) = if tdm {
        let mut cfg = TdmConfig::vct(net_cfg);
        cfg.slot_capacity = if mesh.len() > 64 { 256 } else { 128 };
        cfg.policy.setup_after_msgs = 3;
        cfg.policy.freq_window = 2_048;
        let mut net = TdmNetwork::new(cfg);
        let r = run_phases(&mut net.net, &mut source, phases);
        let s = r.stats.clone();
        (r, s)
    } else {
        let mut net = Network::new(mesh, |id| PacketNode::new(id, &net_cfg, None));
        let r = run_phases(&mut net, &mut source, phases);
        let s = r.stats.clone();
        (r, s)
    };
    let goodput =
        stats.packets_delivered as f64 * 5.0 / (stats.measured_cycles as f64 * mesh.len() as f64);
    (
        goodput,
        result.avg_latency,
        EnergyModel::default().evaluate_stats(&stats),
    )
}

fn main() {
    let big = std::env::args().any(|a| a == "--big");
    let mut sizes = vec![6u16, 8];
    if big {
        sizes.push(16);
    }
    println!("transpose traffic, offered at 60% of each mesh's baseline capacity\n");
    println!(
        "{:>6} {:>14} {:>14} {:>16} {:>16}",
        "mesh", "base goodput", "TDM goodput", "TDM Δthroughput", "TDM Δenergy"
    );
    for k in sizes {
        let mesh = Mesh::square(k);
        // Probe a mid-load point scaled by mesh size (bisection shrinks
        // relative to node count as k grows).
        let rate = 1.2 / k as f64;
        let (gb, _, eb) = sat_goodput(mesh, false, rate);
        let (gt, _, et) = sat_goodput(mesh, true, rate);
        println!(
            "{:>4}x{:<2} {:>14.3} {:>14.3} {:>15.1}% {:>15.1}%",
            k,
            k,
            gb,
            gt,
            (gt / gb - 1.0) * 100.0,
            et.saving_vs(&eb) * 100.0
        );
    }
    println!("\n(§IV-D: for regular patterns the hybrid network keeps its advantage");
    println!("as the mesh grows; uniform-random benefits shrink because pair counts");
    println!("grow quadratically while the slot tables do not.)");
}
