//! Quickstart: build a 36-node TDM hybrid-switched mesh (Table I
//! parameters), run uniform-random traffic against the packet-switched
//! baseline, and print latency, circuit usage and the energy comparison.
//!
//! Run with: `cargo run --release --example quickstart`

use tdm_hybrid_noc::prelude::*;

fn main() {
    let mesh = Mesh::square(6);
    let net_cfg = NetworkConfig::with_mesh(mesh);
    let rate = 0.15; // flits/node/cycle
    let phases = PhaseConfig {
        warmup_cycles: 2_000,
        warmup_packets: 1_000,
        measure_cycles: 10_000,
        measure_packets: 50_000,
        drain_cycles: 5_000,
    };

    // --- baseline: canonical 4-VC packet-switched routers -----------------
    let mut base_net = Network::new(mesh, |id| PacketNode::new(id, &net_cfg, None));
    let mut source = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, rate, 5, 42);
    let base = run_phases(&mut base_net, &mut source, phases);

    // --- the paper's network: TDM hybrid switching ------------------------
    let mut tdm_cfg = TdmConfig::vct(net_cfg); // hybrid + VC power gating
    tdm_cfg.policy.setup_after_msgs = 3;
    tdm_cfg.policy.freq_window = 2_048;
    let mut tdm_net = TdmNetwork::new(tdm_cfg);
    let mut source = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, rate, 5, 42);
    let tdm = run_phases(&mut tdm_net.net, &mut source, phases);

    let model = EnergyModel::default();
    let base_energy = model.evaluate_stats(&base.stats);
    let tdm_energy = model.evaluate_stats(&tdm.stats);

    println!("36-node mesh, uniform random @ {rate} flits/node/cycle\n");
    println!("                         Packet-VC4    Hybrid-TDM-VCt");
    println!(
        "avg packet latency     {:>8.1} cyc    {:>8.1} cyc",
        base.avg_latency, tdm.avg_latency
    );
    println!(
        "accepted throughput    {:>8.3}        {:>8.3}  (flits/node/cycle)",
        base.throughput, tdm.throughput
    );
    println!(
        "circuit-switched flits {:>7.1}%        {:>7.1}%",
        base.stats.events.cs_flit_fraction() * 100.0,
        tdm.stats.events.cs_flit_fraction() * 100.0
    );
    println!(
        "network energy         {:>8.2e}      {:>8.2e}  (pJ)",
        base_energy.total_pj(),
        tdm_energy.total_pj()
    );
    println!(
        "\nenergy saving vs baseline: {:+.1}%",
        tdm_energy.saving_vs(&base_energy) * 100.0
    );
    println!(
        "time-slot steals: {}, path setups: {} ({} failed)",
        tdm.stats.events.slots_stolen,
        tdm.stats.events.setup_attempts,
        tdm.stats.events.setup_failures
    );
}
