//! Ablation for §II-C (time-division granularity): sweep the slot-table
//! size and measure its two-sided effect — larger tables hold more circuit
//! reservations (higher CS coverage) but lengthen the wait for a slot and
//! burn more leakage.
//!
//! Run with `--quick` for fewer points.

use noc_bench::{
    format_table, paper_phases, par_map, quick_flag, scenario_mode_ran, sweep_threads_flag,
};
use noc_power::EnergyModel;
use noc_sim::{Mesh, Network, NetworkConfig, PacketNode};
use noc_traffic::{run_phases, SyntheticSource, TrafficPattern};
use tdm_noc::{TdmConfig, TdmNetwork};

fn main() {
    if scenario_mode_ran(false) {
        return;
    }
    let quick = quick_flag();
    let mesh = Mesh::square(6);
    let phases = paper_phases(quick);
    let rate = 0.15;
    let sizes: Vec<u16> = if quick {
        vec![16, 64, 256]
    } else {
        vec![8, 16, 32, 64, 128, 256]
    };

    // Baseline for the energy ratio.
    let net_cfg = NetworkConfig::with_mesh(mesh);
    let source = || SyntheticSource::new(mesh, TrafficPattern::Tornado, rate, 5, 9);
    let mut base = Network::new(mesh, |id| PacketNode::new(id, &net_cfg, None));
    let r_base = run_phases(&mut base, &mut source(), phases);
    let base_energy = EnergyModel::default().evaluate_stats(&r_base.stats);

    let results = par_map(&sizes, sweep_threads_flag(), |&s| {
        let mut cfg = TdmConfig::vc4(net_cfg);
        cfg.slot_capacity = s;
        cfg.policy.setup_after_msgs = 3;
        cfg.policy.freq_window = 2_048;
        let mut net = TdmNetwork::new(cfg);
        (s, run_phases(&mut net, &mut source(), phases))
    });

    println!("=== §II-C ablation — slot-table size, tornado @ {rate} flits/node/cycle ===");
    println!(
        "(baseline Packet-VC4 latency: {:.1} cycles)\n",
        r_base.avg_latency
    );
    let mut rows = Vec::new();
    for (s, r) in &results {
        let e = EnergyModel::default().evaluate_stats(&r.stats);
        rows.push(vec![
            s.to_string(),
            format!("{:.1}", r.avg_latency),
            format!("{:.1}", r.stats.events.cs_flit_fraction() * 100.0),
            format!("{}", r.stats.events.setup_failures),
            format!("{:+.1}", e.saving_vs(&base_energy) * 100.0),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "slots S",
                "latency (cyc)",
                "CS flits %",
                "setup fails",
                "energy saving %"
            ],
            &rows
        )
    );
    println!("Expected shape: small S → short waits but few circuits (capacity");
    println!("failures); large S → high coverage but longer slot waits and more");
    println!("table leakage — the trade-off motivating dynamic sizing (§II-C).");
}
