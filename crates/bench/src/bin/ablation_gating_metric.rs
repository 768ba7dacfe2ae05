//! Ablation for §V-B4's closing suggestion: drive the aggressive VC power
//! gating from packet latency instead of VC utilisation ("activating and
//! deactivating VCs based on more accurate metrics, for example, packet
//! latency, will ensure better performance").
//!
//! Compares no gating, utilisation-driven gating (§III-B) and
//! latency-driven gating on the packet-switched network — where the
//! delivered-packet latency actually reflects buffer pressure. (On the
//! hybrid network a naive latency signal conflates circuit slot-waits with
//! congestion and mis-tunes the VCs; see the discussion in EXPERIMENTS.md.)

use noc_bench::{
    format_table, paper_phases, par_map, quick_flag, scenario_mode_ran, sweep_threads_flag,
};
use noc_power::EnergyModel;
use noc_sim::{GatingConfig, Mesh, Network, NetworkConfig, PacketNode};
use noc_traffic::{run_phases, SyntheticSource, TrafficPattern};

fn main() {
    if scenario_mode_ran(false) {
        return;
    }
    let quick = quick_flag();
    let mesh = Mesh::square(6);
    let phases = paper_phases(quick);
    let rates = if quick {
        vec![0.05, 0.15, 0.30]
    } else {
        vec![0.05, 0.10, 0.15, 0.22, 0.30]
    };

    let variants: [(&str, Option<GatingConfig>); 3] = [
        ("no gating", None),
        ("utilisation (§III-B)", Some(GatingConfig::default())),
        ("latency (§V-B4)", Some(GatingConfig::latency_based(35))),
    ];

    let jobs: Vec<(usize, f64)> = (0..variants.len())
        .flat_map(|v| rates.iter().map(move |&r| (v, r)))
        .collect();
    let results = par_map(&jobs, sweep_threads_flag(), |&(v, rate)| {
        let net_cfg = NetworkConfig::with_mesh(mesh);
        let gating = variants[v].1;
        let mut net = Network::new(mesh, move |id| PacketNode::new(id, &net_cfg, gating));
        let mut source = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, rate, 5, 19);
        (v, rate, run_phases(&mut net, &mut source, phases))
    });

    println!("=== §V-B4 ablation — VC gating metric, packet network, UR traffic ===\n");
    for (v, (label, _)) in variants.iter().enumerate() {
        let mut rows = Vec::new();
        let base = |rate: f64| {
            results
                .iter()
                .find(|(vv, r, _)| *vv == 0 && (*r - rate).abs() < 1e-9)
                .map(|(_, _, res)| res)
                .expect("baseline present")
        };
        for &rate in &rates {
            let r = results
                .iter()
                .find(|(vv, rr, _)| *vv == v && (*rr - rate).abs() < 1e-9)
                .map(|(_, _, res)| res)
                .expect("present");
            let b = base(rate);
            let model = EnergyModel::default();
            let saving = model
                .evaluate_stats(&r.stats)
                .saving_vs(&model.evaluate_stats(&b.stats))
                * 100.0;
            rows.push(vec![
                format!("{rate:.2}"),
                format!("{:.1}", r.avg_latency),
                format!("{}", r.stats.latency_hist.quantile(0.99).unwrap_or(0)),
                format!("{saving:+.1}"),
            ]);
        }
        println!("--- {label} ---");
        println!(
            "{}",
            format_table(
                &[
                    "rate",
                    "avg latency",
                    "p99 latency ≤",
                    "energy vs no-gating %"
                ],
                &rows
            )
        );
    }
    println!("Expected shape: both metrics save energy at low load with little");
    println!("latency cost; the latency metric reacts to the end-to-end effect");
    println!("and so tolerates bursts better near its target.");
}
