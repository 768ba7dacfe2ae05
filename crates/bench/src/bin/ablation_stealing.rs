//! Ablation for §II-D (time-slot stealing): with stealing disabled, every
//! reserved-but-idle slot blocks the packet-switched network, wasting the
//! bandwidth the circuits are not using.

use noc_bench::{
    format_table, paper_phases, par_map, quick_flag, scenario_mode_ran, sweep_threads_flag,
};
use noc_sim::{Mesh, NetworkConfig};
use noc_traffic::{run_phases, SyntheticSource, TrafficPattern};
use tdm_noc::{TdmConfig, TdmNetwork};

fn main() {
    if scenario_mode_ran(false) {
        return;
    }
    let quick = quick_flag();
    let mesh = Mesh::square(6);
    let phases = paper_phases(quick);
    let rates = if quick {
        vec![0.15, 0.30, 0.45]
    } else {
        vec![0.10, 0.15, 0.22, 0.30, 0.38, 0.45]
    };

    let jobs: Vec<(bool, f64)> = [true, false]
        .into_iter()
        .flat_map(|s| rates.iter().map(move |&r| (s, r)))
        .collect();
    let results = par_map(&jobs, sweep_threads_flag(), |&(stealing, rate)| {
        let mut cfg = TdmConfig::vc4(NetworkConfig::with_mesh(mesh));
        cfg.time_slot_stealing = stealing;
        cfg.policy.setup_after_msgs = 3;
        cfg.policy.freq_window = 2_048;
        let mut net = TdmNetwork::new(cfg);
        let mut source = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, rate, 5, 13);
        (stealing, rate, run_phases(&mut net, &mut source, phases))
    });

    println!("=== §II-D ablation — time-slot stealing, uniform-random traffic ===\n");
    let mut rows = Vec::new();
    for &rate in &rates {
        let get = |s: bool| {
            results
                .iter()
                .find(|(st, r, _)| *st == s && (*r - rate).abs() < 1e-9)
                .map(|(_, _, res)| res)
                .expect("present")
        };
        let on = get(true);
        let off = get(false);
        rows.push(vec![
            format!("{rate:.2}"),
            format!(
                "{:.1}{}",
                on.avg_latency,
                if on.saturated { "*" } else { "" }
            ),
            format!(
                "{:.1}{}",
                off.avg_latency,
                if off.saturated { "*" } else { "" }
            ),
            format!("{}", on.stats.events.slots_stolen),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "rate",
                "latency, stealing ON",
                "latency, stealing OFF",
                "slots stolen"
            ],
            &rows
        )
    );
    println!("(* = saturated). Stealing returns idle reserved slots to the");
    println!("packet-switched traffic, keeping latency flat where the");
    println!("no-stealing network collapses.");
}
