//! §V-B4's comparison, "not shown in Figure 8 due to the density of data
//! points": the hybrid network against a *packet-switched network with VC
//! power gating deployed*. Paper: "the hybrid-switched NoC further reduces
//! the energy consumption by 10% on average, while providing better
//! speedup … 1) dynamic energy reduction due to circuit switching, and
//! 2) static energy reduction \[because\] input buffer pressure is
//! alleviated … more buffers can be turned off."
//!
//! Also checks §V-B1's aside: "compared to packet-switched network with VC
//! power gating (not shown), 6.8% static energy saving is achieved".

use noc_bench::{format_table, quick_flag, scenario_mode_ran, sweep_mixes, BackendKind};
use noc_hetero::{mix_phases, CPU_BENCHES, GPU_BENCHES};
use noc_scenario::ScenarioSpec;

const KINDS: [BackendKind; 2] = [BackendKind::PacketVct, BackendKind::HybridTdmHopVct];

fn main() {
    if scenario_mode_ran(false) {
        return;
    }
    let quick = quick_flag();
    let phases = mix_phases(quick);
    let cpu_count = if quick { 2 } else { CPU_BENCHES.len() };

    let mut specs = Vec::new();
    for (gi, gpu) in GPU_BENCHES.iter().enumerate() {
        for (ci, cpu) in CPU_BENCHES.iter().enumerate().take(cpu_count) {
            let seed = (gi * 8 + ci) as u64 + 55;
            for kind in KINDS {
                specs.push(ScenarioSpec::hetero(kind, cpu.name, gpu.name, phases, seed));
            }
        }
    }
    let results = sweep_mixes(&specs);
    let rows: Vec<(String, f64, f64, f64)> = GPU_BENCHES
        .iter()
        .zip(results.chunks(KINDS.len() * cpu_count))
        .map(|(gpu, runs)| {
            let (mut tot, mut dynr, mut statr) = (0.0, 0.0, 0.0);
            for pair in runs.chunks(KINDS.len()) {
                let (gated, hybrid) = (&pair[0], &pair[1]);
                tot += hybrid.breakdown.saving_vs(&gated.breakdown);
                dynr += hybrid.breakdown.dynamic_saving_vs(&gated.breakdown);
                statr += hybrid.breakdown.static_saving_vs(&gated.breakdown);
            }
            let n = cpu_count as f64;
            (
                gpu.name.to_string(),
                tot / n * 100.0,
                dynr / n * 100.0,
                statr / n * 100.0,
            )
        })
        .collect();

    println!("=== §V-B4 — Hybrid-TDM-hop-VCt vs Packet-switched + VC gating ===\n");
    let mut table = Vec::new();
    let (mut t, mut d, mut st) = (0.0, 0.0, 0.0);
    for (name, tot, dynr, statr) in &rows {
        table.push(vec![
            name.clone(),
            format!("{tot:+.1}"),
            format!("{dynr:+.1}"),
            format!("{statr:+.1}"),
        ]);
        t += tot;
        d += dynr;
        st += statr;
    }
    let n = rows.len() as f64;
    table.push(vec![
        "AVG".into(),
        format!("{:+.1}", t / n),
        format!("{:+.1}", d / n),
        format!("{:+.1}", st / n),
    ]);
    println!(
        "{}",
        format_table(
            &[
                "GPU bench",
                "total saving %",
                "dynamic saving %",
                "static saving %"
            ],
            &table
        )
    );
    println!("(paper: ~10% further energy reduction on average; 6.8% static saving —");
    println!(" both from circuit switching plus the extra gating that decongested");
    println!(" buffers allow)");
}
