//! Table III: GPU traffic injection ratio and the percentage of flits that
//! are circuit-switched under Hybrid-TDM-VC4, per GPU benchmark (averaged
//! over the CPU benchmarks it is mixed with).

use noc_bench::{format_table, quick_flag, scenario_mode_ran, sweep_mixes, BackendKind};
use noc_hetero::{mix_phases, CPU_BENCHES, GPU_BENCHES};
use noc_scenario::ScenarioSpec;

/// Paper values for reference output.
const PAPER: [(&str, f64, f64); 7] = [
    ("BLACKSCHOLES", 0.18, 55.7),
    ("HOTSPOT", 0.09, 29.1),
    ("LIB", 0.20, 34.4),
    ("LPS", 0.20, 55.0),
    ("NN", 0.18, 38.9),
    ("PATHFINDER", 0.13, 49.1),
    ("STO", 0.05, 18.5),
];

fn main() {
    if scenario_mode_ran(false) {
        return;
    }
    let quick = quick_flag();
    let phases = mix_phases(quick);
    // Average each GPU benchmark over a set of CPU mixes.
    let cpu_count = if quick { 2 } else { CPU_BENCHES.len() };
    let specs: Vec<ScenarioSpec> = GPU_BENCHES
        .iter()
        .flat_map(|gpu| {
            CPU_BENCHES[..cpu_count]
                .iter()
                .enumerate()
                .map(move |(ci, cpu)| {
                    ScenarioSpec::hetero(
                        BackendKind::HybridTdmVc4,
                        cpu.name,
                        gpu.name,
                        phases,
                        100 + ci as u64,
                    )
                })
        })
        .collect();
    let runs = sweep_mixes(&specs);
    let results: Vec<(usize, f64, f64)> = runs
        .chunks(cpu_count)
        .enumerate()
        .map(|(gi, mixes)| {
            let mut inj = 0.0;
            let mut cs = 0.0;
            for r in mixes {
                inj += r.gpu_injection;
                cs += r.cs_flit_fraction;
            }
            let n = cpu_count as f64;
            (gi, inj / n, cs / n * 100.0)
        })
        .collect();

    println!("=== Table III — GPU injection ratio and circuit-switched flit percentage (Hybrid-TDM-VC4) ===");
    let mut rows = Vec::new();
    for (gi, inj, cs) in results {
        let (name, p_inj, p_cs) = PAPER[gi];
        rows.push(vec![
            name.to_string(),
            format!("{inj:.2}"),
            format!("{p_inj:.2}"),
            format!("{cs:.1}"),
            format!("{p_cs:.1}"),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "GPU benchmark",
                "inj (model)",
                "inj (paper)",
                "CS % (model)",
                "CS % (paper)"
            ],
            &rows
        )
    );
}
