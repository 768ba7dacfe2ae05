//! Figure 9: detailed network energy breakdown for Hybrid-TDM-hop-VCt vs
//! Packet-VC4, grouped by GPU benchmark (each bar averages over CPU
//! applications): (a) dynamic energy — input buffers, circuit-switching
//! components, crossbar, arbiters, clock, links; (b) static energy —
//! buffers, CS components, fixed logic.
//!
//! Paper numbers to approach: buffer dynamic energy −51.3 % on average,
//! CS dynamic overhead 0.6 %, total dynamic −20.8 %; static −17.3 % with
//! 2.1 % CS static overhead.

use noc_bench::{format_table, quick_flag, scenario_mode_ran, sweep_mixes, BackendKind};
use noc_hetero::{mix_phases, CPU_BENCHES, GPU_BENCHES};
use noc_power::EnergyBreakdown;
use noc_scenario::ScenarioSpec;

const KINDS: [BackendKind; 2] = [BackendKind::PacketVc4, BackendKind::HybridTdmHopVct];

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
            let seed = (gi * 8 + ci) as u64 + 77;
            for kind in KINDS {
                specs.push(ScenarioSpec::hetero(kind, cpu.name, gpu.name, phases, seed));
            }
        }
    }
    let results = sweep_mixes(&specs);
    // Per GPU benchmark: baseline and hybrid breakdowns summed over its
    // CPU mixes, in mix order.
    let per_gpu: Vec<(usize, EnergyBreakdown, EnergyBreakdown)> = results
        .chunks(KINDS.len() * cpu_count)
        .enumerate()
        .map(|(gi, runs)| {
            let mut base_sum = EnergyBreakdown::default();
            let mut hyb_sum = EnergyBreakdown::default();
            for pair in runs.chunks(KINDS.len()) {
                base_sum = add(base_sum, pair[0].breakdown);
                hyb_sum = add(hyb_sum, pair[1].breakdown);
            }
            (gi, base_sum, hyb_sum)
        })
        .collect();

    println!("=== Figure 9(a) — dynamic energy, Hybrid-TDM-hop-VCt relative to Packet-VC4 ===");
    let mut rows = Vec::new();
    let (mut tb, mut th) = (EnergyBreakdown::default(), EnergyBreakdown::default());
    for &(gi, b, h) in &per_gpu {
        tb = add(tb, b);
        th = add(th, h);
        rows.push(vec![
            GPU_BENCHES[gi].name.to_string(),
            pct(h.buffer_dyn_pj, b.buffer_dyn_pj),
            share(h.cs_dyn_pj, h.dynamic_pj()),
            pct(h.xbar_dyn_pj, b.xbar_dyn_pj),
            pct(h.arb_dyn_pj, b.arb_dyn_pj),
            pct(h.link_dyn_pj, b.link_dyn_pj),
            pct(h.dynamic_pj(), b.dynamic_pj()),
        ]);
    }
    rows.push(vec![
        "AVG".into(),
        pct(th.buffer_dyn_pj, tb.buffer_dyn_pj),
        share(th.cs_dyn_pj, th.dynamic_pj()),
        pct(th.xbar_dyn_pj, tb.xbar_dyn_pj),
        pct(th.arb_dyn_pj, tb.arb_dyn_pj),
        pct(th.link_dyn_pj, tb.link_dyn_pj),
        pct(th.dynamic_pj(), tb.dynamic_pj()),
    ]);
    println!(
        "{}",
        format_table(
            &[
                "GPU bench",
                "buffers Δ%",
                "CS share %",
                "xbar Δ%",
                "arbiters Δ%",
                "links Δ%",
                "dynamic Δ%"
            ],
            &rows
        )
    );
    println!("(paper: buffers −51.3%, CS overhead 0.6%, total dynamic −20.8%)\n");

    println!("=== Figure 9(b) — static energy, Hybrid-TDM-hop-VCt relative to Packet-VC4 ===");
    let mut rows = Vec::new();
    for &(gi, b, h) in &per_gpu {
        rows.push(vec![
            GPU_BENCHES[gi].name.to_string(),
            pct(h.buffer_static_pj, b.buffer_static_pj),
            share(h.cs_static_pj, h.static_pj()),
            pct(h.static_pj(), b.static_pj()),
        ]);
    }
    rows.push(vec![
        "AVG".into(),
        pct(th.buffer_static_pj, tb.buffer_static_pj),
        share(th.cs_static_pj, th.static_pj()),
        pct(th.static_pj(), tb.static_pj()),
    ]);
    println!(
        "{}",
        format_table(
            &["GPU bench", "buffers Δ%", "CS share %", "static Δ%"],
            &rows
        )
    );
    println!("(paper: static −17.3% with 2.1% CS overhead; all savings from input buffers;");
    println!(" LIB has the smallest CS overhead — fewer communication pairs, smaller tables)");
}

fn add(a: EnergyBreakdown, b: EnergyBreakdown) -> EnergyBreakdown {
    EnergyBreakdown {
        buffer_dyn_pj: a.buffer_dyn_pj + b.buffer_dyn_pj,
        cs_dyn_pj: a.cs_dyn_pj + b.cs_dyn_pj,
        xbar_dyn_pj: a.xbar_dyn_pj + b.xbar_dyn_pj,
        arb_dyn_pj: a.arb_dyn_pj + b.arb_dyn_pj,
        clock_dyn_pj: a.clock_dyn_pj + b.clock_dyn_pj,
        link_dyn_pj: a.link_dyn_pj + b.link_dyn_pj,
        buffer_static_pj: a.buffer_static_pj + b.buffer_static_pj,
        cs_static_pj: a.cs_static_pj + b.cs_static_pj,
        fixed_static_pj: a.fixed_static_pj + b.fixed_static_pj,
    }
}

fn pct(new: f64, base: f64) -> String {
    if base == 0.0 {
        "n/a".into()
    } else {
        format!("{:+.1}", (new / base - 1.0) * 100.0)
    }
}

fn share(part: f64, whole: f64) -> String {
    if whole == 0.0 {
        "n/a".into()
    } else {
        format!("{:.1}", part / whole * 100.0)
    }
}
