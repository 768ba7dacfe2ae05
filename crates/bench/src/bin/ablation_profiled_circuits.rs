//! Ablation: reactive circuit setup vs a profiled static circuit plan.
//!
//! The hybrid TDM network normally discovers persistent flows *reactively*
//! (frequency table → setup request → slot negotiation), paying setup
//! latency and setup-flit energy on the live run. `--profile-circuits N`
//! instead profiles a shadow warm-up offline, ranks flows by volume ×
//! persistence, and pre-establishes the top N as pinned circuits before
//! cycle zero. This binary runs the A/B on the paper's persistent-flow
//! pattern (transpose) and on uniform-random (where profiling has little
//! to latch onto), so the trade-off is visible in one table.
//!
//! Run with `--quick` for a coarse sweep; `--json <path>` writes the raw
//! points in the shared result envelope.

use noc_bench::{
    format_table, json_flag, paper_phases, quick_flag, result_envelope, scenario_mode_ran,
    sweep_points, write_json, BackendKind, ScenarioSpec, SynthPoint,
};
use noc_traffic::TrafficPattern;

/// Top-N flows to pre-establish: enough to cover every transpose pair on
/// the 6×6 mesh (30 off-diagonal flows) with headroom.
const PLAN_TOP: u32 = 32;

fn main() {
    if scenario_mode_ran(true) {
        return;
    }
    let quick = quick_flag();
    let phases = paper_phases(quick);
    let rates = if quick {
        vec![0.10, 0.20, 0.30]
    } else {
        vec![0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
    };
    let patterns = [TrafficPattern::Transpose, TrafficPattern::UniformRandom];

    let specs: Vec<ScenarioSpec> = patterns
        .iter()
        .flat_map(|pattern| {
            rates.iter().flat_map(move |&rate| {
                [None, Some(PLAN_TOP)].into_iter().map(move |profiled| {
                    let mut spec = ScenarioSpec::synthetic(
                        BackendKind::HybridTdmVc4,
                        6,
                        pattern.clone(),
                        rate,
                        phases,
                        17,
                    );
                    spec.profile_circuits = profiled;
                    spec
                })
            })
        })
        .collect();
    let points = sweep_points(&specs);

    println!("=== Ablation — reactive setup vs profiled circuit plan (Hybrid-TDM-VC4, 6x6) ===");
    for pattern in &patterns {
        println!("\n--- {} traffic ---", pattern.name());
        let mut rows = Vec::new();
        for &rate in &rates {
            let get = |profiled: bool| {
                specs
                    .iter()
                    .zip(&points)
                    .find(|(s, p)| {
                        s.profile_circuits.is_some() == profiled
                            && (p.rate - rate).abs() < 1e-9
                            && p.pattern == pattern.name()
                    })
                    .map(|(_, p)| p)
                    .expect("point exists")
            };
            let reactive = get(false);
            let profiled = get(true);
            let fmt_lat = |p: &SynthPoint| {
                format!(
                    "{:.1}{}",
                    p.result.avg_latency,
                    if p.result.saturated { "*" } else { "" }
                )
            };
            rows.push(vec![
                format!("{rate:.2}"),
                fmt_lat(reactive),
                fmt_lat(profiled),
                format!("{:.3}", reactive.result.stats.events.cs_flit_fraction()),
                format!("{:.3}", profiled.result.stats.events.cs_flit_fraction()),
                format!("{}", reactive.result.stats.events.setup_attempts),
                format!("{}", profiled.result.stats.events.setup_attempts),
            ]);
        }
        println!(
            "{}",
            format_table(
                &[
                    "rate",
                    "latency react",
                    "latency profiled",
                    "CS frac react",
                    "CS frac profiled",
                    "setups react",
                    "setups profiled",
                ],
                &rows
            )
        );
    }
    println!("\n(* = saturated). Profiled plans carry circuit traffic from cycle");
    println!("zero and pin it against eviction, trading the reactive network's");
    println!("setup probes for a static slot reservation; uniform-random shows");
    println!("the cost of pinning circuits a shifting workload stops using.");

    if let Some(path) = json_flag() {
        write_json(&path, &result_envelope(&specs, &points)).expect("write JSON");
        println!("raw points written to {path}");
    }
}
