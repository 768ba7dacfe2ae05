//! Figure 4: load–latency curves on a 36-node mesh for UR/TOR/TR under
//! Packet-VC4, Hybrid-SDM-VC4, Hybrid-TDM-VC4 and Hybrid-TDM-VCt, plus the
//! saturation-throughput improvement of TDM over the baseline (paper:
//! +14.7 % UR, +9.3 % TOR, +27.0 % TR).
//!
//! Run with `--quick` for a coarse sweep, or `--scenario <file>` for a
//! custom spec list.

use noc_bench::{
    ascii_chart, format_table, json_flag, max_goodput, paper_patterns, paper_phases, quick_flag,
    rate_sweep, result_envelope, scenario_mode_ran, sweep_points, write_json, BackendKind,
    ScenarioSpec, SynthPoint,
};

fn main() {
    if scenario_mode_ran(true) {
        return;
    }
    let quick = quick_flag();
    let phases = paper_phases(quick);
    let rates = rate_sweep(quick);
    let mut all_specs: Vec<ScenarioSpec> = Vec::new();
    for pattern in paper_patterns() {
        for kind in BackendKind::SYNTH {
            for &rate in &rates {
                all_specs.push(ScenarioSpec::synthetic(
                    kind,
                    6,
                    pattern.clone(),
                    rate,
                    phases,
                    17,
                ));
            }
        }
    }
    let all_points = sweep_points(&all_specs);

    let per_pattern = BackendKind::SYNTH.len() * rates.len();
    for (pattern, points) in paper_patterns().iter().zip(all_points.chunks(per_pattern)) {
        println!(
            "\n=== Figure 4 — {} traffic (36-node mesh) ===",
            pattern.name()
        );
        let header = [
            "rate (flits/node/cyc)",
            "Packet-VC4",
            "Hybrid-SDM-VC4",
            "Hybrid-TDM-VC4",
            "Hybrid-TDM-VCt",
        ];
        let mut rows = Vec::new();
        for &rate in &rates {
            let mut row = vec![format!("{rate:.2}")];
            for kind in BackendKind::SYNTH {
                let p = points
                    .iter()
                    .find(|p| p.kind == kind && (p.rate - rate).abs() < 1e-9)
                    .expect("point exists");
                row.push(if p.result.saturated {
                    format!("{:.1}*", p.result.avg_latency)
                } else {
                    format!("{:.1}", p.result.avg_latency)
                });
            }
            rows.push(row);
        }
        println!("{}", format_table(&header, &rows));
        println!("(latency in cycles; * = saturated, >5% of measured packets undelivered)\n");

        // Load–latency curves (clipped at 200 cycles, like the figure).
        let glyphs = ['p', 's', 't', 'g'];
        let curves: Vec<noc_bench::Series> = BackendKind::SYNTH
            .iter()
            .zip(glyphs)
            .map(|(&kind, g)| {
                let pts: Vec<(f64, f64)> = points
                    .iter()
                    .filter(|p| p.kind == kind)
                    .map(|p| (p.rate, p.result.avg_latency))
                    .collect();
                (kind.label(), g, pts)
            })
            .collect();
        println!(
            "{}",
            ascii_chart(
                &format!(
                    "latency (cycles, clipped at 200) vs injection rate — {}",
                    pattern.name()
                ),
                &curves,
                200.0,
                60,
                16,
            )
        );

        // Saturation throughput comparison (the paper's headline numbers).
        let sat = |kind: BackendKind| {
            let pts: Vec<SynthPoint> = points.iter().filter(|p| p.kind == kind).cloned().collect();
            max_goodput(&pts)
        };
        let base = sat(BackendKind::PacketVc4);
        println!("saturation goodput (payload-flits/node/cycle):");
        for kind in BackendKind::SYNTH {
            let g = sat(kind);
            println!(
                "  {:<16} {:.3}  ({:+.1}% vs Packet-VC4)",
                kind.label(),
                g,
                (g / base - 1.0) * 100.0
            );
        }
    }
    println!(
        "\npaper reference: TDM throughput improvement +14.7% (UR), +9.3% (TOR), +27.0% (TR);"
    );
    println!("SDM: lower latency at low load, earlier saturation (packet serialisation).");

    if let Some(path) = json_flag() {
        write_json(&path, &result_envelope(&all_specs, &all_points)).expect("write JSON");
        println!("raw points written to {path}");
    }
}
