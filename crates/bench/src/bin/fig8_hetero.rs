//! Figure 8: for the 56 CPU×GPU workload mixes, (a) network energy saving,
//! (b) CPU application speedup and (c) GPU application speedup of
//! Hybrid-TDM-VC4, Hybrid-TDM-hop-VC4 and Hybrid-TDM-hop-VCt, all against
//! the Packet-VC4 baseline.
//!
//! Paper averages to reproduce (geometric mean): 6.3 % / 9.0 % / 17.1 %
//! energy saving; ≈ −1.6 % CPU and +2.6 % GPU performance for the full
//! configuration; BLACKSCHOLES saving up to 23.8 %; STO *costs* energy
//! under basic Hybrid-TDM-VC4.

use noc_bench::{format_table, quick_flag, scenario_mode_ran, sweep_mixes, BackendKind};
use noc_hetero::{mix_phases, speedup, MixResult, CPU_BENCHES, GPU_BENCHES};
use noc_scenario::ScenarioSpec;

struct MixRow {
    mix: String,
    gpu_idx: usize,
    cpu_idx: usize,
    /// Per hybrid config: (energy saving, cpu speedup, gpu speedup).
    per_kind: Vec<(f64, f64, f64)>,
}

fn main() {
    if scenario_mode_ran(false) {
        return;
    }
    let quick = quick_flag();
    let phases = mix_phases(quick);
    // Quick mode: 2 CPU benchmarks x 7 GPU = 14 mixes; full: all 56.
    let cpu_count = if quick { 2 } else { CPU_BENCHES.len() };

    let mixes: Vec<(usize, usize)> = (0..GPU_BENCHES.len())
        .flat_map(|g| (0..cpu_count).map(move |c| (g, c)))
        .collect();
    // Per mix: the Packet-VC4 baseline, then each Figure 8 configuration.
    let kinds: Vec<BackendKind> = std::iter::once(BackendKind::PacketVc4)
        .chain(BackendKind::FIGURE8)
        .collect();
    let specs: Vec<ScenarioSpec> = mixes
        .iter()
        .flat_map(|&(gi, ci)| {
            let seed = (gi * 8 + ci) as u64 + 7;
            kinds.iter().map(move |&kind| {
                ScenarioSpec::hetero(
                    kind,
                    CPU_BENCHES[ci].name,
                    GPU_BENCHES[gi].name,
                    phases,
                    seed,
                )
            })
        })
        .collect();
    let results = sweep_mixes(&specs);

    let rows: Vec<MixRow> = mixes
        .iter()
        .zip(results.chunks(kinds.len()))
        .map(|(&(gi, ci), runs)| {
            let (gpu, cpu) = (&GPU_BENCHES[gi], &CPU_BENCHES[ci]);
            let (base, hybrids) = runs.split_first().expect("baseline first");
            MixRow {
                mix: format!("{}+{}", gpu.name, cpu.name),
                gpu_idx: gi,
                cpu_idx: ci,
                per_kind: hybrids.iter().map(|r| metrics(cpu, gpu, base, r)).collect(),
            }
        })
        .collect();

    print_figure(
        &rows,
        0,
        "Figure 8(a) — network energy saving vs Packet-VC4 (%)",
        100.0,
    );
    print_figure(&rows, 1, "Figure 8(b) — CPU speedup vs Packet-VC4", 1.0);
    print_figure(&rows, 2, "Figure 8(c) — GPU speedup vs Packet-VC4", 1.0);

    println!("\npaper reference (averages over 56 mixes):");
    println!("  energy saving: 6.3% (TDM-VC4), 9.0% (hop-VC4), 17.1% (hop-VCt)");
    println!("  CPU performance: ~-1.6%; GPU performance: ~+2.6% (hop-VCt)");
    println!("  BLACKSCHOLES up to 23.8% saving; STO costs energy under basic TDM-VC4");
}

fn metrics(
    cpu: &noc_hetero::CpuBench,
    gpu: &noc_hetero::GpuBench,
    base: &MixResult,
    r: &MixResult,
) -> (f64, f64, f64) {
    let saving = r.breakdown.saving_vs(&base.breakdown);
    let cpu_s = speedup::cpu_speedup(cpu.mem_intensity, base.cpu_latency, r.cpu_latency);
    // GPU performance tracks the critical (packet-switched) messages:
    // slack-covered circuit traffic is latency-insensitive by construction
    // (§V-A2/§V-B2), so no warp-hiding term is applied here.
    let gpu_s = speedup::gpu_speedup(
        gpu.lat_sensitivity,
        0.0,
        base.gpu_critical_latency,
        r.gpu_critical_latency,
    );
    (saving, cpu_s, gpu_s)
}

fn print_figure(rows: &[MixRow], metric: usize, title: &str, scale: f64) {
    println!("\n=== {title} ===");
    let header = [
        "mix",
        "Hybrid-TDM-VC4",
        "Hybrid-TDM-hop-VC4",
        "Hybrid-TDM-hop-VCt",
    ];
    let mut out_rows = Vec::new();
    let mut geo: Vec<f64> = vec![0.0; BackendKind::FIGURE8.len()];
    let mut last_gpu = usize::MAX;
    for row in rows {
        if row.gpu_idx != last_gpu && row.cpu_idx == 0 {
            last_gpu = row.gpu_idx;
        }
        let cells: Vec<String> = row
            .per_kind
            .iter()
            .map(|m| {
                let v = [m.0, m.1, m.2][metric];
                if scale == 100.0 {
                    format!("{:+.1}", v * scale)
                } else {
                    format!("{v:.3}")
                }
            })
            .collect();
        for (k, m) in row.per_kind.iter().enumerate() {
            let v = [m.0, m.1, m.2][metric];
            // Geometric mean of ratios; arithmetic for savings.
            if metric == 0 {
                geo[k] += v;
            } else {
                geo[k] += v.ln();
            }
        }
        let mut r = vec![row.mix.clone()];
        r.extend(cells);
        out_rows.push(r);
    }
    let n = rows.len() as f64;
    let mut avg_row = vec!["AVG".to_string()];
    for g in &geo {
        let v = if metric == 0 { g / n } else { (g / n).exp() };
        avg_row.push(if scale == 100.0 {
            format!("{:+.1}", v * scale)
        } else {
            format!("{v:.3}")
        });
    }
    out_rows.push(avg_row);
    println!("{}", format_table(&header, &out_rows));
}
