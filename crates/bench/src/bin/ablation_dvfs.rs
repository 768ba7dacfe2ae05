//! §V-B1's orthogonality claim, measured: "DVFS can be applied
//! orthogonally to our technique to mitigate clock energy". Sweep
//! operating points on the same measured windows and show that the hybrid
//! network's relative saving survives voltage/frequency scaling, while the
//! absolute energy drops with V².
//!
//! (Frequency scaling rescales what a "cycle" costs, not how many cycles
//! the workload takes — both networks slow down identically, so the
//! comparison stays apples-to-apples.)

use noc_bench::{
    format_table, paper_phases, quick_flag, scenario_mode_ran, sweep_points, BackendKind,
    ScenarioSpec,
};
use noc_power::DvfsPoint;
use noc_traffic::TrafficPattern;

fn main() {
    if scenario_mode_ran(false) {
        return;
    }
    let quick = quick_flag();
    let phases = paper_phases(quick);
    let rate = 0.20;

    let specs = [BackendKind::PacketVc4, BackendKind::HybridTdmVct]
        .map(|kind| ScenarioSpec::synthetic(kind, 6, TrafficPattern::Transpose, rate, phases, 41));
    let [base, tdm]: [_; 2] = sweep_points(&specs).try_into().expect("two points");

    println!("=== §V-B1 — DVFS applied orthogonally to hybrid switching ===");
    println!("(transpose @ {rate} flits/node/cycle; energy per measurement window)\n");
    let mut rows = Vec::new();
    for freq in [1.5, 1.2, 1.0, 0.75] {
        let vdd = DvfsPoint::voltage_for(freq);
        let p = DvfsPoint {
            vdd_v: vdd,
            freq_ghz: freq,
        };
        assert!(p.is_feasible());
        let b = p.rescale(&base.breakdown);
        let t = p.rescale(&tdm.breakdown);
        rows.push(vec![
            format!("{freq:.2} GHz @ {vdd:.2} V"),
            format!("{:.3e}", b.total_pj()),
            format!("{:.3e}", t.total_pj()),
            format!("{:+.1}%", t.saving_vs(&b) * 100.0),
            format!("{:.0}%", b.static_pj() / b.total_pj() * 100.0),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "operating point",
                "Packet-VC4 (pJ)",
                "Hybrid-TDM-VCt (pJ)",
                "hybrid saving",
                "static share"
            ],
            &rows
        )
    );
    println!("Expected shape: absolute energy falls superlinearly with voltage;");
    println!("the hybrid saving persists at every point (orthogonality), drifting");
    println!("only as the dynamic/static mix shifts toward leakage at low f.");
}
