//! Figure 6: scalability of Hybrid-TDM-VCt vs Packet-VC4 on 8×8 (64-node)
//! and 16×16 (256-node) meshes: (a) maximum-throughput improvement and
//! (b) network energy saving sampled at 75 % of the baseline's saturation
//! capacity. Slot tables grow to 256 entries for the larger network
//! (§IV-D).
//!
//! Paper shape: consistent improvement/saving for TOR and TR as the
//! network scales; UR benefits shrink toward zero at 256 nodes because
//! communication pairs grow quadratically while slot tables do not.

use noc_bench::{
    format_table, max_goodput, paper_patterns, paper_phases, quick_flag, scenario_mode_ran,
    sweep_points, BackendKind, ScenarioSpec, SynthPoint,
};

const KINDS: [BackendKind; 2] = [BackendKind::PacketVc4, BackendKind::HybridTdmVct];

fn main() {
    if scenario_mode_ran(false) {
        return;
    }
    let quick = quick_flag();
    let phases = paper_phases(quick);
    let meshes = [8u16, 16];
    let rates: Vec<f64> = if quick {
        vec![0.05, 0.15, 0.30, 0.45, 0.60]
    } else {
        vec![0.05, 0.10, 0.15, 0.22, 0.30, 0.38, 0.46, 0.55, 0.65]
    };

    let mut specs = Vec::new();
    for k in meshes {
        for pattern in paper_patterns() {
            for kind in KINDS {
                for &rate in &rates {
                    specs.push(ScenarioSpec::synthetic(
                        kind,
                        k,
                        pattern.clone(),
                        rate,
                        phases,
                        31,
                    ));
                }
            }
        }
    }
    let all_points = sweep_points(&specs);
    let mut groups = all_points.chunks(KINDS.len() * rates.len());

    for k in meshes {
        println!(
            "\n=== Figure 6 — {k}x{k} mesh ({} nodes) ===",
            usize::from(k) * usize::from(k)
        );
        let mut rows = Vec::new();
        for pattern in paper_patterns() {
            let points = groups.next().expect("one group per mesh and pattern");
            let of_kind = |kind: BackendKind| -> Vec<SynthPoint> {
                points.iter().filter(|p| p.kind == kind).cloned().collect()
            };
            let base_pts = of_kind(BackendKind::PacketVc4);
            let tdm_pts = of_kind(BackendKind::HybridTdmVct);
            let base_sat = max_goodput(&base_pts);
            let tdm_sat = max_goodput(&tdm_pts);
            let thr_improvement = (tdm_sat / base_sat - 1.0) * 100.0;

            // Energy sampled at ~75% of baseline capacity (§IV-D).
            let target = 0.75 * base_sat;
            let nearest = |pts: &[SynthPoint]| {
                pts.iter()
                    .min_by(|a, b| {
                        (a.rate - target)
                            .abs()
                            .partial_cmp(&(b.rate - target).abs())
                            .expect("finite")
                    })
                    .expect("non-empty")
                    .clone()
            };
            let b = nearest(&base_pts);
            let t = nearest(&tdm_pts);
            let saving = t.breakdown.saving_vs(&b.breakdown) * 100.0;
            rows.push(vec![
                pattern.name().to_string(),
                format!("{base_sat:.3}"),
                format!("{tdm_sat:.3}"),
                format!("{thr_improvement:+.1}%"),
                format!("{:.2}", b.rate),
                format!("{saving:+.1}%"),
            ]);
        }
        println!(
            "{}",
            format_table(
                &[
                    "pattern",
                    "base sat",
                    "TDM sat",
                    "thr improvement",
                    "sample rate",
                    "energy saving"
                ],
                &rows
            )
        );
    }
    println!("paper reference: stable improvement/saving for TOR/TR at both sizes;");
    println!("UR benefit small at 64 nodes and negligible at 256 (pairs grow quadratically).");
}
