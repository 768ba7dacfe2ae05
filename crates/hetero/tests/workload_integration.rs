//! Heterogeneous workload model: end-to-end properties of the statistical
//! substitution that the Figure 8/9 results depend on.

use noc_hetero::{run_mix, Floorplan, HeteroWorkload, CPU_BENCHES, GPU_BENCHES};
use noc_scenario::BackendKind;
use noc_sim::Mesh;
use noc_traffic::PhaseConfig;

#[test]
fn mixes_are_deterministic_per_seed() {
    let run = |seed| {
        let r = run_mix(
            &CPU_BENCHES[1],
            &GPU_BENCHES[2],
            BackendKind::HybridTdmVc4,
            PhaseConfig::pure_cycles(500, 2_000, 1_500),
            seed,
            None,
        )
        .unwrap()
        .0;
        (
            r.stats.packets_delivered,
            r.stats.events.cs_flits_delivered,
            r.cpu_latency.to_bits(),
        )
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn workload_generates_no_self_addressed_packets() {
    let mut w = HeteroWorkload::new(Floorplan::figure7(), CPU_BENCHES[0], GPU_BENCHES[0], 3);
    for now in 0..10_000 {
        w.tick(now, true, |src, p| {
            assert_ne!(src, p.dst, "self-addressed packet");
            assert_eq!(p.src, src, "packet src must match the injecting node");
            assert_eq!(p.len_flits, 5, "Table I data packets are 5 flits");
        });
    }
}

#[test]
fn traffic_only_flows_between_plausible_tile_pairs() {
    // CPU/GPU tiles talk to L2 (or CPUs to CPUs); L2 talks to cores and
    // MCs; MCs talk to L2. Two compute tiles of different kinds never talk
    // directly, and nothing ever targets a memory controller from a core.
    use noc_hetero::TileKind::*;
    let f = Floorplan::figure7();
    let mut w = HeteroWorkload::new(Floorplan::figure7(), CPU_BENCHES[3], GPU_BENCHES[4], 5);
    for now in 0..20_000 {
        w.tick(now, true, |src, p| {
            let (a, b) = (f.kind(src), f.kind(p.dst));
            let ok = matches!(
                (a, b),
                (Cpu, L2)
                    | (L2, Cpu)
                    | (Cpu, Cpu)
                    | (Accel, L2)
                    | (L2, Accel)
                    | (L2, Mem)
                    | (Mem, L2)
            );
            assert!(ok, "implausible traffic {a:?} -> {b:?}");
        });
    }
}

#[test]
fn floorplan_scales_preserve_tile_classes() {
    for k in [4u16, 6, 8, 10] {
        let f = Floorplan::scaled(Mesh::square(k));
        let total =
            f.cpu_tiles().len() + f.accel_tiles().len() + f.l2_tiles().len() + f.mem_tiles().len();
        assert_eq!(total, (k as usize).pow(2));
        assert!(!f.cpu_tiles().is_empty());
        assert!(!f.accel_tiles().is_empty());
        assert!(f.l2_tiles().len() >= f.mem_tiles().len());
    }
}

#[test]
fn gpu_injection_scales_with_benchmark_rate() {
    // LPS (0.20) must inject ~4x the GPU flits of STO (0.05).
    let count = |gi: usize| {
        let f = Floorplan::figure7();
        let accel: std::collections::HashSet<_> = f.accel_tiles().into_iter().collect();
        let mut w = HeteroWorkload::new(f, CPU_BENCHES[0], GPU_BENCHES[gi], 11);
        let mut flits = 0u64;
        for now in 0..20_000 {
            w.tick(now, true, |src, p| {
                if accel.contains(&src) {
                    flits += p.len_flits as u64;
                }
            });
        }
        flits
    };
    let lps = count(3) as f64;
    let sto = count(6) as f64;
    let ratio = lps / sto;
    assert!(
        (3.0..5.5).contains(&ratio),
        "LPS/STO injection ratio {ratio:.2}"
    );
}

#[test]
fn baseline_energy_grows_with_gpu_intensity() {
    let phases = PhaseConfig::pure_cycles(500, 3_000, 1_500);
    let hot = run_mix(
        &CPU_BENCHES[0],
        &GPU_BENCHES[3],
        BackendKind::PacketVc4,
        phases,
        2,
        None,
    )
    .unwrap()
    .0; // LPS 0.20
    let cold = run_mix(
        &CPU_BENCHES[0],
        &GPU_BENCHES[6],
        BackendKind::PacketVc4,
        phases,
        2,
        None,
    )
    .unwrap()
    .0; // STO 0.05
    assert!(
        hot.breakdown.dynamic_pj() > 1.5 * cold.breakdown.dynamic_pj(),
        "dynamic energy must track injection ({:.2e} vs {:.2e})",
        hot.breakdown.dynamic_pj(),
        cold.breakdown.dynamic_pj()
    );
    // Static energy is load-independent on the fixed baseline.
    let rel = (hot.breakdown.static_pj() / cold.breakdown.static_pj() - 1.0).abs();
    assert!(
        rel < 0.05,
        "baseline static energy should barely move ({rel:.3})"
    );
}
