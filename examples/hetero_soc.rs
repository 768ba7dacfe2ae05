//! A heterogeneous system-on-chip scenario (§V): the Figure-7 36-tile
//! floorplan running one CPU benchmark on the CPU tiles and one GPU kernel
//! across the accelerators, comparing the baseline packet network against
//! the fully-optimised hybrid network.
//!
//! Run with: `cargo run --release --example hetero_soc [GPU] [CPU]`
//! e.g. `cargo run --release --example hetero_soc BLACKSCHOLES SWIM`

use tdm_hybrid_noc::hetero::workload::{cpu_bench, gpu_bench};
use tdm_hybrid_noc::hetero::{mix_phases, run_mix, Floorplan, CPU_BENCHES, GPU_BENCHES};
use tdm_hybrid_noc::scenario::BackendKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let gpu = args
        .get(1)
        .and_then(|n| gpu_bench(n))
        .unwrap_or(&GPU_BENCHES[0]);
    let cpu = args
        .get(2)
        .and_then(|n| cpu_bench(n))
        .unwrap_or(&CPU_BENCHES[0]);

    println!("Figure-7 floorplan (C=CPU, A=accelerator, L2=cache bank, M=memory ctrl):\n");
    println!("{}", Floorplan::figure7().render());
    println!("workload mix: {} (GPU) + {} (CPU)\n", gpu.name, cpu.name);

    let phases = mix_phases(false);
    let (base, _) = run_mix(cpu, gpu, BackendKind::PacketVc4, phases, 11, None).expect("mix runs");
    let (hyb, _) =
        run_mix(cpu, gpu, BackendKind::HybridTdmHopVct, phases, 11, None).expect("mix runs");

    println!("                          Packet-VC4    Hybrid-TDM-hop-VCt");
    println!(
        "CPU packet latency       {:>8.1} cyc   {:>8.1} cyc",
        base.cpu_latency, hyb.cpu_latency
    );
    println!(
        "GPU packet latency       {:>8.1} cyc   {:>8.1} cyc",
        base.gpu_latency, hyb.gpu_latency
    );
    println!(
        "GPU critical (PS) lat.   {:>8.1} cyc   {:>8.1} cyc",
        base.gpu_critical_latency, hyb.gpu_critical_latency
    );
    println!(
        "circuit-switched flits   {:>7.1}%       {:>7.1}%",
        base.cs_flit_fraction * 100.0,
        hyb.cs_flit_fraction * 100.0
    );
    println!(
        "network energy           {:>8.2e}     {:>8.2e}  (pJ)",
        base.breakdown.total_pj(),
        hyb.breakdown.total_pj()
    );
    println!(
        "\nnetwork energy saving: {:+.1}%  (paper range: up to 23.8%, avg 17.1%)",
        hyb.breakdown.saving_vs(&base.breakdown) * 100.0
    );
    println!(
        "dynamic: {:+.1}%   static: {:+.1}%",
        hyb.breakdown.dynamic_saving_vs(&base.breakdown) * 100.0,
        hyb.breakdown.static_saving_vs(&base.breakdown) * 100.0
    );
}
