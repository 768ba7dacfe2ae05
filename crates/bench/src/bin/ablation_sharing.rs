//! Ablation for §III-A (circuit-switched path sharing): compare no sharing,
//! hitchhiker-only, and hitchhiker+vicinity on heterogeneous mixes.
//!
//! This is the experiment behind this reproduction's design decision to
//! default the `hop` configurations to hitchhiker-only: vicinity-sharing
//! requires one extra slot on *every* reservation (§III-A2), and that
//! standing 25 % bandwidth tax costs more than its rides recover here.

use noc_bench::{
    format_table, par_map, quick_flag, scenario_mode_ran, sweep_mixes, sweep_threads_flag,
    BackendKind, ScenarioSpec,
};
use noc_hetero::{mix_phases, Floorplan, HeteroWorkload, CPU_BENCHES, GPU_BENCHES};
use noc_power::EnergyModel;
use noc_scenario::hetero_tdm_config;
use noc_sim::NetworkConfig;
use noc_traffic::run_phases;
use tdm_noc::{SharingConfig, TdmNetwork};

fn main() {
    if scenario_mode_ran(false) {
        return;
    }
    let quick = quick_flag();
    let phases = mix_phases(quick);
    let mixes: Vec<(usize, usize)> = if quick {
        vec![(0, 0), (2, 1), (6, 0)]
    } else {
        (0..7).map(|g| (g, g % 8)).collect()
    };

    let variants = [
        ("none", SharingConfig::DISABLED),
        ("hitchhiker", SharingConfig::HITCHHIKER),
        ("hitchhiker+vicinity", SharingConfig::FULL),
    ];

    let base_specs: Vec<ScenarioSpec> = mixes
        .iter()
        .map(|&(gi, ci)| {
            let (cpu, gpu) = (CPU_BENCHES[ci].name, GPU_BENCHES[gi].name);
            ScenarioSpec::hetero(BackendKind::PacketVc4, cpu, gpu, phases, 7)
        })
        .collect();
    let bases = sweep_mixes(&base_specs);

    // The sharing variants need hand-configured TDM fabrics, so they run
    // through the engine directly: (energy, sharing events) per
    // (variant, mix), variant-major.
    let jobs: Vec<(SharingConfig, (usize, usize))> = variants
        .iter()
        .flat_map(|&(_, sharing)| mixes.iter().map(move |&mix| (sharing, mix)))
        .collect();
    let runs = par_map(&jobs, sweep_threads_flag(), |&(sharing, (gi, ci))| {
        let mut cfg = hetero_tdm_config(BackendKind::HybridTdmVc4, NetworkConfig::default())
            .expect("TDM backend");
        cfg.sharing = sharing;
        let mut net = TdmNetwork::new(cfg);
        let mut w = HeteroWorkload::new(Floorplan::figure7(), CPU_BENCHES[ci], GPU_BENCHES[gi], 7);
        let r = run_phases(&mut net, &mut w, phases);
        (
            EnergyModel::default().evaluate_stats(&r.stats),
            net.net.total_events(),
        )
    });

    let rows: Vec<Vec<String>> = variants
        .iter()
        .zip(runs.chunks(mixes.len()))
        .map(|((label, _), runs)| {
            let mut saving_sum = 0.0;
            let (mut rides, mut vic, mut fails) = (0u64, 0u64, 0u64);
            for ((e, ev), base) in runs.iter().zip(&bases) {
                saving_sum += e.saving_vs(&base.breakdown);
                rides += ev.hitchhike_rides;
                vic += ev.vicinity_rides;
                fails += ev.sharing_failures;
            }
            vec![
                label.to_string(),
                format!("{:+.1}", saving_sum / mixes.len() as f64 * 100.0),
                rides.to_string(),
                vic.to_string(),
                fails.to_string(),
            ]
        })
        .collect();

    println!("=== §III-A ablation — path sharing variants (hetero mixes) ===\n");
    println!(
        "{}",
        format_table(
            &[
                "sharing",
                "avg energy saving %",
                "hitchhikes",
                "vicinity rides",
                "share fails"
            ],
            &rows
        )
    );
}
