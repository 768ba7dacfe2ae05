//! Per-mix experiment runner for the realistic-workload evaluation (§V).
//!
//! Network construction goes through the `noc-scenario` backend registry
//! ([`BackendKind`] + [`noc_scenario::build_fabric`]) and the run loop is
//! the shared engine in `noc-traffic` ([`noc_traffic::run_phases`]); this
//! module only adds the heterogeneous-workload bookkeeping: GPU injection
//! accounting, per-class latency post-processing and the energy pricing.

use noc_power::{EnergyBreakdown, EnergyModel};
use noc_scenario::{build_fabric, BackendKind, ScenarioError, ScenarioSpec, TrafficSpec, Tuning};
use noc_sim::{Cycle, NetworkConfig, NodeId, Packet, TelemetryConfig, TelemetryReport};
use noc_traffic::{run_phases, PhaseConfig, Workload};

use crate::floorplan::Floorplan;
use crate::workload::{cpu_bench, gpu_bench, CpuBench, GpuBench, HeteroWorkload};

/// Phase lengths for the §V mix simulations: pure cycle counts (warm-up,
/// measurement, drain), with the paper-scale and quick variants.
pub fn mix_phases(quick: bool) -> PhaseConfig {
    if quick {
        PhaseConfig::pure_cycles(1_500, 6_000, 3_000)
    } else {
        PhaseConfig::pure_cycles(4_000, 20_000, 6_000)
    }
}

/// Measured outcome of one (CPU, GPU, network) combination.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MixResult {
    pub mix: String,
    pub kind: BackendKind,
    /// Average latency of CPU-side data packets.
    pub cpu_latency: f64,
    /// Average latency of GPU-side data packets (all switching modes).
    pub gpu_latency: f64,
    /// Average latency of GPU-side packets delivered *packet-switched* —
    /// the critical-message proxy of §V-B2: slack-eligible messages ride
    /// circuits precisely because their extra latency is hidden by warp
    /// parallelism, so GPU performance tracks what happens to the
    /// (low-slack, critical) packet-switched remainder.
    pub gpu_critical_latency: f64,
    /// Fraction of delivered data flits that were circuit-switched
    /// (Table III).
    pub cs_flit_fraction: f64,
    /// Measured GPU injection rate, flits/accelerator/cycle (Table III).
    pub gpu_injection: f64,
    /// Priced energy for the measurement window (Figure 9).
    pub breakdown: EnergyBreakdown,
    /// Mean warp-slack hiding, for the speedup model.
    pub hide_cycles: f64,
    pub stats: noc_sim::NetStats,
}

/// [`Workload`] adapter that counts GPU (accelerator-tile) flits injected
/// during the measurement window, for Table III's injection-rate column.
struct GpuAccounting<'a> {
    inner: &'a mut HeteroWorkload,
    accel: std::collections::HashSet<NodeId>,
    gpu_flits_injected: u64,
}

impl Workload for GpuAccounting<'_> {
    fn tick(&mut self, now: Cycle, measured: bool, sink: &mut dyn FnMut(NodeId, Packet)) {
        let accel = &self.accel;
        let counter = &mut self.gpu_flits_injected;
        self.inner.tick(now, measured, |n, p| {
            if measured && accel.contains(&n) {
                *counter += p.len_flits as u64;
            }
            sink(n, p);
        });
    }
}

/// Run one workload mix on one network configuration. When `telemetry`
/// is given, the fabric records into per-node ring sinks from the first
/// warm-up cycle and the harvested [`TelemetryReport`] is returned
/// alongside the measurements. Tracing only observes — the `MixResult` is
/// bit-identical either way.
pub fn run_mix(
    cpu: &CpuBench,
    gpu: &GpuBench,
    kind: BackendKind,
    phases: PhaseConfig,
    seed: u64,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(MixResult, Option<TelemetryReport>), ScenarioError> {
    let net_cfg = NetworkConfig::default();
    let floorplan = Floorplan::figure7();
    let mut workload = HeteroWorkload::new(floorplan, *cpu, *gpu, seed);
    let mut fabric = build_fabric(kind, net_cfg, Tuning::Hetero)?;

    // Enable the delivered-packet log for per-class latencies.
    fabric.set_collect_delivered(true);
    if let Some(cfg) = telemetry {
        fabric.configure_telemetry(cfg);
    }

    let accel: std::collections::HashSet<NodeId> =
        workload.floorplan.accel_tiles().into_iter().collect();
    let accel_count = accel.len();
    let mut driver = GpuAccounting {
        inner: &mut workload,
        accel,
        gpu_flits_injected: 0,
    };

    let result = run_phases(fabric.as_mut(), &mut driver, phases);
    let gpu_flits_injected = driver.gpu_flits_injected;

    // Per-class latency.
    let (mut cpu_sum, mut cpu_n, mut gpu_sum, mut gpu_n) = (0u64, 0u64, 0u64, 0u64);
    let (mut crit_sum, mut crit_n) = (0u64, 0u64);
    for d in fabric.delivered_log() {
        let lat = d.delivered.saturating_sub(d.created);
        if workload.is_gpu_packet(d.src, d.dst) {
            gpu_sum += lat;
            gpu_n += 1;
            if d.switching == noc_sim::Switching::Packet {
                crit_sum += lat;
                crit_n += 1;
            }
        } else {
            cpu_sum += lat;
            cpu_n += 1;
        }
    }

    let report = telemetry.and_then(|_| fabric.telemetry_report());
    let stats = result.stats;
    let breakdown = EnergyModel::default().evaluate_stats(&stats);
    let mix = MixResult {
        mix: workload.mix_name(),
        kind,
        cpu_latency: if cpu_n == 0 {
            f64::NAN
        } else {
            cpu_sum as f64 / cpu_n as f64
        },
        gpu_latency: if gpu_n == 0 {
            f64::NAN
        } else {
            gpu_sum as f64 / gpu_n as f64
        },
        gpu_critical_latency: if crit_n == 0 {
            f64::NAN
        } else {
            crit_sum as f64 / crit_n as f64
        },
        cs_flit_fraction: stats.events.cs_flit_fraction(),
        gpu_injection: gpu_flits_injected as f64
            / (phases.measure_cycles as f64 * accel_count as f64),
        breakdown,
        hide_cycles: workload.slack.mean_slack_cycles(),
        stats,
    };
    Ok((mix, report))
}

/// Run a hetero [`ScenarioSpec`] (resolving benchmark names through the
/// workload tables), optionally traced (see [`run_mix`]). Synthetic specs
/// are rejected — `noc_bench::run_spec` runs those.
pub fn run_spec(
    spec: &ScenarioSpec,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(MixResult, Option<TelemetryReport>), ScenarioError> {
    match &spec.traffic {
        TrafficSpec::Hetero { cpu, gpu } => {
            let cpu = cpu_bench(cpu).ok_or_else(|| ScenarioError::UnknownBench(cpu.clone()))?;
            let gpu = gpu_bench(gpu).ok_or_else(|| ScenarioError::UnknownBench(gpu.clone()))?;
            run_mix(cpu, gpu, spec.backend, spec.phases, spec.seed, telemetry)
        }
        TrafficSpec::Synthetic { .. } | TrafficSpec::Trace { .. } => Err(ScenarioError::Parse(
            "run_spec needs a hetero scenario (cpu+gpu), not a synthetic \
             pattern or trace replay"
                .into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{CPU_BENCHES, GPU_BENCHES};

    #[test]
    fn baseline_mix_runs_and_measures() {
        let r = run_mix(
            &CPU_BENCHES[0],
            &GPU_BENCHES[0],
            BackendKind::PacketVc4,
            mix_phases(true),
            7,
            None,
        )
        .unwrap()
        .0;
        assert!(
            r.stats.packets_delivered > 500,
            "too few packets: {}",
            r.stats.packets_delivered
        );
        assert!(r.cpu_latency.is_finite() && r.cpu_latency > 10.0);
        assert!(r.gpu_latency.is_finite() && r.gpu_latency > 10.0);
        assert_eq!(r.cs_flit_fraction, 0.0, "baseline must not circuit-switch");
        assert!(r.breakdown.total_pj() > 0.0);
        assert!(
            (r.gpu_injection - 0.18).abs() < 0.04,
            "gpu inj {}",
            r.gpu_injection
        );
    }

    #[test]
    fn hybrid_circuit_switches_a_meaningful_fraction() {
        let r = run_mix(
            &CPU_BENCHES[0],
            &GPU_BENCHES[0], // BLACKSCHOLES: high slack, tight locality
            BackendKind::HybridTdmVc4,
            mix_phases(true),
            7,
            None,
        )
        .unwrap()
        .0;
        assert!(
            r.cs_flit_fraction > 0.15,
            "CS fraction {:.3} too low for BLACKSCHOLES",
            r.cs_flit_fraction
        );
        assert!(r.stats.packets_delivered > 500);
    }

    #[test]
    fn hybrid_saves_energy_vs_baseline() {
        let base = run_mix(
            &CPU_BENCHES[0],
            &GPU_BENCHES[0],
            BackendKind::PacketVc4,
            mix_phases(true),
            7,
            None,
        )
        .unwrap()
        .0;
        let hyb = run_mix(
            &CPU_BENCHES[0],
            &GPU_BENCHES[0],
            BackendKind::HybridTdmHopVct,
            mix_phases(true),
            7,
            None,
        )
        .unwrap()
        .0;
        let saving = hyb.breakdown.saving_vs(&base.breakdown);
        assert!(
            saving > 0.02,
            "expected energy saving for BLACKSCHOLES, got {:.3}",
            saving
        );
    }

    #[test]
    fn spec_runner_resolves_benchmark_names() {
        let spec = ScenarioSpec::hetero(
            BackendKind::PacketVc4,
            CPU_BENCHES[0].name,
            GPU_BENCHES[0].name,
            mix_phases(true),
            7,
        );
        let (r, report) = run_spec(&spec, None).unwrap();
        assert!(r.stats.packets_delivered > 500);
        assert!(report.is_none(), "untraced runs harvest no report");

        let bad = ScenarioSpec::hetero(BackendKind::PacketVc4, "NOPE", "STO", mix_phases(true), 7);
        assert!(matches!(run_spec(&bad, None), Err(ScenarioError::UnknownBench(n)) if n == "NOPE"));
    }
}
