//! The four workloads as job lists, the untraced path through the public
//! entry points, and the checks every job's output must pass.

use std::hint::black_box;

use noc_bench::{
    build_fabric, build_workload, max_goodput, paper_patterns, paper_phases, rate_sweep, run_spec,
    run_synthetic_spec_ctl, BackendKind, Checkpoint, FreeRun, ScenarioError, ScenarioSpec,
    ServeRun, SpecOutcome, SynthPoint, TrafficSpec, Tuning, WarmStart,
};
use noc_hetero::{
    cpu_bench, gpu_bench, mix_phases, CpuBench, Floorplan, GpuBench, HeteroWorkload, MixResult,
    CPU_BENCHES, GPU_BENCHES,
};
use noc_sim::{NetStats, NetworkConfig};
use noc_traffic::{PhaseConfig, TrafficPattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Job seed of the two kilo-node workloads before `--seed` shifts it.
const KILO_SEED: u64 = 1;
/// Figure 4's seed (`fig4_load_latency`).
const FIG4_SEED: u64 = 17;
/// Paper values of the Hybrid-TDM-VC4 vs Packet-VC4 saturation-goodput
/// gain in percent, UR/TOR/TR (Figure 4).
const FIG4_PAPER_GAIN_PCT: [f64; 3] = [14.7, 9.3, 27.0];
/// Paper value of the mean network-energy saving of Hybrid-TDM-hop-VCt vs
/// Packet-VC4 over the 56 mixes, in percent (Figure 8(a)).
const FIG8_PAPER_SAVING_PCT: f64 = 17.1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PsKiloHeavy,
    TdmKiloFork,
    Fig4Quick,
    Fig8Hetero,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PsKiloHeavy,
        Workload::TdmKiloFork,
        Workload::Fig4Quick,
        Workload::Fig8Hetero,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PsKiloHeavy => "ps_kilo_heavy",
            Workload::TdmKiloFork => "tdm_kilo_fork",
            Workload::Fig4Quick => "fig4_quick",
            Workload::Fig8Hetero => "fig8_hetero",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Kilo-node workloads sit below saturation by design; a saturated
    /// job there means the load or the model changed.
    pub fn must_stay_unsaturated(self) -> bool {
        matches!(self, Workload::PsKiloHeavy | Workload::TdmKiloFork)
    }

    /// One pass of the workload, with every job seed shifted by `seed`.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        match self {
            // ~90% of the 32×32 packet mesh's UR saturation: every router
            // is busy, so the per-flit-hop kernel dominates.
            Workload::PsKiloHeavy => vec![Job::Spec(ScenarioSpec::synthetic(
                BackendKind::PacketVc4,
                32,
                TrafficPattern::UniformRandom,
                0.09,
                PhaseConfig::pure_cycles(2_000, 6_000, 4_000),
                KILO_SEED + seed,
            ))],
            // noc-serve's warm-up fork at kilo scale: one captured warm-up,
            // eight restored measurement windows. Fork 0 repeats the
            // capturing run's window, so its stats must equal the cold run.
            Workload::TdmKiloFork => {
                let cold = ScenarioSpec::synthetic(
                    BackendKind::HybridTdmVc4,
                    32,
                    TrafficPattern::Transpose,
                    0.01,
                    PhaseConfig::pure_cycles(20_000, 4_000, 4_000),
                    KILO_SEED + seed,
                );
                let mut jobs = vec![Job::Capture(cold.clone())];
                for i in 0..8u64 {
                    let mut spec = cold.clone();
                    spec.phases.measure_cycles = 4_000 + 500 * i;
                    jobs.push(Job::Fork {
                        spec,
                        repeats_capture: i == 0,
                    });
                }
                jobs
            }
            // Exactly the points of `fig4_load_latency --quick`.
            Workload::Fig4Quick => {
                let mut jobs = Vec::new();
                for pattern in paper_patterns() {
                    for kind in BackendKind::SYNTH {
                        for rate in rate_sweep(true) {
                            jobs.push(Job::Spec(ScenarioSpec::synthetic(
                                kind,
                                6,
                                pattern.clone(),
                                rate,
                                paper_phases(true),
                                FIG4_SEED + seed,
                            )));
                        }
                    }
                }
                jobs
            }
            // Figure 8's baseline and full-configuration columns, with the
            // seeds `fig8_hetero` uses; jobs come in (baseline, hop-VCt)
            // pairs per mix.
            Workload::Fig8Hetero => {
                let mut jobs = Vec::new();
                for (gi, gpu) in GPU_BENCHES.iter().enumerate() {
                    for (ci, cpu) in CPU_BENCHES.iter().enumerate() {
                        let mix_seed = (gi * 8 + ci) as u64 + 7 + seed;
                        for kind in [BackendKind::PacketVc4, BackendKind::HybridTdmHopVct] {
                            jobs.push(Job::Spec(ScenarioSpec::hetero(
                                kind,
                                cpu.name,
                                gpu.name,
                                mix_phases(false),
                                mix_seed,
                            )));
                        }
                    }
                }
                jobs
            }
        }
    }
}

/// One scenario point, run closed-loop (the next starts when it returns).
pub enum Job {
    /// A synthetic or heterogeneous point through `noc_bench::run_spec`.
    Spec(ScenarioSpec),
    /// A cold run whose warm-up is captured and encoded as a `NOCCKPT1`
    /// blob for the forks after it in the pass.
    Capture(ScenarioSpec),
    /// A run restored from the pass's captured warm-up.
    Fork {
        spec: ScenarioSpec,
        repeats_capture: bool,
    },
}

impl Job {
    pub fn spec(&self) -> &ScenarioSpec {
        match self {
            Job::Spec(spec) | Job::Capture(spec) | Job::Fork { spec, .. } => spec,
        }
    }

    /// Short human label for reports and trace spans.
    pub fn label(&self) -> String {
        let spec = self.spec();
        let kind = match self {
            Job::Spec(_) => "",
            Job::Capture(_) => " capture",
            Job::Fork { .. } => " fork",
        };
        let traffic = match &spec.traffic {
            TrafficSpec::Synthetic { pattern, rate } => format!("{} {rate}", pattern.name()),
            TrafficSpec::Hetero { cpu, gpu } => format!("{gpu}+{cpu}"),
            TrafficSpec::Trace { .. } => "trace".to_string(),
        };
        format!(
            "{} {}x{} {traffic} m{} s{}{kind}",
            spec.backend.label(),
            spec.mesh,
            spec.mesh,
            spec.phases.measure_cycles,
            spec.seed
        )
    }
}

/// What one job returned.
pub enum Output {
    Synth(SynthPoint),
    Mix(MixResult),
}

impl Output {
    pub fn stats(&self) -> &NetStats {
        match self {
            Output::Synth(p) => &p.result.stats,
            Output::Mix(m) => &m.stats,
        }
    }
}

/// The serialised form of a job's statistics: the unit of every
/// bit-for-bit comparison and of `sim_digest`.
pub fn stats_json(stats: &NetStats) -> String {
    serde_json::to_string(stats).expect("NetStats serialisation is infallible")
}

/// Run one job the way its users do. `blob` carries the encoded warm-up
/// from a [`Job::Capture`] to the [`Job::Fork`]s after it.
pub fn run_job(job: &Job, blob: &mut Option<Vec<u8>>) -> Result<Output, ScenarioError> {
    match job {
        Job::Spec(spec) => Ok(match run_spec(spec)? {
            SpecOutcome::Synth(p) => Output::Synth(p),
            SpecOutcome::Hetero(m) => Output::Mix(m),
        }),
        Job::Capture(spec) => {
            let (point, warm) = serve_run(spec, WarmStart::Fresh { capture: true })?;
            let ck = warm.ok_or_else(|| ScenarioError::Checkpoint("no warm-up captured".into()))?;
            *blob = Some(ck.encode());
            Ok(Output::Synth(point))
        }
        Job::Fork { spec, .. } => {
            let ck = Checkpoint::decode(captured(blob)?)?;
            Ok(Output::Synth(serve_run(spec, WarmStart::Restore(&ck))?.0))
        }
    }
}

fn serve_run(
    spec: &ScenarioSpec,
    warm: WarmStart<'_>,
) -> Result<(SynthPoint, Option<Checkpoint>), ScenarioError> {
    match run_synthetic_spec_ctl(spec, warm, None, &mut FreeRun)? {
        ServeRun::Done { point, warm } => Ok((point, warm)),
        ServeRun::Cancelled { .. } => unreachable!("FreeRun never cancels"),
    }
}

/// The blob a fork restores from.
pub fn captured(blob: &Option<Vec<u8>>) -> Result<&[u8], ScenarioError> {
    blob.as_deref()
        .ok_or_else(|| ScenarioError::Checkpoint("fork runs before its capture".into()))
}

pub fn hetero_benches(cpu: &str, gpu: &str) -> Result<(CpuBench, GpuBench), ScenarioError> {
    let c = cpu_bench(cpu).ok_or_else(|| ScenarioError::UnknownBench(cpu.to_string()))?;
    let g = gpu_bench(gpu).ok_or_else(|| ScenarioError::UnknownBench(gpu.to_string()))?;
    Ok((*c, *g))
}

/// Build and drop what one job constructs before it runs: the `setup_s`
/// work. Synthetic jobs build the spec's fabric and workload; hetero jobs
/// the §V fabric and the CPU+GPU traffic model, as `noc_hetero::run_mix`.
pub fn construct(job: &Job) -> Result<(), ScenarioError> {
    let spec = job.spec();
    match &spec.traffic {
        TrafficSpec::Hetero { cpu, gpu } => {
            let (cpu, gpu) = hetero_benches(cpu, gpu)?;
            black_box(build_fabric(
                spec.backend,
                NetworkConfig::default(),
                Tuning::Hetero,
            )?);
            black_box(HeteroWorkload::new(
                Floorplan::figure7(),
                cpu,
                gpu,
                spec.seed,
            ));
        }
        _ => {
            black_box(spec.build_fabric()?);
            black_box(build_workload(spec)?);
        }
    }
    Ok(())
}

/// The offered load a synthetic job measured must match its label. The
/// label is flits per node per cycle over the nodes that have a
/// destination under the pattern (transpose leaves the diagonal silent).
/// The tolerance is 3%, widened to five standard errors of the Bernoulli
/// packet count on short low-rate windows; a 5× mislabel fails either way.
pub fn check_load_label(spec: &ScenarioSpec, stats: &NetStats) -> Result<(), String> {
    let TrafficSpec::Synthetic { pattern, rate } = &spec.traffic else {
        return Ok(());
    };
    let mesh = spec.topo();
    let flits = f64::from(spec.net_config().ps_packet_flits);
    let mut rng = StdRng::seed_from_u64(0);
    let senders = mesh
        .nodes()
        .filter(|&n| pattern.dest(&mesh, n, &mut rng).is_some())
        .count() as f64;
    let cycles = stats.measured_cycles as f64;
    if cycles == 0.0 || senders == 0.0 {
        return Err("empty measurement window".into());
    }
    let offered = stats.packets_offered as f64 * flits / (senders * cycles);
    let p = (rate / flits).min(1.0);
    let std_err = ((1.0 - p) / (senders * cycles * p)).sqrt();
    let tolerance = 0.03f64.max(5.0 * std_err);
    if (offered / rate - 1.0).abs() <= tolerance {
        Ok(())
    } else {
        Err(format!(
            "offered {offered:.4} flits/node/cycle against label {rate} (tolerance {:.1}%)",
            tolerance * 100.0
        ))
    }
}

/// Every per-job check except the pass-level ones (fork equals capture,
/// determinism, traced equals untraced).
pub fn check_output(workload: Workload, job: &Job, out: &Output) -> Vec<String> {
    let mut failures = Vec::new();
    match out {
        Output::Synth(p) => {
            if let Err(e) = check_load_label(job.spec(), &p.result.stats) {
                failures.push(format!("load label: {e}"));
            }
            if workload.must_stay_unsaturated() && p.result.saturated {
                failures.push(format!(
                    "saturated: {:.3} of measured packets delivered",
                    p.result.delivered_fraction
                ));
            }
        }
        Output::Mix(m) => {
            if !(m.cpu_latency.is_finite() && m.gpu_latency.is_finite()) {
                failures.push("non-finite CPU or GPU latency".into());
            }
            if m.kind == BackendKind::HybridTdmHopVct && m.cs_flit_fraction <= 0.0 {
                failures.push("hop-VCt switched no flit on a circuit".into());
            }
        }
    }
    failures
}

/// Distance from the paper, in percentage points: Figure 4's mean
/// |TDM-VC4 gain − paper| over UR/TOR/TR, or Figure 8's |mean hop-VCt
/// saving − 17.1|. `None` for the kilo-node workloads or a failed job.
pub fn fidelity_err_pp(workload: Workload, outputs: &[Option<Output>]) -> Option<f64> {
    match workload {
        Workload::Fig4Quick => {
            let points: Vec<&SynthPoint> = outputs
                .iter()
                .map(|o| match o {
                    Some(Output::Synth(p)) => Some(p),
                    _ => None,
                })
                .collect::<Option<_>>()?;
            let sat = |pattern: &str, kind: BackendKind| {
                let pts: Vec<SynthPoint> = points
                    .iter()
                    .filter(|p| p.pattern == pattern && p.kind == kind)
                    .map(|&p| p.clone())
                    .collect();
                max_goodput(&pts)
            };
            let err: f64 = paper_patterns()
                .iter()
                .zip(FIG4_PAPER_GAIN_PCT)
                .map(|(pattern, paper)| {
                    let gain = sat(pattern.name(), BackendKind::HybridTdmVc4)
                        / sat(pattern.name(), BackendKind::PacketVc4)
                        - 1.0;
                    (gain * 100.0 - paper).abs()
                })
                .sum();
            Some(err / FIG4_PAPER_GAIN_PCT.len() as f64)
        }
        Workload::Fig8Hetero => {
            let mut savings = Vec::new();
            for pair in outputs.chunks(2) {
                let [Some(Output::Mix(base)), Some(Output::Mix(hop))] = pair else {
                    return None;
                };
                savings.push(hop.breakdown.saving_vs(&base.breakdown));
            }
            let mean = savings.iter().sum::<f64>() / savings.len() as f64;
            Some((mean * 100.0 - FIG8_PAPER_SAVING_PCT).abs())
        }
        Workload::PsKiloHeavy | Workload::TdmKiloFork => None,
    }
}
