//! `noc_benchmark`: one workload of the simulator benchmark per run.
//!
//! ```text
//! noc_benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
//! ```
//!
//! One thread, closed loop: the workload's jobs run one at a time, in
//! whole passes, until the next pass would end after `--seconds`. With
//! `--trace 1` every untraced pass is followed by a traced re-run of the
//! same jobs. The run checks every job's output, prints a report, writes
//! it as JSON under `--out`, and ends with one JSON line holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! `benchmark/README.md` describes the workloads and metrics.

mod jobs;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use noc_scenario::cache_key::sha256;
use noc_scenario::spec::hex32;
use noc_scenario::Json;
use noc_sim::EnergyEvents;
use serde::Value;

use jobs::{check_output, construct, fidelity_err_pp, run_job, stats_json, Job, Output, Workload};
use trace::{Layers, Tracer};

const USAGE: &str =
    "usage: noc_benchmark --workload <ps_kilo_heavy|tdm_kilo_fork|fig4_quick|fig8_hetero> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]";

/// Set-up repeats (at least, at most) until `SETUP_SECONDS` have passed;
/// `setup_s` is the median repeat.
const SETUP_REPS: (usize, usize) = (7, 200);
const SETUP_SECONDS: f64 = 1.0;

/// `sim_digest` of each workload at this benchmark's baseline commit, by
/// `--seed`.
const BASELINE_DIGESTS: &str = include_str!("../baseline/digests.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// One job's run in one pass.
struct JobRecord {
    wall_s: f64,
    /// Serialised `NetStats`; `None` when the job returned an error.
    stats: Option<String>,
    failures: Vec<String>,
}

/// One untraced pass over every job.
struct Pass {
    wall_s: f64,
    records: Vec<JobRecord>,
}

impl Pass {
    /// SHA-256 over every job's serialised `NetStats`, in job order.
    fn digest(&self) -> String {
        let mut bytes = Vec::new();
        for r in &self.records {
            bytes.extend_from_slice(r.stats.as_deref().unwrap_or("error").as_bytes());
            bytes.push(b'\n');
        }
        hex32(&sha256(&bytes))
    }
}

fn untraced_pass(workload: Workload, jobs: &[Job]) -> (Pass, Vec<Option<Output>>) {
    let start = Instant::now();
    let mut blob = None;
    let mut capture_stats: Option<String> = None;
    let mut records = Vec::with_capacity(jobs.len());
    let mut outputs = Vec::with_capacity(jobs.len());
    for job in jobs {
        let t = Instant::now();
        let out = run_job(job, &mut blob);
        let wall_s = t.elapsed().as_secs_f64();
        let mut failures = Vec::new();
        let stats = match &out {
            Ok(o) => {
                failures = check_output(workload, job, o);
                Some(stats_json(o.stats()))
            }
            Err(e) => {
                failures.push(format!("error: {e}"));
                None
            }
        };
        match job {
            Job::Capture(_) => capture_stats = stats.clone(),
            Job::Fork {
                repeats_capture: true,
                ..
            } if stats.is_some() && stats != capture_stats => {
                failures.push("fork over the capture's window differs from the capture".into());
            }
            _ => {}
        }
        records.push(JobRecord {
            wall_s,
            stats,
            failures,
        });
        outputs.push(out.ok());
    }
    let pass = Pass {
        wall_s: start.elapsed().as_secs_f64(),
        records,
    };
    (pass, outputs)
}

/// Re-run every job traced; returns the pass wall time and the failures
/// (a traced job whose `NetStats` differ from its untraced run fails).
fn traced_pass(jobs: &[Job], untraced: &Pass, tracer: &mut Tracer) -> (f64, Vec<Vec<String>>) {
    let start = Instant::now();
    let mut blob = None;
    let failures = jobs
        .iter()
        .zip(&untraced.records)
        .enumerate()
        .map(
            |(i, (job, plain))| match tracer.run_job(i, job, &mut blob) {
                Ok(stats) if Some(stats_json(&stats)) == plain.stats => Vec::new(),
                Ok(_) => vec!["traced NetStats differ from the untraced run".to_string()],
                Err(e) => vec![format!("traced error: {e}")],
            },
        )
        .collect();
    (start.elapsed().as_secs_f64(), failures)
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The highest percentile with at least ten samples beyond it, and its
/// value; the median when there are fewer than twenty samples.
fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples.iter().copied());
    let n = s.len() as f64;
    let pct = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, quantile(&s, pct / 100.0))
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn baseline_digest(workload: Workload, seed: u64) -> Option<String> {
    Json::parse(BASELINE_DIGESTS)
        .ok()?
        .get(workload.name())?
        .get(&seed.to_string())?
        .as_str()
        .map(str::to_string)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The per-layer metrics: host times from the traced passes (median per
/// pass), exact counts from the first untraced pass's `NetStats`, job
/// percentiles from the untraced passes. Returns the metrics of the result
/// line, the report-only ones (snapshot times, layer coverage) and the
/// percentile `job.ptail_s` stands for.
fn per_layer_metrics(
    jobs: usize,
    first: &[Option<Output>],
    layers: &[Layers],
    traced_walls: &[f64],
    untraced: &[Pass],
) -> (Vec<Metric>, Vec<Metric>, f64) {
    let mut events = EnergyEvents::default();
    let (mut node_cycles, mut nodes_stepped) = (0u64, 0u64);
    for out in first.iter().flatten() {
        let s = out.stats();
        events.merge(&s.events);
        node_cycles += s.node_cycles;
        nodes_stepped += s.nodes_stepped;
    }
    let secs = |f: fn(&Layers) -> u64| median(layers.iter().map(|l| f(l) as f64 / 1e9));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let step_s = secs(|l| l.step_ns);
    let measure_step_ns = secs(|l| l.measure_step_ns) * 1e9;
    let tick_s = secs(|l| l.tick_ns);
    let packets = median(layers.iter().map(|l| l.packets as f64));
    let job_walls: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.records.iter().map(|r| r.wall_s))
        .collect();
    let (tail_pct, tail_s) = tail(&job_walls);
    let untraced_wall = median(untraced.iter().map(|p| p.wall_s));
    let traced_wall = median(traced_walls.iter().copied());
    let flit_hops = events.xbar_traversals as f64;
    let metrics = vec![
        metric("sim.step_s", step_s, "s"),
        metric(
            "sim.step_ns_per_flit_hop",
            ratio(measure_step_ns, flit_hops),
            "ns/flit-hop",
        ),
        metric("sim.va_ops", events.va_ops as f64, "count"),
        metric("sim.sa_ops", events.sa_ops as f64, "count"),
        metric("sim.buffer_writes", events.buffer_writes as f64, "count"),
        metric("sim.flit_hops", flit_hops, "count"),
        metric(
            "sim.step_ns_per_node_cycle",
            ratio(measure_step_ns, node_cycles as f64),
            "ns/node-cycle",
        ),
        metric("sim.node_cycles", node_cycles as f64, "count"),
        metric("sim.nodes_stepped", nodes_stepped as f64, "count"),
        metric(
            "sim.active_frac",
            ratio(nodes_stepped as f64, node_cycles as f64),
            "ratio",
        ),
        metric(
            "sim.cycles",
            median(layers.iter().map(|l| l.cycles as f64)),
            "count",
        ),
        metric("sim.inject_s", secs(|l| l.inject_ns), "s"),
        metric("traffic.tick_s", tick_s + secs(|l| l.skip_ns), "s"),
        metric(
            "traffic.tick_ns_per_packet",
            ratio(tick_s * 1e9, packets),
            "ns/packet",
        ),
        metric("tdm.cs_flit_frac", events.cs_flit_fraction(), "ratio"),
        metric("tdm.setup_attempts", events.setup_attempts as f64, "count"),
        // Failures include setups refused at the source's own slot table,
        // which never become attempts, so this can exceed 1.
        metric(
            "tdm.setup_failures_per_attempt",
            ratio(events.setup_failures as f64, events.setup_attempts as f64),
            "ratio",
        ),
        metric("tdm.slot_lookups", events.slot_lookups as f64, "count"),
        metric("tdm.slots_stolen", events.slots_stolen as f64, "count"),
        metric("tdm.resizes", events.slot_table_resizes as f64, "count"),
        metric(
            "tdm.gating_transitions",
            events.vc_gating_transitions as f64,
            "count",
        ),
        metric("scenario.build_s", secs(|l| l.build_ns), "s"),
        metric("power.evaluate_s", secs(|l| l.evaluate_ns), "s"),
        metric("engine.self_s", secs(|l| l.engine_self_ns), "s"),
        metric("job.count", jobs as f64, "count"),
        metric("job.p50_s", median(job_walls.iter().copied()), "s"),
        metric("job.ptail_s", tail_s, "s"),
        metric(
            "trace.overhead_frac",
            traced_wall / untraced_wall - 1.0,
            "ratio",
        ),
    ];
    let coverage = median(
        layers
            .iter()
            .zip(traced_walls)
            .map(|(l, w)| l.layer_ns() as f64 / 1e9 / w),
    );
    let report_only = vec![
        metric("sim.checkpoint_s", secs(|l| l.checkpoint_ns), "s"),
        metric("sim.restore_s", secs(|l| l.restore_ns), "s"),
        metric("scenario.ckpt_encode_s", secs(|l| l.encode_ns), "s"),
        metric("scenario.ckpt_decode_s", secs(|l| l.decode_ns), "s"),
        metric("trace.layer_coverage_frac", coverage, "ratio"),
    ];
    (metrics, report_only, tail_pct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let jobs = workload.jobs(args.seed);

    let mut setup = Vec::new();
    let setup_start = Instant::now();
    while setup.len() < SETUP_REPS.0
        || (setup.len() < SETUP_REPS.1 && setup_start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let t = Instant::now();
        for job in &jobs {
            if let Err(e) = construct(job) {
                eprintln!("error: building {}: {e}", job.label());
                return ExitCode::FAILURE;
            }
        }
        setup.push(t.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    let mut tracer = Tracer::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_outputs = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut failure_log: Vec<String> = Vec::new();
    let mut log = |label: String, failures: &[String]| {
        if !failures.is_empty() {
            failure_log.extend(failures.iter().map(|f| format!("{label}: {f}")));
        }
        !failures.is_empty()
    };
    loop {
        let (mut pass, outputs) = untraced_pass(workload, &jobs);
        if let Some(first) = passes.first() {
            for (r, f) in pass.records.iter_mut().zip(&first.records) {
                if r.stats != f.stats {
                    r.failures
                        .push("NetStats differ from the first pass (nondeterminism)".into());
                }
            }
        } else {
            first_outputs = outputs;
        }
        for (job, r) in jobs.iter().zip(&pass.records) {
            attempted += 1;
            failed += usize::from(log(job.label(), &r.failures));
        }
        if args.trace {
            let from = tracer.spans.len();
            let (wall, failures) = traced_pass(&jobs, &pass, &mut tracer);
            for (job, f) in jobs.iter().zip(&failures) {
                attempted += 1;
                failed += usize::from(log(format!("{} (traced)", job.label()), f));
            }
            traced_walls.push(wall);
            layers.push(tracer.layers(from));
        }
        passes.push(pass);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (1.0 + 1.0 / passes.len() as f64) > args.seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mb();

    let digest = passes[0].digest();
    let digest_status = match baseline_digest(workload, args.seed) {
        Some(d) if d == digest => "match",
        Some(_) => "CHANGED",
        None => "n/a (no baseline digest for this seed)",
    };
    let fidelity = fidelity_err_pp(workload, &first_outputs);
    let wall = sorted(passes.iter().map(|p| p.wall_s));
    let end_to_end = vec![
        metric("wall_s", quantile(&wall, 0.5), "s"),
        metric("setup_s", median(setup.iter().copied()), "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
    ];

    println!(
        "noc_benchmark {} seed {} seconds {} trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  {} jobs per pass, {} untraced and {} traced passes; attempted {attempted}, failed {failed}",
        jobs.len(),
        passes.len(),
        traced_walls.len()
    );
    for f in failure_log.iter().take(20) {
        println!("  FAILED {f}");
    }
    for m in &end_to_end {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  wall_s quartiles {:.4} / {:.4} / {:.4} s over {} passes",
        quantile(&wall, 0.25),
        quantile(&wall, 0.5),
        quantile(&wall, 0.75),
        wall.len()
    );
    println!("  sim_digest {digest} {digest_status}");
    if let Some(err) = fidelity {
        let name = match workload {
            Workload::Fig4Quick => "fig4_gain_err_pp",
            _ => "fig8_saving_err_pp",
        };
        println!("  {name} {err:.3} pp");
    }

    let mut report = vec![
        ("workload".to_string(), Value::Str(workload.name().into())),
        ("seed".to_string(), Value::UInt(args.seed)),
        ("seconds".to_string(), Value::Float(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("jobs_per_pass".to_string(), Value::UInt(jobs.len() as u64)),
        ("attempted".to_string(), Value::UInt(attempted as u64)),
        ("failed".to_string(), Value::UInt(failed as u64)),
        (
            "failures".to_string(),
            Value::Array(failure_log.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
        ("sim_digest".to_string(), Value::Str(digest.clone())),
        (
            "digest_status".to_string(),
            Value::Str(digest_status.into()),
        ),
        (
            "fidelity_err_pp".to_string(),
            fidelity.map_or(Value::Null, Value::Float),
        ),
        (
            "pass_wall_s".to_string(),
            Value::Array(passes.iter().map(|p| Value::Float(p.wall_s)).collect()),
        ),
        (
            "setup_s_samples".to_string(),
            Value::Array(setup.iter().map(|&s| Value::Float(s)).collect()),
        ),
        ("end_to_end".to_string(), metrics_value(&end_to_end)),
    ];

    let result_metrics = if args.trace {
        let (per_layer, report_only, tail_pct) =
            per_layer_metrics(jobs.len(), &first_outputs, &layers, &traced_walls, &passes);
        for m in per_layer.iter().chain(&report_only) {
            println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
        }
        println!("  job.ptail_s is p{tail_pct}");
        report.push(("per_layer".to_string(), metrics_value(&per_layer)));
        report.push(("report_only".to_string(), metrics_value(&report_only)));
        report.push(("job_ptail_percentile".to_string(), Value::Float(tail_pct)));
        write_out(
            &args.out,
            &format!("{}.trace.json", workload.name()),
            &tracer.chrome_trace(),
        );
        per_layer
    } else {
        end_to_end
    };
    let suffix = if args.trace { ".traced" } else { "" };
    write_out(
        &args.out,
        &format!("{}{suffix}.json", workload.name()),
        &Value::Object(report),
    );

    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::UInt(attempted as u64)),
        ("failed".to_string(), Value::UInt(failed as u64)),
        ("metrics".to_string(), metrics_value(&result_metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("serialisation is infallible")
    );
    ExitCode::SUCCESS
}

/// Write one output file; a failure is reported and does not stop the run.
fn write_out(dir: &Path, name: &str, value: &Value) {
    let path = dir.join(name);
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let json = serde_json::to_string_pretty(value).expect("serialisation is infallible");
        std::fs::write(&path, json)
    });
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobs::check_load_label;
    use noc_bench::{BackendKind, ScenarioSpec};
    use noc_hetero::{mix_phases, CPU_BENCHES, GPU_BENCHES};
    use noc_sim::{Fabric, NodeId, Packet, PacketId};
    use noc_traffic::{run_phases, PhaseConfig, SyntheticSource, TrafficPattern};
    use trace::TimedFabric;

    fn small_fork_jobs(repeat_window: u64) -> Vec<Job> {
        let cold = ScenarioSpec::synthetic(
            BackendKind::HybridTdmVc4,
            4,
            TrafficPattern::Transpose,
            0.1,
            PhaseConfig::pure_cycles(2_000, 1_000, 1_000),
            3,
        );
        let mut repeat = cold.clone();
        repeat.phases.measure_cycles = repeat_window;
        let mut longer = cold.clone();
        longer.phases.measure_cycles = 1_500;
        vec![
            Job::Capture(cold),
            Job::Fork {
                spec: repeat,
                repeats_capture: true,
            },
            Job::Fork {
                spec: longer,
                repeats_capture: false,
            },
        ]
    }

    #[test]
    fn wrapped_runs_match_run_spec() {
        let specs = [
            ScenarioSpec::synthetic(
                BackendKind::PacketVc4,
                4,
                TrafficPattern::UniformRandom,
                0.1,
                PhaseConfig::quick(),
                3,
            ),
            ScenarioSpec::synthetic(
                BackendKind::HybridTdmVc4,
                4,
                TrafficPattern::Transpose,
                0.1,
                PhaseConfig::quick(),
                5,
            ),
            ScenarioSpec::hetero(
                BackendKind::HybridTdmHopVct,
                CPU_BENCHES[0].name,
                GPU_BENCHES[0].name,
                mix_phases(true),
                7,
            ),
        ];
        for spec in specs {
            let job = Job::Spec(spec);
            let plain = run_job(&job, &mut None).expect("untraced run");
            let traced = Tracer::default()
                .run_job(0, &job, &mut None)
                .expect("traced run");
            assert_eq!(
                stats_json(&traced),
                stats_json(plain.stats()),
                "{}",
                job.label()
            );
        }
    }

    #[test]
    fn wrapped_run_until_keeps_the_leap() {
        let spec = ScenarioSpec::synthetic(
            BackendKind::PacketVc4,
            4,
            TrafficPattern::UniformRandom,
            0.1,
            PhaseConfig::quick(),
            3,
        );
        let drive = |fabric: &mut dyn Fabric| {
            let (src, dst) = (NodeId(0), NodeId(15));
            fabric.begin_measurement();
            fabric.inject(src, Packet::data(PacketId(1), src, dst, 5, fabric.now()));
            fabric.run_until(2_000);
            fabric.end_measurement();
        };
        let mut direct = spec.build_fabric().expect("fabric");
        drive(direct.as_mut());
        let mut inner = spec.build_fabric().expect("fabric");
        let mut wrapped = TimedFabric::new(inner.as_mut());
        drive(&mut wrapped);
        let calls = wrapped.into_calls();
        assert_eq!(calls.cycles, 2_000);
        assert!(calls.ns(trace::Call::RunUntil) > 0);
        assert_eq!(
            calls.ns(trace::Call::Step),
            0,
            "run_until must not fall back to step"
        );
        assert_eq!(inner.now(), direct.now());
        assert_eq!(inner.stats().packets_delivered, 1);
        assert_eq!(stats_json(inner.stats()), stats_json(direct.stats()));
    }

    #[test]
    fn load_label_rejects_a_mislabelled_source() {
        let labelled = |rate: f64| {
            ScenarioSpec::synthetic(
                BackendKind::PacketVc4,
                4,
                TrafficPattern::UniformRandom,
                rate,
                PhaseConfig::quick(),
                9,
            )
        };
        // Built with 0.06 flits/node/cycle, as the packet rate of a
        // "0.3 flits" point.
        let spec = labelled(0.3);
        let mut source =
            SyntheticSource::new(spec.topo(), TrafficPattern::UniformRandom, 0.06, 5, 9);
        let mut fabric = spec.build_fabric().expect("fabric");
        let stats = run_phases(fabric.as_mut(), &mut source, spec.phases).stats;
        assert!(check_load_label(&spec, &stats).is_err());
        assert!(check_load_label(&labelled(0.06), &stats).is_ok());
    }

    #[test]
    fn fork_over_the_capture_window_equals_the_capture() {
        let (pass, _) = untraced_pass(Workload::TdmKiloFork, &small_fork_jobs(1_000));
        for r in &pass.records {
            assert!(r.failures.is_empty(), "{:?}", r.failures);
        }
        assert_eq!(pass.records[1].stats, pass.records[0].stats);
        assert_ne!(pass.records[2].stats, pass.records[0].stats);

        // The traced runner forks the same way.
        let (_, traced) = traced_pass(&small_fork_jobs(1_000), &pass, &mut Tracer::default());
        assert!(traced.iter().all(Vec::is_empty), "{traced:?}");

        // A fork over another window is caught.
        let (pass, _) = untraced_pass(Workload::TdmKiloFork, &small_fork_jobs(1_200));
        assert!(pass.records[1]
            .failures
            .iter()
            .any(|f| f.contains("differs from the capture")));
    }

    #[test]
    fn sim_digest_is_deterministic() {
        let jobs = small_fork_jobs(1_000);
        let a = untraced_pass(Workload::TdmKiloFork, &jobs).0.digest();
        let b = untraced_pass(Workload::TdmKiloFork, &jobs).0.digest();
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
    }
}
