//! # noc-bench — experiment harnesses for every table and figure
//!
//! One binary per table/figure of the paper (`src/bin/`), plus the
//! `network_step` kernel bench. Every figure point is a [`ScenarioSpec`]
//! run by [`run_sweep`]; the ablations that need hand-built fabrics use
//! the same [`par_map`] fan-out and the shared engine
//! ([`noc_traffic::run_phases`]). This library also holds saturation
//! search and table/chart formatting.
//!
//! Every binary accepts `--scenario <file>` to run declarative
//! [`ScenarioSpec`]s (JSON) instead of its built-in paper configuration,
//! and binaries with `--json <path>` wrap their raw measurement points in
//! the schema-versioned envelope ([`result_envelope`]).
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Table I (+ §IV-A router area) | `table1_router_params` |
//! | Figure 4 (load–latency, UR/TOR/TR) | `fig4_load_latency` |
//! | Figure 5 (energy saving vs injection) | `fig5_energy_saving` |
//! | Figure 6 (scalability 8×8/16×16) | `fig6_scalability` |
//! | Table II + Figure 7 (system/floorplan) | `table2_system_config` |
//! | Figure 8 (energy + CPU/GPU speedups, 56 mixes) | `fig8_hetero` |
//! | Figure 9 (energy breakdown) | `fig9_breakdown` |
//! | Table III (injection + CS flit %) | `table3_cs_percent` |
//! | §II-C / §II-D / §III-A / §V-B4 design choices | `ablation_slot_table`, `ablation_stealing`, `ablation_sharing`, `ablation_gating_metric` |

use noc_power::{EnergyBreakdown, EnergyModel};
use noc_sim::telemetry::{chrome_trace_json, link_heatmap_csv};
use noc_sim::{Fabric, TelemetryConfig, TelemetryReport, WindowSnapshot};
use noc_traffic::{
    run_measurement_ctl, run_warmup_ctl, PhaseConfig, RunControl, RunResult, TrafficPattern,
};
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicUsize, Ordering};

pub use noc_hetero::MixResult;
pub use noc_scenario::{
    build_fabric, build_workload, json_flag, quick_flag, result_envelope,
    result_envelope_with_telemetry, scenario_flag, scenario_specs_from_cli, slot_capacity_for,
    sweep_threads_flag, telemetry_from_cli, trace_out_flag, write_json, BackendKind, Checkpoint,
    ScenarioError, ScenarioSpec, SpecSource, TrafficSpec, Tuning, SCHEMA_VERSION,
};
pub use noc_traffic::FreeRun;
pub use noc_workload::{capture_ticks, plan_top_flows, PacketTrace};

/// One synthetic measurement point.
#[derive(Clone, Debug, serde::Serialize)]
pub struct SynthPoint {
    pub kind: BackendKind,
    pub pattern: &'static str,
    pub rate: f64,
    pub result: RunResult,
    pub breakdown: EnergyBreakdown,
    /// Accepted throughput normalised to message payloads: circuit-switched
    /// packets carry a 64 B line in 4 flits instead of 5, so raw flit
    /// counts would undercount the hybrid network's useful throughput.
    pub goodput: f64,
}

/// Run a synthetic or trace [`ScenarioSpec`] (hetero specs are rejected —
/// those resolve through `noc_hetero::run_spec`). With `telemetry`, the
/// fabric is traced from the first warm-up cycle and the report is
/// returned; tracing only observes, so the [`SynthPoint`] is bit-identical
/// either way.
///
/// Checkpoint seam: a spec with `checkpoint_out` captures the warm-up and
/// writes it as a blob; a spec with `checkpoint_from` restores one instead
/// of warming up — and produces a byte-identical measurement to the
/// continuous run it forked from (same traffic/seed) or a fresh
/// measurement point (different traffic/seed: the warm-up fork). These
/// are the file forms of [`WarmStart::Fresh`] with capture and
/// [`WarmStart::Restore`].
pub fn run_synthetic_spec(
    spec: &ScenarioSpec,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(SynthPoint, Option<TelemetryReport>), ScenarioError> {
    let restored = spec
        .checkpoint_from
        .as_deref()
        .map(Checkpoint::read)
        .transpose()?;
    let warm = match &restored {
        Some(ck) => WarmStart::Restore(ck),
        None => WarmStart::Fresh {
            capture: spec.checkpoint_out.is_some(),
        },
    };
    match run_point(spec, warm, telemetry, true, &mut FreeRun)? {
        (ServeRun::Done { point, warm }, report) => {
            if let (Some(out), Some(ck)) = (&spec.checkpoint_out, warm) {
                ck.write(out)?;
            }
            Ok((point, report))
        }
        (ServeRun::Cancelled { .. }, _) => unreachable!("FreeRun never cancels"),
    }
}

/// (pattern label, offered rate) for a synthetic or trace point.
fn point_label(spec: &ScenarioSpec, source: &SpecSource) -> (&'static str, f64) {
    match &spec.traffic {
        TrafficSpec::Synthetic { pattern, rate } => (pattern.name(), *rate),
        TrafficSpec::Trace { .. } => ("trace", noc_traffic::Workload::offered_load(source)),
        TrafficSpec::Hetero { .. } => unreachable!("hetero specs never build a SpecSource"),
    }
}

/// Profiled hybrid switching (§III of the paper, profiled variant): rank
/// the spec's flows by carried circuit-eligible volume and plan pinned
/// circuits for the top `n`. Trace workloads are profiled exactly (the
/// whole trace); synthetic workloads profile a *shadow* capture of a
/// warm-up-length prefix — a fresh source, so the run's own RNG stream is
/// untouched and the measured traffic is unchanged.
fn plan_for_spec(spec: &ScenarioSpec, top: u32) -> Result<noc_sim::CircuitPlan, ScenarioError> {
    let mesh = spec.topo();
    Ok(match &spec.traffic {
        TrafficSpec::Trace { trace: Some(t), .. } => plan_top_flows(t, &mesh, top as usize, true),
        _ => {
            let mut shadow = spec.build_source().ok_or_else(|| {
                ScenarioError::Parse("profile_circuits needs a synthetic or trace workload".into())
            })?;
            let ticks = spec.phases.warmup_cycles.max(2_000);
            let capture = capture_ticks(&mut shadow, mesh.len() as u32, ticks);
            plan_top_flows(&capture, &mesh, top as usize, true)
        }
    })
}

/// Write the recorded injection-side trace of a `trace_export` run:
/// binary `NOCTRACE1`, or the JSON-lines twin when the path ends in
/// `.jsonl`.
fn write_trace_export(spec: &ScenarioSpec, source: &mut SpecSource) -> Result<(), ScenarioError> {
    let Some(path) = &spec.trace_export else {
        return Ok(());
    };
    let trace = source
        .take_recorded_trace()
        .expect("trace_export specs build a recording workload");
    let bytes = if path.ends_with(".jsonl") {
        trace.to_text().into_bytes()
    } else {
        trace.to_binary()
    };
    std::fs::write(path, bytes)?;
    Ok(())
}

/// How a run starts: cold (optionally capturing a warm-up checkpoint at
/// the warm/measurement boundary) or restored from a captured blob (the
/// warm-up fork, and the warm-up-cache hit path of `noc-serve`).
pub enum WarmStart<'a> {
    /// Pay the warm-up; `capture` additionally checkpoints the fabric at
    /// the boundary and returns the blob in [`ServeRun::Done`].
    Fresh { capture: bool },
    /// Restore a previously captured warm-up (must be
    /// [`Checkpoint::compatible_with`] the spec) and go straight to
    /// measurement.
    Restore(&'a Checkpoint),
}

/// Outcome of one cancellable in-process run ([`run_synthetic_spec_ctl`]).
/// One transient value per run, so the checkpoint-carrying `Done`
/// variant stays unboxed despite the size skew.
#[allow(clippy::large_enum_variant)]
pub enum ServeRun {
    Done {
        point: SynthPoint,
        /// The warm-up checkpoint, when `WarmStart::Fresh { capture: true }`
        /// asked for one.
        warm: Option<Checkpoint>,
    },
    /// The control hook cancelled the run. The fabric was given a bounded
    /// drain before being dropped; `arena_live` reports config-payload
    /// allocations still live afterwards (0 = clean cancellation, no
    /// leaks).
    Cancelled { arena_live: usize },
}

/// The worker-side engine entry point of `noc-serve`: [`run_synthetic_spec`]
/// with (a) a [`RunControl`] hook for tick-granularity cooperative
/// cancellation and live telemetry streaming and (b) an in-memory
/// [`WarmStart`] instead of the `checkpoint_out`/`checkpoint_from` files.
///
/// `stream` arms windowed metrics *after* the warm-up boundary — both
/// because `Fabric::checkpoint` refuses while telemetry is armed and so
/// the window frames cover exactly the measurement the subscriber cares
/// about. Telemetry only observes; results are bit-identical either way.
pub fn run_synthetic_spec_ctl(
    spec: &ScenarioSpec,
    warm: WarmStart<'_>,
    stream: Option<&TelemetryConfig>,
    ctl: &mut dyn RunControl,
) -> Result<ServeRun, ScenarioError> {
    run_point(spec, warm, stream, false, ctl).map(|(run, _)| run)
}

/// The one body behind every synthetic and trace run. `telemetry` is
/// armed before warm-up when `trace_warmup` is set, else at the
/// measurement boundary; the report is harvested after the drain. The
/// host-timing fields of the point are zeroed — they are the only
/// scheduling-dependent outputs, so equal specs serialise byte-identically
/// on any host and thread count.
fn run_point(
    spec: &ScenarioSpec,
    warm: WarmStart<'_>,
    telemetry: Option<&TelemetryConfig>,
    trace_warmup: bool,
    ctl: &mut dyn RunControl,
) -> Result<(ServeRun, Option<TelemetryReport>), ScenarioError> {
    fn cancelled(fabric: &mut dyn Fabric) -> (ServeRun, Option<TelemetryReport>) {
        // Flush in-flight flits so a cancelled run releases its arena
        // payloads; the bound keeps a wedged fabric from spinning forever.
        let _ = fabric.drain(100_000);
        let run = ServeRun::Cancelled {
            arena_live: fabric.arena_live(),
        };
        (run, None)
    }

    let mut source = build_workload(spec)?.ok_or_else(|| {
        ScenarioError::Parse(
            "run_synthetic_spec needs a synthetic or trace scenario (hetero \
             runs resolve through noc_hetero::run_spec)"
                .into(),
        )
    })?;
    let (name, rate) = point_label(spec, &source);
    if spec.trace_export.is_some() && matches!(warm, WarmStart::Restore(_)) {
        return Err(ScenarioError::Parse(
            "trace_export cannot restore a warm-up: the warm-up injections \
             it must record are skipped"
                .into(),
        ));
    }
    let mut fabric = spec.build_fabric()?;
    if let (Some(cfg), true) = (telemetry, trace_warmup) {
        fabric.configure_telemetry(cfg);
    }
    let warm_blob = match warm {
        WarmStart::Restore(ck) => {
            // Warm-up fork: fast-forward the source to the checkpointed RNG
            // position, raise its id allocator past every in-flight packet,
            // and restore the fabric. The snapshot carries the fault
            // timeline (and any pinned circuit plan) mid-flight, so neither
            // `set_faults` nor `install_circuit_plan` must run again here.
            ck.compatible_with(spec)?;
            source.skip_ticks(ck.warmup_ticks);
            source.skip_to(ck.next_packet_id);
            fabric
                .restore(&ck.snapshot)
                .map_err(|e| ScenarioError::Checkpoint(e.to_string()))?;
            None
        }
        WarmStart::Fresh { capture } => {
            if let Some(top) = spec.profile_circuits {
                let plan = plan_for_spec(spec, top)?;
                fabric
                    .install_circuit_plan(&plan)
                    .map_err(|e| ScenarioError::Parse(format!("profile_circuits: {e}")))?;
            }
            if !spec.faults.is_empty() {
                spec.validate_faults()?;
                fabric
                    .set_faults(spec.faults.clone())
                    .map_err(|e| ScenarioError::Fault(e.to_string()))?;
            }
            let Some(warmup_ticks) = run_warmup_ctl(fabric.as_mut(), &mut source, spec.phases, ctl)
            else {
                return Ok(cancelled(fabric.as_mut()));
            };
            if capture {
                let snapshot = fabric
                    .checkpoint()
                    .map_err(|e| ScenarioError::Checkpoint(e.to_string()))?;
                Some(Checkpoint {
                    spec: spec.clone(),
                    warmup_ticks,
                    next_packet_id: source.next_id_preview(),
                    snapshot,
                })
            } else {
                None
            }
        }
    };
    if let (Some(cfg), false) = (telemetry, trace_warmup) {
        fabric.configure_telemetry(cfg);
    }
    let Some(mut result) = run_measurement_ctl(fabric.as_mut(), &mut source, spec.phases, ctl)
    else {
        return Ok(cancelled(fabric.as_mut()));
    };
    write_trace_export(spec, &mut source)?;
    let report = telemetry.and_then(|_| fabric.telemetry_report());
    result.wall_seconds = 0.0;
    result.sim_cycles_per_sec = 0.0;
    let net_cfg = spec.net_config();
    let stats = &result.stats;
    let goodput = if stats.measured_cycles == 0 {
        0.0
    } else {
        stats.packets_delivered as f64 * net_cfg.ps_packet_flits as f64
            / (stats.measured_cycles as f64 * net_cfg.mesh.len() as f64)
    };
    let point = SynthPoint {
        kind: spec.backend,
        pattern: name,
        rate,
        breakdown: EnergyModel::default().evaluate_stats(stats),
        goodput,
        result,
    };
    let run = ServeRun::Done {
        point,
        warm: warm_blob,
    };
    Ok((run, report))
}

/// What one scenario spec produced: a synthetic sweep point or a
/// heterogeneous mix result.
#[derive(Clone, Debug)]
pub enum SpecOutcome {
    Synth(SynthPoint),
    Hetero(MixResult),
}

impl Serialize for SpecOutcome {
    fn to_value(&self) -> Value {
        match self {
            SpecOutcome::Synth(p) => p.to_value(),
            SpecOutcome::Hetero(m) => m.to_value(),
        }
    }
}

/// Run any [`ScenarioSpec`], dispatching on its traffic kind.
pub fn run_spec(spec: &ScenarioSpec) -> Result<SpecOutcome, ScenarioError> {
    run_one(spec, None).map(|(o, _)| o)
}

/// [`run_spec`] with optional telemetry, traced from the first warm-up
/// cycle: the per-point body of [`run_sweep`].
fn run_one(
    spec: &ScenarioSpec,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(SpecOutcome, Option<TelemetryReport>), ScenarioError> {
    Ok(match &spec.traffic {
        TrafficSpec::Synthetic { .. } | TrafficSpec::Trace { .. } => {
            let (p, r) = run_synthetic_spec(spec, telemetry)?;
            (SpecOutcome::Synth(p), r)
        }
        TrafficSpec::Hetero { .. } => {
            let (m, r) = noc_hetero::run_spec(spec, telemetry)?;
            (SpecOutcome::Hetero(m), r)
        }
    })
}

/// Map `f` over `items` on `threads` scoped worker threads (`0` = one per
/// available core, `1` = serial). Workers claim the next unclaimed item
/// until none is left, so a sweep whose points differ in cost stays
/// balanced; each result lands at its item's index, so the output is in
/// input order and the same for any thread count.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = match threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .min(items.len())
    .max(1);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        for h in handles {
            for (i, r) in h.join().expect("sweep worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item was claimed"))
        .collect()
}

/// Run a multi-point sweep over [`par_map`]'s `threads` workers. Every
/// point is an independent simulation seeded by its spec, with its
/// host-timing fields zeroed, so the outcomes are **byte-identical for
/// any thread count**. With `telemetry`, every spec runs under the same
/// config and yields its own report; the reports ride the same
/// spec-order merge, so they are thread-count invariant too. The first
/// spec error (in spec order) is returned, if any.
///
/// Warm-up fork: when every spec carries the same `checkpoint_from`
/// (what `--checkpoint-from` sets), one paid warm-up fans out into the
/// whole sweep — each point restores the blob and goes straight to its
/// own measurement phase.
pub fn run_sweep(
    specs: &[ScenarioSpec],
    threads: usize,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(Vec<SpecOutcome>, Vec<Option<TelemetryReport>>), ScenarioError> {
    par_map(specs, threads, |s| run_one(s, telemetry))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map(|runs| runs.into_iter().unzip())
}

/// Run a figure's specs untraced at `--sweep-threads`; any spec error is
/// fatal (exit code 2).
fn figure_sweep(specs: &[ScenarioSpec]) -> Vec<SpecOutcome> {
    match run_sweep(specs, sweep_threads_flag(), None) {
        Ok((outcomes, _)) => outcomes,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// [`figure_sweep`] over synthetic specs: the points, in spec order.
pub fn sweep_points(specs: &[ScenarioSpec]) -> Vec<SynthPoint> {
    figure_sweep(specs)
        .into_iter()
        .map(|o| match o {
            SpecOutcome::Synth(p) => p,
            SpecOutcome::Hetero(_) => unreachable!("synthetic specs yield synthetic points"),
        })
        .collect()
}

/// [`figure_sweep`] over hetero specs: the mix results, in spec order.
pub fn sweep_mixes(specs: &[ScenarioSpec]) -> Vec<MixResult> {
    figure_sweep(specs)
        .into_iter()
        .map(|o| match o {
            SpecOutcome::Hetero(m) => m,
            SpecOutcome::Synth(_) => unreachable!("hetero specs yield mix results"),
        })
        .collect()
}

/// Handle the shared `--scenario <file>` flag: when present, run the
/// spec(s) from the file and return `true` — the binary should then skip
/// its built-in figure. Scenario errors are fatal (exit code 2). Every
/// figure, table and ablation binary calls this first, so it first checks
/// the command line ([`noc_scenario::check_cli_args`]): `--help` exits 0
/// with the flag list, an unknown flag exits 2 before anything runs.
pub fn scenario_mode_ran() -> bool {
    noc_scenario::check_cli_args(noc_scenario::cli::FLAGS);
    let specs = match scenario_specs_from_cli() {
        Ok(None) => return false,
        Ok(Some(specs)) => specs,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run_scenario_specs(&specs) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    true
}

/// Run a list of scenario specs, print a generic result table, and (with
/// `--json <path>`) write the enveloped raw results. With `--trace-out
/// <path>` every spec runs traced: per-spec Chrome trace JSON and link
/// heatmap CSV files are written, and the result envelope (schema v2)
/// gains a `telemetry` block with the aggregates.
pub fn run_scenario_specs(specs: &[ScenarioSpec]) -> Result<(), ScenarioError> {
    let telemetry = noc_scenario::telemetry_from_cli()?;
    let (outcomes, reports) = run_sweep(
        specs,
        sweep_threads_flag(),
        telemetry.as_ref().map(|(_, cfg)| cfg),
    )?;

    let mut synth_rows = Vec::new();
    let mut hetero_rows = Vec::new();
    for (spec, out) in specs.iter().zip(&outcomes) {
        match out {
            SpecOutcome::Synth(p) => synth_rows.push(vec![
                p.kind.label().to_string(),
                format!("{0}x{0}", spec.mesh),
                p.pattern.to_string(),
                format!("{:.3}", p.rate),
                spec.seed.to_string(),
                format!(
                    "{:.1}{}",
                    p.result.avg_latency,
                    if p.result.saturated { "*" } else { "" }
                ),
                format!("{:.4}", p.result.throughput),
                format!("{:.4}", p.goodput),
                format!("{:.3e}", p.breakdown.total_pj()),
            ]),
            SpecOutcome::Hetero(m) => hetero_rows.push(vec![
                m.kind.label().to_string(),
                m.mix.clone(),
                spec.seed.to_string(),
                format!("{:.1}", m.cpu_latency),
                format!("{:.1}", m.gpu_latency),
                format!("{:.1}", m.cs_flit_fraction * 100.0),
                format!("{:.3e}", m.breakdown.total_pj()),
            ]),
        }
    }
    println!("=== scenario run — {} spec(s) ===\n", specs.len());
    if !synth_rows.is_empty() {
        println!(
            "{}",
            format_table(
                &[
                    "backend",
                    "mesh",
                    "pattern",
                    "rate",
                    "seed",
                    "avg latency",
                    "throughput",
                    "goodput",
                    "energy (pJ)"
                ],
                &synth_rows
            )
        );
        println!("(* = saturated)\n");
    }
    if !hetero_rows.is_empty() {
        println!(
            "{}",
            format_table(
                &[
                    "backend",
                    "mix",
                    "seed",
                    "CPU lat",
                    "GPU lat",
                    "CS flits %",
                    "energy (pJ)"
                ],
                &hetero_rows
            )
        );
    }
    let telemetry_block = match &telemetry {
        Some((path, _)) => Some(write_trace_files(path, &reports)?),
        None => None,
    };
    if let Some(path) = json_flag() {
        write_json(
            &path,
            &result_envelope_with_telemetry(&specs, &outcomes, telemetry_block),
        )?;
        println!("raw results written to {path}");
    }
    Ok(())
}

/// Write the per-spec trace exports: Chrome trace-event JSON to
/// `trace_out` (suffixed `-<i>` before the extension when the sweep has
/// several specs) and the link-utilization heatmap CSV next to it
/// (`<stem>.heatmap.csv`). Returns the envelope `telemetry` block: one
/// aggregate object per spec (`null` for backends without telemetry)
/// plus the element-wise sum of every spec's metrics windows.
fn write_trace_files(
    trace_out: &str,
    reports: &[Option<TelemetryReport>],
) -> Result<Value, ScenarioError> {
    let (stem, ext) = match trace_out.rsplit_once('.') {
        // Treat a dot inside a path component (`results/a.b/x`) as part
        // of the directory, not an extension.
        Some((s, e)) if !e.contains('/') => (s, e),
        _ => (trace_out, "json"),
    };
    let path_for = |i: usize, suffix: &str| -> String {
        if reports.len() == 1 {
            format!("{stem}{suffix}.{ext}")
        } else {
            format!("{stem}-{i}{suffix}.{ext}")
        }
    };
    let mut merged: Option<(&[&str], Vec<WindowSnapshot>)> = None;
    for (i, report) in reports.iter().enumerate() {
        let Some(r) = report else { continue };
        let trace_path = path_for(i, "");
        std::fs::write(&trace_path, chrome_trace_json(r))?;
        let heatmap_path = format!(
            "{}.heatmap.csv",
            trace_path
                .strip_suffix(&format!(".{ext}"))
                .unwrap_or(&trace_path)
        );
        std::fs::write(&heatmap_path, link_heatmap_csv(r))?;
        println!(
            "trace written to {trace_path} ({} events), heatmap to {heatmap_path}",
            r.events.len()
        );
        match &mut merged {
            None => merged = Some((r.metric_names, r.windows.clone())),
            Some((_, windows)) => sum_windows(windows, &r.windows),
        }
    }
    let mut fields = vec![(
        "specs".to_string(),
        Value::Array(reports.iter().map(Serialize::to_value).collect()),
    )];
    if let Some((names, windows)) = merged {
        fields.push((
            "merged_metrics".to_string(),
            Value::Object(vec![
                (
                    "metric_names".to_string(),
                    Value::Array(names.iter().map(|n| Value::Str(n.to_string())).collect()),
                ),
                ("windows".to_string(), windows.to_value()),
            ]),
        ));
    }
    Ok(Value::Object(fields))
}

/// Add `other`'s windows into `sum` by index, value by value; windows
/// past the end of `sum` are appended. Each window keeps the bounds of
/// the first spec that closed it.
fn sum_windows(sum: &mut Vec<WindowSnapshot>, other: &[WindowSnapshot]) {
    for (i, w) in other.iter().enumerate() {
        match sum.get_mut(i) {
            Some(mine) => {
                for (a, b) in mine.values.iter_mut().zip(&w.values) {
                    *a += b;
                }
            }
            None => sum.push(w.clone()),
        }
    }
}

/// The paper's three synthetic patterns (§IV).
pub fn paper_patterns() -> [TrafficPattern; 3] {
    [
        TrafficPattern::UniformRandom,
        TrafficPattern::Tornado,
        TrafficPattern::Transpose,
    ]
}

/// Injection-rate sweep for load–latency curves.
pub fn rate_sweep(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.02, 0.06, 0.12, 0.20, 0.30, 0.42, 0.55, 0.70]
    } else {
        vec![
            0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.36, 0.42, 0.48, 0.55, 0.62, 0.70,
            0.80,
        ]
    }
}

/// Phases sized for the experiment binaries (the paper warms up with 1 000
/// packets and simulates 100 000).
pub fn paper_phases(quick: bool) -> PhaseConfig {
    if quick {
        PhaseConfig {
            warmup_cycles: 1_500,
            warmup_packets: 500,
            measure_cycles: 8_000,
            measure_packets: 30_000,
            drain_cycles: 5_000,
        }
    } else {
        PhaseConfig {
            warmup_cycles: 3_000,
            warmup_packets: 1_000,
            measure_cycles: 25_000,
            measure_packets: 100_000,
            drain_cycles: 10_000,
        }
    }
}

/// Maximum goodput over a sweep — the saturation throughput used by
/// Figure 4's "improve the throughput by …" numbers and Figure 6(a).
pub fn max_goodput(points: &[SynthPoint]) -> f64 {
    points.iter().map(|p| p.goodput).fold(0.0, f64::max)
}

/// One chart series: label, plot glyph, and (x, y) points.
pub type Series<'a> = (&'a str, char, Vec<(f64, f64)>);

/// Render an ASCII line chart of several (x, y) series — the textual
/// counterpart of the paper's load–latency figures. Y is clipped to
/// `y_max`; each series draws with its own glyph.
pub fn ascii_chart(
    title: &str,
    series: &[Series],
    y_max: f64,
    width: usize,
    height: usize,
) -> String {
    let x_min = series
        .iter()
        .flat_map(|(_, _, pts)| pts.iter().map(|p| p.0))
        .fold(f64::INFINITY, f64::min);
    let x_max = series
        .iter()
        .flat_map(|(_, _, pts)| pts.iter().map(|p| p.0))
        .fold(f64::NEG_INFINITY, f64::max);
    if !x_min.is_finite() || x_max <= x_min {
        return format!("{title}\n(no data)\n");
    }
    let mut grid = vec![vec![' '; width]; height];
    for (_, glyph, pts) in series {
        for &(x, y) in pts {
            if !y.is_finite() {
                continue;
            }
            let xi = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
            let yc = y.min(y_max).max(0.0);
            let yi = ((yc / y_max) * (height - 1) as f64).round() as usize;
            let row = height - 1 - yi;
            grid[row][xi.min(width - 1)] = *glyph;
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{y_max:>7.0} |")
        } else if i == height - 1 {
            format!("{:>7.0} |", 0.0)
        } else {
            "        |".to_string()
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "        +{}\n         {x_min:<8.2}{:>w$.2}\n",
        "-".repeat(width),
        x_max,
        w = width - 8
    ));
    for (name, glyph, _) in series {
        out.push_str(&format!("         {glyph} = {name}\n"));
    }
    out
}

/// Render a simple aligned table.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_point_runs_for_every_kind() {
        for kind in BackendKind::SYNTH {
            let spec = ScenarioSpec::synthetic(
                kind,
                4,
                TrafficPattern::Transpose,
                0.08,
                PhaseConfig::quick(),
                3,
            );
            let (p, report) = run_synthetic_spec(&spec, None).expect("spec runs");
            assert!(report.is_none(), "untraced runs harvest no report");
            assert!(
                p.result.stats.packets_delivered > 50,
                "{}: only {} packets",
                kind.label(),
                p.result.stats.packets_delivered
            );
            assert!(p.result.avg_latency.is_finite());
            assert!(p.breakdown.total_pj() > 0.0);
            assert!(p.goodput > 0.0);
            assert_eq!(p.result.wall_seconds, 0.0, "host timing is zeroed");
            assert!(matches!(run_spec(&spec).unwrap(), SpecOutcome::Synth(_)));
        }
    }

    #[test]
    fn tdm_circuit_switches_transpose() {
        // Transpose has one destination per source: circuits must form.
        let spec = ScenarioSpec::synthetic(
            BackendKind::HybridTdmVc4,
            6,
            TrafficPattern::Transpose,
            0.20,
            PhaseConfig::quick(),
            5,
        );
        let (p, _) = run_synthetic_spec(&spec, None).expect("spec runs");
        assert!(
            p.result.stats.events.cs_flit_fraction() > 0.10,
            "TR CS fraction {:.3}",
            p.result.stats.events.cs_flit_fraction()
        );
    }

    #[test]
    fn par_map_keeps_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map(&items, 1, |x| x * x);
        for threads in [0, 2, 5, 64] {
            assert_eq!(
                par_map(&items, threads, |x| x * x),
                serial,
                "{threads} threads"
            );
        }
        assert!(par_map(&[] as &[u64], 0, |x| *x).is_empty());
    }

    /// `run_sweep` must merge worker chunks back in spec order and zero
    /// the host-timing fields, making the serialised envelope
    /// byte-identical for any thread count at fixed seeds.
    #[test]
    fn run_sweep_is_thread_count_invariant() {
        let specs: Vec<ScenarioSpec> = [(0.05, 11u64), (0.10, 12), (0.08, 13), (0.12, 14)]
            .iter()
            .map(|&(rate, seed)| {
                ScenarioSpec::synthetic(
                    BackendKind::HybridTdmVc4,
                    4,
                    TrafficPattern::UniformRandom,
                    rate,
                    PhaseConfig::quick(),
                    seed,
                )
            })
            .collect();
        let envelope_for = |threads: usize| {
            let (outcomes, _) = run_sweep(&specs, threads, None).expect("sweep runs");
            assert_eq!(outcomes.len(), specs.len());
            serde_json::to_string_pretty(&result_envelope(&specs, &outcomes)).expect("serializable")
        };
        let serial = envelope_for(1);
        assert_eq!(serial, envelope_for(4), "1 vs 4 threads");
        assert_eq!(serial, envelope_for(0), "1 thread vs one-per-core");
        assert!(
            serial.contains("\"nodes_stepped\""),
            "activity stats missing from the envelope"
        );
        assert!(!serial.is_empty());
    }

    /// Tracing only observes: the measurement half of a traced sweep is
    /// byte-identical to an untraced one, and the telemetry reports are
    /// themselves identical across sweep thread counts.
    #[test]
    fn traced_sweep_matches_untraced_and_is_thread_invariant() {
        let specs: Vec<ScenarioSpec> = [(0.06, 31u64), (0.10, 32), (0.14, 33)]
            .iter()
            .map(|&(rate, seed)| {
                ScenarioSpec::synthetic(
                    BackendKind::HybridTdmVc4,
                    4,
                    TrafficPattern::UniformRandom,
                    rate,
                    PhaseConfig::quick(),
                    seed,
                )
            })
            .collect();
        let cfg = noc_sim::TelemetryConfig::default();
        let (untraced, _) = run_sweep(&specs, 1, None).expect("untraced sweep");
        let (o1, r1) = run_sweep(&specs, 1, Some(&cfg)).expect("traced sweep");
        let (o4, r4) = run_sweep(&specs, 4, Some(&cfg)).expect("traced sweep x4");

        let env = |outcomes: &Vec<SpecOutcome>| {
            serde_json::to_string_pretty(&result_envelope(&specs, outcomes)).expect("serializable")
        };
        assert_eq!(env(&untraced), env(&o1), "tracing perturbed the run");
        assert_eq!(env(&o1), env(&o4), "1 vs 4 sweep threads");

        for (r1, r4) in r1.iter().zip(&r4) {
            let (r1, r4) = (r1.as_ref().expect("report"), r4.as_ref().expect("report"));
            assert_eq!(r1.events, r4.events, "telemetry depends on thread count");
            assert_eq!(r1.link_flits, r4.link_flits);
        }
        assert!(r1.iter().any(|r| !r.as_ref().unwrap().events.is_empty()));
    }

    /// End-to-end export: trace + heatmap files land on disk and the CSV
    /// flit column sums to the report's per-link totals.
    #[test]
    fn trace_files_export_and_heatmap_sums_match() {
        let spec = ScenarioSpec::synthetic(
            BackendKind::HybridTdmVc4,
            4,
            TrafficPattern::Transpose,
            0.15,
            PhaseConfig::quick(),
            9,
        );
        let cfg = noc_sim::TelemetryConfig::default();
        let (_, report) = run_synthetic_spec(&spec, Some(&cfg)).expect("traced run");
        let report = report.expect("tdm backend reports telemetry");

        let dir = std::env::temp_dir().join(format!("noc-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_out = dir.join("trace.json").to_string_lossy().into_owned();
        let block = write_trace_files(&trace_out, std::slice::from_ref(&Some(report.clone())))
            .expect("export writes");

        let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace file");
        assert!(trace.contains("\"traceEvents\""));
        let csv = std::fs::read_to_string(dir.join("trace.heatmap.csv")).expect("heatmap file");
        // Column 4 is `flits` (the trailing column is `fault_drops`).
        let sum: u64 = csv
            .lines()
            .skip(1)
            .map(|row| row.split(',').nth(4).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(
            sum,
            report.total_link_flits(),
            "CSV vs envelope link counts"
        );
        let Value::Object(fields) = block else {
            panic!("telemetry block is an object")
        };
        assert_eq!(fields[0].0, "specs");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bbbb"));
    }
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn chart_renders_all_series() {
        let s = ascii_chart(
            "test",
            &[
                ("a", 'a', vec![(0.0, 10.0), (1.0, 50.0)]),
                ("b", 'b', vec![(0.0, 90.0), (1.0, 500.0)]), // clipped
            ],
            100.0,
            20,
            8,
        );
        assert!(s.contains('a') && s.contains('b'));
        assert!(s.contains("= a") && s.contains("= b"));
        assert!(s.lines().count() >= 10);
    }

    #[test]
    fn chart_handles_empty_series() {
        let s = ascii_chart("empty", &[("a", 'a', vec![])], 10.0, 10, 4);
        assert!(s.contains("no data"));
    }
}
