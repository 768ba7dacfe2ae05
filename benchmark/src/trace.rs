//! The traced pass: every job re-run through a benchmark-local runner
//! built from the same public calls as the untraced path, with two timing
//! wrappers around the fabric and the workload.
//!
//! Jobs and their phases (build, warm-up, capture, encode, decode, skip,
//! restore, measure, evaluate) are spans kept in memory. Per-cycle calls
//! are not stored one per call: their count and total time accumulate into
//! the enclosing phase span.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use noc_bench::{build_fabric, build_workload, Checkpoint, ScenarioError, TrafficSpec, Tuning};
use noc_hetero::{Floorplan, HeteroWorkload};
use noc_power::EnergyModel;
use noc_sim::telemetry::TelemetryConfig;
use noc_sim::{
    CircuitPlan, Cycle, DeliveredPacket, EnergyEvents, Fabric, FabricSnapshot, FaultEvent, Mesh,
    NetStats, NetworkConfig, NodeId, Packet, SnapshotError, TelemetryReport, WindowSnapshot,
};
use noc_traffic::{run_measurement, run_warmup, Workload};
use serde::Value;

use crate::jobs::{captured, hetero_benches, Job};

/// The timed per-cycle calls.
#[derive(Clone, Copy, Debug)]
pub enum Call {
    Step,
    Inject,
    RunUntil,
    Drain,
    Checkpoint,
    Restore,
    Tick,
}

const CALL_NAMES: [&str; 7] = [
    "step",
    "inject",
    "run_until",
    "drain",
    "checkpoint",
    "restore",
    "tick",
];

/// Count and total time of each [`Call`] inside one span, plus the
/// packets the workload produced and the cycles the fabric advanced.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calls {
    count: [u64; 7],
    ns: [u64; 7],
    pub packets: u64,
    pub cycles: u64,
}

impl Calls {
    fn record(&mut self, call: Call, start: Instant) {
        self.count[call as usize] += 1;
        self.ns[call as usize] += start.elapsed().as_nanos() as u64;
    }

    pub fn ns(&self, call: Call) -> u64 {
        self.ns[call as usize]
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn merge(&mut self, other: &Calls) {
        for i in 0..self.count.len() {
            self.count[i] += other.count[i];
            self.ns[i] += other.ns[i];
        }
        self.packets += other.packets;
        self.cycles += other.cycles;
    }
}

/// A [`Fabric`] that forwards every method, defaulted ones included (so
/// `run_until` keeps its idle leap), and times the ones that do work.
pub struct TimedFabric<'a> {
    inner: &'a mut dyn Fabric,
    calls: Calls,
    /// `checkpoint` takes `&self`: its (count, ns) are kept apart.
    checkpoints: Cell<(u64, u64)>,
}

impl<'a> TimedFabric<'a> {
    pub fn new(inner: &'a mut dyn Fabric) -> Self {
        TimedFabric {
            inner,
            calls: Calls::default(),
            checkpoints: Cell::new((0, 0)),
        }
    }

    pub fn into_calls(self) -> Calls {
        let mut calls = self.calls;
        let (count, ns) = self.checkpoints.get();
        calls.count[Call::Checkpoint as usize] += count;
        calls.ns[Call::Checkpoint as usize] += ns;
        calls
    }

    fn advancing<R>(&mut self, call: Call, f: impl FnOnce(&mut dyn Fabric) -> R) -> R {
        let before = self.inner.now();
        let start = Instant::now();
        let r = f(&mut *self.inner);
        self.calls.record(call, start);
        self.calls.cycles += self.inner.now() - before;
        r
    }
}

impl Fabric for TimedFabric<'_> {
    fn mesh(&self) -> Mesh {
        self.inner.mesh()
    }
    fn now(&self) -> Cycle {
        self.inner.now()
    }
    fn inject(&mut self, node: NodeId, pkt: Packet) {
        let start = Instant::now();
        self.inner.inject(node, pkt);
        self.calls.record(Call::Inject, start);
    }
    fn step(&mut self) {
        self.advancing(Call::Step, |f| f.step());
    }
    fn begin_measurement(&mut self) {
        self.inner.begin_measurement();
    }
    fn end_measurement(&mut self) {
        self.inner.end_measurement();
    }
    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
    fn stats_mut(&mut self) -> &mut NetStats {
        self.inner.stats_mut()
    }
    fn total_events(&self) -> EnergyEvents {
        self.inner.total_events()
    }
    fn is_drained(&self) -> bool {
        self.inner.is_drained()
    }
    fn set_collect_delivered(&mut self, on: bool) {
        self.inner.set_collect_delivered(on);
    }
    fn delivered_log(&self) -> &[DeliveredPacket] {
        self.inner.delivered_log()
    }
    fn clear_delivered_log(&mut self) {
        self.inner.clear_delivered_log();
    }
    fn set_step_threads(&mut self, threads: usize) {
        self.inner.set_step_threads(threads);
    }
    fn set_always_step(&mut self, on: bool) {
        self.inner.set_always_step(on);
    }
    fn configure_telemetry(&mut self, cfg: &TelemetryConfig) {
        self.inner.configure_telemetry(cfg);
    }
    fn telemetry_report(&mut self) -> Option<TelemetryReport> {
        self.inner.telemetry_report()
    }
    fn telemetry_window_count(&self) -> usize {
        self.inner.telemetry_window_count()
    }
    fn telemetry_windows_from(&self, from: usize) -> Vec<WindowSnapshot> {
        self.inner.telemetry_windows_from(from)
    }
    fn telemetry_metric_names(&self) -> Vec<String> {
        self.inner.telemetry_metric_names()
    }
    fn active_slots(&self) -> Option<u16> {
        self.inner.active_slots()
    }
    fn resizes(&self) -> u32 {
        self.inner.resizes()
    }
    fn run_until(&mut self, target: Cycle) {
        self.advancing(Call::RunUntil, |f| f.run_until(target));
    }
    fn drain(&mut self, max_cycles: u64) -> bool {
        self.advancing(Call::Drain, |f| f.drain(max_cycles))
    }
    fn checkpoint(&self) -> Result<FabricSnapshot, SnapshotError> {
        let start = Instant::now();
        let r = self.inner.checkpoint();
        let (count, ns) = self.checkpoints.get();
        self.checkpoints
            .set((count + 1, ns + start.elapsed().as_nanos() as u64));
        r
    }
    fn restore(&mut self, snap: &FabricSnapshot) -> Result<(), SnapshotError> {
        let start = Instant::now();
        let r = self.inner.restore(snap);
        self.calls.record(Call::Restore, start);
        r
    }
    fn set_faults(&mut self, timeline: Vec<FaultEvent>) -> Result<(), SnapshotError> {
        self.inner.set_faults(timeline)
    }
    fn install_circuit_plan(&mut self, plan: &CircuitPlan) -> Result<u32, SnapshotError> {
        self.inner.install_circuit_plan(plan)
    }
    fn arena_live(&self) -> usize {
        self.inner.arena_live()
    }
}

/// A [`Workload`] that times `tick` and counts the packets it produces.
pub struct TimedWorkload<'a> {
    inner: &'a mut dyn Workload,
    pub calls: Calls,
}

impl Workload for TimedWorkload<'_> {
    fn tick(&mut self, now: Cycle, measured: bool, sink: &mut dyn FnMut(NodeId, Packet)) {
        let mut packets = 0u64;
        let start = Instant::now();
        self.inner.tick(now, measured, &mut |n, p| {
            packets += 1;
            sink(n, p);
        });
        self.calls.record(Call::Tick, start);
        self.calls.packets += packets;
    }

    fn offered_load(&self) -> f64 {
        self.inner.offered_load()
    }
}

/// One closed span: a job (no parent) or a phase of one.
pub struct Span {
    pub name: String,
    pub job: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub calls: Calls,
}

impl Span {
    /// The span's duration minus the time its child calls cover.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.calls.total_ns())
    }
}

/// In-memory span store.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn open(&mut self, name: String, job: usize, parent: Option<usize>) -> (usize, Instant) {
        let start = Instant::now();
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns: 0,
            calls: Calls::default(),
        });
        (self.spans.len() - 1, start)
    }

    fn close(&mut self, (id, start): (usize, Instant), calls: Calls) {
        let span = &mut self.spans[id];
        span.dur_ns = start.elapsed().as_nanos() as u64;
        span.calls = calls;
    }

    /// A phase with no per-cycle children (build, encode, decode, skip,
    /// evaluate).
    fn leaf<R>(&mut self, job: (usize, usize), name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name.to_string(), job.1, Some(job.0));
        let r = f();
        self.close(open, Calls::default());
        r
    }

    /// A phase that drives the fabric and the workload through the timing
    /// wrappers.
    fn phase<R>(
        &mut self,
        job: (usize, usize),
        name: &str,
        fabric: &mut dyn Fabric,
        workload: &mut dyn Workload,
        f: impl FnOnce(&mut TimedFabric, &mut TimedWorkload) -> R,
    ) -> R {
        let open = self.open(name.to_string(), job.1, Some(job.0));
        let mut tf = TimedFabric::new(fabric);
        let mut tw = TimedWorkload {
            inner: workload,
            calls: Calls::default(),
        };
        let r = f(&mut tf, &mut tw);
        let mut calls = tf.into_calls();
        calls.merge(&tw.calls);
        self.close(open, calls);
        r
    }

    /// Run `job` (numbered `index` in its pass) through the traced runner
    /// and return its statistics. `blob` plays the same role as in
    /// [`crate::jobs::run_job`].
    pub fn run_job(
        &mut self,
        index: usize,
        job: &Job,
        blob: &mut Option<Vec<u8>>,
    ) -> Result<NetStats, ScenarioError> {
        let open = self.open(job.label(), index, None);
        let ids = (open.0, index);
        let stats = self.drive(ids, job, blob);
        self.close(open, Calls::default());
        stats
    }

    fn drive(
        &mut self,
        ids: (usize, usize),
        job: &Job,
        blob: &mut Option<Vec<u8>>,
    ) -> Result<NetStats, ScenarioError> {
        let spec = job.spec();
        let phases = spec.phases;
        if let TrafficSpec::Hetero { cpu, gpu } = &spec.traffic {
            // As `noc_hetero::run_mix`: the §V fabric with the delivered
            // log on, driven by the CPU+GPU traffic model.
            let (cpu, gpu) = hetero_benches(cpu, gpu)?;
            let (mut workload, mut fabric) = self.leaf(ids, "build", || {
                let workload = HeteroWorkload::new(Floorplan::figure7(), cpu, gpu, spec.seed);
                build_fabric(spec.backend, NetworkConfig::default(), Tuning::Hetero)
                    .map(|f| (workload, f))
            })?;
            fabric.set_collect_delivered(true);
            self.phase(ids, "warm-up", fabric.as_mut(), &mut workload, |f, w| {
                run_warmup(f, w, phases)
            });
            let result = self.phase(ids, "measure", fabric.as_mut(), &mut workload, |f, w| {
                run_measurement(f, w, phases)
            });
            self.evaluate(ids, &result.stats);
            return Ok(result.stats);
        }

        // As `noc_bench::run_synthetic_spec_ctl` / `run_spec`.
        let checkpoint = match job {
            Job::Fork { .. } => Some(self.leaf(ids, "decode", || {
                let ck = Checkpoint::decode(captured(blob)?)?;
                ck.compatible_with(spec).map(|()| ck)
            })?),
            _ => None,
        };
        let (mut source, mut fabric) = self.leaf(ids, "build", || {
            let source = build_workload(spec)?.ok_or_else(|| {
                ScenarioError::Parse("synthetic job without a synthetic workload".into())
            })?;
            spec.build_fabric().map(|f| (source, f))
        })?;
        if let Some(ck) = &checkpoint {
            self.leaf(ids, "skip", || {
                source.skip_ticks(ck.warmup_ticks);
                source.skip_to(ck.next_packet_id);
            });
            self.phase(ids, "restore", fabric.as_mut(), &mut source, |f, _| {
                f.restore(&ck.snapshot)
            })
            .map_err(|e| ScenarioError::Checkpoint(e.to_string()))?;
        } else {
            let ticks = self.phase(ids, "warm-up", fabric.as_mut(), &mut source, |f, w| {
                run_warmup(f, w, phases)
            });
            if let Job::Capture(_) = job {
                let snapshot = self
                    .phase(ids, "capture", fabric.as_mut(), &mut source, |f, _| {
                        f.checkpoint()
                    })
                    .map_err(|e| ScenarioError::Checkpoint(e.to_string()))?;
                let ck = Checkpoint {
                    spec: spec.clone(),
                    warmup_ticks: ticks,
                    next_packet_id: source.next_id_preview(),
                    snapshot,
                };
                *blob = Some(self.leaf(ids, "encode", || ck.encode()));
            }
        }
        let result = self.phase(ids, "measure", fabric.as_mut(), &mut source, |f, w| {
            run_measurement(f, w, phases)
        });
        self.evaluate(ids, &result.stats);
        Ok(result.stats)
    }

    fn evaluate(&mut self, ids: (usize, usize), stats: &NetStats) {
        self.leaf(ids, "evaluate", || {
            black_box(EnergyModel::default().evaluate_stats(stats));
        });
    }

    /// Per-layer totals of the spans from index `from` on.
    pub fn layers(&self, from: usize) -> Layers {
        let mut l = Layers::default();
        for span in &self.spans[from..] {
            if span.parent.is_none() {
                continue;
            }
            let c = &span.calls;
            l.step_ns += c.ns(Call::Step) + c.ns(Call::RunUntil) + c.ns(Call::Drain);
            l.inject_ns += c.ns(Call::Inject);
            l.tick_ns += c.ns(Call::Tick);
            l.checkpoint_ns += c.ns(Call::Checkpoint);
            l.restore_ns += c.ns(Call::Restore);
            l.packets += c.packets;
            l.cycles += c.cycles;
            match span.name.as_str() {
                "build" => l.build_ns += span.dur_ns,
                "encode" => l.encode_ns += span.dur_ns,
                "decode" => l.decode_ns += span.dur_ns,
                "skip" => l.skip_ns += span.dur_ns,
                "evaluate" => l.evaluate_ns += span.dur_ns,
                name => {
                    l.engine_self_ns += span.self_ns();
                    if name == "measure" {
                        l.measure_step_ns += c.ns(Call::Step);
                    }
                }
            }
        }
        l
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto).
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("id".to_string(), Value::UInt(id as u64)),
                    ("job".to_string(), Value::UInt(s.job as u64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    (
                        "self_us".to_string(),
                        Value::Float(s.self_ns() as f64 / 1e3),
                    ),
                ];
                for (i, name) in CALL_NAMES.iter().enumerate() {
                    if s.calls.count[i] > 0 {
                        args.push((format!("{name}_calls"), Value::UInt(s.calls.count[i])));
                        args.push((
                            format!("{name}_us"),
                            Value::Float(s.calls.ns[i] as f64 / 1e3),
                        ));
                    }
                }
                if s.calls.packets > 0 {
                    args.push(("packets".to_string(), Value::UInt(s.calls.packets)));
                }
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    (
                        "cat".to_string(),
                        Value::Str(if s.parent.is_some() { "phase" } else { "job" }.into()),
                    ),
                    ("ph".to_string(), Value::Str("X".into())),
                    ("ts".to_string(), Value::Float(s.start_ns as f64 / 1e3)),
                    ("dur".to_string(), Value::Float(s.dur_ns as f64 / 1e3)),
                    ("pid".to_string(), Value::UInt(1)),
                    ("tid".to_string(), Value::UInt(1)),
                    ("args".to_string(), Value::Object(args)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".into())),
        ])
    }
}

/// Host time per layer over a set of spans, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// noc-sim kernel: `step`, `run_until` and `drain`.
    pub step_ns: u64,
    /// The kernel's share inside measurement phases only, the window the
    /// `NetStats` counts cover.
    pub measure_step_ns: u64,
    pub inject_ns: u64,
    pub tick_ns: u64,
    /// Source fast-forward on restore (traffic layer).
    pub skip_ns: u64,
    pub checkpoint_ns: u64,
    pub restore_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub build_ns: u64,
    pub evaluate_ns: u64,
    /// Engine loop time inside driving phases not covered by timed calls.
    pub engine_self_ns: u64,
    pub packets: u64,
    pub cycles: u64,
}

impl Layers {
    /// Time covered by spans that name a layer.
    pub fn layer_ns(&self) -> u64 {
        self.step_ns
            + self.inject_ns
            + self.tick_ns
            + self.skip_ns
            + self.checkpoint_ns
            + self.restore_ns
            + self.encode_ns
            + self.decode_ns
            + self.build_ns
            + self.evaluate_ns
    }
}
