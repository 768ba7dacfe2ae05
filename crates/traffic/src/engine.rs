//! The generic experiment engine: one warm-up → measure → drain loop over
//! any [`Fabric`] and any [`Workload`].
//!
//! This is the single run loop behind every driver in the workspace: the
//! scenario runner (`noc-bench`), the heterogeneous per-mix runner
//! (`noc-hetero`), and the ablations that drive hand-configured fabrics. It follows the paper's methodology (§IV-A: "the
//! network is warmed up with 1000 packets and simulated for 100,000
//! packets"; §V phases are pure cycle counts — express those by setting
//! `warmup_packets = 0` and `measure_packets = u64::MAX`).
//!
//! The fabric is touched through exactly one virtual call per cycle
//! ([`Fabric::step`]), so the engine adds no per-node or per-flit dynamic
//! dispatch on top of the allocation-free cycle kernel.

use noc_sim::{Cycle, Fabric, NodeId, Packet};

use crate::driver::{PhaseConfig, RunResult};

/// A packet generator driving an experiment: synthetic Bernoulli sources,
/// the heterogeneous CPU+GPU workload model, trace replayers, …
pub trait Workload {
    /// Generate this cycle's new packets into `sink`; `measured` marks
    /// whether they belong to the measurement window.
    fn tick(&mut self, now: Cycle, measured: bool, sink: &mut dyn FnMut(NodeId, Packet));

    /// Offered load in flits/node/cycle, when the workload has a meaningful
    /// single number (synthetic sources); `0.0` otherwise.
    fn offered_load(&self) -> f64 {
        0.0
    }
}

/// Per-cycle control hook for live runs: cooperative cancellation plus an
/// observation point a streaming harness (`noc-serve`) can use to publish
/// telemetry windows as they close. Called once per simulated cycle,
/// immediately after the fabric stepped; returning `false` cancels the
/// run (the `_ctl` engine entry points then return `None` without
/// touching the fabric further, leaving cleanup — typically a bounded
/// drain — to the caller).
///
/// The hook only observes: a control that always returns `true` leaves
/// the simulated results bit-identical to the plain entry points.
pub trait RunControl {
    fn on_cycle(&mut self, fabric: &mut dyn Fabric) -> bool;
}

/// The default control: never cancels, observes nothing.
pub struct FreeRun;

impl RunControl for FreeRun {
    fn on_cycle(&mut self, _fabric: &mut dyn Fabric) -> bool {
        true
    }
}

/// Run the three-phase experiment loop on `fabric` driven by `workload`:
/// [`run_warmup`] followed by [`run_measurement`]. Phase semantics are
/// identical to the pre-`Fabric` concrete drivers, which the
/// `fabric_equivalence` property tests pin.
pub fn run_phases(
    fabric: &mut dyn Fabric,
    workload: &mut dyn Workload,
    phases: PhaseConfig,
) -> RunResult {
    run_warmup(fabric, workload, phases);
    run_measurement(fabric, workload, phases)
}

/// Phase 1, **warm-up**: unmeasured traffic for at least `warmup_cycles`
/// cycles *and* `warmup_packets` packets (with a zero-rate guard).
///
/// Returns the number of workload ticks performed — the count a
/// checkpoint must record so a restored run can fast-forward its own
/// source's RNG to the same position with `SyntheticSource::skip_ticks`
/// (the id allocator follows from the checkpoint's watermark via
/// `PacketFactory::skip_to`).
pub fn run_warmup(
    fabric: &mut dyn Fabric,
    workload: &mut dyn Workload,
    phases: PhaseConfig,
) -> u64 {
    run_warmup_ctl(fabric, workload, phases, &mut FreeRun).expect("FreeRun never cancels")
}

/// [`run_warmup`] with a [`RunControl`] hook; `None` when cancelled.
pub fn run_warmup_ctl(
    fabric: &mut dyn Fabric,
    workload: &mut dyn Workload,
    phases: PhaseConfig,
    ctl: &mut dyn RunControl,
) -> Option<u64> {
    let ph = phases;
    let mut scratch: Vec<(NodeId, Packet)> = Vec::new();
    let mut ticks = 0u64;
    let mut injected = 0u64;
    let start = fabric.now();
    while fabric.now() - start < ph.warmup_cycles || injected < ph.warmup_packets {
        let now = fabric.now();
        scratch.clear();
        workload.tick(now, false, &mut |n, p| scratch.push((n, p)));
        ticks += 1;
        injected += scratch.len() as u64;
        for (n, p) in scratch.drain(..) {
            fabric.inject(n, p);
        }
        fabric.step();
        if !ctl.on_cycle(fabric) {
            return None;
        }
        if fabric.now() - start > ph.warmup_cycles * 50 {
            break; // zero-rate guard
        }
    }
    Some(ticks)
}

/// Phases 2–3, **measurement** and **drain**, on an already-warm fabric
/// (either fresh from [`run_warmup`] or restored from a checkpoint):
///
/// 2. **Measurement** — measured traffic until `measure_cycles` elapse or
///    `measure_packets` have been offered;
/// 3. **Drain** — unmeasured background traffic for up to `drain_cycles`,
///    stopping early once every offered packet has been delivered.
///
/// Accepted throughput and leakage accounting use the injection window
/// only (`stats.measured_cycles` is fixed up to it): deliveries during the
/// drain phase would otherwise inflate throughput past the offered load at
/// saturation.
pub fn run_measurement(
    fabric: &mut dyn Fabric,
    workload: &mut dyn Workload,
    phases: PhaseConfig,
) -> RunResult {
    run_measurement_ctl(fabric, workload, phases, &mut FreeRun).expect("FreeRun never cancels")
}

/// [`run_measurement`] with a [`RunControl`] hook; `None` when cancelled
/// (mid-measurement or mid-drain — either way the window is abandoned,
/// `end_measurement` is not called, and the fabric is left to the caller).
pub fn run_measurement_ctl(
    fabric: &mut dyn Fabric,
    workload: &mut dyn Workload,
    phases: PhaseConfig,
    ctl: &mut dyn RunControl,
) -> Option<RunResult> {
    let ph = phases;
    let nodes = fabric.mesh().len();
    let wall_start = std::time::Instant::now();
    let first_cycle = fabric.now();
    let mut scratch: Vec<(NodeId, Packet)> = Vec::new();

    // Measurement.
    fabric.begin_measurement();
    fabric.clear_delivered_log();
    let mstart = fabric.now();
    let mut offered_packets = 0u64;
    while fabric.now() - mstart < ph.measure_cycles && offered_packets < ph.measure_packets {
        let now = fabric.now();
        scratch.clear();
        workload.tick(now, true, &mut |n, p| scratch.push((n, p)));
        offered_packets += scratch.len() as u64;
        for (n, p) in scratch.drain(..) {
            fabric.inject(n, p);
        }
        fabric.step();
        if !ctl.on_cycle(fabric) {
            return None;
        }
    }

    // Accepted throughput is measured over the injection window only —
    // deliveries during the drain phase would otherwise inflate it past
    // the offered load at saturation.
    let dstart = fabric.now();
    let window_flits = fabric.stats().flits_delivered;
    let window_cycles = dstart - mstart;

    // Drain: keep background (unmeasured) traffic flowing so contention
    // stays realistic, and wait for measured packets to leave.
    while fabric.now() - dstart < ph.drain_cycles {
        if fabric.stats().packets_delivered >= fabric.stats().packets_offered {
            break;
        }
        let now = fabric.now();
        scratch.clear();
        workload.tick(now, false, &mut |n, p| scratch.push((n, p)));
        for (n, p) in scratch.drain(..) {
            fabric.inject(n, p);
        }
        fabric.step();
        if !ctl.on_cycle(fabric) {
            return None;
        }
    }
    fabric.end_measurement();
    // Leakage/throughput accounting uses the injection window only.
    fabric.stats_mut().measured_cycles = window_cycles;

    let stats = fabric.stats().clone();
    let delivered_fraction = if stats.packets_offered == 0 {
        1.0
    } else {
        stats.packets_delivered as f64 / stats.packets_offered as f64
    };
    let avg_latency = stats.avg_latency();
    let saturated = delivered_fraction < 0.95;
    let throughput = if window_cycles == 0 {
        0.0
    } else {
        window_flits as f64 / (window_cycles as f64 * nodes as f64)
    };
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let total_cycles = fabric.now() - first_cycle;
    Some(RunResult {
        offered: workload.offered_load(),
        avg_latency,
        throughput,
        delivered_fraction,
        saturated,
        wall_seconds,
        sim_cycles_per_sec: if wall_seconds > 0.0 {
            total_cycles as f64 / wall_seconds
        } else {
            0.0
        },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::TrafficPattern;
    use crate::source::SyntheticSource;
    use noc_sim::{Mesh, Network, NetworkConfig, PacketNode};

    #[test]
    fn engine_runs_a_boxed_fabric() {
        let mesh = Mesh::square(4);
        let cfg = NetworkConfig::with_mesh(mesh);
        let mut fabric: Box<dyn Fabric> =
            Box::new(Network::new(mesh, |id| PacketNode::new(id, &cfg, None)));
        let mut src = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.05, 5, 11);
        let r = run_phases(fabric.as_mut(), &mut src, PhaseConfig::quick());
        assert!(!r.saturated);
        assert!(r.delivered_fraction > 0.99);
        assert!(
            (r.offered - 0.05).abs() < 1e-12,
            "offered load from workload"
        );
        assert!(r.stats.packets_delivered > 50);
    }

    #[test]
    fn warmup_then_measurement_equals_run_phases() {
        // The split seam must not change behaviour: composing the two
        // halves by hand gives the same simulated results as the one-shot
        // loop (only the host-timing fields may differ).
        let mesh = Mesh::square(4);
        let run = |split: bool| {
            let cfg = NetworkConfig::with_mesh(mesh);
            let mut net = Network::new(mesh, |id| PacketNode::new(id, &cfg, None));
            let mut src = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.08, 5, 21);
            if split {
                let ticks = run_warmup(&mut net, &mut src, PhaseConfig::quick());
                assert!(ticks >= PhaseConfig::quick().warmup_cycles);
                run_measurement(&mut net, &mut src, PhaseConfig::quick())
            } else {
                run_phases(&mut net, &mut src, PhaseConfig::quick())
            }
        };
        let (a, b) = (run(false), run(true));
        assert_eq!(a.stats.packets_delivered, b.stats.packets_delivered);
        assert_eq!(a.stats.latency_sum, b.stats.latency_sum);
        assert_eq!(a.stats.measured_cycles, b.stats.measured_cycles);
        assert_eq!(a.stats.events, b.stats.events);
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.throughput, b.throughput);
    }

    #[test]
    fn run_control_cancels_at_tick_granularity() {
        struct CancelAfter(u64, u64);
        impl RunControl for CancelAfter {
            fn on_cycle(&mut self, _fabric: &mut dyn Fabric) -> bool {
                self.1 += 1;
                self.1 < self.0
            }
        }
        let mesh = Mesh::square(4);
        let cfg = NetworkConfig::with_mesh(mesh);
        let mut net = Network::new(mesh, |id| PacketNode::new(id, &cfg, None));
        let mut src = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.05, 5, 11);
        let mut ctl = CancelAfter(40, 0);
        let r = run_warmup_ctl(&mut net, &mut src, PhaseConfig::quick(), &mut ctl);
        assert!(r.is_none(), "cancelled runs return no result");
        assert_eq!(net.now(), 40, "the run stopped on the cancelling tick");
        // The fabric is still usable: the caller can drain it clean.
        assert!(net.drain(10_000));
    }

    #[test]
    fn free_run_control_matches_plain_entry_points() {
        let mesh = Mesh::square(4);
        let run = |ctl: bool| {
            let cfg = NetworkConfig::with_mesh(mesh);
            let mut net = Network::new(mesh, |id| PacketNode::new(id, &cfg, None));
            let mut src = SyntheticSource::new(mesh, TrafficPattern::Transpose, 0.08, 5, 7);
            if ctl {
                let ph = PhaseConfig::quick();
                run_warmup_ctl(&mut net, &mut src, ph, &mut FreeRun).unwrap();
                run_measurement_ctl(&mut net, &mut src, ph, &mut FreeRun).unwrap()
            } else {
                run_phases(&mut net, &mut src, PhaseConfig::quick())
            }
        };
        let (a, b) = (run(false), run(true));
        assert_eq!(a.stats.packets_delivered, b.stats.packets_delivered);
        assert_eq!(a.stats.latency_sum, b.stats.latency_sum);
        assert_eq!(a.stats.events, b.stats.events);
    }

    #[test]
    fn pure_cycle_phases_run_exact_windows() {
        // HeteroPhases-style configuration: no packet floors/caps.
        let mesh = Mesh::square(3);
        let cfg = NetworkConfig::with_mesh(mesh);
        let mut net = Network::new(mesh, |id| PacketNode::new(id, &cfg, None));
        let mut src = SyntheticSource::new(mesh, TrafficPattern::Transpose, 0.10, 5, 3);
        let ph = PhaseConfig {
            warmup_cycles: 200,
            warmup_packets: 0,
            measure_cycles: 1_000,
            measure_packets: u64::MAX,
            drain_cycles: 2_000,
        };
        let r = run_phases(&mut net, &mut src, ph);
        // The injection window is exactly `measure_cycles` long.
        assert_eq!(r.stats.measured_cycles, 1_000);
    }
}
