//! Equivalence pin for the `Fabric` refactor: for every backend, the
//! `dyn Fabric` engine (`build_fabric` + `run_phases`) must produce
//! results identical to the pre-refactor concrete driver — reproduced here
//! as a monomorphized copy of the old concrete driver body over
//! `Network<M>` — on seeded quick runs. Host-timing fields
//! (`wall_seconds`, `sim_cycles_per_sec`) are excluded: they are the only
//! fields allowed to differ.

use tdm_hybrid_noc::prelude::*;
use tdm_hybrid_noc::scenario::{slot_capacity_for, synthetic_sdm_config, synthetic_tdm_config};
use tdm_hybrid_noc::sdm::SdmNode;
use tdm_hybrid_noc::sim::{NodeModel, PacketNode};
use tdm_hybrid_noc::tdm::TdmNetwork;
use tdm_hybrid_noc::traffic::run_phases;

/// The old concrete open-loop driver body, verbatim but monomorphized over
/// the node model: inherent `Network<M>` calls only, no trait objects.
fn run_concrete<M: NodeModel>(
    net: &mut Network<M>,
    source: &mut SyntheticSource,
    ph: PhaseConfig,
) -> RunResult {
    let nodes = net.mesh.len();
    let wall_start = std::time::Instant::now();
    let first_cycle = net.now();
    let mut scratch: Vec<(NodeId, Packet)> = Vec::new();

    // Warm-up.
    let mut injected = 0u64;
    let start = net.now();
    while net.now() - start < ph.warmup_cycles || injected < ph.warmup_packets {
        let now = net.now();
        scratch.clear();
        source.tick(now, false, |n, p| scratch.push((n, p)));
        injected += scratch.len() as u64;
        for (n, p) in scratch.drain(..) {
            net.inject(n, p);
        }
        net.step();
        if net.now() - start > ph.warmup_cycles * 50 {
            break; // zero-rate guard
        }
    }

    // Measurement.
    net.begin_measurement();
    net.delivered_log.clear();
    let mstart = net.now();
    let mut offered_packets = 0u64;
    while net.now() - mstart < ph.measure_cycles && offered_packets < ph.measure_packets {
        let now = net.now();
        scratch.clear();
        source.tick(now, true, |n, p| scratch.push((n, p)));
        offered_packets += scratch.len() as u64;
        for (n, p) in scratch.drain(..) {
            net.inject(n, p);
        }
        net.step();
    }

    let dstart = net.now();
    let window_flits = net.stats.flits_delivered;
    let window_cycles = dstart - mstart;

    // Drain.
    while net.now() - dstart < ph.drain_cycles {
        if net.stats.packets_delivered >= net.stats.packets_offered {
            break;
        }
        let now = net.now();
        scratch.clear();
        source.tick(now, false, |n, p| scratch.push((n, p)));
        for (n, p) in scratch.drain(..) {
            net.inject(n, p);
        }
        net.step();
    }
    net.end_measurement();
    net.stats.measured_cycles = window_cycles;

    let stats = net.stats.clone();
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
    let total_cycles = net.now() - first_cycle;
    RunResult {
        offered: source.rate(),
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
    }
}

/// Bit-exact comparison of every deterministic `RunResult` field.
fn assert_identical(kind: BackendKind, dynamic: &RunResult, concrete: &RunResult) {
    let label = kind.label();
    assert_eq!(dynamic.offered, concrete.offered, "{label}: offered");
    assert_eq!(
        dynamic.avg_latency, concrete.avg_latency,
        "{label}: avg_latency"
    );
    assert_eq!(
        dynamic.throughput, concrete.throughput,
        "{label}: throughput"
    );
    assert_eq!(
        dynamic.delivered_fraction, concrete.delivered_fraction,
        "{label}: delivered_fraction"
    );
    assert_eq!(dynamic.saturated, concrete.saturated, "{label}: saturated");
    let (d, c) = (&dynamic.stats, &concrete.stats);
    assert_eq!(
        d.measured_cycles, c.measured_cycles,
        "{label}: measured_cycles"
    );
    assert_eq!(
        d.packets_offered, c.packets_offered,
        "{label}: packets_offered"
    );
    assert_eq!(
        d.packets_delivered, c.packets_delivered,
        "{label}: packets_delivered"
    );
    assert_eq!(d.latency_sum, c.latency_sum, "{label}: latency_sum");
    assert_eq!(d.latency_max, c.latency_max, "{label}: latency_max");
    assert_eq!(
        d.flits_delivered, c.flits_delivered,
        "{label}: flits_delivered"
    );
    assert_eq!(
        d.cs_packets_delivered, c.cs_packets_delivered,
        "{label}: cs_packets_delivered"
    );
    assert_eq!(d.latency_hist, c.latency_hist, "{label}: latency_hist");
    assert_eq!(d.events, c.events, "{label}: energy events");
    assert_eq!(d.leakage, c.leakage, "{label}: leakage integrals");
}

fn phases() -> PhaseConfig {
    PhaseConfig {
        warmup_cycles: 500,
        warmup_packets: 100,
        measure_cycles: 3_000,
        measure_packets: 15_000,
        drain_cycles: 3_000,
    }
}

fn source(mesh: Mesh, seed: u64) -> SyntheticSource {
    SyntheticSource::new(mesh, TrafficPattern::Transpose, 0.12, 5, seed)
}

/// Build the same concrete network the registry builds for `kind` and run
/// the old monomorphized driver on it.
fn concrete_run(kind: BackendKind, net_cfg: NetworkConfig, seed: u64) -> RunResult {
    let mut src = source(net_cfg.mesh, seed);
    match kind {
        BackendKind::PacketVc4 => {
            let mut net = Network::new(net_cfg.mesh, |id| PacketNode::new(id, &net_cfg, None));
            run_concrete(&mut net, &mut src, phases())
        }
        BackendKind::PacketVct => {
            let mut net = Network::new(net_cfg.mesh, |id| {
                PacketNode::new(
                    id,
                    &net_cfg,
                    Some(tdm_hybrid_noc::sim::GatingConfig::default()),
                )
            });
            run_concrete(&mut net, &mut src, phases())
        }
        BackendKind::HybridSdmVc4 => {
            let cfg = synthetic_sdm_config(net_cfg);
            let mut net = Network::new(net_cfg.mesh, move |id| SdmNode::new(id, &cfg));
            run_concrete(&mut net, &mut src, phases())
        }
        _ => {
            // The old synthetic driver ran the inner network directly —
            // no resize controller in the loop.
            let cfg = synthetic_tdm_config(kind, net_cfg, slot_capacity_for(net_cfg.mesh))
                .expect("TDM backend");
            let mut net = TdmNetwork::new(cfg);
            run_concrete(&mut net.net, &mut src, phases())
        }
    }
}

#[test]
fn dyn_fabric_engine_matches_concrete_driver_for_every_backend() {
    let net_cfg = NetworkConfig::with_mesh(Mesh::square(5));
    for kind in BackendKind::ALL {
        for seed in [7u64, 41] {
            let mut fabric = build_fabric(
                kind,
                net_cfg,
                Tuning::Synthetic {
                    slot_capacity: None,
                },
            )
            .expect("every backend builds");
            let mut src = source(net_cfg.mesh, seed);
            let dynamic = run_phases(fabric.as_mut(), &mut src, phases());
            let concrete = concrete_run(kind, net_cfg, seed);
            assert_identical(kind, &dynamic, &concrete);
        }
    }
}

#[test]
fn scenario_spec_run_matches_the_engine() {
    // Experiment binaries run `ScenarioSpec`s; a spec's fabric and source
    // must be exactly the hand-built ones, so the same engine call on
    // either gives the same run.
    let net_cfg = NetworkConfig::with_mesh(Mesh::square(4));
    let kind = BackendKind::HybridTdmVc4;
    let mut hand_built = build_fabric(
        kind,
        net_cfg,
        Tuning::Synthetic {
            slot_capacity: None,
        },
    )
    .unwrap();
    let r_engine = run_phases(hand_built.as_mut(), &mut source(net_cfg.mesh, 13), phases());
    let spec = ScenarioSpec::synthetic(kind, 4, TrafficPattern::Transpose, 0.12, phases(), 13);
    let mut fabric = spec.build_fabric().unwrap();
    let mut src = spec.build_source().expect("synthetic spec");
    let r_spec = run_phases(fabric.as_mut(), &mut src, spec.phases);
    assert_identical(kind, &r_engine, &r_spec);
}
