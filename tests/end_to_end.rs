//! Integration tests spanning the whole stack: synthetic drivers over the
//! packet, TDM and SDM networks, energy comparison, and conservation
//! invariants.

use tdm_hybrid_noc::prelude::*;

fn quick_phases() -> PhaseConfig {
    PhaseConfig {
        warmup_cycles: 500,
        warmup_packets: 100,
        measure_cycles: 4_000,
        measure_packets: 20_000,
        drain_cycles: 4_000,
    }
}

fn tdm_cfg(mesh: Mesh) -> TdmConfig {
    let mut cfg = TdmConfig::vc4(NetworkConfig::with_mesh(mesh));
    cfg.policy.setup_after_msgs = 3;
    cfg.policy.freq_window = 2_048;
    cfg
}

#[test]
fn all_networks_deliver_transpose_traffic() {
    let mesh = Mesh::square(5);
    let rate = 0.10;

    // Baseline.
    let net_cfg = NetworkConfig::with_mesh(mesh);
    let mut base = Network::new(mesh, |id| PacketNode::new(id, &net_cfg, None));
    let r_base = run_phases(
        &mut base,
        &mut SyntheticSource::new(mesh, TrafficPattern::Transpose, rate, 5, 1),
        quick_phases(),
    );
    assert!(!r_base.saturated);
    assert!(r_base.delivered_fraction > 0.99);

    // TDM hybrid.
    let mut tdm = TdmNetwork::new(tdm_cfg(mesh));
    let r_tdm = run_phases(
        &mut tdm.net,
        &mut SyntheticSource::new(mesh, TrafficPattern::Transpose, rate, 5, 1),
        quick_phases(),
    );
    assert!(r_tdm.delivered_fraction > 0.99, "TDM lost packets");
    assert!(
        r_tdm.stats.events.cs_flit_fraction() > 0.05,
        "transpose must use circuits, got {:.3}",
        r_tdm.stats.events.cs_flit_fraction()
    );

    // SDM hybrid.
    let sdm_cfg = SdmConfig {
        net: net_cfg,
        ..Default::default()
    };
    let mut sdm = Network::new(mesh, move |id| SdmNode::new(id, &sdm_cfg));
    let r_sdm = run_phases(
        &mut sdm,
        &mut SyntheticSource::new(mesh, TrafficPattern::Transpose, rate, 5, 1),
        quick_phases(),
    );
    assert!(r_sdm.delivered_fraction > 0.99, "SDM lost packets");
}

#[test]
fn tdm_saves_energy_on_local_traffic_at_moderate_load() {
    // Transpose at moderate load: a regular pattern the hybrid network
    // serves largely over circuits.
    let mesh = Mesh::square(6);
    let rate = 0.2;
    let net_cfg = NetworkConfig::with_mesh(mesh);

    let mut base = Network::new(mesh, |id| PacketNode::new(id, &net_cfg, None));
    let r_base = run_phases(
        &mut base,
        &mut SyntheticSource::new(mesh, TrafficPattern::Transpose, rate, 5, 2),
        quick_phases(),
    );

    let mut cfg = tdm_cfg(mesh);
    cfg.gating = Some(tdm_hybrid_noc::sim::GatingConfig::default());
    let mut tdm = TdmNetwork::new(cfg);
    let r_tdm = run_phases(
        &mut tdm.net,
        &mut SyntheticSource::new(mesh, TrafficPattern::Transpose, rate, 5, 2),
        quick_phases(),
    );

    let model = EnergyModel::default();
    let saving = model
        .evaluate_stats(&r_tdm.stats)
        .saving_vs(&model.evaluate_stats(&r_base.stats));
    assert!(saving > 0.0, "expected energy saving, got {:.3}", saving);
}

#[test]
fn flit_conservation_under_mixed_traffic() {
    // Every offered measured packet is eventually delivered exactly once.
    let mesh = Mesh::square(4);
    let mut net = TdmNetwork::new(tdm_cfg(mesh));
    let mut ids = std::collections::HashSet::new();
    net.net.collect_delivered = true;
    net.begin_measurement();
    let mut id = 0u64;
    for round in 0..200 {
        for src in mesh.nodes() {
            if (src.0 + round) % 3 == 0 {
                let dst = NodeId((src.0 * 7 + round + 1) % 16);
                if dst != src {
                    net.inject(src, Packet::data(PacketId(id), src, dst, 5, net.now()));
                    ids.insert(PacketId(id));
                    id += 1;
                }
            }
        }
        net.run(8);
    }
    assert!(net.drain(30_000), "must drain");
    net.end_measurement();
    assert_eq!(net.stats().packets_delivered as usize, ids.len());
    // No duplicates in the delivered log.
    let mut seen = std::collections::HashSet::new();
    for d in &net.net.delivered_log {
        assert!(seen.insert(d.id), "duplicate delivery of {:?}", d.id);
        assert!(ids.contains(&d.id), "phantom packet {:?}", d.id);
    }
}

#[test]
fn hetero_mix_runs_on_every_network_kind() {
    use tdm_hybrid_noc::hetero::{CPU_BENCHES, GPU_BENCHES};
    let phases = PhaseConfig::pure_cycles(800, 2_500, 2_000);
    for kind in BackendKind::HETERO {
        let (r, _) =
            run_mix(&CPU_BENCHES[3], &GPU_BENCHES[3], kind, phases, 5, None).expect("mix runs");
        assert!(
            r.stats.packets_delivered > 200,
            "{}: too few deliveries",
            kind.label()
        );
        assert!(r.cpu_latency.is_finite());
        assert!(r.breakdown.total_pj() > 0.0);
    }
}

#[test]
fn gating_keeps_network_functional_under_bursts() {
    let mesh = Mesh::square(4);
    let net_cfg = NetworkConfig::with_mesh(mesh);
    let mut net = Network::new(mesh, |id| {
        PacketNode::new(
            id,
            &net_cfg,
            Some(tdm_hybrid_noc::sim::GatingConfig::default()),
        )
    });
    net.begin_measurement();
    let mut id = 0;
    // Idle period (gates VCs down), then a burst, then idle, then a burst.
    for phase in 0..4 {
        if phase % 2 == 1 {
            for src in mesh.nodes() {
                for k in 0..4u32 {
                    let dst = NodeId((src.0 + 5 + k) % 16);
                    if dst != src {
                        net.inject(src, Packet::data(PacketId(id), src, dst, 5, net.now()));
                        id += 1;
                    }
                }
            }
        }
        net.run(1_500);
    }
    assert!(net.drain(10_000));
    net.end_measurement();
    assert_eq!(net.stats.packets_delivered, net.stats.packets_offered);
    let events = net.total_events();
    assert!(events.vc_gating_transitions > 0, "gating never engaged");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mesh = Mesh::square(4);
        let mut net = TdmNetwork::new(tdm_cfg(mesh));
        let r = run_phases(
            &mut net.net,
            &mut SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.12, 5, 99),
            quick_phases(),
        );
        (
            r.stats.packets_delivered,
            r.stats.latency_sum,
            r.stats.events.cs_flits_delivered,
            r.stats.events.buffer_writes,
        )
    };
    assert_eq!(run(), run(), "simulation must be deterministic");
}

#[test]
fn area_and_config_match_paper_tables() {
    let cfg = RouterConfig::default();
    let area = AreaModel::default();
    assert!((area.packet_router_mm2(&cfg) - 0.177).abs() < 0.002);
    assert!((area.hybrid_router_mm2(&cfg, 128, 8) - 0.188).abs() < 0.002);
    let f = Floorplan::figure7();
    assert_eq!(f.mesh.len(), 36);
}
