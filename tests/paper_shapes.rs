//! Regression locks on the paper's headline *shapes* at small scale: if a
//! change breaks one of these, the reproduction has drifted. (The full
//! magnitudes are regenerated by `crates/bench`; these are fast guards.)

use tdm_hybrid_noc::prelude::*;

fn phases() -> PhaseConfig {
    PhaseConfig {
        warmup_cycles: 800,
        warmup_packets: 200,
        measure_cycles: 5_000,
        measure_packets: 20_000,
        drain_cycles: 4_000,
    }
}

fn tdm_cfg(mesh: Mesh, gating: bool) -> TdmConfig {
    let mut cfg = TdmConfig::vc4(NetworkConfig::with_mesh(mesh));
    cfg.policy.setup_after_msgs = 3;
    cfg.policy.freq_window = 2_048;
    if gating {
        cfg.gating = Some(tdm_hybrid_noc::sim::GatingConfig::default());
    }
    cfg
}

fn run_packet(mesh: Mesh, pattern: TrafficPattern, rate: f64) -> RunResult {
    let net_cfg = NetworkConfig::with_mesh(mesh);
    let mut net = Network::new(mesh, |id| PacketNode::new(id, &net_cfg, None));
    run_phases(
        &mut net,
        &mut SyntheticSource::new(mesh, pattern, rate, 5, 7),
        phases(),
    )
}

fn run_tdm(mesh: Mesh, pattern: TrafficPattern, rate: f64, gating: bool) -> RunResult {
    let mut net = TdmNetwork::new(tdm_cfg(mesh, gating));
    run_phases(
        &mut net.net,
        &mut SyntheticSource::new(mesh, pattern, rate, 5, 7),
        phases(),
    )
}

/// Figure 4 shape: on transpose traffic near the baseline's saturation,
/// the hybrid network still delivers comfortably.
#[test]
fn tdm_outlasts_baseline_on_transpose() {
    let mesh = Mesh::square(5);
    // Past the baseline's transpose saturation (~0.3 on 5x5).
    let rate = 0.40;
    let base = run_packet(mesh, TrafficPattern::Transpose, rate);
    let tdm = run_tdm(mesh, TrafficPattern::Transpose, rate, false);
    assert!(
        tdm.delivered_fraction > base.delivered_fraction
            || (tdm.delivered_fraction > 0.99 && base.delivered_fraction > 0.99),
        "TDM ({:.3}) should outlast the baseline ({:.3}) on transpose",
        tdm.delivered_fraction,
        base.delivered_fraction
    );
    assert!(
        tdm.stats.events.cs_flit_fraction() > 0.1,
        "transpose must ride circuits"
    );
}

/// Figure 4 shape: under UR the hybrid's latency is *worse* than the
/// baseline at low load (the slot-wait penalty the paper reports).
#[test]
fn tdm_ur_latency_penalty_at_low_load() {
    let mesh = Mesh::square(5);
    let base = run_packet(mesh, TrafficPattern::UniformRandom, 0.10);
    let tdm = run_tdm(mesh, TrafficPattern::UniformRandom, 0.10, false);
    assert!(
        tdm.avg_latency > base.avg_latency,
        "UR slot-wait penalty missing: TDM {:.1} vs base {:.1}",
        tdm.avg_latency,
        base.avg_latency
    );
}

/// Figure 5 shape: at low UR load, plain hybrid *costs* energy (slot-table
/// leakage) while the VC-gated hybrid saves.
#[test]
fn fig5_low_rate_ur_energy_signs() {
    let mesh = Mesh::square(6);
    let rate = 0.03;
    let base = run_packet(mesh, TrafficPattern::UniformRandom, rate);
    let vc4 = run_tdm(mesh, TrafficPattern::UniformRandom, rate, false);
    let vct = run_tdm(mesh, TrafficPattern::UniformRandom, rate, true);
    let m = EnergyModel::default();
    let base_e = m.evaluate_stats(&base.stats);
    let s4 = m.evaluate_stats(&vc4.stats).saving_vs(&base_e);
    let st = m.evaluate_stats(&vct.stats).saving_vs(&base_e);
    assert!(
        s4 < 0.02,
        "plain hybrid should not save at low UR load (got {s4:.3})"
    );
    assert!(
        st > 0.0,
        "VC gating must rescue the low-load case (got {st:.3})"
    );
    assert!(st > s4, "VCt must beat VC4 at low load");
}

/// §II-D shape: disabling time-slot stealing costs packet-switched
/// latency whenever circuits hold reservations.
#[test]
fn stealing_matters() {
    let mesh = Mesh::square(5);
    let rate = 0.20;
    let on = run_tdm(mesh, TrafficPattern::UniformRandom, rate, false);
    let mut cfg = tdm_cfg(mesh, false);
    cfg.time_slot_stealing = false;
    let mut net = TdmNetwork::new(cfg);
    let off = run_phases(
        &mut net.net,
        &mut SyntheticSource::new(mesh, TrafficPattern::UniformRandom, rate, 5, 7),
        phases(),
    );
    assert!(
        off.avg_latency > on.avg_latency * 1.1,
        "no-stealing should hurt: {:.1} vs {:.1}",
        off.avg_latency,
        on.avg_latency
    );
    assert!(on.stats.events.slots_stolen > 0);
}

/// §IV-B shape: SDM has lower latency than TDM at low tornado load but
/// the TDM network matches/overtakes it by moderate load.
#[test]
fn sdm_low_load_latency_vs_tdm_crossover() {
    let mesh = Mesh::square(6);
    let run_sdm = |rate: f64| {
        let sdm_cfg = SdmConfig {
            net: NetworkConfig::with_mesh(mesh),
            setup_after_msgs: 3,
            freq_window: 2_048,
            ..Default::default()
        };
        let mut net = Network::new(mesh, move |id| SdmNode::new(id, &sdm_cfg));
        run_phases(
            &mut net,
            &mut SyntheticSource::new(mesh, TrafficPattern::Tornado, rate, 5, 7),
            phases(),
        )
    };
    let sdm_lo = run_sdm(0.05);
    let tdm_lo = run_tdm(mesh, TrafficPattern::Tornado, 0.05, false);
    assert!(
        sdm_lo.avg_latency < tdm_lo.avg_latency,
        "SDM must win at low load ({:.1} vs {:.1})",
        sdm_lo.avg_latency,
        tdm_lo.avg_latency
    );
    let sdm_hi = run_sdm(0.30);
    let tdm_hi = run_tdm(mesh, TrafficPattern::Tornado, 0.30, false);
    assert!(
        tdm_hi.avg_latency < sdm_hi.avg_latency * 1.2,
        "TDM must be at least competitive by moderate load ({:.1} vs {:.1})",
        tdm_hi.avg_latency,
        sdm_hi.avg_latency
    );
}
