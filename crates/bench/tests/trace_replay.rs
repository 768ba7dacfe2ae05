//! Integration pins for the workload subsystem (trace replay, policy
//! tables, profiled circuits):
//!
//! * capture → replay is closed: a run exported with `trace_export` and
//!   replayed through a trace-mode spec delivers the identical packet
//!   multiset (id, src, dst, class);
//! * replay envelopes are deterministic and sweep-thread invariant;
//! * an empty policy table is bit-identical to no policy at all;
//! * trace replays compose with the checkpoint seam (restore ≡
//!   continuous);
//! * profiled circuit plans pre-establish pinned circuits and still
//!   deliver the workload (the reactive-vs-profiled A/B of the CI
//!   smoke).

use noc_bench::{
    build_workload, result_envelope, run_sweep, run_synthetic_spec, BackendKind, PacketTrace,
    ScenarioSpec,
};
use noc_traffic::{run_phases, PhaseConfig, TrafficPattern};
use std::sync::Arc;

fn tmp(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("noc-trace-replay-{}-{tag}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn base_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::synthetic(
        BackendKind::HybridTdmVc4,
        4,
        TrafficPattern::UniformRandom,
        0.15,
        PhaseConfig::quick(),
        seed,
    )
}

/// Run a spec collecting the delivered-data-packet multiset
/// (id, src, dst, circuit-eligibility class), sorted for comparison.
fn delivered_multiset(spec: &ScenarioSpec) -> Vec<(u64, u32, u32, bool)> {
    let mut fabric = spec.build_fabric().expect("builds");
    fabric.set_collect_delivered(true);
    let mut source = build_workload(spec)
        .expect("workload builds")
        .expect("not hetero");
    let _ = run_phases(fabric.as_mut(), &mut source, spec.phases);
    let mut out: Vec<(u64, u32, u32, bool)> = fabric
        .delivered_log()
        .iter()
        .map(|d| {
            (
                d.id.0,
                d.src.0,
                d.dst.0,
                d.switching == noc_sim::Switching::Circuit,
            )
        })
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn export_then_replay_reproduces_the_delivered_multiset() {
    let path = tmp("roundtrip.trace");
    let mut exporting = base_spec(11);
    exporting.trace_export = Some(path.clone());
    run_synthetic_spec(&exporting, None).expect("exporting run");

    let trace_bytes = std::fs::read(&path).expect("trace written");
    let trace = PacketTrace::decode(&trace_bytes).expect("trace decodes");
    assert!(!trace.records.is_empty(), "run offered packets");

    // The continuous run's delivered set...
    let continuous = delivered_multiset(&base_spec(11));
    // ...is reproduced exactly by replaying the exported trace on a
    // fresh fabric: ids are allocated in record order, so even the
    // packet ids line up.
    let replay = ScenarioSpec::trace(
        BackendKind::HybridTdmVc4,
        4,
        Arc::new(trace),
        PhaseConfig::quick(),
        11,
    );
    let replayed = delivered_multiset(&replay);
    assert!(!continuous.is_empty());
    assert_eq!(continuous.len(), replayed.len(), "delivered counts differ");
    assert_eq!(
        continuous
            .iter()
            .map(|&(id, s, d, _)| (id, s, d))
            .collect::<Vec<_>>(),
        replayed
            .iter()
            .map(|&(id, s, d, _)| (id, s, d))
            .collect::<Vec<_>>(),
        "replay delivered a different packet multiset"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn jsonl_twin_replays_identically_to_binary() {
    let bin_path = tmp("twin.trace");
    let txt_path = tmp("twin.jsonl");
    for path in [&bin_path, &txt_path] {
        let mut exporting = base_spec(13);
        exporting.trace_export = Some(path.clone());
        run_synthetic_spec(&exporting, None).expect("exporting run");
    }
    let from_bin = PacketTrace::decode(&std::fs::read(&bin_path).unwrap()).unwrap();
    let from_txt = PacketTrace::decode(&std::fs::read(&txt_path).unwrap()).unwrap();
    assert_eq!(from_bin, from_txt, "text twin diverged from binary");
    // And the parsed spec hashes them identically (content addressing).
    let parse = |p: &str| {
        ScenarioSpec::parse(&format!(
            r#"{{"backend": "HybridTdmVc4", "mesh": 4, "quick": true, "seed": 13,
                "workload": {{"mode": "trace", "path": {p:?}}}}}"#
        ))
        .unwrap()
        .pop()
        .unwrap()
    };
    assert_eq!(parse(&bin_path).traffic, parse(&txt_path).traffic);
    std::fs::remove_file(&bin_path).ok();
    std::fs::remove_file(&txt_path).ok();
}

#[test]
fn replay_envelopes_are_deterministic_and_sweep_thread_invariant() {
    let path = tmp("sweep.trace");
    let mut exporting = base_spec(17);
    exporting.trace_export = Some(path.clone());
    run_synthetic_spec(&exporting, None).expect("exporting run");
    let trace = Arc::new(PacketTrace::decode(&std::fs::read(&path).unwrap()).unwrap());

    // A small sweep: the same trace replayed on two backends.
    let specs: Vec<ScenarioSpec> = [BackendKind::HybridTdmVc4, BackendKind::PacketVc4]
        .iter()
        .map(|&b| ScenarioSpec::trace(b, 4, Arc::clone(&trace), PhaseConfig::quick(), 17))
        .collect();
    let envelope_for = |threads: usize| {
        let (outcomes, _) = run_sweep(&specs, threads, None).expect("sweep runs");
        serde_json::to_string_pretty(&result_envelope(&specs, &outcomes)).expect("serializable")
    };
    let serial = envelope_for(1);
    assert_eq!(serial, envelope_for(1), "re-run diverged");
    assert_eq!(serial, envelope_for(2), "1 vs 2 sweep threads");
    assert!(serial.contains("\"mode\": \"trace\""), "{serial}");
    assert!(!serial.contains("sweep.trace"), "path leaked: {serial}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_policy_table_is_bit_identical_to_no_policy() {
    let plain = base_spec(19);
    let mut with_empty_table = base_spec(19);
    with_empty_table.policy = Vec::new(); // explicit, same as default
    let env = |spec: &ScenarioSpec| {
        let specs = std::slice::from_ref(spec);
        let (outcomes, _) = run_sweep(specs, 1, None).expect("runs");
        serde_json::to_string_pretty(&result_envelope(specs, &outcomes)).expect("serializable")
    };
    assert_eq!(env(&plain), env(&with_empty_table));

    // A non-empty table genuinely changes the run (and its echo).
    let mut thinned = base_spec(19);
    thinned.policy = vec![noc_workload::RuleSpec {
        src: Some(vec![0, 1, 2, 3]),
        action: noc_workload::ActionSpec {
            drop: true,
            ..noc_workload::ActionSpec::default()
        },
        ..noc_workload::RuleSpec::default()
    }];
    let thinned_env = env(&thinned);
    assert_ne!(env(&plain), thinned_env);
    assert!(thinned_env.contains("\"policy\""), "{thinned_env}");
}

#[test]
fn trace_replay_composes_with_the_checkpoint_seam() {
    let trace_path = tmp("ckpt.trace");
    let mut exporting = base_spec(23);
    exporting.trace_export = Some(trace_path.clone());
    run_synthetic_spec(&exporting, None).expect("exporting run");
    let trace = Arc::new(PacketTrace::decode(&std::fs::read(&trace_path).unwrap()).unwrap());

    let base = ScenarioSpec::trace(
        BackendKind::HybridTdmVc4,
        4,
        Arc::clone(&trace),
        PhaseConfig::quick(),
        23,
    );
    let env = |spec: &ScenarioSpec| {
        let specs = std::slice::from_ref(spec);
        let (outcomes, _) = run_sweep(specs, 1, None).expect("runs");
        serde_json::to_string_pretty(&result_envelope(specs, &outcomes)).expect("serializable")
    };
    let continuous = env(&base);

    let blob = tmp("trace.ckpt");
    let mut writing = base.clone();
    writing.checkpoint_out = Some(blob.clone());
    assert_eq!(continuous, env(&writing), "checkpointing perturbed the run");

    let mut restored = base.clone();
    restored.checkpoint_from = Some(blob.clone());
    assert_eq!(
        continuous,
        env(&restored),
        "restore diverged from continuous"
    );
    std::fs::remove_file(&blob).ok();
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn profiled_circuit_plan_runs_and_keeps_the_workload_flowing() {
    // Transpose is the paper's persistent-flow pattern: profiling a
    // shadow warm-up finds the same flows reactive setup would, but the
    // circuits exist from cycle zero and stay pinned.
    let mk = |profiled: Option<u32>| {
        let mut s = ScenarioSpec::synthetic(
            BackendKind::HybridTdmVc4,
            6,
            TrafficPattern::Transpose,
            0.20,
            PhaseConfig::quick(),
            29,
        );
        s.profile_circuits = profiled;
        s
    };
    let (reactive, _) = run_synthetic_spec(&mk(None), None).expect("reactive run");
    let (profiled, _) = run_synthetic_spec(&mk(Some(16)), None).expect("profiled run");
    for (label, p) in [("reactive", &reactive), ("profiled", &profiled)] {
        assert!(
            p.result.stats.packets_delivered > 100,
            "{label}: only {} packets",
            p.result.stats.packets_delivered
        );
    }
    assert!(
        profiled.result.stats.events.cs_flit_fraction() > 0.05,
        "profiled plan should carry circuit traffic (fraction {:.3})",
        profiled.result.stats.events.cs_flit_fraction()
    );
    // The A/B is a real ablation: pre-established pinned circuits change
    // the measurement (otherwise the plan was a no-op).
    assert_ne!(
        reactive.result.stats.events, profiled.result.stats.events,
        "profiled plan did not change anything"
    );
}
