//! Integration pins for the snapshot seam and fault injection (PR 7):
//!
//! * restore ≡ continuous run — a checkpoint written after warm-up and a
//!   run restored from it both produce a result envelope byte-identical
//!   to the uninterrupted run, across the packet, TDM and SDM backends on
//!   mesh, torus and concentrated-mesh topologies (property test);
//! * the file checkpoint (`checkpoint_out` / `checkpoint_from`) and the
//!   in-memory one (`WarmStart`) are the same seam: same blob bytes, same
//!   envelopes;
//! * checkpoints written by an earlier build (`tests/fixtures/`) restore,
//!   re-encode to their own bytes and continue like the continuous run;
//! * fault drops never leak — after a faulted run fully drains, the
//!   flit arena's live count is zero even though mid-flight flits were
//!   purged;
//! * the TDM repair FSM completes a transient kill + revive with two
//!   repair sequences and a nonzero repair latency.

use noc_bench::{
    result_envelope, run_sweep, run_synthetic_spec_ctl, BackendKind, Checkpoint, FreeRun,
    ScenarioSpec, ServeRun, SpecOutcome, SynthPoint, WarmStart,
};
use noc_sim::{Direction, FaultEvent, TopologyKind};
use noc_traffic::{run_phases, PhaseConfig, TrafficPattern};
use proptest::prelude::*;

/// Serialised result envelope of a single-spec run, wall fields zeroed
/// (exactly what the binaries write with `--json`).
fn envelope_json(spec: &ScenarioSpec) -> String {
    let specs = std::slice::from_ref(spec);
    let (outcomes, _) = run_sweep(specs, 1, None).expect("sweep runs");
    serde_json::to_string_pretty(&result_envelope(specs, &outcomes)).expect("serializable")
}

/// A unique temp path for a checkpoint blob.
fn blob_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("noc-ckpt-{}-{tag}.bin", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Run `base` three ways — continuous, checkpoint-writing, restored from
/// the written blob — and assert all three envelopes are byte-identical.
fn assert_checkpoint_round_trip(base: &ScenarioSpec, tag: &str) -> Result<(), TestCaseError> {
    let continuous = envelope_json(base);

    let path = blob_path(tag);
    let mut writing = base.clone();
    writing.checkpoint_out = Some(path.clone());
    let written = envelope_json(&writing);

    let mut restored = base.clone();
    restored.checkpoint_from = Some(path.clone());
    let forked = envelope_json(&restored);
    std::fs::remove_file(&path).ok();

    prop_assert_eq!(
        &continuous,
        &written,
        "writing a checkpoint perturbed the run"
    );
    prop_assert_eq!(&continuous, &forked, "restore diverged from continuous");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint-then-restore is bit-identical to the continuous run at
    /// the same seed, for every snapshotable backend on every topology.
    #[test]
    fn restore_matches_continuous_run(
        backend_i in 0usize..3,
        topo_i in 0usize..3,
        rate in 0.05f64..0.18,
        seed in 1u64..500,
    ) {
        let backend = [
            BackendKind::PacketVc4,
            BackendKind::HybridTdmVc4,
            BackendKind::HybridSdmVc4,
        ][backend_i];
        let (topology, mesh, conc) = [
            (TopologyKind::Mesh2D, 4, 1),
            (TopologyKind::Torus2D, 4, 1),
            (TopologyKind::CMesh, 2, 4),
        ][topo_i];
        let base = ScenarioSpec::synthetic(
            backend,
            mesh,
            TrafficPattern::UniformRandom,
            rate,
            PhaseConfig::quick(),
            seed,
        )
        .with_topology(topology, conc);
        let tag = format!("{backend_i}-{topo_i}-{seed}");
        assert_checkpoint_round_trip(&base, &tag)?;
    }
}

/// One in-memory run through the serve entry point: the point and the
/// captured warm-up, if any.
fn serve_run(spec: &ScenarioSpec, warm: WarmStart<'_>) -> (SynthPoint, Option<Checkpoint>) {
    match run_synthetic_spec_ctl(spec, warm, None, &mut FreeRun).expect("spec runs") {
        ServeRun::Done { point, warm } => (point, warm),
        ServeRun::Cancelled { .. } => unreachable!("FreeRun never cancels"),
    }
}

/// Both ways of checkpointing run through one body: the blob written to
/// `checkpoint_out` is the blob `WarmStart::Fresh { capture: true }`
/// returns, and capturing or restoring either way gives byte-identical
/// envelopes, on every snapshotable backend.
#[test]
fn file_and_in_memory_checkpoints_agree() {
    for backend in [
        BackendKind::PacketVc4,
        BackendKind::HybridTdmVc4,
        BackendKind::HybridSdmVc4,
    ] {
        let base = ScenarioSpec::synthetic(
            backend,
            4,
            TrafficPattern::UniformRandom,
            0.10,
            PhaseConfig::quick(),
            31,
        );
        let specs = std::slice::from_ref(&base);
        let in_memory = |point: SynthPoint| {
            serde_json::to_string_pretty(&result_envelope(specs, &[SpecOutcome::Synth(point)]))
                .expect("serializable")
        };
        let label = backend.label();

        let path = blob_path(&format!("agree-{label}"));
        let mut writing = base.clone();
        writing.checkpoint_out = Some(path.clone());
        let file_captured = envelope_json(&writing);
        let mut restoring = base.clone();
        restoring.checkpoint_from = Some(path.clone());
        let file_restored = envelope_json(&restoring);
        let file_blob = std::fs::read(&path).expect("blob written");
        std::fs::remove_file(&path).ok();

        let (point, ck) = serve_run(&base, WarmStart::Fresh { capture: true });
        let ck = ck.expect("capture requested");
        assert_eq!(ck.encode(), file_blob, "{label}: blob bytes differ");
        assert_eq!(in_memory(point), file_captured, "{label}: capturing run");
        let (point, none) = serve_run(&base, WarmStart::Restore(&ck));
        assert!(none.is_none(), "{label}: a restore captures nothing");
        assert_eq!(in_memory(point), file_restored, "{label}: restored run");
    }
}

/// Checkpoints written by an earlier build, beside the scenario files that
/// wrote them: 4×4 Hybrid-TDM-VC4 and Hybrid-SDM-VC4 under UR at 0.20
/// after a 3,000-cycle warm-up, which leaves slot tables, connection
/// registries, retry cool-downs, frequency counts and CS queues populated.
/// They pin the encoding against older builds: restoring one and
/// checkpointing again gives the fixture's snapshot bytes, and the
/// restored run's envelope is the continuous run's.
///
/// After an intended format change (which bumps `SNAPSHOT_VERSION` or
/// `CHECKPOINT_VERSION`), regenerate both from the repository root:
///
/// ```text
/// for f in tdm_ur_4x4 sdm_ur_4x4; do
///     cargo run --release -p noc-bench --bin fig4_load_latency -- \
///         --scenario crates/bench/tests/fixtures/$f.json --json /dev/null \
///         --checkpoint-out crates/bench/tests/fixtures/$f.ckpt
/// done
/// ```
#[test]
fn checkpoints_from_an_earlier_build_restore_byte_identically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    for name in ["tdm_ur_4x4", "sdm_ur_4x4"] {
        let json = std::fs::read_to_string(format!("{dir}/{name}.json")).expect("fixture spec");
        let [spec] = <[ScenarioSpec; 1]>::try_from(ScenarioSpec::parse(&json).expect("parses"))
            .expect("one spec per fixture");
        let blob = format!("{dir}/{name}.ckpt");
        let ck = Checkpoint::read(&blob).expect("fixture decodes");
        ck.compatible_with(&spec).expect("fixture matches its spec");

        let mut fabric = spec.build_fabric().expect("builds");
        fabric.restore(&ck.snapshot).expect("fixture restores");
        let again = fabric.checkpoint().expect("checkpoints");
        assert!(
            again.as_bytes() == ck.snapshot.as_bytes(),
            "{name}: the restored fabric re-encodes to different snapshot bytes"
        );

        let mut restored = spec.clone();
        restored.checkpoint_from = Some(blob);
        assert_eq!(
            envelope_json(&restored),
            envelope_json(&spec),
            "{name}: restored run diverged from the continuous run"
        );
    }
}

/// A checkpoint taken before the fault timeline fires still continues it:
/// the restored run replays the same kill from the snapshot's own fault
/// state (no re-arming) and lands on the continuous envelope.
#[test]
fn checkpointed_fault_run_matches_continuous() {
    let base = ScenarioSpec::synthetic(
        BackendKind::PacketVc4,
        4,
        TrafficPattern::UniformRandom,
        0.12,
        PhaseConfig::quick(),
        23,
    )
    .with_faults(vec![FaultEvent {
        at: 1_500,
        node: 5,
        dir: Direction::East,
        up: false,
    }]);
    assert_checkpoint_round_trip(&base, "faulted").expect("fault run round-trips");
}

/// A permanent mid-measurement link kill purges in-flight flits — and
/// after the drain the config arena holds zero live allocations: every
/// dropped flit was accounted back.
#[test]
fn fault_drops_flits_without_leaking_the_arena() {
    let spec = ScenarioSpec::synthetic(
        BackendKind::PacketVc4,
        4,
        TrafficPattern::UniformRandom,
        0.20,
        PhaseConfig::quick(),
        7,
    )
    .with_faults(vec![FaultEvent {
        at: 1_500,
        node: 9,
        dir: Direction::East,
        up: false,
    }]);
    let mut fabric = spec.build_fabric().expect("builds");
    fabric
        .set_faults(spec.faults.clone())
        .expect("packet backend takes faults");
    let mut source = spec.build_source().expect("synthetic source");
    let result = run_phases(fabric.as_mut(), &mut source, spec.phases);

    assert_eq!(result.stats.link_down_events, 1, "one directed kill");
    assert!(
        result.stats.flits_dropped_fault > 0,
        "a loaded link kill should catch flits in flight"
    );
    assert!(
        result.stats.packets_dropped_fault > 0,
        "dropped flits belong to purged packets"
    );
    // The engine's drain phase stops once every *measured* packet is
    // delivered; background flits injected during it may still be in
    // flight, so finish the drain explicitly before the leak check.
    assert!(
        fabric.drain(20_000),
        "survivors must drain around the dead link"
    );
    assert_eq!(
        fabric.arena_live(),
        0,
        "dropped flits leaked config-arena allocations"
    );
}

/// Transient kill + revive on the TDM backend: the repair FSM runs twice
/// (teardown/re-setup around the kill, again around the revive), repair
/// latency is recorded, circuits re-establish and the network drains.
#[test]
fn tdm_transient_fault_repairs_and_drains() {
    let spec = ScenarioSpec::synthetic(
        BackendKind::HybridTdmVc4,
        4,
        TrafficPattern::Transpose,
        0.15,
        PhaseConfig::quick(),
        9,
    )
    .with_faults(vec![
        FaultEvent {
            at: 1_400,
            node: 5,
            dir: Direction::East,
            up: false,
        },
        FaultEvent {
            at: 2_000,
            node: 5,
            dir: Direction::East,
            up: true,
        },
    ]);
    let mut fabric = spec.build_fabric().expect("builds");
    fabric
        .set_faults(spec.faults.clone())
        .expect("tdm backend takes faults");
    let mut source = spec.build_source().expect("synthetic source");
    let result = run_phases(fabric.as_mut(), &mut source, spec.phases);

    assert_eq!(result.stats.link_down_events, 1);
    assert_eq!(result.stats.link_up_events, 1);
    assert_eq!(
        result.stats.repairs, 2,
        "kill and revive each complete one repair sequence"
    );
    assert!(
        result.stats.repair_cycle_sum > 0,
        "repair latency should be recorded"
    );
    assert!(
        result.stats.packets_delivered > 100,
        "traffic keeps flowing across the outage"
    );
    assert!(fabric.drain(20_000), "network must drain after the revive");
    assert_eq!(fabric.arena_live(), 0, "no arena leaks across the repair");
}
