//! Integration pins for the snapshot seam and fault injection (PR 7):
//!
//! * restore ≡ continuous run — a checkpoint written after warm-up and a
//!   run restored from it both produce a result envelope byte-identical
//!   to the uninterrupted run, across the packet, TDM and SDM backends on
//!   mesh, torus and concentrated-mesh topologies, under patterns whose
//!   source restore replays (UR) or jumps (TOR, TR, BC, HS) (property
//!   test);
//! * the file checkpoint (`checkpoint_out` / `checkpoint_from`) and the
//!   in-memory one (`WarmStart`) are the same seam: same blob bytes, same
//!   envelopes;
//! * checkpoints written by an earlier build (`tests/fixtures/`) restore,
//!   re-encode to their own bytes and continue like the continuous run;
//! * a snapshot whose allocator state does not fit the built fabric
//!   (arbiter shape, NIC credit count) is an `Err` from `restore`, and
//!   so is a pipeline whose VC counts or VC allocations disagree with
//!   its VC state;
//! * fault drops are fully accounted — a faulted run whose mid-flight
//!   flits were purged still drains to zero occupancy;
//! * the TDM repair FSM completes a transient kill + revive with two
//!   repair sequences and a nonzero repair latency.

use noc_bench::{
    result_envelope, run_sweep, run_synthetic_spec_ctl, BackendKind, Checkpoint, FreeRun,
    ScenarioSpec, ServeRun, SpecOutcome, SynthPoint, WarmStart,
};
use noc_sim::{
    Direction, EnergyEvents, FabricSnapshot, FaultEvent, Flit, NodeId, PacketId, Snap,
    SnapshotReader, TopologyKind, VcState,
};
use noc_traffic::{run_phases, run_warmup, PhaseConfig, TrafficPattern};
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
    /// the same seed, for every snapshotable backend on every topology,
    /// under patterns whose restore replays the source (UR) and patterns
    /// whose restore jumps its generator (the rest). The hotspot list
    /// names sources, which then inject nothing.
    #[test]
    fn restore_matches_continuous_run(
        backend_i in 0usize..3,
        topo_i in 0usize..3,
        pattern_i in 0usize..5,
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
        let pattern = [
            TrafficPattern::UniformRandom,
            TrafficPattern::Tornado,
            TrafficPattern::Transpose,
            TrafficPattern::BitComplement,
            TrafficPattern::Hotspot(vec![NodeId(0), NodeId(3)]),
        ][pattern_i]
            .clone();
        let base = ScenarioSpec::synthetic(
            backend,
            mesh,
            pattern,
            rate,
            PhaseConfig::quick(),
            seed,
        )
        .with_topology(topology, conc);
        let tag = format!("{backend_i}-{topo_i}-{pattern_i}-{seed}");
        assert_checkpoint_round_trip(&base, &tag)?;
    }
}

/// One in-memory run through the serve entry point: the point and the
/// captured warm-up, if any.
fn serve_run(spec: &ScenarioSpec, warm: WarmStart<'_>) -> (SynthPoint, Option<Checkpoint>) {
    match run_synthetic_spec_ctl(spec, warm, None, &mut FreeRun).expect("spec runs") {
        ServeRun::Done { point, warm } => (point, warm),
        ServeRun::Cancelled => unreachable!("FreeRun never cancels"),
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

/// A permanent mid-measurement link kill purges in-flight flits, and the
/// survivors still drain: every dropped flit was accounted back.
#[test]
fn fault_drops_flits_and_the_survivors_drain() {
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
    // flight, so finish the drain explicitly.
    assert!(
        fabric.drain(20_000),
        "survivors must drain around the dead link"
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
}

/// Offsets of every `Vec<RoundRobin>` of `count` arbiters over `n`
/// requesters each in `bytes`: a `u64` count, then per arbiter a `u64`
/// requester count and a `u64` pointer below it.
fn arbiter_vecs(bytes: &[u8], count: u64, n: u64) -> Vec<usize> {
    let word = |at: usize| {
        bytes
            .get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    };
    (0..bytes.len())
        .filter(|&at| {
            word(at) == Some(count)
                && (0..count as usize).all(|i| {
                    let arb = at + 8 + 16 * i;
                    word(arb) == Some(n) && word(arb + 8).is_some_and(|last| last < n)
                })
        })
        .collect()
}

/// A restored allocator must fit the fabric it is restored into: in a
/// 4×4 packet snapshot, an arbiter with the wrong requester count, a
/// pointer past its requesters, a missing arbiter, a NIC with a VC credit
/// missing, or a NIC arbiter out of shape is an `Err` from `restore`,
/// never a fabric that restores and panics once it steps.
#[test]
fn mutated_allocator_state_is_rejected_not_restored() {
    let spec = ScenarioSpec::synthetic(
        BackendKind::PacketVc4,
        4,
        TrafficPattern::UniformRandom,
        0.20,
        PhaseConfig::quick(),
        5,
    );
    let mut fabric = spec.build_fabric().expect("builds");
    let mut source = spec.build_source().expect("synthetic source");
    run_warmup(fabric.as_mut(), &mut source, spec.phases);
    let good = fabric.checkpoint().expect("checkpoints");
    let bytes = good.as_bytes();
    let restores = |mutated: Vec<u8>| {
        let snap = FabricSnapshot::from_bytes(mutated).expect("header intact");
        spec.build_fabric().expect("builds").restore(&snap)
    };
    assert!(
        restores(bytes.to_vec()).is_ok(),
        "the unmutated snapshot restores"
    );

    let put = |b: &mut Vec<u8>, at: usize, v: u64| b[at..at + 8].copy_from_slice(&v.to_le_bytes());
    // Each router's allocators, in save order: VA (5 arbiters over
    // 5 ports × 4 VCs), SA input (5 over 4 VCs), SA output (5 over 5 ports).
    let va: Vec<usize> = arbiter_vecs(bytes, 5, 20)
        .into_iter()
        .filter(|&at| {
            let sa_in = at + 8 + 5 * 16;
            arbiter_vecs(&bytes[sa_in..sa_in + 8 + 5 * 16], 5, 4) == [0]
        })
        .collect();
    // Each NIC: a `u64` VC count of 4 and the 4 credits, then the VC
    // arbiter over 4 requesters.
    let nic: Vec<usize> = (0..bytes.len() - 28)
        .filter(|&at| {
            let w = |o: usize| u64::from_le_bytes(bytes[at + o..at + o + 8].try_into().unwrap());
            w(0) == 4 && bytes[at + 8..at + 12].iter().all(|&b| b <= 32) && w(12) == 4 && w(20) < 4
        })
        .collect();
    assert_eq!((va.len(), nic.len()), (16, 16), "one match per router");

    let mutated = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut b = bytes.to_vec();
        edit(&mut b);
        b
    };
    for (router, (&va, &nic)) in va.iter().zip(&nic).enumerate() {
        let sa_out = va + 2 * (8 + 5 * 16);
        let mutations = [
            (
                "VA arbiter over 3 requesters",
                mutated(&|b| put(b, va + 8, 3)),
            ),
            (
                "VA pointer past its requesters",
                mutated(&|b| put(b, va + 16, 20)),
            ),
            (
                "SA output pointer past its requesters",
                mutated(&|b| put(b, sa_out + 8 + 4 * 16 + 8, 5)),
            ),
            (
                "one VA arbiter missing",
                mutated(&|b| {
                    put(b, va, 4);
                    b.drain(va + 8..va + 24);
                }),
            ),
            (
                "NIC with 3 VC credits",
                mutated(&|b| {
                    put(b, nic, 3);
                    b.remove(nic + 8);
                }),
            ),
            ("NIC arbiter over 2 VCs", mutated(&|b| put(b, nic + 12, 2))),
            (
                "NIC pointer past its VCs",
                mutated(&|b| put(b, nic + 20, 4)),
            ),
        ];
        for (what, b) in mutations {
            assert!(restores(b).is_err(), "{what} at router {router} restored");
        }
    }
}

/// Where one router pipeline's restore-checked fields sit in a snapshot.
struct PipelineBytes {
    /// Each input VC's state: offset of its `VcState` tag, and the state.
    states: Vec<(usize, VcState)>,
    /// Each `out_alloc` entry: offset of its presence byte, and the entry.
    out_alloc: Vec<(usize, Option<(u8, u8)>)>,
    /// The five downstream VC count bytes.
    downstream: usize,
}

/// Decode a 4×4-VC `PsPipeline` record starting at `at` with the
/// library's own decoders. `None` unless it parses and is followed by its
/// three allocator vectors, so a stray `20` elsewhere cannot pass.
fn pipeline_at(bytes: &[u8], at: usize) -> Option<PipelineBytes> {
    let mut r = SnapshotReader::new(&bytes[at..]);
    let pos = |r: &SnapshotReader| bytes.len() - r.remaining();
    if r.seq_len().ok()? != 20 {
        return None;
    }
    let mut states = Vec::new();
    for _ in 0..20 {
        for _ in 0..r.seq_len().ok().filter(|&n| n <= 5)? {
            Flit::load(&mut r).ok()?;
        }
        states.push((pos(&r), VcState::load(&mut r).ok()?));
        r.u64().ok()?;
    }
    if Vec::<PacketId>::load(&mut r).ok()?.len() != 20 || r.seq_len().ok()? != 20 {
        return None;
    }
    let mut out_alloc = Vec::new();
    for _ in 0..20 {
        out_alloc.push((pos(&r), Option::<(u8, u8)>::load(&mut r).ok()?));
    }
    if Vec::<u8>::load(&mut r).ok()?.len() != 20 {
        return None;
    }
    let downstream = pos(&r);
    for _ in 0..5 {
        r.u8().ok()?;
    }
    Vec::<Flit>::load(&mut r).ok()?;
    Vec::<u8>::load(&mut r).ok()?;
    EnergyEvents::load(&mut r).ok()?;
    r.u8().ok()?;
    // VA (5 arbiters over 20 VCs), SA input (5 over 4), SA output (5
    // over 5), each a `u64` count and 16 bytes per arbiter.
    let va = pos(&r);
    let arbiters = [(20, va), (4, va + 88), (5, va + 176)];
    if !arbiters.iter().all(|&(n, at)| {
        bytes
            .get(at..at + 88)
            .is_some_and(|b| arbiter_vecs(b, 5, n) == [0])
    }) {
        return None;
    }
    Some(PipelineBytes {
        states,
        out_alloc,
        downstream,
    })
}

/// A restored pipeline must agree with itself: in 4×4 packet, TDM and
/// SDM snapshots, a downstream VC count past the port's VCs, an `Active`
/// VC naming a downstream VC past the range, or an `out_alloc` entry
/// naming an idle VC is an `Err` from `restore` — never a fabric that
/// restores and then indexes past a port's slice when it steps.
#[test]
fn mutated_pipeline_state_is_rejected_not_restored() {
    for backend in [
        BackendKind::PacketVc4,
        BackendKind::HybridTdmVc4,
        BackendKind::HybridSdmVc4,
    ] {
        let spec = ScenarioSpec::synthetic(
            backend,
            4,
            TrafficPattern::UniformRandom,
            0.20,
            PhaseConfig::quick(),
            5,
        );
        let mut fabric = spec.build_fabric().expect("builds");
        let mut source = spec.build_source().expect("synthetic source");
        run_warmup(fabric.as_mut(), &mut source, spec.phases);
        let good = fabric.checkpoint().expect("checkpoints");
        let bytes = good.as_bytes();
        let restores = |mutated: Vec<u8>| {
            let snap = FabricSnapshot::from_bytes(mutated).expect("header intact");
            spec.build_fabric().expect("builds").restore(&snap)
        };
        assert!(
            restores(bytes.to_vec()).is_ok(),
            "{backend:?}: the unmutated snapshot restores"
        );
        let pipelines: Vec<PipelineBytes> = (0..bytes.len())
            .filter_map(|at| pipeline_at(bytes, at))
            .collect();
        assert_eq!(pipelines.len(), 16, "{backend:?}: one pipeline per router");

        let mutated = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut b = bytes.to_vec();
            edit(&mut b);
            b
        };
        let mut active_seen = false;
        for (router, pl) in pipelines.iter().enumerate() {
            let mut mutations = vec![("downstream VC count 5", mutated(&|b| b[pl.downstream] = 5))];
            if let Some(&(at, _)) = pl
                .states
                .iter()
                .find(|(_, s)| matches!(s, VcState::Active { .. }))
            {
                active_seen = true;
                // Tag, output port, then the downstream VC byte.
                mutations.push((
                    "active VC naming downstream VC 4",
                    mutated(&|b| b[at + 2] = 4),
                ));
            }
            let idle = pl.states.iter().position(|(_, s)| *s == VcState::Idle);
            let free = pl.out_alloc.iter().find(|(_, a)| a.is_none());
            if let (Some(i), Some(&(at, _))) = (idle, free) {
                let (p, v) = ((i / 4) as u8, (i % 4) as u8);
                mutations.push((
                    "out_alloc naming an idle VC",
                    mutated(&|b| {
                        b.splice(at..at + 1, [1, p, v]);
                    }),
                ));
            }
            for (what, b) in mutations {
                assert!(
                    restores(b).is_err(),
                    "{backend:?}: {what} at router {router} restored"
                );
            }
        }
        assert!(active_seen, "{backend:?}: no router had an active VC");
    }
}
