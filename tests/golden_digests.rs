//! Golden digests of the cycle kernel: a handful of short runs whose
//! outputs are pinned byte for byte, so a change to the kernel that is
//! meant to be invisible (a refactor, a speed-up) proves it is.
//!
//! Each case runs twice. The traced run arms every telemetry event kind
//! from the first warm-up cycle; its serialised `NetStats` and its event
//! stream are hashed. The untraced run captures the warm-up checkpoint
//! (checkpoints refuse armed telemetry) and its encoded blob is hashed,
//! which pins the derived router state the stats and traces do not show.
//! Hetero mixes have no checkpoint seam, so they pin stats and events only.
//! Each case also checks that its measured window still exercises the
//! path it is there to pin (stolen slots, gating, faults, sharing).
//! The SHA-256 digests are compared against `tests/golden/kernel_digests.txt`.
//!
//! A change that alters the model on purpose regenerates the file with
//!
//! ```text
//! cargo test --test golden_digests -- --ignored regenerate_golden_digests
//! ```
//!
//! and says in its description which cases moved and why.

use noc_bench::{run_synthetic_spec, run_synthetic_spec_ctl, FreeRun, ServeRun, WarmStart};
use noc_hetero::{cpu_bench, gpu_bench, Floorplan, HeteroWorkload};
use noc_scenario::cache_key::{sha256, CacheKey};
use noc_scenario::{hetero_tdm_config, BackendKind, ScenarioSpec, TrafficSpec};
use noc_sim::{Fabric, NetStats, NetworkConfig, TelemetryConfig, TelemetryReport};
use noc_traffic::{run_phases, PhaseConfig};
use tdm_noc::{SharingConfig, TdmNetwork};

const GOLDEN: &str = "tests/golden/kernel_digests.txt";

/// Short phases: long enough to set up and use circuits, short enough
/// for a debug build.
const PHASES: &str = r#""phases": { "warmup_cycles": 300, "warmup_packets": 20,
    "measure_cycles": 700, "measure_packets": 100000, "drain_cycles": 1500 }"#;

/// A golden case: its name, its scenario JSON (phases default to
/// [`PHASES`]), and what its measured window must exercise for the pin to
/// cover that path.
struct Case {
    name: &'static str,
    spec: &'static str,
    covers: &'static str,
    exercised: fn(&NetStats) -> bool,
}

const CASES: &[Case] = &[
    Case {
        name: "packet_torus4_tor",
        spec: r#""backend": "PacketVc4", "mesh": 4, "topology": "torus",
                 "traffic": { "pattern": "TOR", "rate": 0.25 }, "seed": 3"#,
        covers: "packet traffic over the wrap links",
        exercised: |s| s.packets_delivered > 100,
    },
    Case {
        name: "sdm6_ur",
        spec: r#""backend": "HybridSdmVc4", "mesh": 6,
                 "traffic": { "pattern": "UR", "rate": 0.12 }, "seed": 4"#,
        covers: "circuit deliveries on planes",
        exercised: |s| s.cs_packets_delivered > 0,
    },
    Case {
        name: "tdm_vc4_6_tr_stealing",
        spec: r#""backend": "HybridTdmVc4", "mesh": 6,
                 "traffic": { "pattern": "TR", "rate": 0.15 }, "seed": 5"#,
        covers: "circuit deliveries and stolen slots",
        exercised: |s| s.cs_packets_delivered > 0 && s.events.slots_stolen > 0,
    },
    Case {
        name: "tdm_vct6_ur_gating",
        spec: r#""backend": "HybridTdmVct", "mesh": 6,
                 "traffic": { "pattern": "UR", "rate": 0.2 }, "seed": 6"#,
        covers: "VC gating transitions",
        exercised: |s| s.events.vc_gating_transitions > 0,
    },
    Case {
        name: "tdm_vc4_4_tr_faults",
        spec: r#""backend": "HybridTdmVc4", "mesh": 4,
                 "traffic": { "pattern": "TR", "rate": 0.15 }, "seed": 9,
                 "faults": [ { "at": 500, "node": 5, "dir": "east" },
                             { "at": 800, "node": 5, "dir": "east", "up": true } ]"#,
        covers: "a link kill and revive with repairs",
        exercised: |s| s.link_down_events == 1 && s.repairs > 0,
    },
    Case {
        name: "hetero_hop_vct_ammp_blackscholes",
        spec: r#""backend": "HybridTdmHopVct", "cpu": "AMMP", "gpu": "BLACKSCHOLES",
                 "phases": { "warmup_cycles": 600, "warmup_packets": 0,
                             "measure_cycles": 2400, "measure_packets": 100000,
                             "drain_cycles": 1500 }, "seed": 7"#,
        covers: "hitchhiker rides and slot-table resizes",
        exercised: |s| s.events.hitchhike_rides > 0 && s.events.slot_table_resizes > 0,
    },
];

/// No backend enables vicinity sharing (it is opt-in, as in
/// `ablation_sharing`), so its case is a hand-configured hetero fabric:
/// Hybrid-TDM-VC4 with hitchhiker and vicinity sharing, run through the
/// engine on the hop case's mix and phases.
fn vicinity_lines() -> Vec<String> {
    let name = "hetero_vicinity_vc4_ammp_blackscholes";
    let mut cfg = hetero_tdm_config(BackendKind::HybridTdmVc4, NetworkConfig::default())
        .expect("TDM backend");
    cfg.sharing = SharingConfig::FULL;
    let mut net = TdmNetwork::new(cfg);
    net.configure_telemetry(&all_events());
    let (cpu, gpu) = (
        cpu_bench("AMMP").unwrap(),
        gpu_bench("BLACKSCHOLES").unwrap(),
    );
    let mut w = HeteroWorkload::new(Floorplan::figure7(), *cpu, *gpu, 7);
    let r = run_phases(
        &mut net,
        &mut w,
        PhaseConfig::pure_cycles(600, 2_400, 1_500),
    );
    assert!(
        r.stats.events.vicinity_rides > 0,
        "{name} no longer exercises vicinity rides: {:?}",
        r.stats.events
    );
    let report = net.telemetry_report().expect("traced");
    vec![
        format!("{name} stats {}", stats_digest(&r.stats)),
        format!("{name} events {}", events_digest(report)),
    ]
}

fn spec(body: &str) -> ScenarioSpec {
    let text = if body.contains("\"phases\"") {
        format!("{{ {body} }}")
    } else {
        format!("{{ {body}, {PHASES} }}")
    };
    let mut specs = ScenarioSpec::parse(&text).expect("golden spec parses");
    assert_eq!(specs.len(), 1);
    specs.remove(0)
}

fn digest(bytes: &[u8]) -> String {
    CacheKey(sha256(bytes)).hex()
}

fn stats_digest(stats: &NetStats) -> String {
    digest(
        serde_json::to_string(stats)
            .expect("stats serialise")
            .as_bytes(),
    )
}

/// The event stream in canonical order, one `cycle node kind port id` line
/// per event, then the recorded and dropped totals.
fn events_digest(mut report: TelemetryReport) -> String {
    report.sort_events();
    let mut text = String::new();
    for e in &report.events {
        text.push_str(&format!(
            "{} {} {:?} {} {}\n",
            e.cycle, e.node, e.kind, e.port, e.id
        ));
    }
    text.push_str(&format!("{} {}\n", report.recorded, report.dropped));
    digest(text.as_bytes())
}

/// Every event kind, rings large enough that these runs drop nothing.
fn all_events() -> TelemetryConfig {
    TelemetryConfig {
        capacity: 16_384,
        ..TelemetryConfig::default()
    }
}

/// The digest lines of one case: `<case> <artefact> <sha256>`.
fn case_lines(case: &Case) -> Vec<String> {
    let spec = spec(case.spec);
    let tel = all_events();
    let mut lines = Vec::new();
    let mut line = |what: &str, hex: String| lines.push(format!("{} {what} {hex}", case.name));
    let check = |stats: &NetStats| {
        assert!(
            (case.exercised)(stats),
            "{} no longer exercises {}: {:?}",
            case.name,
            case.covers,
            stats.events
        )
    };
    if let TrafficSpec::Hetero { .. } = spec.traffic {
        let (mix, report) = noc_hetero::run_spec(&spec, Some(&tel)).expect("hetero case runs");
        check(&mix.stats);
        line("stats", stats_digest(&mix.stats));
        line("events", events_digest(report.expect("traced")));
        return lines;
    }
    let (traced, report) = run_synthetic_spec(&spec, Some(&tel)).expect("traced case runs");
    let ServeRun::Done { point, warm } = run_synthetic_spec_ctl(
        &spec,
        WarmStart::Fresh { capture: true },
        None,
        &mut FreeRun,
    )
    .expect("untraced case runs") else {
        unreachable!("FreeRun never cancels")
    };
    check(&traced.result.stats);
    assert_eq!(
        stats_digest(&traced.result.stats),
        stats_digest(&point.result.stats),
        "{}: tracing changed the run",
        case.name
    );
    line("stats", stats_digest(&traced.result.stats));
    line("events", events_digest(report.expect("traced")));
    line(
        "checkpoint",
        digest(&warm.expect("warm-up captured").encode()),
    );
    lines
}

fn all_lines() -> String {
    let mut out = String::new();
    for l in CASES.iter().flat_map(case_lines).chain(vicinity_lines()) {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

#[test]
fn kernel_outputs_match_the_golden_digests() {
    let want = std::fs::read_to_string(golden_path()).expect("golden digest file");
    let got = all_lines();
    let (want_lines, got_lines): (Vec<&str>, Vec<&str>) =
        (want.lines().collect(), got.lines().collect());
    let moved: Vec<&str> = got_lines
        .iter()
        .filter(|l| !want_lines.contains(l))
        .copied()
        .collect();
    assert!(
        moved.is_empty() && want_lines.len() == got_lines.len(),
        "kernel outputs moved off {GOLDEN}:\n{}\nIf the model change is \
         intended, regenerate with `cargo test --test golden_digests -- \
         --ignored regenerate_golden_digests`.",
        moved.join("\n")
    );
}

/// Rewrites the golden file from the current build (run on purpose only).
#[test]
#[ignore = "rewrites tests/golden/kernel_digests.txt"]
fn regenerate_golden_digests() {
    std::fs::write(golden_path(), all_lines()).expect("write golden digests");
}
