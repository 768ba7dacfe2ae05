//! Standalone whole-network cycle-kernel benchmark with machine-readable
//! output: packet and TDM fabrics on 64- and 1024-node grids under
//! uniform-random traffic, driven through `noc_sim::Fabric` with a plain
//! `Instant` loop and written as schema-versioned JSON via `--json-out` so
//! regressions can be tracked across commits (`BENCH_network_step.json`
//! at the repo root holds the committed snapshot).
//!
//! Every point is named and reported by the load it really offers, in
//! flits/node/cycle (`SyntheticSource` takes that unit), and is timed the
//! way the engine drives a fabric: the source ticked and the fabric
//! stepped once per cycle.
//!
//! Flags: see [`FLAGS`] (`--help` prints them).

use std::time::Instant;

use noc_scenario::cli::{arg_value, check_cli_args, usage_error};
use noc_scenario::quick_flag;
use noc_sim::{Fabric, Mesh, Network, NetworkConfig, PacketNode};
use noc_traffic::{SyntheticSource, TrafficPattern};
use serde::Serialize;
use tdm_noc::{TdmConfig, TdmNetwork};

const STEPS: u64 = 512;
/// Offered loads, flits/node/cycle: the historic "heavy" point (12% of
/// the 8×8 mesh's UR bisection bound, ~50% of the 32×32 one) and the
/// low-load point.
const RATE_HEAVY: f64 = 0.06;
const RATE_LOW: f64 = 0.004;

#[derive(Serialize)]
struct Envelope {
    schema_version: u32,
    bench: &'static str,
    steps_per_rep: u64,
    reps: u64,
    points: Vec<Point>,
}

#[derive(Serialize)]
struct Point {
    name: String,
    backend: &'static str,
    nodes: usize,
    topology: &'static str,
    flits_per_node_cycle: f64,
    warmup_cycles: u64,
    /// Wall time of each timed repetition, nanoseconds.
    wall_ns: Vec<u64>,
    best_ns_per_cycle: f64,
    median_ns_per_cycle: f64,
    packets_delivered: u64,
}

/// Every `network_step` flag, in the format of `noc_scenario::cli::FLAGS`.
const FLAGS: &str = "\
--json-out <path>   write the schema-versioned result envelope
--reps <n>          timed repetitions per point (default 5; best and median reported)
--quick             2 reps and a shorter warm-up, the CI smoke (also -q)
--only <substr>     run only the points whose name contains <substr>
--help              print this list (also -h)
";

/// `--reps`: a positive integer, at most 2 under `--quick`.
fn reps_flag(quick: bool) -> u64 {
    let reps = arg_value("--reps").map_or(5, |v| match v.parse() {
        Ok(n) if n > 0 => n,
        _ => usage_error(
            FLAGS,
            &format!("--reps needs a positive integer, got {v:?}"),
        ),
    });
    if quick {
        reps.min(2)
    } else {
        reps
    }
}

/// Advance a fabric by `cycles` with source injection each cycle.
fn drive(net: &mut dyn Fabric, src: &mut SyntheticSource, cycles: u64) {
    for _ in 0..cycles {
        let now = net.now();
        src.tick(now, true, |n, p| net.inject(n, p));
        net.step();
    }
}

/// One operating point: name, backend, grid, offered flits/node/cycle and
/// warm-up cycles.
type Case = (&'static str, &'static str, Mesh, f64, u64);

fn measure((name, backend, topo, rate, warmup): Case, reps: u64) -> Point {
    let mut net = match backend {
        "packet" => packet_net(topo),
        _ => tdm_net(topo),
    };
    let mut src = SyntheticSource::new(topo, TrafficPattern::UniformRandom, rate, 5, 42);
    drive(net.as_mut(), &mut src, warmup);
    let mut wall_ns = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let t0 = Instant::now();
        drive(net.as_mut(), &mut src, STEPS);
        wall_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let mut sorted = wall_ns.clone();
    sorted.sort_unstable();
    let best = sorted[0];
    let median = sorted[sorted.len() / 2];
    Point {
        name: name.to_string(),
        backend,
        nodes: topo.len(),
        topology: if topo.is_torus() { "torus" } else { "mesh" },
        flits_per_node_cycle: rate,
        warmup_cycles: warmup,
        wall_ns,
        best_ns_per_cycle: best as f64 / STEPS as f64,
        median_ns_per_cycle: median as f64 / STEPS as f64,
        packets_delivered: net.stats().packets_delivered,
    }
}

fn packet_net(topo: Mesh) -> Box<dyn Fabric> {
    let cfg = NetworkConfig::with_mesh(topo);
    Box::new(Network::new(topo, |id| PacketNode::new(id, &cfg, None)))
}

fn tdm_net(topo: Mesh) -> Box<dyn Fabric> {
    let mut cfg = TdmConfig::vc4(NetworkConfig::with_mesh(topo));
    cfg.policy.setup_after_msgs = 3;
    if topo.len() > 64 {
        // §IV-D: 256-entry tables for networks beyond 64 nodes.
        cfg.slot_capacity = 256;
    }
    Box::new(TdmNetwork::new(cfg))
}

fn main() {
    check_cli_args(FLAGS);
    let quick = quick_flag();
    let reps = reps_flag(quick);
    let only = arg_value("--only");
    let warm_64 = if quick { 500 } else { 2_000 };
    let warm_1024 = if quick { 300 } else { 1_000 };
    let m8 = Mesh::square(8);
    let m32 = Mesh::square(32);
    let t32 = Mesh::torus_square(32);

    let cases: Vec<Case> = vec![
        ("packet_64n_0.06flits", "packet", m8, RATE_HEAVY, warm_64),
        ("packet_64n_0.004flits", "packet", m8, RATE_LOW, warm_64),
        ("tdm_hybrid_64n_0.06flits", "tdm", m8, RATE_HEAVY, warm_64),
        ("tdm_hybrid_64n_0.004flits", "tdm", m8, RATE_LOW, warm_64),
        (
            "packet_1024n_0.06flits",
            "packet",
            m32,
            RATE_HEAVY,
            warm_1024,
        ),
        (
            "packet_1024n_0.004flits",
            "packet",
            m32,
            RATE_LOW,
            warm_1024,
        ),
        (
            "packet_1024n_torus_0.06flits",
            "packet",
            t32,
            RATE_HEAVY,
            warm_1024,
        ),
        (
            "tdm_hybrid_1024n_0.06flits",
            "tdm",
            m32,
            RATE_HEAVY,
            warm_1024,
        ),
        (
            "tdm_hybrid_1024n_0.004flits",
            "tdm",
            m32,
            RATE_LOW,
            warm_1024,
        ),
        (
            "tdm_hybrid_1024n_torus_0.004flits",
            "tdm",
            t32,
            RATE_LOW,
            warm_1024,
        ),
    ];

    let mut points = Vec::new();
    println!(
        "{:<34} {:>14} {:>14} {:>12}",
        "point", "best ns/cyc", "median ns/cyc", "delivered"
    );
    for case in cases {
        if only.as_ref().is_some_and(|s| !case.0.contains(s.as_str())) {
            continue;
        }
        let p = measure(case, reps);
        println!(
            "{:<34} {:>14.1} {:>14.1} {:>12}",
            p.name, p.best_ns_per_cycle, p.median_ns_per_cycle, p.packets_delivered
        );
        points.push(p);
    }

    let env = Envelope {
        schema_version: 1,
        bench: "network_step",
        steps_per_rep: STEPS,
        reps,
        points,
    };
    if let Some(path) = arg_value("--json-out") {
        let json = serde_json::to_string_pretty(&env).expect("serialize");
        std::fs::write(&path, json + "\n").expect("write json");
        println!("wrote {path}");
    }
}
