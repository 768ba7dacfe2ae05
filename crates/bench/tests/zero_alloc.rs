//! Zero-allocation steady-state enforcement (DESIGN.md §17).
//!
//! The fixed-depth VC rings remove per-VC `VecDeque` churn; the remaining
//! per-cycle containers (NIC inject queue, ejected scratch, local-credit
//! scratch, CS-burst buffers, the source's pending-packet buffer) reach a
//! steady-state capacity during warm-up and must never grow again. A
//! counting `#[global_allocator]` pins this: after the warm-up, 1k further
//! cycles of inject + step on a loaded 8×8 fabric must perform **zero**
//! heap allocations, on the packet-switched, TDM hybrid and SDM hybrid
//! backends. Each backend runs at a load below its saturation point, and
//! the test checks that the armed window delivers what it offers, so the
//! pin holds at the load it names.
//!
//! The same allocator tracks each thread's live heap bytes, which pins
//! the hybrid fabrics' footprint: per-node state must not grow with the
//! mesh.
//!
//! This lives in its own integration-test binary because a global
//! allocator is per-binary state; the tests serialise on a mutex so the
//! armed counter is never shared between concurrently running tests.

// The workspace denies `unsafe`; a counting allocator needs it because
// `GlobalAlloc` is an unsafe trait.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use noc_bench::{BackendKind, ScenarioSpec};
use noc_sdm::{SdmConfig, SdmNode};
use noc_sim::{Fabric, Mesh, Network, NetworkConfig, PacketNode};
use noc_traffic::{PhaseConfig, SyntheticSource, TrafficPattern};
use rand::{rngs::StdRng, SeedableRng};
use tdm_noc::{TdmConfig, TdmNetwork};

/// Counts allocation events (alloc + realloc) while armed. Deallocations
/// are free to happen — shrinking is not growth — but in practice the
/// steady state performs none either. Live bytes are tracked always, per
/// thread, so tests running beside a measurement do not disturb it.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    static IN_HOOK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static LIVE_BYTES: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
}

/// Add `delta` to this thread's live heap bytes.
fn track(delta: i64) {
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

fn trace_hit(what: &str, size: usize) {
    IN_HOOK.with(|g| {
        if g.replace(true) {
            return;
        }
        if std::env::var_os("ZERO_ALLOC_TRACE").is_some() {
            let bt = std::backtrace::Backtrace::force_capture();
            eprintln!("--- {what} of {size} bytes ---\n{bt}");
        }
        g.set(false);
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            trace_hit("alloc", layout.size());
        }
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            trace_hit("realloc", new_size);
        }
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            track(new_size as i64 - layout.size() as i64);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serialises the backend tests (the armed counter is global).
static GATE: Mutex<()> = Mutex::new(());

/// Long enough that every cold-path structure reaches its plateau: flow
/// tables (frequency trackers, connection registries) stop discovering
/// new (src, dst) pairs only after each source has drawn every
/// destination — a coupon-collector horizon of ~63·H(63) ≈ 300 packets
/// per node, ~5k cycles at the packet backend's load. Deterministic seed
/// makes this a stable pin rather than a probabilistic one.
const WARMUP_CYCLES: u64 = 8_000;
const MEASURED_CYCLES: u64 = 1_000;
const PACKET_FLITS: u8 = 5;

/// Warm `net` up under `pattern` at `load_flits` flits/node/cycle, then
/// count heap allocations over the armed window. Asserts zero allocations
/// and that the window offers its labelled load and delivers it.
fn pin_steady_state(label: &str, net: &mut dyn Fabric, pattern: TrafficPattern, load_flits: f64) {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = net.mesh();
    let senders = mesh
        .nodes()
        .filter(|&n| {
            pattern
                .dest(&mesh, n, &mut StdRng::seed_from_u64(0))
                .is_some()
        })
        .count();
    let mut src = SyntheticSource::new(mesh, pattern, load_flits, PACKET_FLITS, 42);
    let mut drive = |net: &mut dyn Fabric, cycles: u64| {
        let mut injected = 0u64;
        for _ in 0..cycles {
            let t = net.now();
            src.tick(t, true, |n, p| {
                injected += 1;
                net.inject(n, p);
            });
            net.step();
        }
        injected
    };

    // Warm-up: every queue reaches its steady-state capacity.
    drive(net, WARMUP_CYCLES);
    let delivered_before = net.stats().packets_delivered;

    ALLOC_EVENTS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let injected = drive(net, MEASURED_CYCLES);
    ARMED.store(false, Ordering::SeqCst);
    let events = ALLOC_EVENTS.load(Ordering::SeqCst);
    let delivered = net.stats().packets_delivered - delivered_before;

    let offered = load_flits * senders as f64 * MEASURED_CYCLES as f64 / PACKET_FLITS as f64;
    let within = |x: u64, want: f64, tol: f64| (x as f64 - want).abs() <= tol * want;
    // The label check guards the rate's unit (a packet rate passed as a
    // flit rate is off by 5x); 15% is three standard deviations of the
    // Bernoulli count in the smallest window here (~500 packets).
    assert!(
        within(injected, offered, 0.15),
        "{label}: injected {injected} packets, the label offers {offered:.0}"
    );
    // Below saturation nothing backs up: the window delivers what it
    // injects, up to the change in packets in flight.
    assert!(
        within(delivered, injected as f64, 0.05),
        "{label}: delivered {delivered} of {injected} packets: past saturation"
    );
    assert_eq!(
        events, 0,
        "{label} allocated {events} times across {MEASURED_CYCLES} warm cycles"
    );
}

/// Packet-VC4 under uniform random traffic at 0.3 flits/node/cycle,
/// about 80% of its saturation on this fabric.
#[test]
fn packet_steady_state_step_allocates_nothing() {
    let mesh = Mesh::square(8);
    let cfg = NetworkConfig::with_mesh(mesh);
    let mut net = Network::new(mesh, |id| PacketNode::new(id, &cfg, None));
    pin_steady_state(
        "packet backend",
        &mut net,
        TrafficPattern::UniformRandom,
        0.3,
    );
}

/// The hybrid backends use a fixed permutation (transpose) rather than
/// uniform-random traffic: under a stationary pattern the circuit-setup
/// control plane finishes discovering every (src, dst) flow during
/// warm-up, so the measured window pins the pure data plane — CS bursts
/// streaming through recycled buffers, PS fallback, credits, acks — with
/// zero allocations. Uniform-random keeps *discovering* new flows
/// (first circuit to a fresh destination, registry-table doublings)
/// arbitrarily late, which is cold-path setup work, not steady state.
/// TDM-VC4 runs transpose at 0.12 flits/node/cycle, about 70% of its
/// saturation on this fabric.
#[test]
fn tdm_steady_state_step_allocates_nothing() {
    let mesh = Mesh::square(8);
    let mut cfg = TdmConfig::vc4(NetworkConfig::with_mesh(mesh));
    cfg.policy.setup_after_msgs = 3;
    let mut net = TdmNetwork::new(cfg);
    pin_steady_state("TDM backend", &mut net, TrafficPattern::Transpose, 0.12);
}

/// SDM-VC4 under transpose (see the TDM test for why) at 0.05
/// flits/node/cycle, about 70% of its saturation on this fabric: plane
/// serialisation saturates it far below the other two (at 0.10 the
/// window delivers 7% less than it injects).
#[test]
fn sdm_steady_state_step_allocates_nothing() {
    let mesh = Mesh::square(8);
    let cfg = SdmConfig {
        net: NetworkConfig::with_mesh(mesh),
        setup_after_msgs: 3,
        ..Default::default()
    };
    let mut net = Network::new(mesh, |id| SdmNode::new(id, &cfg));
    pin_steady_state("SDM backend", &mut net, TrafficPattern::Transpose, 0.05);
}

/// Heap bytes a freshly built `k`×`k` fabric of `backend` holds, with
/// 256-entry slot tables at every size.
fn built_fabric_bytes(backend: BackendKind, k: u16) -> i64 {
    let mut spec = ScenarioSpec::synthetic(
        backend,
        k,
        TrafficPattern::UniformRandom,
        0.01,
        PhaseConfig::quick(),
        1,
    );
    spec.slot_capacity = Some(256);
    let before = LIVE_BYTES.with(|live| live.get());
    let fabric = spec.build_fabric().expect("spec builds");
    let held = LIVE_BYTES.with(|live| live.get()) - before;
    drop(fabric);
    held
}

/// What one node of a hybrid fabric costs must not depend on how many
/// nodes there are: the heap each added node costs between 16×16 and
/// 32×32 is within 10% of what it costs between 8×8 and 16×16 (the
/// differences cancel fixed costs), and the 32×32 fabrics stay under a
/// budget. Per-node tables indexed by the whole mesh fail the first
/// check: their cost per node grows with the node count.
#[test]
fn hybrid_fabric_heap_grows_linearly_with_nodes() {
    // Building fabrics while another test's window is armed would count
    // as that window's allocations.
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    const MB: i64 = 1 << 20;
    for (backend, budget_mb) in [
        (BackendKind::HybridTdmVc4, 24),
        (BackendKind::HybridSdmVc4, 14),
    ] {
        let [b8, b16, b32] = [8, 16, 32].map(|k| built_fabric_bytes(backend, k));
        let small = (b16 - b8) as f64 / (256 - 64) as f64;
        let large = (b32 - b16) as f64 / (1024 - 256) as f64;
        let label = backend.label();
        eprintln!(
            "{label}: {b8} / {b16} / {b32} bytes at 8x8 / 16x16 / 32x32; \
             {small:.0} then {large:.0} bytes per added node"
        );
        assert!(
            (large / small - 1.0).abs() <= 0.10,
            "{label}: a node costs {small:.0} bytes between 8x8 and 16x16 \
             but {large:.0} between 16x16 and 32x32"
        );
        assert!(
            b32 < budget_mb * MB,
            "{label}: a 32x32 fabric holds {:.1} MB, over its {budget_mb} MB budget",
            b32 as f64 / MB as f64
        );
    }
}
