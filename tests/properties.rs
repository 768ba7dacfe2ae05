//! Property-based tests over the core data structures and the full
//! network: invariants that must hold for *any* input sequence.

use proptest::prelude::*;
use tdm_hybrid_noc::prelude::*;
use tdm_hybrid_noc::sim::routing::{odd_even_directions, xy_route};
use tdm_hybrid_noc::sim::Port;
use tdm_hybrid_noc::tdm::SlotTables;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of reservations and releases keeps the slot tables
    /// consistent: no slot double-booked at one port, no output port
    /// promised to two inputs in the same slot, and released slots reusable.
    #[test]
    fn slot_tables_never_double_book(
        ops in prop::collection::vec(
            (0usize..5, 0u16..32, 1u8..6, 0usize..5, 0u64..8),
            1..60
        )
    ) {
        let mut t = SlotTables::new(32, 32, 1.0);
        let mut live: Vec<(Port, u64)> = Vec::new();
        for (in_p, slot, dur, out_p, path_seed) in ops {
            let in_port = Port::ALL[in_p];
            let out = Port::ALL[out_p];
            let path_id = path_seed + 100;
            if path_seed < 2 && !live.is_empty() {
                // Occasionally release a live path.
                let (p, id) = live.swap_remove(path_seed as usize % live.len());
                t.release_path(p, id);
                continue;
            }
            if t.try_reserve(in_port, slot, dur, out, path_id, NodeId(0)).is_ok() {
                live.push((in_port, path_id));
            }
        }
        // Invariant: in any slot, each output port appears at most once
        // across all input ports.
        for s in 0..32u64 {
            let mut outs = std::collections::HashSet::new();
            for p in Port::ALL {
                if let Some(out) = t.lookup(p, s) {
                    prop_assert!(outs.insert(out), "output {out:?} double-promised in slot {s}");
                }
            }
        }
        // Releasing everything empties the tables.
        for (p, id) in live {
            t.release_path(p, id);
        }
        for s in 0..32u64 {
            for p in Port::ALL {
                prop_assert!(t.lookup(p, s).is_none());
            }
        }
    }

    /// X-Y and odd-even routes are minimal and reach the destination on
    /// arbitrary rectangular meshes.
    #[test]
    fn routes_are_minimal_on_any_mesh(
        kx in 2u16..9, ky in 2u16..9,
        src_i in 0u32..64, dst_i in 0u32..64,
    ) {
        let mesh = Mesh::new(kx, ky);
        let src = NodeId(src_i % mesh.len() as u32);
        let dst = NodeId(dst_i % mesh.len() as u32);

        // X-Y walk.
        let mut cur = src;
        let mut hops = 0;
        while cur != dst {
            let p = xy_route(&mesh, cur, dst);
            let d = p.direction().expect("productive");
            cur = mesh.neighbor(cur, d).expect("in-mesh");
            hops += 1;
            prop_assert!(hops <= mesh.hops(src, dst));
        }
        prop_assert_eq!(hops, mesh.hops(src, dst));

        // Every odd-even choice is productive, and greedy walks terminate.
        let mut cur = src;
        let mut hops = 0;
        while cur != dst {
            let dirs = odd_even_directions(&mesh, src, cur, dst);
            prop_assert!(!dirs.is_empty());
            // Worst-case choice each step.
            let d = dirs.last().expect("non-empty");
            let next = mesh.neighbor(cur, d).expect("in-mesh");
            prop_assert_eq!(mesh.hops(next, dst) + 1, mesh.hops(cur, dst));
            cur = next;
            hops += 1;
        }
        prop_assert_eq!(hops, mesh.hops(src, dst));
    }

    /// Neighbor links are symmetric on every topology shape: if `b` is
    /// `a`'s neighbor in direction `d`, then `a` is `b`'s neighbor in the
    /// opposite direction — including across torus wrap links — and the
    /// precomputed `TopoTables` agree with the coordinate arithmetic.
    #[test]
    fn neighbors_are_symmetric_on_any_topology(
        kx in 2u16..9, ky in 2u16..9, c in 1u8..5,
        kind_i in 0usize..3,
    ) {
        use tdm_hybrid_noc::sim::{Direction, TopoTables};
        let topo = match kind_i {
            0 => Mesh::new(kx, ky),
            1 => Mesh::torus(kx, ky),
            _ => Mesh::cmesh(kx, ky, c),
        };
        let tables = TopoTables::build(&topo);
        for a in topo.nodes() {
            for d in Direction::ALL {
                prop_assert_eq!(
                    tables.neighbor(a.0 as usize, d),
                    topo.neighbor(a, d).map(|n| n.0 as usize),
                    "tables disagree at {:?} {:?}", a, d
                );
                if let Some(b) = topo.neighbor(a, d) {
                    prop_assert_eq!(
                        topo.neighbor(b, d.opposite()), Some(a),
                        "asymmetric link {:?} -{:?}-> {:?}", a, d, b
                    );
                    // A wrap edge is a wrap edge from both ends.
                    prop_assert_eq!(
                        topo.wraps(a, d), topo.wraps(b, d.opposite()),
                        "dateline disagrees across {:?} -{:?}-> {:?}", a, d, b
                    );
                }
            }
        }
    }

    /// X-Y routes are minimal and reach the destination on any torus: the
    /// walk takes exactly `hops(src, dst)` steps, where `hops` uses the
    /// shorter way around each ring.
    #[test]
    fn torus_routes_are_minimal(
        kx in 2u16..9, ky in 2u16..9,
        src_i in 0u32..64, dst_i in 0u32..64,
    ) {
        let topo = Mesh::torus(kx, ky);
        let src = NodeId(src_i % topo.len() as u32);
        let dst = NodeId(dst_i % topo.len() as u32);
        let mut cur = src;
        let mut hops = 0;
        while cur != dst {
            let p = xy_route(&topo, cur, dst);
            let d = p.direction().expect("productive");
            cur = topo.neighbor(cur, d).expect("torus has no edges");
            hops += 1;
            prop_assert!(hops <= topo.hops(src, dst));
        }
        prop_assert_eq!(hops, topo.hops(src, dst));
    }

    /// Torus dateline discipline: along any X-Y route, the VC class
    /// (0 before the wrap link of the current dimension, 1 after) never
    /// goes from 1 back to 0 within a dimension, and resets on the
    /// dimension switch — the invariant that makes the class-1 VCs a
    /// terminal resource class and the CDG acyclic (deadlock freedom).
    #[test]
    fn torus_dateline_class_is_monotonic_per_dimension(
        kx in 2u16..9, ky in 2u16..9,
        src_i in 0u32..64, dst_i in 0u32..64,
    ) {
        let topo = Mesh::torus(kx, ky);
        let src = NodeId(src_i % topo.len() as u32);
        let dst = NodeId(dst_i % topo.len() as u32);
        let mut cur = src;
        let mut class = 0u8;
        let mut dim = 2u8; // 0 = X, 1 = Y, 2 = not started
        let mut wraps_seen = 0u32;
        while cur != dst {
            let p = xy_route(&topo, cur, dst);
            let d = p.direction().expect("productive");
            let step_dim = match d {
                tdm_hybrid_noc::sim::Direction::East
                | tdm_hybrid_noc::sim::Direction::West => 0,
                _ => 1,
            };
            if step_dim != dim {
                // Dimension-order routing never returns to a finished
                // dimension, and the class resets with the new dimension.
                prop_assert!(dim == 2 || (dim == 0 && step_dim == 1));
                dim = step_dim;
                class = 0;
            }
            if topo.wraps(cur, d) {
                // A second wrap in the same dimension would demand a
                // class-1 -> class-1 wrap transition, re-entering the
                // terminal class — exactly the cycle the dateline breaks.
                prop_assert_eq!(class, 0, "route wrapped twice in one dimension");
                class = 1;
                wraps_seen += 1;
            }
            cur = topo.neighbor(cur, d).expect("torus has no edges");
        }
        // The shorter way around each ring crosses its dateline at most
        // once, so at most one wrap per dimension.
        prop_assert!(wraps_seen <= 2, "route crossed {} wrap links", wraps_seen);
    }

    /// Torus dateline routing is deadlock-free end to end: a packet
    /// network on a randomized torus shape drains every offered packet
    /// under uniform-random load, including loads that keep all wrap
    /// links busy.
    #[test]
    fn torus_packet_network_is_deadlock_free(
        kx in 2u16..6, ky in 2u16..6,
        seed in 0u64..500,
        rate_milli in 20u64..250,
    ) {
        let topo = Mesh::torus(kx, ky);
        let net_cfg = NetworkConfig::with_mesh(topo);
        let mut net = Network::new(topo, |id| PacketNode::new(id, &net_cfg, None));
        let mut source = SyntheticSource::new(
            topo,
            TrafficPattern::UniformRandom,
            rate_milli as f64 / 1000.0,
            5,
            seed,
        );
        net.begin_measurement();
        for _ in 0..400 {
            let now = net.now();
            let mut pkts = Vec::new();
            source.tick(now, true, |n, p| pkts.push((n, p)));
            for (n, p) in pkts {
                net.inject(n, p);
            }
            net.step();
        }
        prop_assert!(net.drain(30_000), "torus {}x{} deadlocked", kx, ky);
        net.end_measurement();
        prop_assert_eq!(net.stats.packets_delivered, net.stats.packets_offered);
    }

    /// The TDM hybrid backend drains on randomized torus and concentrated
    /// shapes too (circuit setup/teardown rides the same dateline VCs).
    #[test]
    fn tdm_network_drains_on_any_topology(
        kx in 2u16..5, ky in 2u16..5, c in 1u8..4,
        kind_i in 0usize..3,
        seed in 0u64..200,
    ) {
        let topo = match kind_i {
            0 => Mesh::new(kx, ky),
            1 => Mesh::torus(kx, ky),
            _ => Mesh::cmesh(kx, ky, c),
        };
        let mut cfg = TdmConfig::vc4(NetworkConfig::with_mesh(topo));
        cfg.policy.setup_after_msgs = 2;
        cfg.policy.freq_window = 1_024;
        cfg.slot_capacity = 32;
        let mut net = TdmNetwork::new(cfg);
        let mut source = SyntheticSource::new(
            topo,
            TrafficPattern::UniformRandom,
            0.08,
            5,
            seed,
        );
        net.begin_measurement();
        for _ in 0..500 {
            let now = net.now();
            let mut pkts = Vec::new();
            source.tick(now, true, |n, p| pkts.push((n, p)));
            for (n, p) in pkts {
                net.inject(n, p);
            }
            net.step();
        }
        prop_assert!(net.drain(30_000), "TDM {:?} {}x{} failed to drain", topo.kind(), kx, ky);
        net.end_measurement();
        prop_assert_eq!(net.stats().packets_delivered, net.stats().packets_offered);
    }

    /// The packet network delivers every offered packet exactly once and
    /// keeps latency ≥ the zero-load bound, for arbitrary traffic.
    #[test]
    fn packet_network_conserves_packets(
        seed in 0u64..1000,
        rate_milli in 20u64..150,
    ) {
        let mesh = Mesh::square(4);
        let net_cfg = NetworkConfig::with_mesh(mesh);
        let mut net = Network::new(mesh, |id| PacketNode::new(id, &net_cfg, None));
        let mut source = SyntheticSource::new(
            mesh,
            TrafficPattern::UniformRandom,
            rate_milli as f64 / 1000.0,
            5,
            seed,
        );
        net.begin_measurement();
        for _ in 0..600 {
            let now = net.now();
            let mut pkts = Vec::new();
            source.tick(now, true, |n, p| pkts.push((n, p)));
            for (n, p) in pkts {
                net.inject(n, p);
            }
            net.step();
        }
        prop_assert!(net.drain(20_000), "network failed to drain");
        net.end_measurement();
        prop_assert_eq!(net.stats.packets_delivered, net.stats.packets_offered);
        if net.stats.packets_delivered > 0 {
            // A packet needs at least head pipeline latency + serialisation.
            prop_assert!(net.stats.avg_latency() >= 8.0);
        }
    }

    /// The TDM hybrid network conserves packets under arbitrary traffic and
    /// never delivers a flit twice, circuits or not.
    #[test]
    fn tdm_network_conserves_packets(
        seed in 0u64..500,
        rate_milli in 20u64..120,
    ) {
        let mesh = Mesh::square(4);
        let mut cfg = TdmConfig::vc4(NetworkConfig::with_mesh(mesh));
        cfg.policy.setup_after_msgs = 2;
        cfg.policy.freq_window = 1_024;
        cfg.slot_capacity = 32;
        let mut net = TdmNetwork::new(cfg);
        let mut source = SyntheticSource::new(
            mesh,
            TrafficPattern::UniformRandom,
            rate_milli as f64 / 1000.0,
            5,
            seed,
        );
        net.begin_measurement();
        for _ in 0..800 {
            let now = net.now();
            let mut pkts = Vec::new();
            source.tick(now, true, |n, p| pkts.push((n, p)));
            for (n, p) in pkts {
                net.inject(n, p);
            }
            net.step();
        }
        prop_assert!(net.drain(30_000), "TDM network failed to drain");
        net.end_measurement();
        prop_assert_eq!(net.stats().packets_delivered, net.stats().packets_offered);
    }

    /// Activity-driven stepping (idle routers asleep, slot-wheel and
    /// gating timers, neighbour wakes) is bit-identical to forced
    /// step-everything: the same delivered-packet stream and the same
    /// statistics, for every switching backend and traffic shape. Only
    /// the `nodes_stepped` activity counter may differ — it measures the
    /// scheduler itself.
    #[test]
    fn activity_scheduling_matches_always_step(
        seed in 0u64..500,
        rate_milli in 10u64..120,
        pattern_i in 0usize..3,
        backend_i in 0usize..4,
        topo_i in 0usize..3,
    ) {
        let mesh = match topo_i {
            0 => Mesh::square(4),
            1 => Mesh::torus_square(4),
            _ => Mesh::cmesh(4, 4, 2),
        };
        let pattern = match pattern_i {
            0 => TrafficPattern::UniformRandom,
            1 => TrafficPattern::Transpose,
            _ => TrafficPattern::Hotspot(vec![NodeId(5), NodeId(10)]),
        };
        let backend = match BackendKind::SYNTH[backend_i] {
            // VC gating is incompatible with torus dateline classes.
            BackendKind::HybridTdmVct if mesh.is_torus() => BackendKind::HybridTdmVc4,
            b => b,
        };
        let run = |always_step: bool| {
            let mut fabric = build_fabric(
                backend,
                NetworkConfig::with_mesh(mesh),
                Tuning::Synthetic { slot_capacity: None },
            )
            .expect("synthetic backends build");
            fabric.set_always_step(always_step);
            fabric.set_collect_delivered(true);
            let mut source = SyntheticSource::new(
                mesh,
                pattern.clone(),
                rate_milli as f64 / 1000.0,
                5,
                seed,
            );
            fabric.begin_measurement();
            for _ in 0..400 {
                let now = fabric.now();
                let mut pkts = Vec::new();
                source.tick(now, true, |n, p| pkts.push((n, p)));
                for (n, p) in pkts {
                    fabric.inject(n, p);
                }
                fabric.step();
            }
            let drained = fabric.drain(20_000);
            fabric.end_measurement();
            (drained, fabric.now(), fabric.delivered_log().to_vec(), fabric.stats().clone())
        };
        let (f_ok, f_now, f_log, f_stats) = run(true);
        let (a_ok, a_now, a_log, a_stats) = run(false);
        prop_assert!(f_ok && a_ok, "both modes must drain ({backend:?})");
        prop_assert_eq!(f_now, a_now);
        prop_assert_eq!(f_log, a_log);
        prop_assert_eq!(f_stats.measured_cycles, a_stats.measured_cycles);
        prop_assert_eq!(f_stats.packets_offered, a_stats.packets_offered);
        prop_assert_eq!(f_stats.packets_delivered, a_stats.packets_delivered);
        prop_assert_eq!(f_stats.latency_sum, a_stats.latency_sum);
        prop_assert_eq!(f_stats.latency_max, a_stats.latency_max);
        prop_assert_eq!(f_stats.flits_delivered, a_stats.flits_delivered);
        prop_assert_eq!(f_stats.cs_packets_delivered, a_stats.cs_packets_delivered);
        prop_assert_eq!(f_stats.config_packets_delivered, a_stats.config_packets_delivered);
        prop_assert_eq!(f_stats.latency_hist.clone(), a_stats.latency_hist.clone());
        prop_assert_eq!(f_stats.events, a_stats.events);
        prop_assert_eq!(f_stats.leakage, a_stats.leakage);
        // Forced mode steps everything; the scheduler must step no more.
        prop_assert_eq!(f_stats.nodes_stepped, f_stats.node_cycles);
        prop_assert!(a_stats.nodes_stepped <= a_stats.node_cycles);
    }

    /// Cycle-leaping (`Fabric::run_until` jumping over provably idle
    /// stretches) is bit-identical to per-cycle stepping — same delivered
    /// stream, statistics, energy events and leakage integrals — for every
    /// switching backend and traffic shape. This is the invariant that
    /// lets the `--json` envelopes of every driver stay byte-identical
    /// whether a run is ticked or leapt.
    #[test]
    fn cycle_leaping_matches_per_cycle_stepping(
        seed in 0u64..500,
        rate_milli in 2u64..80,
        pattern_i in 0usize..3,
        backend_i in 0usize..4,
        topo_i in 0usize..3,
    ) {
        let mesh = match topo_i {
            0 => Mesh::square(4),
            1 => Mesh::torus_square(4),
            _ => Mesh::cmesh(4, 4, 2),
        };
        let pattern = match pattern_i {
            0 => TrafficPattern::UniformRandom,
            1 => TrafficPattern::Transpose,
            _ => TrafficPattern::Hotspot(vec![NodeId(5), NodeId(10)]),
        };
        let backend = match BackendKind::SYNTH[backend_i] {
            // VC gating is incompatible with torus dateline classes.
            BackendKind::HybridTdmVct if mesh.is_torus() => BackendKind::HybridTdmVc4,
            b => b,
        };
        // Pre-sample the injection schedule so both drives see the exact
        // same packets at the exact same cycles.
        let mut source = SyntheticSource::new(
            mesh,
            pattern.clone(),
            rate_milli as f64 / 1000.0,
            5,
            seed,
        );
        let horizon = 400u64;
        let mut sched: Vec<(u64, NodeId, Packet)> = Vec::new();
        for t in 0..horizon {
            source.tick(t, true, |n, p| sched.push((t, n, p)));
        }
        let run = |leap: bool| {
            let mut fabric = build_fabric(
                backend,
                NetworkConfig::with_mesh(mesh),
                Tuning::Synthetic { slot_capacity: None },
            )
            .expect("synthetic backends build");
            fabric.set_collect_delivered(true);
            fabric.begin_measurement();
            for (t, n, p) in &sched {
                if leap {
                    fabric.run_until(*t);
                } else {
                    while fabric.now() < *t {
                        fabric.step();
                    }
                }
                fabric.inject(*n, p.clone());
            }
            if leap {
                fabric.run_until(horizon);
            } else {
                while fabric.now() < horizon {
                    fabric.step();
                }
            }
            let drained = fabric.drain(20_000);
            fabric.end_measurement();
            (drained, fabric.now(), fabric.delivered_log().to_vec(), fabric.stats().clone())
        };
        let (t_ok, t_now, t_log, t_stats) = run(false);
        let (l_ok, l_now, l_log, l_stats) = run(true);
        prop_assert!(t_ok && l_ok, "both modes must drain ({backend:?})");
        prop_assert_eq!(t_now, l_now);
        prop_assert_eq!(t_log, l_log);
        prop_assert_eq!(t_stats.measured_cycles, l_stats.measured_cycles);
        prop_assert_eq!(t_stats.packets_offered, l_stats.packets_offered);
        prop_assert_eq!(t_stats.packets_delivered, l_stats.packets_delivered);
        prop_assert_eq!(t_stats.latency_sum, l_stats.latency_sum);
        prop_assert_eq!(t_stats.latency_max, l_stats.latency_max);
        prop_assert_eq!(t_stats.flits_delivered, l_stats.flits_delivered);
        prop_assert_eq!(t_stats.cs_packets_delivered, l_stats.cs_packets_delivered);
        prop_assert_eq!(t_stats.config_packets_delivered, l_stats.config_packets_delivered);
        prop_assert_eq!(t_stats.latency_hist, l_stats.latency_hist);
        prop_assert_eq!(t_stats.events, l_stats.events);
        prop_assert_eq!(t_stats.leakage, l_stats.leakage);
    }

    /// Energy accounting: the breakdown is non-negative, additive, and
    /// saving_vs is antisymmetric around zero for identical inputs.
    #[test]
    fn energy_breakdown_is_consistent(
        writes in 0u64..1_000_000,
        reads in 0u64..1_000_000,
        xbar in 0u64..1_000_000,
        cycles in 1u64..1_000_000,
    ) {
        let events = tdm_hybrid_noc::sim::EnergyEvents {
            buffer_writes: writes,
            buffer_reads: reads,
            xbar_traversals: xbar,
            ..Default::default()
        };
        let leakage = tdm_hybrid_noc::sim::LeakageIntegrals {
            buffer_slot_cycles: cycles * 100,
            router_cycles: cycles,
            ..Default::default()
        };
        let b = EnergyModel::default().evaluate(&events, &leakage);
        prop_assert!(b.dynamic_pj() >= 0.0);
        prop_assert!(b.static_pj() > 0.0);
        prop_assert!((b.total_pj() - (b.dynamic_pj() + b.static_pj())).abs() < 1e-6);
        prop_assert!(b.saving_vs(&b).abs() < 1e-12);
    }
}

/// The resize controller's freeze/drain/re-setup sequence mutates nodes
/// from outside the step loop; the activity scheduler must survive it
/// bit-identically. This mirrors the table-exhaustion traffic of the
/// core resize test: one source hammering three destinations through
/// tiny slot tables forces at least one resize.
#[test]
fn activity_scheduling_survives_resize_bit_identically() {
    use tdm_hybrid_noc::tdm::ResizeConfig;
    let run = |always_step: bool| {
        let mut cfg = TdmConfig {
            net: NetworkConfig::with_mesh(Mesh::square(4)),
            slot_capacity: 64,
            ..TdmConfig::default()
        };
        cfg.resize = Some(ResizeConfig {
            initial_active: 8,
            fail_threshold: 4,
            window: 400,
            freeze_cycles: 120,
            shrink_below: 0.0,
        });
        let m = cfg.net.mesh;
        let flits = cfg.net.ps_packet_flits;
        let mut net = TdmNetwork::new(cfg);
        net.net.set_always_step(always_step);
        net.net.collect_delivered = true;
        net.begin_measurement();
        let src = m.id(Coord::new(0, 0));
        let dsts = [
            m.id(Coord::new(3, 0)),
            m.id(Coord::new(3, 1)),
            m.id(Coord::new(3, 2)),
        ];
        let mut id = 0;
        for _ in 0..200 {
            for &d in &dsts {
                let pkt = Packet::data(PacketId(id), src, d, flits, net.now());
                net.inject(src, pkt);
                id += 1;
            }
            net.run(12);
        }
        let drained = net.drain(20_000);
        net.end_measurement();
        assert!(net.resizes >= 1, "controller never resized");
        (
            drained,
            net.resizes,
            net.active_slots(),
            net.now(),
            net.net.delivered_log.clone(),
            net.stats().clone(),
        )
    };
    let (f_ok, f_resizes, f_slots, f_now, f_log, f_stats) = run(true);
    let (a_ok, a_resizes, a_slots, a_now, a_log, a_stats) = run(false);
    assert!(f_ok && a_ok, "both modes must drain across resizes");
    check_resize_runs_equal(
        (f_ok, f_resizes, f_slots, f_now, &f_log, &f_stats),
        (a_ok, a_resizes, a_slots, a_now, &a_log, &a_stats),
    );
}

/// Cycle-leaping through a dynamic slot-table resize sequence is
/// bit-identical to per-cycle stepping: `TdmNetwork::run_until` bounds
/// every leap at the next resize-controller decision point (observation
/// window end, freeze deadline), so the controller observes the network at
/// exactly the cycles where it could act. Same table-exhaustion traffic as
/// above — at least one grow happens mid-run.
#[test]
fn cycle_leaping_survives_resize_bit_identically() {
    use tdm_hybrid_noc::tdm::ResizeConfig;
    let run = |leap: bool| {
        let mut cfg = TdmConfig {
            net: NetworkConfig::with_mesh(Mesh::square(4)),
            slot_capacity: 64,
            ..TdmConfig::default()
        };
        cfg.resize = Some(ResizeConfig {
            initial_active: 8,
            fail_threshold: 4,
            window: 400,
            freeze_cycles: 120,
            shrink_below: 0.0,
        });
        let m = cfg.net.mesh;
        let flits = cfg.net.ps_packet_flits;
        let mut net = TdmNetwork::new(cfg);
        net.net.collect_delivered = true;
        net.begin_measurement();
        let src = m.id(Coord::new(0, 0));
        let dsts = [
            m.id(Coord::new(3, 0)),
            m.id(Coord::new(3, 1)),
            m.id(Coord::new(3, 2)),
        ];
        let mut id = 0;
        for _ in 0..200 {
            for &d in &dsts {
                let pkt = Packet::data(PacketId(id), src, d, flits, net.now());
                net.inject(src, pkt);
                id += 1;
            }
            if leap {
                let target = net.now() + 12;
                net.run_until(target);
            } else {
                for _ in 0..12 {
                    net.step();
                }
            }
        }
        let drained = net.drain(20_000);
        net.end_measurement();
        assert!(net.resizes >= 1, "controller never resized");
        (
            drained,
            net.resizes,
            net.active_slots(),
            net.now(),
            net.net.delivered_log.clone(),
            net.stats().clone(),
        )
    };
    let (f_ok, f_resizes, f_slots, f_now, f_log, f_stats) = run(false);
    let (a_ok, a_resizes, a_slots, a_now, a_log, a_stats) = run(true);
    assert!(f_ok && a_ok, "both modes must drain across resizes");
    check_resize_runs_equal(
        (f_ok, f_resizes, f_slots, f_now, &f_log, &f_stats),
        (a_ok, a_resizes, a_slots, a_now, &a_log, &a_stats),
    );
}

type ResizeRun<'a> = (
    bool,
    u32,
    u16,
    u64,
    &'a Vec<tdm_hybrid_noc::sim::DeliveredPacket>,
    &'a tdm_hybrid_noc::sim::NetStats,
);

fn check_resize_runs_equal(f: ResizeRun, a: ResizeRun) {
    let (_, f_resizes, f_slots, f_now, f_log, f_stats) = f;
    let (_, a_resizes, a_slots, a_now, a_log, a_stats) = a;
    assert_eq!(f_resizes, a_resizes);
    assert_eq!(f_slots, a_slots);
    assert_eq!(f_now, a_now);
    assert_eq!(f_log, a_log);
    assert_eq!(f_stats.packets_delivered, a_stats.packets_delivered);
    assert_eq!(f_stats.latency_sum, a_stats.latency_sum);
    assert_eq!(f_stats.cs_packets_delivered, a_stats.cs_packets_delivered);
    assert_eq!(
        f_stats.config_packets_delivered,
        a_stats.config_packets_delivered
    );
    assert_eq!(f_stats.latency_hist, a_stats.latency_hist);
    assert_eq!(f_stats.events, a_stats.events);
    assert_eq!(f_stats.leakage, a_stats.leakage);
}
