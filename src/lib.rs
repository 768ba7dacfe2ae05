//! # tdm-hybrid-noc
//!
//! A from-scratch Rust reproduction of *"Energy-Efficient Time-Division
//! Multiplexed Hybrid-Switched NoC for Heterogeneous Multicore Systems"*
//! (Yin, Zhou, Sapatnekar, Zhai): a cycle-level network-on-chip stack in
//! which packet-switched and circuit-switched messages share one mesh
//! fabric through time-division multiplexing.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`sim`] (`noc-sim`) — the cycle-level 2D-mesh simulation kernel and the
//!   canonical packet-switched VC wormhole router (*Packet-VC4*);
//! * [`tdm`] (`tdm-noc`) — the paper's contribution: slot tables, the
//!   setup/teardown/ack path-configuration protocol, time-slot stealing,
//!   hitchhiker/vicinity path sharing, aggressive VC power gating, and
//!   dynamic time-division granularity;
//! * [`sdm`] (`noc-sdm`) — the SDM hybrid baseline (link planes);
//! * [`power`] (`noc-power`) — the Orion-2.0-style energy/area model;
//! * [`traffic`] (`noc-traffic`) — synthetic patterns and the open-loop engine;
//! * [`hetero`] (`noc-hetero`) — the heterogeneous CPU+GPU workload model.
//!
//! ## Quickstart
//!
//! ```
//! use tdm_hybrid_noc::prelude::*;
//!
//! // A 6×6 TDM hybrid network with Table I parameters.
//! let cfg = TdmConfig::vc4(NetworkConfig::default());
//! let mut net = TdmNetwork::new(cfg);
//!
//! // Drive it with one frequently-communicating pair.
//! let (src, dst) = (NodeId(0), NodeId(21));
//! net.begin_measurement();
//! for i in 0..40u64 {
//!     let pkt = Packet::data(PacketId(i), src, dst, 5, net.now());
//!     net.inject(src, pkt);
//!     net.run(25);
//! }
//! assert!(net.drain(5_000));
//! net.end_measurement();
//!
//! // After a few messages the pair earns a circuit; later messages ride it.
//! assert!(net.stats().cs_packets_delivered > 0);
//! let energy = EnergyModel::default().evaluate_stats(net.stats());
//! assert!(energy.total_pj() > 0.0);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the per-figure/table experiment harnesses.

pub use noc_hetero as hetero;
pub use noc_power as power;
pub use noc_scenario as scenario;
pub use noc_sdm as sdm;
pub use noc_sim as sim;
pub use noc_traffic as traffic;
pub use tdm_noc as tdm;

/// The common imports for building and driving networks.
pub mod prelude {
    pub use noc_hetero::{mix_phases, run_mix, Floorplan, HeteroWorkload, MixResult};
    pub use noc_power::{AreaModel, EnergyBreakdown, EnergyModel};
    pub use noc_scenario::{build_fabric, BackendKind, ScenarioError, ScenarioSpec, Tuning};
    pub use noc_sdm::{SdmConfig, SdmNode};
    pub use noc_sim::{
        Coord, Cycle, Fabric, Mesh, NetStats, Network, NetworkConfig, NodeId, Packet, PacketId,
        PacketNode, RouterConfig,
    };
    pub use noc_traffic::{
        run_phases, PhaseConfig, RunResult, SyntheticSource, TrafficPattern, Workload,
    };
    pub use tdm_noc::{SharingConfig, TdmConfig, TdmNetwork, TdmNode, WaitBudget};
}
