//! The backend registry: every network configuration the paper evaluates,
//! as one enum, with `Result`-based configuration builders instead of the
//! panicking partial matches the per-crate enums (`SynthKind`, `NetKind`)
//! used to carry.

use noc_sdm::{SdmConfig, SdmNode};
use noc_sim::{Fabric, GatingConfig, Mesh, Network, NetworkConfig, PacketNode};
use tdm_noc::{ResizeConfig, TdmConfig, TdmNetwork, WaitBudget};

/// Every switching backend evaluated in the paper — the union of the
/// synthetic-study matrix (§IV: Packet-VC4 / Hybrid-SDM / Hybrid-TDM) and
/// the realistic-workload matrix (§V: packet and hybrid variants with path
/// sharing and aggressive VC gating).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize)]
pub enum BackendKind {
    /// Baseline 4-VC packet-switched network.
    PacketVc4,
    /// Packet-switched network with aggressive VC power gating (§V-B4's
    /// comparison point).
    PacketVct,
    /// SDM-based hybrid (Jerger et al. \[5\]), 4 VCs.
    HybridSdmVc4,
    /// TDM-based hybrid switching, 4 VCs.
    HybridTdmVc4,
    /// TDM hybrid + aggressive VC power gating.
    HybridTdmVct,
    /// TDM hybrid + circuit-switched path sharing.
    HybridTdmHopVc4,
    /// TDM hybrid + path sharing + aggressive VC power gating.
    HybridTdmHopVct,
}

impl BackendKind {
    /// Display label used in tables and figures (matches the paper).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::PacketVc4 => "Packet-VC4",
            BackendKind::PacketVct => "Packet-VCt",
            BackendKind::HybridSdmVc4 => "Hybrid-SDM-VC4",
            BackendKind::HybridTdmVc4 => "Hybrid-TDM-VC4",
            BackendKind::HybridTdmVct => "Hybrid-TDM-VCt",
            BackendKind::HybridTdmHopVc4 => "Hybrid-TDM-hop-VC4",
            BackendKind::HybridTdmHopVct => "Hybrid-TDM-hop-VCt",
        }
    }

    /// Canonical spec-file name (the enum variant name).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::PacketVc4 => "PacketVc4",
            BackendKind::PacketVct => "PacketVct",
            BackendKind::HybridSdmVc4 => "HybridSdmVc4",
            BackendKind::HybridTdmVc4 => "HybridTdmVc4",
            BackendKind::HybridTdmVct => "HybridTdmVct",
            BackendKind::HybridTdmHopVc4 => "HybridTdmHopVc4",
            BackendKind::HybridTdmHopVct => "HybridTdmHopVct",
        }
    }

    /// Parse a spec-file backend string: either the variant name or the
    /// display label, case-sensitively.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == s || k.label() == s)
            .ok_or_else(|| ScenarioError::UnknownBackend(s.to_string()))
    }

    /// True for the TDM hybrid variants (the only backends with slot
    /// tables and a dynamic-granularity controller).
    pub fn is_tdm(self) -> bool {
        matches!(
            self,
            BackendKind::HybridTdmVc4
                | BackendKind::HybridTdmVct
                | BackendKind::HybridTdmHopVc4
                | BackendKind::HybridTdmHopVct
        )
    }

    /// The full registry.
    pub const ALL: [BackendKind; 7] = [
        BackendKind::PacketVc4,
        BackendKind::PacketVct,
        BackendKind::HybridSdmVc4,
        BackendKind::HybridTdmVc4,
        BackendKind::HybridTdmVct,
        BackendKind::HybridTdmHopVc4,
        BackendKind::HybridTdmHopVct,
    ];

    /// The synthetic-study matrix (Figures 4–6), in plot order.
    pub const SYNTH: [BackendKind; 4] = [
        BackendKind::PacketVc4,
        BackendKind::HybridSdmVc4,
        BackendKind::HybridTdmVc4,
        BackendKind::HybridTdmVct,
    ];

    /// The three hybrid configurations of Figure 8, in plot order.
    pub const FIGURE8: [BackendKind; 3] = [
        BackendKind::HybridTdmVc4,
        BackendKind::HybridTdmHopVc4,
        BackendKind::HybridTdmHopVct,
    ];

    /// The realistic-workload matrix (§V), in plot order.
    pub const HETERO: [BackendKind; 6] = [
        BackendKind::PacketVc4,
        BackendKind::PacketVct,
        BackendKind::HybridTdmVc4,
        BackendKind::HybridTdmVct,
        BackendKind::HybridTdmHopVc4,
        BackendKind::HybridTdmHopVct,
    ];
}

/// Everything that can go wrong turning a scenario into a running fabric.
#[derive(Debug)]
pub enum ScenarioError {
    /// A TDM-only configuration was requested for a non-TDM backend.
    NotTdm(BackendKind),
    /// Backend string not in the registry.
    UnknownBackend(String),
    /// Traffic pattern string not recognised.
    UnknownPattern(String),
    /// Benchmark name (hetero CPU/GPU workload) not recognised.
    UnknownBench(String),
    /// A required spec field is missing.
    MissingField(&'static str),
    /// Malformed spec file (JSON syntax or field type).
    Parse(String),
    /// Invalid fault schedule: bad direction, a non-existent link, or a
    /// backend without the packet rerouting / abort machinery (the VC
    /// power-gating and SDM configurations).
    Fault(String),
    /// Checkpoint blob problems: bad magic/version, truncation, or a
    /// restore against an incompatible scenario.
    Checkpoint(String),
    /// Spec file could not be read.
    Io(std::io::Error),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NotTdm(k) => {
                write!(f, "backend {} is not a TDM configuration", k.label())
            }
            ScenarioError::UnknownBackend(s) => write!(
                f,
                "unknown backend {s:?} (expected one of: {})",
                BackendKind::ALL.map(BackendKind::name).join(", ")
            ),
            ScenarioError::UnknownPattern(s) => write!(f, "unknown traffic pattern {s:?}"),
            ScenarioError::UnknownBench(s) => write!(f, "unknown benchmark {s:?}"),
            ScenarioError::MissingField(name) => write!(f, "scenario is missing field {name:?}"),
            ScenarioError::Parse(msg) => write!(f, "malformed scenario: {msg}"),
            ScenarioError::Fault(msg) => write!(f, "invalid fault schedule: {msg}"),
            ScenarioError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
            ScenarioError::Io(e) => write!(f, "cannot read scenario: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

/// The base TDM configuration for a backend — exhaustive over the
/// registry, erroring (not panicking) on non-TDM kinds.
fn base_tdm_config(kind: BackendKind, net: NetworkConfig) -> Result<TdmConfig, ScenarioError> {
    match kind {
        BackendKind::HybridTdmVc4 => Ok(TdmConfig::vc4(net)),
        BackendKind::HybridTdmVct => Ok(TdmConfig::vct(net)),
        BackendKind::HybridTdmHopVc4 => Ok(TdmConfig::hop_vc4(net)),
        BackendKind::HybridTdmHopVct => Ok(TdmConfig::hop_vct(net)),
        BackendKind::PacketVc4 | BackendKind::PacketVct | BackendKind::HybridSdmVc4 => {
            Err(ScenarioError::NotTdm(kind))
        }
    }
}

/// Slot-table size for a mesh, following §IV-D: 128 entries up to 64
/// nodes, 256 for larger networks ("we also increase the slot table size
/// to 256 for the larger network").
pub fn slot_capacity_for(mesh: Mesh) -> u16 {
    if mesh.len() > 64 {
        256
    } else {
        128
    }
}

/// TDM configuration used for the synthetic studies: Table I parameters
/// (128-entry slot tables, fixed — the dynamic-granularity controller is a
/// realistic-workload feature), a permissive stall budget (the paper
/// circuit-switches whatever it can, which is exactly what produces the
/// long UR latencies of Figure 4), and a frequency trigger slow enough that
/// low-rate uniform-random traffic builds few circuits.
pub fn synthetic_tdm_config(
    kind: BackendKind,
    net: NetworkConfig,
    slot_capacity: u16,
) -> Result<TdmConfig, ScenarioError> {
    let mut cfg = base_tdm_config(kind, net)?;
    cfg.slot_capacity = slot_capacity;
    cfg.policy.setup_after_msgs = 3;
    cfg.policy.freq_window = 2_048;
    cfg.policy.max_connections = 24;
    // Uniform-random traffic cannot fit all pairs into the tables; damp the
    // resend churn the paper describes for that case (§II-B).
    cfg.policy.setup_retries = 2;
    cfg.policy.retry_cooldown = 2_048;
    Ok(cfg)
}

/// TDM configuration used for the realistic workloads: 128-entry tables
/// with dynamic granularity starting at 16 entries (§II-C), and a bounded
/// stall budget for the switching decision.
pub fn hetero_tdm_config(
    kind: BackendKind,
    net: NetworkConfig,
) -> Result<TdmConfig, ScenarioError> {
    let mut cfg = base_tdm_config(kind, net)?;
    cfg.resize = Some(ResizeConfig {
        // Grow only under sustained allocation pressure: the workloads'
        // frequent pairs fit in small tables, and every doubling also
        // doubles the slot wait and the table leakage (§II-C trade-off).
        fail_threshold: 192,
        ..ResizeConfig::default()
    });
    // GPU streams are persistent but per-bank rates can be low (STO at
    // 0.05 flits/node/cycle over several banks): a longer observation
    // window lets such pairs still qualify for circuits.
    cfg.policy.freq_window = 4_096;
    cfg.policy.setup_after_msgs = 3;
    // Slack-gated GPU messages tolerate a bounded stall (§V-A2); the
    // adaptive budget also lets congestion push traffic onto circuits.
    cfg.policy.wait_budget = WaitBudget {
        ps_factor: 2.0,
        floor_periods: 0.5,
    };
    Ok(cfg)
}

/// SDM hybrid configuration matching the synthetic-study comparison point.
pub fn synthetic_sdm_config(net: NetworkConfig) -> SdmConfig {
    SdmConfig {
        net,
        setup_after_msgs: 3,
        freq_window: 2_048,
        ..Default::default()
    }
}

/// Workload family a fabric is tuned for. The circuit-setup policies
/// differ between the synthetic sweeps (§IV) and the realistic
/// heterogeneous workloads (§V) — see the two `*_tdm_config` builders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tuning {
    /// §IV policy: fixed slot tables sized by [`slot_capacity_for`] (or an
    /// explicit override).
    Synthetic { slot_capacity: Option<u16> },
    /// §V policy: dynamic-granularity tables, adaptive wait budget.
    Hetero,
}

/// Build a boxed [`Fabric`] for `kind` over `net_cfg` — the single
/// construction point every driver, binary and test goes through.
pub fn build_fabric(
    kind: BackendKind,
    net_cfg: NetworkConfig,
    tuning: Tuning,
) -> Result<Box<dyn Fabric>, ScenarioError> {
    Ok(match kind {
        BackendKind::PacketVc4 => Box::new(Network::new(net_cfg.mesh, |id| {
            PacketNode::new(id, &net_cfg, None)
        })),
        BackendKind::PacketVct => Box::new(Network::new(net_cfg.mesh, |id| {
            PacketNode::new(id, &net_cfg, Some(GatingConfig::default()))
        })),
        BackendKind::HybridSdmVc4 => {
            let cfg = synthetic_sdm_config(net_cfg);
            Box::new(Network::new(net_cfg.mesh, move |id| SdmNode::new(id, &cfg)))
        }
        _ => {
            let cfg = match tuning {
                Tuning::Synthetic { slot_capacity } => synthetic_tdm_config(
                    kind,
                    net_cfg,
                    slot_capacity.unwrap_or_else(|| slot_capacity_for(net_cfg.mesh)),
                )?,
                Tuning::Hetero => hetero_tdm_config(kind, net_cfg)?,
            };
            Box::new(TdmNetwork::new(cfg))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_backend_builds_under_both_tunings() {
        let net = NetworkConfig::default();
        for kind in BackendKind::ALL {
            for tuning in [
                Tuning::Synthetic {
                    slot_capacity: None,
                },
                Tuning::Hetero,
            ] {
                let f = build_fabric(kind, net, tuning).expect("registry covers all kinds");
                assert_eq!(f.mesh().len(), 36, "{}", kind.label());
                assert_eq!(f.active_slots().is_some(), kind.is_tdm());
            }
        }
    }

    #[test]
    fn non_tdm_config_request_is_an_error_not_a_panic() {
        let net = NetworkConfig::default();
        for kind in [
            BackendKind::PacketVc4,
            BackendKind::PacketVct,
            BackendKind::HybridSdmVc4,
        ] {
            let e = hetero_tdm_config(kind, net).unwrap_err();
            assert!(matches!(e, ScenarioError::NotTdm(k) if k == kind));
            assert!(e.to_string().contains("not a TDM configuration"));
            assert!(synthetic_tdm_config(kind, net, 128).is_err());
        }
    }

    #[test]
    fn parse_accepts_names_and_labels() {
        assert_eq!(
            BackendKind::parse("PacketVc4").unwrap(),
            BackendKind::PacketVc4
        );
        assert_eq!(
            BackendKind::parse("Hybrid-TDM-hop-VCt").unwrap(),
            BackendKind::HybridTdmHopVct
        );
        assert!(BackendKind::parse("nope").is_err());
    }

    #[test]
    fn registry_lists_are_consistent() {
        for k in BackendKind::SYNTH {
            assert!(BackendKind::ALL.contains(&k));
        }
        for k in BackendKind::FIGURE8 {
            assert!(k.is_tdm());
        }
        assert_eq!(BackendKind::HETERO.len(), 6);
    }
}
