//! Configuration of the TDM hybrid-switched network.

use noc_sim::{GatingConfig, NetworkConfig};

/// Circuit-switched path sharing options (§III-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharingConfig {
    /// Hitchhiker-sharing: intermediate nodes ride circuits passing through
    /// them toward the same destination (§III-A1).
    pub hitchhiker: bool,
    /// Vicinity-sharing: ride a circuit to a neighbour of the destination,
    /// then hop off onto the packet-switched network (§III-A2).
    pub vicinity: bool,
    /// Destination Lookup Table entries per node (paper: 8, < 16 bytes).
    pub dlt_entries: u8,
}

impl SharingConfig {
    pub const DISABLED: SharingConfig = SharingConfig {
        hitchhiker: false,
        vicinity: false,
        dlt_entries: 8,
    };
    /// Hitchhiker-sharing only: the default for the `hop` configurations.
    /// Vicinity-sharing requires one extra slot on *every* reservation
    /// (§III-A2), and in this reproduction that standing 25 % bandwidth tax
    /// costs more energy than the vicinity rides recover (see the
    /// `ablation_sharing` bench), so it is opt-in via [`SharingConfig::FULL`].
    pub const HITCHHIKER: SharingConfig = SharingConfig {
        hitchhiker: true,
        vicinity: false,
        dlt_entries: 8,
    };
    pub const FULL: SharingConfig = SharingConfig {
        hitchhiker: true,
        vicinity: true,
        dlt_entries: 8,
    };

    pub fn any(&self) -> bool {
        self.hitchhiker || self.vicinity
    }
}

/// How much stalling a message accepts before being packet-switched
/// instead (§II-A: "allowing a message to be packet-switched if the
/// established path corresponds to a time slot that requires stalling …
/// switching decision is based on its impact on system performance").
///
/// The full circuit-switched delivery estimate is compared against the
/// packet-switched one: circuit-switch when
/// `cs_estimate ≤ max(ps_estimate × ps_factor, floor_periods × S)`.
/// The floor keeps circuits in use at low load (where the paper's UR
/// latency penalty comes from), while congestion raises the PS estimate
/// and pushes everything onto circuits at saturation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaitBudget {
    pub ps_factor: f64,
    pub floor_periods: f64,
}

/// Source-side circuit-switching policy (§II-A, §V-A2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CsPolicyConfig {
    /// Messages to the same destination within the frequency window before
    /// a path setup is initiated ("source-destination pairs that
    /// communicate frequently").
    pub setup_after_msgs: u32,
    /// Frequency-tracking window in cycles (counts decay each window).
    pub freq_window: u64,
    /// Stall budget of the switching decision.
    pub wait_budget: WaitBudget,
    /// Retries with a different slot id after a setup failure (§II-B).
    pub setup_retries: u8,
    /// Cool-down after exhausting retries before a destination is tried
    /// again, in cycles.
    pub retry_cooldown: u64,
    /// Tear down a connection when it has been idle this long and a new
    /// setup needs room (§II-B "idle connections become candidates to be
    /// destroyed").
    pub idle_teardown: u64,
    /// Maximum connected destination pairs per node.
    pub max_connections: u8,
    /// Maximum slot runs one pair may hold. Additional runs are requested
    /// when the circuit's queue backs up, scaling the pair's bandwidth
    /// share in `duration/S` steps (§II-C's time-division granularity).
    pub max_runs_per_pair: u8,
}

impl Default for CsPolicyConfig {
    fn default() -> Self {
        CsPolicyConfig {
            setup_after_msgs: 4,
            freq_window: 512,
            wait_budget: WaitBudget {
                ps_factor: 2.0,
                floor_periods: 1.0,
            },
            setup_retries: 3,
            retry_cooldown: 512,
            idle_teardown: 4_096,
            max_connections: 16,
            max_runs_per_pair: 4,
        }
    }
}

/// Dynamic time-division granularity (§II-C): start small, double the
/// active slot-table entries when path allocation continuously fails, and
/// halve them again when reservations run light — "the slot table size is
/// a function of the network size as well as the number of circuit-switched
/// paths". The shrink path is what lets circuit-switched path sharing
/// translate into smaller (cheaper) tables (§III-A).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResizeConfig {
    /// Initially active entries.
    pub initial_active: u16,
    /// Capacity-related setup failures within the observation window that
    /// trigger a doubling.
    pub fail_threshold: u32,
    /// Observation window in cycles.
    pub window: u64,
    /// Cycles of network-wide CS freeze before the reset, letting in-flight
    /// circuit-switched flits drain (≥ 2 × diameter + S).
    pub freeze_cycles: u64,
    /// Halve the active entries when the mean reserved fraction stays
    /// below this *and* the window saw almost no failures. 0 disables
    /// shrinking.
    pub shrink_below: f64,
}

impl Default for ResizeConfig {
    fn default() -> Self {
        ResizeConfig {
            initial_active: 16,
            fail_threshold: 32,
            window: 2_048,
            freeze_cycles: 256,
            shrink_below: 0.22,
        }
    }
}

/// Full configuration of the TDM hybrid network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TdmConfig {
    pub net: NetworkConfig,
    /// Slot-table capacity per input port (Table I: 128; 256 for 16×16).
    pub slot_capacity: u16,
    /// Fraction of a slot table that may be reserved before new allocations
    /// are refused (§II-B starvation prevention; paper: 90 %).
    pub reservation_cap: f64,
    /// Path sharing options.
    pub sharing: SharingConfig,
    /// Source-side circuit-switching policy.
    pub policy: CsPolicyConfig,
    /// Aggressive VC power gating (§III-B); `None` keeps all VCs on.
    pub gating: Option<GatingConfig>,
    /// Dynamic slot-table sizing; `None` keeps all entries active.
    pub resize: Option<ResizeConfig>,
    /// Time-slot stealing (§II-D). On by default; disabling it is an
    /// ablation that shows how much packet-switched throughput the idle
    /// reserved slots give back.
    pub time_slot_stealing: bool,
}

impl Default for TdmConfig {
    fn default() -> Self {
        TdmConfig {
            net: NetworkConfig::default(),
            slot_capacity: 128,
            reservation_cap: 0.9,
            sharing: SharingConfig::DISABLED,
            policy: CsPolicyConfig::default(),
            gating: None,
            resize: None,
            time_slot_stealing: true,
        }
    }
}

impl TdmConfig {
    /// Slots reserved per connection period: 4 data slots, plus the header
    /// slot when vicinity-sharing is enabled (§III-A2).
    pub fn reserve_duration(&self) -> u8 {
        self.net.cs_packet_flits + u8::from(self.sharing.vicinity)
    }

    /// Flits per circuit-switched message under this configuration
    /// (Table I: 4, or 5 when vicinity-sharing applies).
    pub fn cs_message_flits(&self) -> u8 {
        self.reserve_duration()
    }

    /// Initially active slot-table entries.
    pub fn initial_active(&self) -> u16 {
        match self.resize {
            Some(r) => r.initial_active.min(self.slot_capacity),
            None => self.slot_capacity,
        }
    }

    /// *Hybrid-TDM-VC4*: basic hybrid switching, 4 VCs, no sharing/gating.
    pub fn vc4(net: NetworkConfig) -> Self {
        TdmConfig {
            net,
            ..Default::default()
        }
    }

    /// *Hybrid-TDM-VCt*: hybrid switching with aggressive VC power gating.
    pub fn vct(net: NetworkConfig) -> Self {
        TdmConfig {
            net,
            gating: Some(GatingConfig::default()),
            ..Default::default()
        }
    }

    /// *Hybrid-TDM-hop-VC4*: hybrid switching + circuit-switched path
    /// sharing, 4 VCs.
    pub fn hop_vc4(net: NetworkConfig) -> Self {
        TdmConfig {
            net,
            sharing: SharingConfig::HITCHHIKER,
            ..Default::default()
        }
    }

    /// *Hybrid-TDM-hop-VCt*: path sharing + aggressive VC power gating.
    pub fn hop_vct(net: NetworkConfig) -> Self {
        TdmConfig {
            net,
            sharing: SharingConfig::HITCHHIKER,
            gating: Some(GatingConfig::default()),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_follow_table1() {
        let base = TdmConfig::default();
        assert_eq!(base.reserve_duration(), 4);
        let hop = TdmConfig {
            sharing: SharingConfig::FULL,
            ..base
        };
        assert_eq!(hop.reserve_duration(), 5, "vicinity adds a header slot");
    }

    #[test]
    // The FULL-sharing check below is deliberately on a constant: it pins
    // the documented shape of the preset.
    #[allow(clippy::assertions_on_constants)]
    fn named_configs() {
        let net = NetworkConfig::default();
        assert!(TdmConfig::vc4(net).gating.is_none());
        assert!(TdmConfig::vct(net).gating.is_some());
        assert!(TdmConfig::hop_vc4(net).sharing.any());
        let hop_vct = TdmConfig::hop_vct(net);
        // Default hop configs are hitchhiker-only (see SharingConfig docs).
        assert!(hop_vct.sharing.hitchhiker && !hop_vct.sharing.vicinity);
        assert!(hop_vct.gating.is_some());
        assert!(SharingConfig::FULL.vicinity);
    }

    #[test]
    fn active_entries_default_to_capacity() {
        let c = TdmConfig::default();
        assert_eq!(c.initial_active(), 128);
        let d = TdmConfig {
            resize: Some(ResizeConfig::default()),
            ..c
        };
        assert_eq!(d.initial_active(), 16);
    }
}
