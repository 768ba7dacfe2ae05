//! Phase lengths and results of one open-loop run: warm-up → measure →
//! drain, following the paper's methodology (§IV-A: "the network is warmed
//! up with 1000 packets and simulated for 100,000 packets"). The loop
//! itself is [`crate::engine::run_phases`].

/// Phase lengths for one open-loop run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct PhaseConfig {
    /// Warm-up: inject unmeasured traffic for this many cycles *and* at
    /// least `warmup_packets` packets.
    pub warmup_cycles: u64,
    pub warmup_packets: u64,
    /// Measurement window: inject measured traffic until this many cycles
    /// elapse or `measure_packets` packets have been offered.
    pub measure_cycles: u64,
    pub measure_packets: u64,
    /// After the window, keep injecting unmeasured traffic and wait up to
    /// this long for measured packets to drain out.
    pub drain_cycles: u64,
}

impl Default for PhaseConfig {
    fn default() -> Self {
        PhaseConfig {
            warmup_cycles: 2_000,
            warmup_packets: 1_000,
            measure_cycles: 30_000,
            measure_packets: 100_000,
            drain_cycles: 10_000,
        }
    }
}

impl PhaseConfig {
    /// A small configuration for unit tests.
    pub fn quick() -> Self {
        PhaseConfig {
            warmup_cycles: 500,
            warmup_packets: 50,
            measure_cycles: 3_000,
            measure_packets: 10_000,
            drain_cycles: 3_000,
        }
    }

    /// Pure cycle-count phases with no packet floors or caps — the §V
    /// realistic-workload methodology, where each phase runs for exactly
    /// the given number of cycles.
    pub fn pure_cycles(warmup: u64, measure: u64, drain: u64) -> Self {
        PhaseConfig {
            warmup_cycles: warmup,
            warmup_packets: 0,
            measure_cycles: measure,
            measure_packets: u64::MAX,
            drain_cycles: drain,
        }
    }
}

/// Result of one open-loop run.
#[derive(Clone, Debug, serde::Serialize)]
pub struct RunResult {
    /// Offered load (flits/node/cycle).
    pub offered: f64,
    /// Average measured packet latency (cycles).
    pub avg_latency: f64,
    /// Accepted throughput (flits/node/cycle) over the measurement window.
    pub throughput: f64,
    /// Fraction of measured packets that were delivered by the end of the
    /// drain phase; < 1.0 indicates the network saturated.
    pub delivered_fraction: f64,
    /// Whether the run is considered saturated (delivery < 95 % or latency
    /// above 10× the warm-up zero-load estimate).
    pub saturated: bool,
    /// Host wall-clock time for the whole run (warm-up + measure + drain).
    pub wall_seconds: f64,
    /// Simulated cycles per host second over the whole run — the simulator
    /// performance metric kernel speedups are judged by.
    pub sim_cycles_per_sec: f64,
    /// Full network statistics for the measurement window.
    pub stats: noc_sim::NetStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_phases;
    use crate::pattern::TrafficPattern;
    use crate::source::SyntheticSource;
    use noc_sim::{Mesh, Network, NetworkConfig, PacketNode};

    fn run_at(rate: f64) -> RunResult {
        let cfg = NetworkConfig::with_mesh(Mesh::square(4));
        let mut net = Network::new(cfg.mesh, |id| PacketNode::new(id, &cfg, None));
        let mut source = SyntheticSource::new(cfg.mesh, TrafficPattern::UniformRandom, rate, 5, 11);
        run_phases(&mut net, &mut source, PhaseConfig::quick())
    }

    #[test]
    fn low_load_is_unsaturated_with_low_latency() {
        let r = run_at(0.05);
        assert!(!r.saturated, "5% load must not saturate");
        assert!(r.delivered_fraction > 0.99);
        assert!(r.avg_latency < 40.0, "latency {} too high", r.avg_latency);
        // Accepted ≈ offered at low load.
        assert!(
            (r.throughput - 0.05).abs() < 0.015,
            "throughput {}",
            r.throughput
        );
    }

    #[test]
    fn latency_rises_with_load() {
        let lo = run_at(0.05);
        let hi = run_at(0.30);
        assert!(
            hi.avg_latency > lo.avg_latency,
            "latency must increase with load ({} vs {})",
            lo.avg_latency,
            hi.avg_latency
        );
    }

    #[test]
    fn overload_saturates() {
        let r = run_at(2.0); // far beyond capacity
        assert!(r.saturated);
        assert!(r.throughput < 1.0);
    }
}
