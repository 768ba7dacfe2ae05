//! Statistics: energy event counters and network-level measurement.

use crate::flit::Switching;
use crate::impl_snap;
use crate::node::DeliveredPacket;
use crate::Cycle;
use serde::{Deserialize, Serialize, Value};

/// Per-node event counters.
///
/// Dynamic-energy events are accumulated by routers/NICs and later priced by
/// the `noc-power` model; protocol counters feed the paper's traffic
/// statistics (Table III, §II-B's "configuration messages are <1 % of
/// traffic", time-slot steal counts, …).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyEvents {
    // --- dynamic energy events -------------------------------------------
    /// Flit written into an input-buffer VC FIFO.
    pub buffer_writes: u64,
    /// Flit read out of an input-buffer VC FIFO at switch traversal.
    pub buffer_reads: u64,
    /// Flit through the crossbar (packet- or circuit-switched).
    pub xbar_traversals: u64,
    /// VC-allocation arbitration operations.
    pub va_ops: u64,
    /// Switch-allocation arbitration operations.
    pub sa_ops: u64,
    /// Flit traversals of an inter-router link.
    pub link_flits: u64,
    /// Slot-table lookups (one per flit arrival at a hybrid router input).
    pub slot_lookups: u64,
    /// Slot-table entry writes (setup reservations, teardown invalidations,
    /// capacity-doubling resets).
    pub slot_updates: u64,
    /// Circuit-switched flits latched into the CS bypass latch.
    pub cs_latch_writes: u64,
    /// Destination-lookup-table (hitchhiker-sharing) lookups.
    pub dlt_lookups: u64,
    /// DLT entry writes.
    pub dlt_updates: u64,

    // --- protocol / traffic counters --------------------------------------
    /// Packet-switched flits ejected at their destination.
    pub ps_flits_delivered: u64,
    /// Circuit-switched flits ejected at their destination.
    pub cs_flits_delivered: u64,
    /// Configuration flits ejected (setup/teardown/ack).
    pub config_flits_delivered: u64,
    /// Packet-switched flits that used an idle reserved slot (§II-D).
    pub slots_stolen: u64,
    /// Circuit path setup attempts issued by this node.
    pub setup_attempts: u64,
    /// Setup attempts that failed (slot or output-port conflict).
    pub setup_failures: u64,
    /// Messages sent circuit-switched by hitchhiker-sharing (§III-A1).
    pub hitchhike_rides: u64,
    /// Messages sent circuit-switched by vicinity-sharing (§III-A2).
    pub vicinity_rides: u64,
    /// Path-sharing attempts that failed due to contention and fell back to
    /// packet switching.
    pub sharing_failures: u64,
    /// VC power-gating transitions (activations + deactivations).
    pub vc_gating_transitions: u64,
    /// Slot-table capacity doublings (§II-C dynamic granularity).
    pub slot_table_resizes: u64,
}

macro_rules! for_event_fields {
    ($m:ident ! ($($args:tt)*)) => {
        $m!(($($args)*);
            buffer_writes, buffer_reads, xbar_traversals, va_ops, sa_ops,
            link_flits, slot_lookups, slot_updates, cs_latch_writes,
            dlt_lookups, dlt_updates,
            ps_flits_delivered, cs_flits_delivered, config_flits_delivered,
            slots_stolen, setup_attempts, setup_failures,
            hitchhike_rides, vicinity_rides, sharing_failures,
            vc_gating_transitions, slot_table_resizes,
        );
    };
}

macro_rules! add_fields {
    (($self:ident, $rhs:ident); $($f:ident),* $(,)?) => {
        $( $self.$f += $rhs.$f; )*
    };
}

macro_rules! sub_fields {
    (($out:ident, $self:ident, $rhs:ident); $($f:ident),* $(,)?) => {
        $( $out.$f = $self.$f.saturating_sub($rhs.$f); )*
    };
}

impl EnergyEvents {
    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, rhs: &EnergyEvents) {
        let lhs = self;
        for_event_fields!(add_fields!(lhs, rhs));
    }

    /// Field-wise difference (`self - baseline`); counters are monotonic so
    /// this yields the events of a measurement window from two snapshots.
    pub fn diff(&self, baseline: &EnergyEvents) -> EnergyEvents {
        let mut out = EnergyEvents::default();
        let lhs = self;
        for_event_fields!(sub_fields!(out, lhs, baseline));
        out
    }

    /// Total data flits delivered (packet- plus circuit-switched).
    pub fn data_flits_delivered(&self) -> u64 {
        self.ps_flits_delivered + self.cs_flits_delivered
    }

    /// Fraction of delivered data flits that were circuit-switched
    /// (Table III's "circuit-switched flits percent").
    pub fn cs_flit_fraction(&self) -> f64 {
        let total = self.data_flits_delivered();
        if total == 0 {
            0.0
        } else {
            self.cs_flits_delivered as f64 / total as f64
        }
    }

    /// Fraction of all delivered flits that were configuration messages.
    pub fn config_flit_fraction(&self) -> f64 {
        let total = self.data_flits_delivered() + self.config_flits_delivered;
        if total == 0 {
            0.0
        } else {
            self.config_flits_delivered as f64 / total as f64
        }
    }
}

/// Leakage-state integrals accumulated by the harness, in unit·cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeakageIntegrals {
    /// Powered-on buffer flit-slot cycles (active VCs × depth, summed).
    pub buffer_slot_cycles: u64,
    /// Powered-on slot-table entry cycles.
    pub slot_entry_cycles: u64,
    /// Powered-on DLT entry cycles.
    pub dlt_entry_cycles: u64,
    /// Router cycles (routers × cycles) for fixed leakage/clock components.
    pub router_cycles: u64,
}

/// A log-bucketed latency histogram that files each latency by its bit
/// length: bucket 0 holds 0, and bucket `i ≥ 1` holds `[2^(i-1), 2^i)`
/// cycles (bucket 31 also takes everything longer). Cheap enough to update
/// on every delivery, precise enough for the percentile figures papers
/// report.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    count: u64,
}

impl LatencyHistogram {
    pub fn record(&mut self, latency: u64) {
        let b = (64 - latency.leading_zeros()).min(31) as usize;
        self.buckets[b] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper bound of the bucket containing the `p`-quantile (0 < p ≤ 1):
    /// e.g. `quantile(0.99)` bounds the 99th-percentile latency.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&p) {
            return None;
        }
        let target = ((self.count as f64 * p).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i == 31 { u64::MAX } else { 1u64 << i });
            }
        }
        None
    }
}

/// Aggregate measurement for one simulation run.
///
/// `Serialize` is implemented by hand (not derived): the legacy fields
/// are emitted in declaration order exactly as the derive would, and the
/// fault counters are appended *only when non-zero*, so fault-free runs
/// keep byte-identical result envelopes.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Cycles simulated since the last [`NetStats::begin_measurement`].
    pub measured_cycles: Cycle,
    measurement_start: Cycle,
    /// Packets handed to NICs in the measurement window.
    pub packets_offered: u64,
    /// Measured data packets delivered.
    pub packets_delivered: u64,
    /// Sum of packet latencies (creation → tail ejection), measured packets.
    pub latency_sum: u64,
    /// Maximum measured packet latency.
    pub latency_max: u64,
    /// Measured data flits delivered (for throughput).
    pub flits_delivered: u64,
    /// Measured circuit-switched packets delivered.
    pub cs_packets_delivered: u64,
    /// Latency distribution of measured data packets.
    pub latency_hist: LatencyHistogram,
    /// Energy events aggregated over all nodes (whole run, including
    /// warm-up: energy is reported for the measurement window by snapshot
    /// subtraction in the drivers).
    pub events: EnergyEvents,
    /// Leakage integrals (measurement window).
    pub leakage: LeakageIntegrals,
    /// Node-steps actually executed in the window (activity scheduler);
    /// equals `node_cycles` under forced always-step.
    pub nodes_stepped: u64,
    /// Node-steps an always-step harness would execute: nodes × cycles.
    /// `nodes_stepped / node_cycles` is the fraction of the network awake.
    pub node_cycles: u64,
    // --- fault-injection counters (serialized only when non-zero) ---------
    /// Directed links taken down by the fault timeline.
    pub link_down_events: u64,
    /// Directed links revived by the fault timeline.
    pub link_up_events: u64,
    /// Flits dropped because their link (or the link they were in flight
    /// on) was killed.
    pub flits_dropped_fault: u64,
    /// Distinct packets losing at least one flit to a fault (the whole
    /// packet is purged and never delivered).
    pub packets_dropped_fault: u64,
    /// Completed fault-repair sequences (circuit teardown → drain →
    /// re-setup) at the TDM controller.
    pub repairs: u64,
    /// Total cycles from each fault taking effect to its repair
    /// completing; `repair_cycle_sum / repairs` is the mean repair latency.
    pub repair_cycle_sum: u64,
}

impl Serialize for NetStats {
    fn to_value(&self) -> Value {
        // Legacy fields first, in declaration order, exactly as
        // `#[derive(Serialize)]` emitted them.
        let mut fields: Vec<(String, Value)> = vec![
            ("measured_cycles".into(), self.measured_cycles.to_value()),
            (
                "measurement_start".into(),
                self.measurement_start.to_value(),
            ),
            ("packets_offered".into(), self.packets_offered.to_value()),
            (
                "packets_delivered".into(),
                self.packets_delivered.to_value(),
            ),
            ("latency_sum".into(), self.latency_sum.to_value()),
            ("latency_max".into(), self.latency_max.to_value()),
            ("flits_delivered".into(), self.flits_delivered.to_value()),
            (
                "cs_packets_delivered".into(),
                self.cs_packets_delivered.to_value(),
            ),
            ("latency_hist".into(), self.latency_hist.to_value()),
            ("events".into(), self.events.to_value()),
            ("leakage".into(), self.leakage.to_value()),
            ("nodes_stepped".into(), self.nodes_stepped.to_value()),
            ("node_cycles".into(), self.node_cycles.to_value()),
        ];
        for (name, v) in [
            ("link_down_events", self.link_down_events),
            ("link_up_events", self.link_up_events),
            ("flits_dropped_fault", self.flits_dropped_fault),
            ("packets_dropped_fault", self.packets_dropped_fault),
            ("repairs", self.repairs),
            ("repair_cycle_sum", self.repair_cycle_sum),
        ] {
            if v != 0 {
                fields.push((name.into(), v.to_value()));
            }
        }
        Value::Object(fields)
    }
}

impl Deserialize for NetStats {}

impl NetStats {
    /// Reset measurement counters; subsequent deliveries are recorded
    /// relative to `now`.
    pub fn begin_measurement(&mut self, now: Cycle) {
        *self = NetStats {
            measurement_start: now,
            ..NetStats::default()
        };
    }

    pub fn end_measurement(&mut self, now: Cycle) {
        self.measured_cycles = now.saturating_sub(self.measurement_start);
    }

    /// Record a delivered data packet; only measured ones count.
    pub fn record_delivery(&mut self, d: &DeliveredPacket) {
        if !d.measured {
            return;
        }
        let lat = d.delivered.saturating_sub(d.created);
        self.packets_delivered += 1;
        self.flits_delivered += d.len_flits as u64;
        self.latency_sum += lat;
        self.latency_max = self.latency_max.max(lat);
        self.latency_hist.record(lat);
        if d.switching == Switching::Circuit {
            self.cs_packets_delivered += 1;
        }
    }

    /// Average measured packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            f64::NAN
        } else {
            self.latency_sum as f64 / self.packets_delivered as f64
        }
    }
}

// Snapshot encodings: statistics are state too — a restored run must
// report exactly what the continuous run would have.

impl_snap!(EnergyEvents {
    buffer_writes,
    buffer_reads,
    xbar_traversals,
    va_ops,
    sa_ops,
    link_flits,
    slot_lookups,
    slot_updates,
    cs_latch_writes,
    dlt_lookups,
    dlt_updates,
    ps_flits_delivered,
    cs_flits_delivered,
    config_flits_delivered,
    slots_stolen,
    setup_attempts,
    setup_failures,
    hitchhike_rides,
    vicinity_rides,
    sharing_failures,
    vc_gating_transitions,
    slot_table_resizes
});

impl_snap!(LeakageIntegrals {
    buffer_slot_cycles,
    slot_entry_cycles,
    dlt_entry_cycles,
    router_cycles
});

impl_snap!(LatencyHistogram { buckets, count });

impl_snap!(NetStats {
    measured_cycles,
    measurement_start,
    packets_offered,
    packets_delivered,
    latency_sum,
    latency_max,
    flits_delivered,
    cs_packets_delivered,
    latency_hist,
    events,
    leakage,
    nodes_stepped,
    node_cycles,
    link_down_events,
    link_up_events,
    flits_dropped_fault,
    packets_dropped_fault,
    repairs,
    repair_cycle_sum
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketId;
    use crate::geometry::NodeId;

    fn delivered(lat: u64, measured: bool) -> DeliveredPacket {
        DeliveredPacket {
            id: PacketId(0),
            src: NodeId(0),
            dst: NodeId(1),
            switching: Switching::Packet,
            len_flits: 5,
            created: 100,
            delivered: 100 + lat,
            measured,
        }
    }

    #[test]
    fn latency_accounting() {
        let mut s = NetStats::default();
        s.begin_measurement(0);
        s.record_delivery(&delivered(10, true));
        s.record_delivery(&delivered(30, true));
        s.record_delivery(&delivered(1000, false)); // warm-up: ignored
        assert_eq!(s.packets_delivered, 2);
        assert!((s.avg_latency() - 20.0).abs() < 1e-9);
        assert_eq!(s.latency_max, 30);
    }

    #[test]
    fn events_merge_and_fractions() {
        let mut a = EnergyEvents::default();
        let b = EnergyEvents {
            ps_flits_delivered: 60,
            cs_flits_delivered: 40,
            config_flits_delivered: 1,
            buffer_writes: 7,
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.buffer_writes, 14);
        assert!((a.cs_flit_fraction() - 0.4).abs() < 1e-12);
        assert!(a.config_flit_fraction() > 0.0 && a.config_flit_fraction() < 0.011);
    }

    #[test]
    fn histogram_quantiles_bound_the_data() {
        let mut h = LatencyHistogram::default();
        for lat in [3u64, 5, 9, 17, 33, 65, 129, 300, 700, 2000] {
            h.record(lat);
        }
        assert_eq!(h.count(), 10);
        // Median of the data is between 33 and 65; the bucket upper bound
        // for 33..64 is 64.
        let p50 = h.quantile(0.5).unwrap();
        assert!((32..=64).contains(&p50), "p50 bound {p50}");
        // p99/p100 bound the maximum (2000 lies in [1024, 2048)).
        let p100 = h.quantile(1.0).unwrap();
        assert!((2000..=2048).contains(&p100), "p100 bound {p100}");
        // Quantiles are monotone.
        assert!(h.quantile(0.1).unwrap() <= h.quantile(0.9).unwrap());
        assert_eq!(LatencyHistogram::default().quantile(0.5), None);
    }

    #[test]
    fn stats_populate_histogram() {
        let mut s = NetStats::default();
        s.begin_measurement(0);
        s.record_delivery(&delivered(10, true));
        s.record_delivery(&delivered(100, true));
        assert_eq!(s.latency_hist.count(), 2);
        assert!(s.latency_hist.quantile(1.0).unwrap() >= 100);
    }

    #[test]
    fn events_diff_recovers_window() {
        let base = EnergyEvents {
            buffer_writes: 10,
            link_flits: 4,
            ..Default::default()
        };
        let mut total = base;
        total.merge(&EnergyEvents {
            buffer_writes: 5,
            sa_ops: 3,
            ..Default::default()
        });
        let window = total.diff(&base);
        assert_eq!(window.buffer_writes, 5);
        assert_eq!(window.sa_ops, 3);
        assert_eq!(window.link_flits, 0);
    }

    #[test]
    fn histogram_record_zero_lands_in_bucket_zero() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.count(), 1);
        // Zero occupies bucket 0, whose quantile bound is 2^0 = 1.
        assert_eq!(h.quantile(1.0), Some(1));
        // 1 has bit-length 1 and lands in the next bucket (bound 2).
        h.record(1);
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(1.0), Some(2));
    }

    #[test]
    fn histogram_exact_bucket_boundaries() {
        // Powers of two open a new bucket: 2^k lands in bucket k+1 while
        // 2^k - 1 stays in bucket k.
        for k in 1..10u32 {
            let mut h = LatencyHistogram::default();
            h.record((1u64 << k) - 1);
            assert_eq!(
                h.quantile(1.0),
                Some(1u64 << k),
                "2^{k} - 1 stays in bucket {k}"
            );
            let mut h = LatencyHistogram::default();
            h.record(1u64 << k);
            assert_eq!(
                h.quantile(1.0),
                Some(1u64 << (k + 1)),
                "2^{k} opens the next bucket"
            );
        }
        // Saturation: latencies with bit length ≥ 31 share the top bucket,
        // whose quantile bound is u64::MAX.
        let mut h = LatencyHistogram::default();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn histogram_quantile_on_empty_is_none() {
        let h = LatencyHistogram::default();
        for p in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(p), None);
        }
        // Out-of-range p is also refused on a populated histogram.
        let mut h = LatencyHistogram::default();
        h.record(5);
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(h.quantile(-0.1), None);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = NetStats::default();
        assert!(s.avg_latency().is_nan());
        assert_eq!(EnergyEvents::default().cs_flit_fraction(), 0.0);
    }
}
