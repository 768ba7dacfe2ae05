//! The assembled output of a traced run: merged events, per-link flit
//! counters and the metrics windows, with a compact serialisation for
//! the result-envelope `telemetry` block.

use serde::{Serialize, Value};

use crate::event::{TelemetryEvent, CATEGORIES};
use crate::metrics::WindowSnapshot;

/// Port-index names (matches `noc_sim::Port` discriminants).
pub const PORT_NAMES: [&str; 5] = ["local", "north", "east", "south", "west"];

/// Link-direction names (matches `noc_sim::Direction` discriminants);
/// `link_flits[node * 4 + dir]` counts flits *sent* by `node` towards
/// `dir`.
pub const DIR_NAMES: [&str; 4] = ["north", "east", "south", "west"];

/// Everything a run's telemetry produced, ready for the exporters.
#[derive(Clone, Debug, Default)]
pub struct TelemetryReport {
    /// Node count of the fabric (mesh width × height).
    pub nodes: u32,
    /// Mesh width, for (x, y) labelling in the exporters (0 = unknown).
    pub mesh_width: u32,
    /// Merged events from every sink, sorted by (cycle, node, kind).
    pub events: Vec<TelemetryEvent>,
    /// Total events accepted across all sinks (≥ `events.len()`).
    pub recorded: u64,
    /// Events lost to ring wrap-around across all sinks.
    pub dropped: u64,
    /// Flits sent per outgoing link, `[node * 4 + direction]`.
    pub link_flits: Vec<u64>,
    /// Column names of `windows`, in value order.
    pub metric_names: &'static [&'static str],
    /// Network-level metrics, one row per closed window.
    pub windows: Vec<WindowSnapshot>,
}

impl TelemetryReport {
    /// Sort events into the canonical (cycle, node, kind, port) order.
    /// Per-node rings are each time-ordered; the global merge is made
    /// deterministic by the secondary keys.
    pub fn sort_events(&mut self) {
        self.events
            .sort_by_key(|e| (e.cycle, e.node, e.kind as u8, e.port, e.id));
    }

    /// Retained events per CLI category, in [`CATEGORIES`] order.
    pub fn category_counts(&self) -> [(&'static str, u64); CATEGORIES.len()] {
        let mut out = CATEGORIES.map(|(name, _)| (name, 0u64));
        for e in &self.events {
            let cat = e.kind.category();
            let slot = out
                .iter_mut()
                .find(|(name, _)| *name == cat)
                .expect("every kind has a listed category");
            slot.1 += 1;
        }
        out
    }

    /// Total flits over all links (must equal the heatmap CSV's sum).
    pub fn total_link_flits(&self) -> u64 {
        self.link_flits.iter().sum()
    }
}

impl Serialize for TelemetryReport {
    /// The envelope `telemetry` block: aggregates only — the full event
    /// stream goes to the `--trace-out` file, not the result JSON.
    fn to_value(&self) -> Value {
        let categories = Value::Object(
            self.category_counts()
                .iter()
                .map(|(name, n)| (name.to_string(), Value::UInt(*n)))
                .collect(),
        );
        Value::Object(vec![
            ("nodes".into(), Value::UInt(self.nodes as u64)),
            (
                "events_retained".into(),
                Value::UInt(self.events.len() as u64),
            ),
            ("events_recorded".into(), Value::UInt(self.recorded)),
            ("events_dropped".into(), Value::UInt(self.dropped)),
            ("category_counts".into(), categories),
            (
                "link_flits".into(),
                Value::Array(self.link_flits.iter().map(|v| Value::UInt(*v)).collect()),
            ),
            (
                "metric_names".into(),
                Value::Array(
                    self.metric_names
                        .iter()
                        .map(|n| Value::Str(n.to_string()))
                        .collect(),
                ),
            ),
            ("windows".into(), self.windows.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(cycle: u64, node: u32, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent {
            cycle,
            node,
            kind,
            port: 0,
            id: 0,
        }
    }

    #[test]
    fn sort_and_category_counts() {
        let mut r = TelemetryReport {
            events: vec![
                ev(5, 1, EventKind::Eject),
                ev(2, 3, EventKind::CircuitSetup),
                ev(2, 0, EventKind::NodeSleep),
            ],
            ..Default::default()
        };
        r.sort_events();
        assert_eq!(r.events[0].node, 0);
        assert_eq!(r.events[2].cycle, 5);
        let counts = r.category_counts();
        let get = |n: &str| counts.iter().find(|(c, _)| *c == n).unwrap().1;
        assert_eq!(get("flit"), 1);
        assert_eq!(get("circuit"), 1);
        assert_eq!(get("sleep"), 1);
        assert_eq!(get("share"), 0);
    }

    #[test]
    fn envelope_block_has_aggregates_not_events() {
        let r = TelemetryReport {
            nodes: 4,
            events: vec![ev(1, 0, EventKind::Inject)],
            recorded: 10,
            dropped: 3,
            link_flits: vec![0; 16],
            ..Default::default()
        };
        let Value::Object(fields) = r.to_value() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"events_recorded"));
        assert!(keys.contains(&"link_flits"));
        assert!(
            !keys.contains(&"events"),
            "raw events stay out of the envelope"
        );
    }
}
