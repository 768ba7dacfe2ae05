//! Metrics windows: one row of network-level values per measurement
//! window. The harness fills the rows from counters it already keeps
//! (the per-link flit counters and `NetStats`) under a fixed column list
//! kept beside the code that fills them (`WINDOW_METRICS` in `noc-sim`'s
//! `network.rs`): counters as *deltas over the window*, gauges as their
//! value at the window boundary, so a row sequence reads as a time
//! series.

use serde::{Serialize, Value};

/// One window's worth of metric values, aligned with the report's
/// `metric_names`: counters as window deltas, gauges as the boundary
/// value.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSnapshot {
    pub start: u64,
    pub end: u64,
    pub values: Vec<u64>,
}

impl Serialize for WindowSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("start".into(), Value::UInt(self.start)),
            ("end".into(), Value::UInt(self.end)),
            (
                "values".into(),
                Value::Array(self.values.iter().map(|v| Value::UInt(*v)).collect()),
            ),
        ])
    }
}

/// A window snapshot keyed by metric name — the body of the JSON-lines
/// frame a live streaming subscriber receives (`noc-serve`). Extra
/// values (from a layout the names don't cover) are dropped rather than
/// mislabelled.
pub fn window_frame(names: &[String], w: &WindowSnapshot) -> Value {
    Value::Object(vec![
        ("start".into(), Value::UInt(w.start)),
        ("end".into(), Value::UInt(w.end)),
        (
            "metrics".into(),
            Value::Object(
                names
                    .iter()
                    .zip(w.values.iter())
                    .map(|(n, v)| (n.clone(), Value::UInt(*v)))
                    .collect(),
            ),
        ),
    ])
}
