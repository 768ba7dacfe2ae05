//! A small metrics registry: named counters and gauges, snapshotted per
//! measurement window and merged deterministically.
//!
//! Registration interns the name once and returns a dense id; the hot
//! path is an array index. Windows capture counters as *deltas over the
//! window* and gauges as their value at the window boundary, so a
//! snapshot sequence reads as a time series. `merge` combines two
//! registries metric-by-metric (counters add, gauges take the maximum)
//! and is order-insensitive for counters — the property the sweep
//! runner's ordered merge relies on.

use serde::{Serialize, Value};

#[derive(Clone, Debug, PartialEq)]
enum Metric {
    Counter(u64),
    Gauge(u64),
}

/// Dense handle returned by registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId(pub usize);

/// One window's worth of metric values, aligned with
/// [`MetricsRegistry::names`]: counters as window deltas, gauges as the
/// boundary value.
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
/// frame a live streaming subscriber receives (`noc-serve`). `names` is
/// the registry's registration-order name list; extra values (from a
/// layout the names don't cover) are dropped rather than mislabelled.
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

/// The registry. Metric ids are assigned in registration order, so two
/// registries populated by the same code path are structurally aligned
/// and can be merged without name lookups.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    names: Vec<String>,
    metrics: Vec<Metric>,
    /// Counter values at the last window boundary.
    window_base: Vec<u64>,
    window_start: u64,
    pub windows: Vec<WindowSnapshot>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, name: &str, m: Metric) -> MetricId {
        debug_assert!(
            !self.names.iter().any(|n| n == name),
            "duplicate metric {name}"
        );
        self.names.push(name.to_string());
        self.metrics.push(m);
        self.window_base.push(0);
        MetricId(self.metrics.len() - 1)
    }

    pub fn counter(&mut self, name: &str) -> MetricId {
        self.register(name, Metric::Counter(0))
    }

    pub fn gauge(&mut self, name: &str) -> MetricId {
        self.register(name, Metric::Gauge(0))
    }

    pub fn names(&self) -> &[String] {
        &self.names
    }

    #[inline]
    pub fn add(&mut self, id: MetricId, delta: u64) {
        match &mut self.metrics[id.0] {
            Metric::Counter(v) => *v += delta,
            _ => debug_assert!(false, "add on non-counter"),
        }
    }

    #[inline]
    pub fn set(&mut self, id: MetricId, value: u64) {
        match &mut self.metrics[id.0] {
            Metric::Gauge(v) => *v = value,
            _ => debug_assert!(false, "set on non-gauge"),
        }
    }

    /// Current raw value: counter total or gauge value.
    pub fn value(&self, id: MetricId) -> u64 {
        match &self.metrics[id.0] {
            Metric::Counter(v) | Metric::Gauge(v) => *v,
        }
    }

    /// Close the window ending at `now`: snapshot deltas (counters) and
    /// boundary values (gauges), then re-base.
    pub fn snapshot_window(&mut self, now: u64) {
        let values = self
            .metrics
            .iter()
            .zip(self.window_base.iter_mut())
            .map(|(m, base)| match m {
                Metric::Counter(v) => {
                    let delta = *v - *base;
                    *base = *v;
                    delta
                }
                Metric::Gauge(v) => *v,
            })
            .collect();
        self.windows.push(WindowSnapshot {
            start: self.window_start,
            end: now,
            values,
        });
        self.window_start = now;
    }

    /// Merge another registry with the same metric layout: counters add,
    /// gauges take the maximum. Windows are merged pairwise by index
    /// (extra windows in `other` are appended), so merging per-shard
    /// registries of the same run is deterministic regardless of shard
    /// count.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        assert_eq!(self.names, other.names, "mismatched metric layouts");
        for (a, b) in self.metrics.iter_mut().zip(other.metrics.iter()) {
            match (a, b) {
                (Metric::Counter(x), Metric::Counter(y)) => *x += y,
                (Metric::Gauge(x), Metric::Gauge(y)) => *x = (*x).max(*y),
                _ => unreachable!("layouts checked equal"),
            }
        }
        for (i, w) in other.windows.iter().enumerate() {
            match self.windows.get_mut(i) {
                Some(mine) => {
                    for (a, b) in mine.values.iter_mut().zip(w.values.iter()) {
                        *a += b;
                    }
                }
                None => self.windows.push(w.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("link_flits");
        let g = r.gauge("active_nodes");
        r.add(c, 5);
        r.add(c, 2);
        r.set(g, 9);
        r.set(g, 4);
        assert_eq!(r.value(c), 7);
        assert_eq!(r.value(g), 4);
    }

    #[test]
    fn windows_capture_deltas_and_boundary_values() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("c");
        let g = r.gauge("g");
        r.add(c, 10);
        r.set(g, 3);
        r.snapshot_window(100);
        r.add(c, 4);
        r.set(g, 1);
        r.snapshot_window(200);
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].start, 0);
        assert_eq!(r.windows[0].end, 100);
        assert_eq!(r.windows[0].values, vec![10, 3]);
        assert_eq!(r.windows[1].start, 100);
        assert_eq!(r.windows[1].values, vec![4, 1]);
    }

    #[test]
    fn merge_is_order_insensitive_for_counters() {
        let build = |seed: u64| {
            let mut r = MetricsRegistry::new();
            let c = r.counter("c");
            let d = r.counter("d");
            r.add(c, seed);
            r.add(d, 1);
            r.snapshot_window(50);
            r
        };
        let (a, b) = (build(3), build(70));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.value(MetricId(0)), 73);
        assert_eq!(ab.value(MetricId(0)), ba.value(MetricId(0)));
        assert_eq!(ab.value(MetricId(1)), ba.value(MetricId(1)));
        assert_eq!(ab.windows, ba.windows);
    }

    #[test]
    #[should_panic(expected = "mismatched metric layouts")]
    fn merge_rejects_different_layouts() {
        let mut a = MetricsRegistry::new();
        a.counter("x");
        let mut b = MetricsRegistry::new();
        b.counter("y");
        a.merge(&b);
    }
}
