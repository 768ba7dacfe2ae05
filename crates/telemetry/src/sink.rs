//! The trace sink: a per-node fixed-capacity ring buffer behind an enum
//! whose disabled arm costs one branch on a copied discriminant.
//!
//! The zero-overhead argument: instrumentation sites call
//! [`TraceSink::record`] (or guard a payload computation with
//! [`TraceSink::wants`]). Both are `#[inline]` and begin with a `match`
//! on the enum discriminant; in the [`TraceSink::Disabled`] arm they
//! return immediately, so a disabled sink compiles to a load + compare +
//! predictable branch — no allocation, no indirect call, no shared
//! state. Sinks are *node-local* (one per router, owned by the node),
//! so recording during the node-stepping phase touches only that node's
//! memory and never depends on the order nodes are visited in:
//! telemetry never reads or writes simulated state, it only observes.

use crate::event::{EventKind, TelemetryEvent, ALL_EVENTS, SAMPLED_MASK};

/// How a sink is configured: which kinds to keep, how much to retain,
/// how aggressively to sample the (high-rate) flit-lifecycle kinds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetryConfig {
    /// Kind mask (see [`crate::parse_event_mask`]).
    pub mask: u32,
    /// Ring capacity per node, in events.
    pub capacity: usize,
    /// Keep 1 in `sample` flit-lifecycle events (1 = keep all). Other
    /// categories are never sampled.
    pub sample: u32,
    /// Metrics snapshot window in cycles (0 = no windows).
    pub window: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            mask: ALL_EVENTS,
            capacity: 4096,
            sample: 1,
            window: 0,
        }
    }
}

/// A bounded event ring: overwrites the oldest event when full and
/// counts what it discarded, so memory stays fixed no matter how long a
/// traced run is.
#[derive(Clone, Debug)]
pub struct RingSink {
    mask: u32,
    sample: u32,
    tick: u32,
    buf: Vec<TelemetryEvent>,
    head: usize,
    dropped: u64,
    recorded: u64,
}

impl RingSink {
    pub fn new(cfg: &TelemetryConfig) -> Self {
        RingSink {
            mask: cfg.mask,
            sample: cfg.sample.max(1),
            tick: 0,
            buf: Vec::with_capacity(cfg.capacity.max(1)),
            head: 0,
            dropped: 0,
            recorded: 0,
        }
    }

    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Events accepted (recorded into the ring, including those later
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    fn push(&mut self, ev: TelemetryEvent) {
        self.recorded += 1;
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.len();
            self.dropped += 1;
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TelemetryEvent> {
        let (wrapped, linear) = self.buf.split_at(self.head);
        linear.iter().chain(wrapped.iter())
    }
}

/// The dispatch enum every instrumentation site holds.
#[derive(Clone, Debug, Default)]
pub enum TraceSink {
    #[default]
    Disabled,
    Ring(Box<RingSink>),
}

impl TraceSink {
    /// A fresh ring sink for `cfg` (or `Disabled` for a zero mask —
    /// nothing could ever be recorded, so don't pay the ring).
    pub fn ring(cfg: &TelemetryConfig) -> Self {
        if cfg.mask == 0 {
            TraceSink::Disabled
        } else {
            TraceSink::Ring(Box::new(RingSink::new(cfg)))
        }
    }

    /// Would an event of `kind` be kept? Use to guard payload
    /// computation that is not free.
    #[inline]
    pub fn wants(&self, kind: EventKind) -> bool {
        match self {
            TraceSink::Disabled => false,
            TraceSink::Ring(r) => r.mask & kind.bit() != 0,
        }
    }

    /// Record one event. The disabled path is a single branch.
    #[inline]
    pub fn record(&mut self, cycle: u64, node: u32, kind: EventKind, port: u8, id: u64) {
        match self {
            TraceSink::Disabled => {}
            TraceSink::Ring(r) => {
                if r.mask & kind.bit() == 0 {
                    return;
                }
                if SAMPLED_MASK & kind.bit() != 0 && r.sample > 1 {
                    r.tick += 1;
                    if r.tick < r.sample {
                        return;
                    }
                    r.tick = 0;
                }
                r.push(TelemetryEvent {
                    cycle,
                    node,
                    kind,
                    port,
                    id,
                });
            }
        }
    }

    /// Take the ring out, leaving `Disabled` behind.
    pub fn take(&mut self) -> Option<Box<RingSink>> {
        match std::mem::take(self) {
            TraceSink::Disabled => None,
            TraceSink::Ring(r) => Some(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_event_mask;

    fn cfg(mask: u32, capacity: usize, sample: u32) -> TelemetryConfig {
        TelemetryConfig {
            mask,
            capacity,
            sample,
            window: 0,
        }
    }

    #[test]
    fn disabled_records_nothing_and_wants_nothing() {
        let mut s = TraceSink::Disabled;
        assert!(!s.wants(EventKind::Inject));
        s.record(1, 0, EventKind::Inject, 0, 7);
        assert!(s.take().is_none());
    }

    #[test]
    fn mask_filters_kinds() {
        let mut s = TraceSink::ring(&cfg(EventKind::CircuitSetup.bit(), 8, 1));
        assert!(s.wants(EventKind::CircuitSetup));
        assert!(!s.wants(EventKind::Inject));
        s.record(1, 0, EventKind::Inject, 0, 1);
        s.record(2, 0, EventKind::CircuitSetup, 1, 42);
        let r = s.take().unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.events().next().unwrap().id, 42);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut s = TraceSink::ring(&cfg(ALL_EVENTS, 3, 1));
        for i in 0..5u64 {
            s.record(i, 0, EventKind::Eject, 0, i);
        }
        let r = s.take().unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.recorded(), 5);
        let cycles: Vec<u64> = r.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "oldest first after wrap");
    }

    #[test]
    fn sampling_applies_only_to_flit_kinds() {
        let mut s = TraceSink::ring(&cfg(ALL_EVENTS, 64, 4));
        for i in 0..8u64 {
            s.record(i, 0, EventKind::LinkTraverse, 0, i);
            s.record(i, 0, EventKind::CircuitSetup, 0, i);
        }
        let r = s.take().unwrap();
        let links = r
            .events()
            .filter(|e| e.kind == EventKind::LinkTraverse)
            .count();
        let setups = r
            .events()
            .filter(|e| e.kind == EventKind::CircuitSetup)
            .count();
        assert_eq!(links, 2, "1-in-4 of 8 flit events");
        assert_eq!(setups, 8, "protocol events are never sampled");
    }

    #[test]
    fn zero_mask_collapses_to_disabled() {
        let s = TraceSink::ring(&cfg(0, 64, 1));
        assert!(matches!(s, TraceSink::Disabled));
        let m = parse_event_mask("").unwrap();
        assert_eq!(m, 0);
    }
}
