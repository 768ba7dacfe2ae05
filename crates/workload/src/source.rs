//! Trace replay through the `Workload` seam.

use std::sync::Arc;

use noc_sim::{Cycle, NodeId, Packet};
use noc_traffic::{PacketFactory, Workload};

use crate::trace::{PacketTrace, CLASS_CS};

/// Replays a [`PacketTrace`] as a workload: tick `n` emits exactly the
/// records whose `cycle` field is `n`.
///
/// The source keeps its *own* tick counter rather than trusting the
/// fabric clock: the engine's warm-up/measurement loops tick the workload
/// once per fabric step from cycle 0, but a checkpoint-restored fabric
/// resumes mid-stream — [`TraceSource::skip_ticks`] advances the cursor
/// and the restore then raises the packet-id allocator to the
/// checkpoint's watermark, so forked runs continue bit-identically (the
/// `SyntheticSource::skip_ticks` contract).
pub struct TraceSource {
    trace: Arc<PacketTrace>,
    /// Index of the first unreplayed record.
    cursor: usize,
    /// The tick the next call to `tick` will emit.
    next_tick: u64,
    pub factory: PacketFactory,
    /// Mean offered load in flits/node/cycle over the trace span.
    offered: f64,
}

impl TraceSource {
    pub fn new(trace: Arc<PacketTrace>) -> Self {
        let span = trace.span();
        let offered = if span == 0 || trace.nodes == 0 {
            0.0
        } else {
            trace.total_flits() as f64 / (span as f64 * trace.nodes as f64)
        };
        TraceSource {
            trace,
            cursor: 0,
            next_tick: 0,
            factory: PacketFactory::new(),
            offered,
        }
    }

    pub fn trace(&self) -> &Arc<PacketTrace> {
        &self.trace
    }

    /// All records replayed: further ticks emit nothing.
    pub fn is_exhausted(&self) -> bool {
        self.cursor >= self.trace.records.len()
    }

    /// Fast-forward past `ticks` injection cycles by replaying them into
    /// a discarding sink, so the cursor lands exactly where a live run's
    /// would. (The replay allocates the same ids a live run does; a
    /// restore still raises the allocator to its watermark with
    /// `factory.skip_to`.)
    pub fn skip_ticks(&mut self, ticks: u64) {
        for now in 0..ticks {
            Workload::tick(self, now, false, &mut |_, _| {});
        }
    }

    fn emit(&mut self, measured: bool, sink: &mut dyn FnMut(NodeId, Packet)) {
        let t = self.next_tick;
        while let Some(r) = self.trace.records.get(self.cursor) {
            if r.cycle != t {
                break;
            }
            let mut pkt = self
                .factory
                .data(NodeId(r.src), NodeId(r.dst), r.size, t, measured);
            pkt.cs_eligible = r.class == CLASS_CS;
            sink(NodeId(r.src), pkt);
            self.cursor += 1;
        }
        self.next_tick = t + 1;
    }
}

impl Workload for TraceSource {
    fn tick(&mut self, _now: Cycle, measured: bool, sink: &mut dyn FnMut(NodeId, Packet)) {
        self.emit(measured, sink);
    }

    fn offered_load(&self) -> f64 {
        self.offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceRecord, CLASS_PS};

    fn sample() -> Arc<PacketTrace> {
        Arc::new(PacketTrace {
            nodes: 16,
            records: vec![
                TraceRecord {
                    cycle: 0,
                    src: 1,
                    dst: 2,
                    class: CLASS_CS,
                    size: 5,
                },
                TraceRecord {
                    cycle: 0,
                    src: 4,
                    dst: 8,
                    class: CLASS_PS,
                    size: 5,
                },
                TraceRecord {
                    cycle: 3,
                    src: 1,
                    dst: 2,
                    class: CLASS_CS,
                    size: 4,
                },
                TraceRecord {
                    cycle: 5,
                    src: 9,
                    dst: 0,
                    class: CLASS_CS,
                    size: 1,
                },
            ],
        })
    }

    fn drain(src: &mut TraceSource, from: u64, to: u64) -> Vec<(u64, u32, u64, u32, bool, u8)> {
        let mut v = Vec::new();
        for now in from..to {
            Workload::tick(src, now, true, &mut |n, p| {
                v.push((now, n.0, p.id.0, p.dst.0, p.cs_eligible, p.len_flits))
            });
        }
        v
    }

    #[test]
    fn replays_records_at_their_cycle() {
        let mut src = TraceSource::new(sample());
        let got = drain(&mut src, 0, 8);
        assert_eq!(
            got,
            vec![
                (0, 1, 0, 2, true, 5),
                (0, 4, 1, 8, false, 5),
                (3, 1, 2, 2, true, 4),
                (5, 9, 3, 0, true, 1),
            ]
        );
        assert!(src.is_exhausted());
        // Past the end, nothing more is emitted.
        assert!(drain(&mut src, 8, 20).is_empty());
    }

    #[test]
    fn skip_ticks_matches_a_live_replay() {
        let mut live = TraceSource::new(sample());
        drain(&mut live, 0, 4);
        let mut skipped = TraceSource::new(sample());
        skipped.skip_ticks(4);
        assert_eq!(
            live.factory.next_id_preview(),
            skipped.factory.next_id_preview()
        );
        assert_eq!(drain(&mut live, 4, 10), drain(&mut skipped, 4, 10));
    }

    #[test]
    fn internal_clock_ignores_the_fabric_cycle() {
        // A restored fabric resumes at a nonzero cycle; the trace cursor
        // must not care what `now` the engine passes.
        let mut src = TraceSource::new(sample());
        let mut v = Vec::new();
        for now in 1000..1008 {
            Workload::tick(&mut src, now, false, &mut |n, p| v.push((n.0, p.dst.0)));
        }
        assert_eq!(v, vec![(1, 2), (4, 8), (1, 2), (9, 0)]);
    }

    #[test]
    fn offered_load_is_flits_over_span_times_nodes() {
        let src = TraceSource::new(sample());
        // 15 flits over 6 cycles × 16 nodes.
        let want = 15.0 / (6.0 * 16.0);
        assert!((Workload::offered_load(&src) - want).abs() < 1e-12);
        assert_eq!(
            Workload::offered_load(&TraceSource::new(Arc::new(PacketTrace::new(4)))),
            0.0
        );
    }
}
