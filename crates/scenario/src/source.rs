//! The spec-driven workload: one [`Workload`] that covers synthetic
//! patterns and trace replay, with the optional match-action policy table
//! and injection-side trace recording layered on top.
//!
//! The layering is deliberate: when the spec carries no policy and no
//! trace export, [`SpecSource::tick`] delegates *directly* to the inner
//! source — same calls, same RNG draws — so historic synthetic envelopes
//! stay byte-identical. Only a non-empty policy table or an export path
//! switches to the wrapping sink.

use std::sync::Arc;

use noc_sim::{Cycle, NodeId, Packet};
use noc_traffic::{SyntheticSource, Workload};
use noc_workload::{CompiledPolicy, PacketTrace, TraceRecorder, TraceSource};

use crate::backend::ScenarioError;
use crate::spec::{ScenarioSpec, TrafficSpec};

/// Seed offset for the policy RNG: decouples probabilistic rule actions
/// (`scale`) from the traffic RNG, so adding a policy never perturbs the
/// underlying packet stream beyond the rules' own effects.
const POLICY_SEED_XOR: u64 = 0x706f_6c69_6379; // "policy"

enum InnerSource {
    Synthetic(SyntheticSource),
    Trace(TraceSource),
}

/// The workload a [`ScenarioSpec`] describes: a synthetic pattern or a
/// replayed trace, with policy filtering and export recording composed in.
pub struct SpecSource {
    inner: InnerSource,
    policy: Option<CompiledPolicy>,
    recorder: Option<TraceRecorder>,
}

/// Build the workload for a spec. `None` for hetero traffic (that model
/// lives in `noc-hetero`); errors on specs that cannot drive a run — a
/// detached trace (hash only, no content) or hetero traffic combined with
/// policy/export plumbing (already rejected at parse time, re-checked
/// here for programmatic specs).
pub fn build_workload(spec: &ScenarioSpec) -> Result<Option<SpecSource>, ScenarioError> {
    let inner = match &spec.traffic {
        TrafficSpec::Hetero { .. } => {
            if !spec.policy.is_empty() || spec.trace_export.is_some() {
                return Err(ScenarioError::Parse(
                    "policy tables and trace export apply to synthetic and \
                     trace scenarios only"
                        .into(),
                ));
            }
            return Ok(None);
        }
        TrafficSpec::Synthetic { .. } => InnerSource::Synthetic(
            spec.build_source()
                .expect("synthetic specs build a synthetic source"),
        ),
        TrafficSpec::Trace { trace, .. } => {
            let trace = trace.as_ref().ok_or_else(|| {
                ScenarioError::Parse(
                    "detached trace spec (sha256 only) cannot run: give a \"path\"".into(),
                )
            })?;
            InnerSource::Trace(TraceSource::new(Arc::clone(trace)))
        }
    };
    let policy = if spec.policy.is_empty() {
        None
    } else {
        let compiled =
            CompiledPolicy::compile(&spec.policy, &spec.topo(), spec.seed ^ POLICY_SEED_XOR)
                .map_err(ScenarioError::Parse)?;
        Some(compiled)
    };
    let recorder = spec
        .trace_export
        .as_ref()
        .map(|_| TraceRecorder::new(spec.topo().len() as u32));
    Ok(Some(SpecSource {
        inner,
        policy,
        recorder,
    }))
}

impl SpecSource {
    /// Next packet id the factory would hand out (checkpoint watermark).
    pub fn next_id_preview(&self) -> u64 {
        match &self.inner {
            InnerSource::Synthetic(s) => s.factory.next_id_preview(),
            InnerSource::Trace(t) => t.factory.next_id_preview(),
        }
    }

    /// Raise the packet-id allocator to at least `floor` (checkpoint
    /// restore: never reuse an id still in flight inside the snapshot).
    pub fn skip_to(&mut self, floor: u64) {
        match &mut self.inner {
            InnerSource::Synthetic(s) => s.factory.skip_to(floor),
            InnerSource::Trace(t) => t.factory.skip_to(floor),
        }
    }

    /// Fast-forward every RNG (traffic *and* policy) past `ticks`
    /// workload ticks, to where a live run would have left it — the
    /// checkpoint-restore fast-forward.
    ///
    /// Only the streams are positioned: the packet-id allocator is left at
    /// or below a live run's, so follow this with [`SpecSource::skip_to`]
    /// and the checkpoint's watermark. Without a policy table the inner
    /// source fast-forwards itself (O(log ticks) for every synthetic
    /// pattern but UR). A policy table draws per packet, so then the
    /// ticks replay through the wrapper into a discarding sink.
    ///
    /// Callers must not combine this with trace recording (`trace_export`
    /// ⊥ `checkpoint_from`, enforced at parse time): the recorder would
    /// miss the skipped injections.
    pub fn skip_ticks(&mut self, ticks: u64) {
        debug_assert!(
            self.recorder.is_none(),
            "cannot skip ticks while recording a trace export"
        );
        match (&self.policy, &mut self.inner) {
            (Some(_), _) => {
                for t in 0..ticks {
                    Workload::tick(self, t, false, &mut |_, _| {});
                }
            }
            (None, InnerSource::Synthetic(s)) => s.skip_ticks(ticks),
            (None, InnerSource::Trace(t)) => t.skip_ticks(ticks),
        }
    }

    /// Finish and take the recorded injection-side trace, if this source
    /// was recording one.
    pub fn take_recorded_trace(&mut self) -> Option<PacketTrace> {
        self.recorder.take().map(TraceRecorder::finish)
    }

    /// Trace replay only: has the replay consumed every record?
    pub fn is_exhausted(&self) -> bool {
        match &self.inner {
            InnerSource::Synthetic(_) => false,
            InnerSource::Trace(t) => t.is_exhausted(),
        }
    }
}

impl Workload for SpecSource {
    fn tick(&mut self, now: Cycle, measured: bool, sink: &mut dyn FnMut(NodeId, Packet)) {
        let SpecSource {
            inner,
            policy,
            recorder,
        } = self;
        let mut tick_inner = |sink: &mut dyn FnMut(NodeId, Packet)| match inner {
            InnerSource::Synthetic(s) => s.tick(now, measured, sink),
            InnerSource::Trace(t) => Workload::tick(t, now, measured, sink),
        };
        match (policy, recorder) {
            // Fast path: nothing layered on — identical calls to the
            // historic direct-source path, bit-identical results.
            (None, None) => tick_inner(sink),
            (policy, recorder) => {
                tick_inner(&mut |src, mut pkt| {
                    if let Some(p) = policy.as_mut() {
                        if !p.apply(src, &mut pkt) {
                            return; // dropped by the table
                        }
                    }
                    if let Some(r) = recorder.as_mut() {
                        // Record post-policy: the export is what the
                        // fabric actually saw offered.
                        r.observe(src, &pkt);
                    }
                    sink(src, pkt);
                });
                if let Some(r) = self.recorder.as_mut() {
                    r.advance();
                }
            }
        }
    }

    /// Offered load of the underlying source. Policy thinning (`scale`,
    /// `drop`) is not folded in: the number reports what the spec asked
    /// for, matching how rates are labelled in result envelopes.
    fn offered_load(&self) -> f64 {
        match &self.inner {
            InnerSource::Synthetic(s) => Workload::offered_load(s),
            InnerSource::Trace(t) => Workload::offered_load(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use noc_sim::TopologyKind;
    use noc_traffic::{PhaseConfig, TrafficPattern};
    use noc_workload::{ActionSpec, RuleSpec, TraceRecorder};

    fn spec() -> ScenarioSpec {
        ScenarioSpec::synthetic(
            BackendKind::HybridTdmVc4,
            4,
            TrafficPattern::UniformRandom,
            0.2,
            PhaseConfig::quick(),
            7,
        )
    }

    fn drain(src: &mut SpecSource, ticks: u64) -> Vec<(u32, u64, u32)> {
        let mut out = Vec::new();
        for t in 0..ticks {
            src.tick(t, false, &mut |n, p| out.push((n.0, p.id.0, p.dst.0)));
        }
        out
    }

    #[test]
    fn empty_policy_is_bit_identical_to_the_raw_source() {
        let spec = spec();
        let mut raw = spec.build_source().unwrap();
        let mut wrapped = build_workload(&spec).unwrap().unwrap();
        let mut raw_pkts = Vec::new();
        for t in 0..200u64 {
            raw.tick(t, false, |n, p| raw_pkts.push((n.0, p.id.0, p.dst.0)));
        }
        assert_eq!(drain(&mut wrapped, 200), raw_pkts);
    }

    #[test]
    fn drop_rule_thins_and_keeps_ids_of_survivors() {
        let mut spec = spec();
        spec.policy = vec![RuleSpec {
            src: Some(vec![0]),
            action: ActionSpec {
                drop: true,
                ..ActionSpec::default()
            },
            ..RuleSpec::default()
        }];
        let mut wrapped = build_workload(&spec).unwrap().unwrap();
        let pkts = drain(&mut wrapped, 500);
        assert!(!pkts.is_empty());
        assert!(pkts.iter().all(|(src, ..)| *src != 0), "src 0 dropped");
        // Ids are allocated pre-policy, so survivors keep the ids they
        // would have had without the table (drops leave gaps).
        let mut spec2 = spec.clone();
        spec2.policy.clear();
        let mut raw = build_workload(&spec2).unwrap().unwrap();
        let all = drain(&mut raw, 500);
        let kept: Vec<_> = all.into_iter().filter(|(src, ..)| *src != 0).collect();
        assert_eq!(pkts, kept);
    }

    #[test]
    fn skip_then_watermark_matches_the_live_source() {
        // skip_ticks(n) + skip_to(watermark) must continue exactly like a
        // source that ticked n times live, on every pattern, at rates
        // that draw nothing (0, and p = 1 at rate ≥ packet length) and
        // some that draw, on a plain and a concentrated mesh, with and
        // without a (per-packet drawing) policy table.
        let patterns = [
            TrafficPattern::UniformRandom,
            TrafficPattern::Tornado,
            TrafficPattern::Transpose,
            TrafficPattern::BitComplement,
            TrafficPattern::Hotspot(vec![NodeId(0), NodeId(6)]),
            TrafficPattern::BitReverse,
            TrafficPattern::Shuffle,
            TrafficPattern::Neighbor,
        ];
        let scale = vec![RuleSpec {
            action: ActionSpec {
                scale: Some(0.5),
                ..ActionSpec::default()
            },
            ..RuleSpec::default()
        }];
        for pattern in patterns {
            for rate in [0.0, 0.01, 0.3, 8.0] {
                for (topology, conc) in [(TopologyKind::Mesh2D, 1), (TopologyKind::CMesh, 4)] {
                    for policy in [Vec::new(), scale.clone()] {
                        let mut spec = ScenarioSpec::synthetic(
                            BackendKind::HybridTdmVc4,
                            4,
                            pattern.clone(),
                            rate,
                            PhaseConfig::quick(),
                            19,
                        )
                        .with_topology(topology, conc);
                        spec.policy = policy;
                        let what = format!(
                            "{} @ {rate}, c = {conc}, policy = {}",
                            pattern.name(),
                            !spec.policy.is_empty()
                        );
                        let mut live = build_workload(&spec).unwrap().unwrap();
                        let _ = drain(&mut live, 150);
                        let mut skipped = build_workload(&spec).unwrap().unwrap();
                        skipped.skip_ticks(150);
                        skipped.skip_to(live.next_id_preview());
                        assert_eq!(drain(&mut skipped, 200), drain(&mut live, 200), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn recorder_captures_post_policy_stream_and_replays() {
        let mut spec = spec();
        spec.policy = vec![RuleSpec {
            src: Some(vec![1, 2, 3]),
            action: ActionSpec {
                drop: true,
                ..ActionSpec::default()
            },
            ..RuleSpec::default()
        }];
        spec.trace_export = Some("unused-path".into());
        let mut wrapped = build_workload(&spec).unwrap().unwrap();
        let offered = drain(&mut wrapped, 300);
        let trace = wrapped.take_recorded_trace().expect("was recording");
        assert_eq!(trace.records.len(), offered.len());
        assert!(trace.records.iter().all(|r| ![1, 2, 3].contains(&r.src)));
        // The capture replays: same (src, dst) stream per cycle.
        let mut replay = TraceSource::new(Arc::new(trace));
        let mut replayed = Vec::new();
        for t in 0..300u64 {
            Workload::tick(&mut replay, t, false, &mut |n, p| {
                replayed.push((n.0, p.dst.0));
            });
        }
        assert_eq!(
            replayed,
            offered.iter().map(|&(s, _, d)| (s, d)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn detached_trace_and_hetero_plumbing_are_rejected() {
        let detached = ScenarioSpec {
            traffic: TrafficSpec::Trace {
                sha256: [0u8; 32],
                trace: None,
            },
            ..spec()
        };
        let Err(e) = build_workload(&detached) else {
            panic!("detached trace must not build")
        };
        assert!(e.to_string().contains("detached"), "{e}");

        let mut hetero = ScenarioSpec::hetero(
            BackendKind::HybridTdmVc4,
            "CANNEAL",
            "STO",
            PhaseConfig::quick(),
            1,
        );
        assert!(build_workload(&hetero).unwrap().is_none());
        hetero.trace_export = Some("x".into());
        assert!(build_workload(&hetero).is_err());
    }

    #[test]
    fn trace_spec_builds_a_replaying_workload() {
        // Capture a short synthetic run, then replay it through a
        // trace-mode spec.
        let base = spec();
        let mut raw = base.build_source().unwrap();
        let mut rec = TraceRecorder::new(16);
        for t in 0..100u64 {
            raw.tick(t, false, |n, p| rec.observe(n, &p));
            rec.advance();
        }
        let trace = Arc::new(rec.finish());
        let tspec = ScenarioSpec::trace(
            BackendKind::HybridTdmVc4,
            4,
            Arc::clone(&trace),
            PhaseConfig::quick(),
            1,
        );
        let mut wl = build_workload(&tspec).unwrap().unwrap();
        let got = drain(&mut wl, 100);
        assert_eq!(got.len(), trace.records.len());
        assert!(wl.is_exhausted());
    }
}
