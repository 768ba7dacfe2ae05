//! Declarative scenario specs: one value that fully determines an
//! experiment run — backend, mesh, traffic, phase lengths, seed and host
//! threading — mappable to a boxed [`Fabric`] plus a workload.

use std::sync::Arc;

use noc_sim::{Direction, Fabric, FaultEvent, Mesh, NetworkConfig, NodeId, TopologyKind};
use noc_traffic::{PhaseConfig, SyntheticSource, TrafficPattern};
use noc_workload::{ActionSpec, ClassMatch, PacketTrace, Region, RuleSpec};
use serde::{Serialize, Value};

use crate::backend::{build_fabric, BackendKind, ScenarioError, Tuning};
use crate::cache_key::sha256;
use crate::json::Json;

/// What drives the fabric: a synthetic pattern at a fixed rate (§IV), a
/// heterogeneous CPU+GPU benchmark mix (§V), or a replayed packet trace
/// (`noc-workload`). Hetero benchmarks are named here and resolved by
/// `noc-hetero` (the workload model lives there).
#[derive(Clone, Debug)]
pub enum TrafficSpec {
    Synthetic {
        pattern: TrafficPattern,
        rate: f64,
    },
    Hetero {
        cpu: String,
        gpu: String,
    },
    /// Trace replay, content-addressed by the SHA-256 of the trace's
    /// *canonical binary* encoding — so cache keys and envelope echoes
    /// cover the trace content, never a host-local path. `trace` is the
    /// loaded trace; it is `None` for a **detached** spec parsed from an
    /// echo (`{"mode":"trace","sha256":...}` without a path), which can
    /// be compared and hashed but not run.
    Trace {
        sha256: [u8; 32],
        trace: Option<Arc<PacketTrace>>,
    },
}

/// Equality is semantic: traces compare by content hash (a loaded and a
/// detached spec with the same hash are the same scenario).
impl PartialEq for TrafficSpec {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                TrafficSpec::Synthetic {
                    pattern: p1,
                    rate: r1,
                },
                TrafficSpec::Synthetic {
                    pattern: p2,
                    rate: r2,
                },
            ) => p1 == p2 && r1 == r2,
            (
                TrafficSpec::Hetero { cpu: c1, gpu: g1 },
                TrafficSpec::Hetero { cpu: c2, gpu: g2 },
            ) => c1 == c2 && g1 == g2,
            (TrafficSpec::Trace { sha256: a, .. }, TrafficSpec::Trace { sha256: b, .. }) => a == b,
            _ => false,
        }
    }
}

impl TrafficSpec {
    /// A trace workload from a loaded trace (hash computed here).
    pub fn trace(trace: Arc<PacketTrace>) -> Self {
        TrafficSpec::Trace {
            sha256: sha256(&trace.to_binary()),
            trace: Some(trace),
        }
    }
}

/// A fully-specified experiment scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    pub backend: BackendKind,
    /// Side length of the (square) router grid.
    pub mesh: u16,
    /// Connectivity rule of the router grid (plain mesh by default).
    pub topology: TopologyKind,
    /// Clients per router (> 1 only for [`TopologyKind::CMesh`]).
    pub concentration: u8,
    pub traffic: TrafficSpec,
    pub phases: PhaseConfig,
    pub seed: u64,
    /// TDM slot-table size override (default: sized from the mesh,
    /// §IV-D).
    pub slot_capacity: Option<u16>,
    /// Scheduled link-fault timeline (empty = fault-free run). Only
    /// backends with the packet rerouting and abort machinery accept
    /// faults: `PacketVc4`, `HybridTdmVc4` and `HybridTdmHopVc4`.
    pub faults: Vec<FaultEvent>,
    /// Write a warm-up checkpoint blob to this path, then measure as
    /// usual (the checkpoint only observes). Runtime plumbing: accepted
    /// from scenario files and `--checkpoint-out`, never echoed back
    /// into envelopes or blobs.
    pub checkpoint_out: Option<String>,
    /// Skip warm-up: restore the fabric and fast-forward the source from
    /// this blob instead, then run measurement + drain.
    pub checkpoint_from: Option<String>,
    /// Match-action policy table applied to every offered packet
    /// (`noc-workload`); compiled to closures at build time. Empty =
    /// no policy, bit-identical to the historic injection path.
    pub policy: Vec<RuleSpec>,
    /// Profiled hybrid switching: plan circuits for this many top flows
    /// (profiled from the trace, or from a shadow warm-up for synthetic
    /// traffic) and pre-establish them pinned before the run.
    pub profile_circuits: Option<u32>,
    /// Write the run's injection-side packet trace to this path after the
    /// run (binary `NOCTRACE1`, or the JSON-lines twin for `.jsonl`
    /// paths). Runtime plumbing like the checkpoint paths: accepted from
    /// scenario files and `--trace-export`, never echoed.
    pub trace_export: Option<String>,
}

impl ScenarioSpec {
    /// A synthetic-traffic scenario on a `mesh`×`mesh` network.
    pub fn synthetic(
        backend: BackendKind,
        mesh: u16,
        pattern: TrafficPattern,
        rate: f64,
        phases: PhaseConfig,
        seed: u64,
    ) -> Self {
        ScenarioSpec {
            backend,
            mesh,
            topology: TopologyKind::Mesh2D,
            concentration: 1,
            traffic: TrafficSpec::Synthetic { pattern, rate },
            phases,
            seed,
            slot_capacity: None,
            faults: Vec::new(),
            checkpoint_out: None,
            checkpoint_from: None,
            policy: Vec::new(),
            profile_circuits: None,
            trace_export: None,
        }
    }

    /// A trace-replay scenario: the mesh side length must match the node
    /// count the trace was captured against (validated at build time).
    pub fn trace(
        backend: BackendKind,
        mesh: u16,
        trace: Arc<PacketTrace>,
        phases: PhaseConfig,
        seed: u64,
    ) -> Self {
        ScenarioSpec {
            backend,
            mesh,
            topology: TopologyKind::Mesh2D,
            concentration: 1,
            traffic: TrafficSpec::trace(trace),
            phases,
            seed,
            slot_capacity: None,
            faults: Vec::new(),
            checkpoint_out: None,
            checkpoint_from: None,
            policy: Vec::new(),
            profile_circuits: None,
            trace_export: None,
        }
    }

    /// The same scenario on a different connectivity rule. `concentration`
    /// is only meaningful for [`TopologyKind::CMesh`].
    pub fn with_topology(mut self, topology: TopologyKind, concentration: u8) -> Self {
        self.topology = topology;
        self.concentration = concentration;
        self
    }

    /// The same scenario with a scheduled link-fault timeline. Callers
    /// constructing specs programmatically get the same backend/link
    /// validation as JSON specs via [`ScenarioSpec::validate_faults`].
    pub fn with_faults(mut self, faults: Vec<FaultEvent>) -> Self {
        self.faults = faults;
        self
    }

    /// Check the fault schedule against the backend and topology: faults
    /// need the packet rerouting + abort machinery (absent from the VC
    /// power-gating and SDM configurations, and from hetero runs, whose
    /// runner owns its own fabric), and every event must name a link that
    /// exists on this grid.
    pub fn validate_faults(&self) -> Result<(), ScenarioError> {
        if self.faults.is_empty() {
            return Ok(());
        }
        if matches!(self.traffic, TrafficSpec::Hetero { .. }) {
            return Err(ScenarioError::Fault(
                "fault schedules apply to synthetic scenarios only".into(),
            ));
        }
        if !matches!(
            self.backend,
            BackendKind::PacketVc4 | BackendKind::HybridTdmVc4 | BackendKind::HybridTdmHopVc4
        ) {
            return Err(ScenarioError::Fault(format!(
                "backend {} cannot reroute around faults (VC power-gating \
                 and SDM configurations reject fault schedules)",
                self.backend.name()
            )));
        }
        let topo = self.topo();
        for f in &self.faults {
            if (f.node as usize) >= topo.len() || topo.neighbor(NodeId(f.node), f.dir).is_none() {
                return Err(ScenarioError::Fault(format!(
                    "fault at cycle {} names a non-existent link: node {} {:?}",
                    f.at, f.node, f.dir
                )));
            }
        }
        Ok(())
    }

    /// A heterogeneous-workload scenario (fixed §V system: 6×6 mesh,
    /// Figure 7 floorplan).
    pub fn hetero(
        backend: BackendKind,
        cpu: impl Into<String>,
        gpu: impl Into<String>,
        phases: PhaseConfig,
        seed: u64,
    ) -> Self {
        ScenarioSpec {
            backend,
            mesh: 6,
            topology: TopologyKind::Mesh2D,
            concentration: 1,
            traffic: TrafficSpec::Hetero {
                cpu: cpu.into(),
                gpu: gpu.into(),
            },
            phases,
            seed,
            slot_capacity: None,
            faults: Vec::new(),
            checkpoint_out: None,
            checkpoint_from: None,
            policy: Vec::new(),
            profile_circuits: None,
            trace_export: None,
        }
    }

    /// The router-grid topology this scenario describes.
    pub fn topo(&self) -> Mesh {
        match self.topology {
            TopologyKind::Mesh2D => Mesh::square(self.mesh),
            TopologyKind::Torus2D => Mesh::torus_square(self.mesh),
            TopologyKind::CMesh => Mesh::cmesh(self.mesh, self.mesh, self.concentration),
        }
    }

    /// The network configuration this scenario describes.
    pub fn net_config(&self) -> NetworkConfig {
        NetworkConfig::with_mesh(self.topo())
    }

    /// Which circuit-setup tuning applies (§IV vs §V policies). Trace
    /// replays use the synthetic tuning: like the §IV experiments they
    /// drive a caller-built fabric open-loop.
    pub fn tuning(&self) -> Tuning {
        match self.traffic {
            TrafficSpec::Synthetic { .. } | TrafficSpec::Trace { .. } => Tuning::Synthetic {
                slot_capacity: self.slot_capacity,
            },
            TrafficSpec::Hetero { .. } => Tuning::Hetero,
        }
    }

    /// Build the boxed fabric for this scenario.
    pub fn build_fabric(&self) -> Result<Box<dyn Fabric>, ScenarioError> {
        build_fabric(self.backend, self.net_config(), self.tuning())
    }

    /// Build the synthetic source for this scenario (`None` for hetero
    /// and trace traffic — use [`crate::source::build_workload`] to cover
    /// traces, policies and export recording too).
    pub fn build_source(&self) -> Option<SyntheticSource> {
        match &self.traffic {
            TrafficSpec::Synthetic { pattern, rate } => Some(SyntheticSource::new(
                self.topo(),
                pattern.clone(),
                *rate,
                self.net_config().ps_packet_flits,
                self.seed,
            )),
            TrafficSpec::Hetero { .. } | TrafficSpec::Trace { .. } => None,
        }
    }

    /// Parse a scenario file: either one spec object or an array of them.
    pub fn parse(text: &str) -> Result<Vec<ScenarioSpec>, ScenarioError> {
        match Json::parse(text)? {
            Json::Arr(items) => items.iter().map(ScenarioSpec::from_json).collect(),
            v => Ok(vec![ScenarioSpec::from_json(&v)?]),
        }
    }

    /// Load a scenario file from disk.
    pub fn load(path: &str) -> Result<Vec<ScenarioSpec>, ScenarioError> {
        ScenarioSpec::parse(&std::fs::read_to_string(path)?)
    }

    /// Build one spec from a parsed JSON object.
    pub fn from_json(v: &Json) -> Result<ScenarioSpec, ScenarioError> {
        let Json::Obj(fields) = v else {
            return Err(ScenarioError::Parse(
                "scenario must be a JSON object".into(),
            ));
        };
        const KNOWN: [&str; 22] = [
            "backend",
            "mesh",
            "topology",
            "concentration",
            "traffic",
            "workload",
            "pattern",
            "rate",
            "hotspots",
            "cpu",
            "gpu",
            "phases",
            "seed",
            // Retired host-side knob (nodes always step serially): still
            // accepted, and ignored, because older scenario files,
            // checkpoint blobs and serve caches spell it out.
            "step_threads",
            "slot_capacity",
            "quick",
            "faults",
            "checkpoint_out",
            "checkpoint_from",
            "policy",
            "profile_circuits",
            "trace_export",
        ];
        for (k, _) in fields {
            if !KNOWN.contains(&k.as_str()) {
                return Err(ScenarioError::Parse(format!(
                    "unknown scenario field {k:?}"
                )));
            }
        }

        let backend = BackendKind::parse(
            v.get("backend")
                .and_then(Json::as_str)
                .ok_or(ScenarioError::MissingField("backend"))?,
        )?;
        let quick = v.get("quick") == Some(&Json::Bool(true));

        // Traffic fields may sit flat on the spec or nested under a
        // "traffic" object ("workload" is an accepted alias) — the nested
        // form is what result-envelope echoes emit, so echoes round-trip
        // as `--scenario` inputs.
        let nested = match (v.get("traffic"), v.get("workload")) {
            (Some(_), Some(_)) => {
                return Err(ScenarioError::Parse(
                    "give \"traffic\" or its alias \"workload\", not both".into(),
                ))
            }
            (t, w) => t.or(w),
        };
        let tsrc = match nested {
            Some(t) => {
                if ["pattern", "rate", "hotspots", "cpu", "gpu"]
                    .iter()
                    .any(|k| v.get(k).is_some())
                {
                    return Err(ScenarioError::Parse(
                        "give traffic either nested under \"traffic\" or flat, not both".into(),
                    ));
                }
                let Json::Obj(tf) = t else {
                    return Err(ScenarioError::Parse("\"traffic\" must be an object".into()));
                };
                for (k, _) in tf {
                    if ![
                        "mode", "pattern", "rate", "hotspots", "cpu", "gpu", "path", "sha256",
                    ]
                    .contains(&k.as_str())
                    {
                        return Err(ScenarioError::Parse(format!("unknown traffic field {k:?}")));
                    }
                }
                t
            }
            None => v,
        };

        // Trace workloads are declared nested only: `{"mode": "trace",
        // "path": ...}` (or the detached `{"mode": "trace", "sha256": ...}`
        // form that envelope echoes emit).
        let trace_mode =
            tsrc.get("mode").and_then(Json::as_str) == Some("trace") || tsrc.get("path").is_some();
        let traffic = if trace_mode {
            parse_trace_workload(tsrc)?
        } else {
            match (tsrc.get("pattern"), tsrc.get("cpu"), tsrc.get("gpu")) {
                (Some(p), None, None) => {
                    let name = p.as_str().ok_or_else(|| {
                        ScenarioError::Parse("\"pattern\" must be a string".into())
                    })?;
                    let hotspots = match tsrc.get("hotspots") {
                        Some(Json::Arr(ids)) => ids
                            .iter()
                            .map(|i| i.as_u64().map(|n| NodeId(n as u32)))
                            .collect::<Option<Vec<_>>>()
                            .ok_or_else(|| {
                                ScenarioError::Parse("\"hotspots\" must be node ids".into())
                            })?,
                        None => Vec::new(),
                        Some(_) => {
                            return Err(ScenarioError::Parse(
                                "\"hotspots\" must be an array".into(),
                            ))
                        }
                    };
                    let pattern = parse_pattern(name, hotspots)?;
                    let rate = tsrc
                        .get("rate")
                        .and_then(Json::as_f64)
                        .ok_or(ScenarioError::MissingField("rate"))?;
                    TrafficSpec::Synthetic { pattern, rate }
                }
                (None, Some(c), Some(g)) => TrafficSpec::Hetero {
                    cpu: c
                        .as_str()
                        .ok_or_else(|| ScenarioError::Parse("\"cpu\" must be a string".into()))?
                        .to_string(),
                    gpu: g
                        .as_str()
                        .ok_or_else(|| ScenarioError::Parse("\"gpu\" must be a string".into()))?
                        .to_string(),
                },
                _ => {
                    return Err(ScenarioError::Parse(
                        "scenario needs either \"pattern\"+\"rate\" or \"cpu\"+\"gpu\"".into(),
                    ))
                }
            }
        };

        let hetero = matches!(traffic, TrafficSpec::Hetero { .. });
        let mesh = match v.get("mesh") {
            Some(m) => m
                .as_u64()
                .filter(|&k| (2..=256).contains(&k))
                .ok_or_else(|| ScenarioError::Parse("\"mesh\" must be a side length".into()))?
                as u16,
            None => 6,
        };
        if hetero && mesh != 6 {
            return Err(ScenarioError::Parse(
                "hetero scenarios are fixed to the 6x6 Figure 7 floorplan".into(),
            ));
        }

        let topology = match v.get("topology") {
            None => TopologyKind::Mesh2D,
            Some(t) => match t.as_str() {
                Some("mesh" | "Mesh2D") => TopologyKind::Mesh2D,
                Some("torus" | "Torus2D") => TopologyKind::Torus2D,
                Some("cmesh" | "CMesh") => TopologyKind::CMesh,
                _ => {
                    return Err(ScenarioError::Parse(
                        "\"topology\" must be \"mesh\", \"torus\" or \"cmesh\"".into(),
                    ))
                }
            },
        };
        if hetero && topology != TopologyKind::Mesh2D {
            return Err(ScenarioError::Parse(
                "hetero scenarios are fixed to the 6x6 Figure 7 floorplan (plain mesh)".into(),
            ));
        }
        if topology == TopologyKind::Torus2D
            && matches!(
                backend,
                BackendKind::PacketVct | BackendKind::HybridTdmVct | BackendKind::HybridTdmHopVct
            )
        {
            return Err(ScenarioError::Parse(format!(
                "backend {} uses VC power gating, which is incompatible with \
                 torus dateline VC classes",
                backend.name()
            )));
        }
        let concentration = match v.get("concentration") {
            None => {
                if topology == TopologyKind::CMesh {
                    4
                } else {
                    1
                }
            }
            Some(_) if topology != TopologyKind::CMesh => {
                return Err(ScenarioError::Parse(
                    "\"concentration\" only applies to the cmesh topology".into(),
                ))
            }
            Some(c) => c
                .as_u64()
                .filter(|&k| (2..=16).contains(&k))
                .ok_or_else(|| ScenarioError::Parse("\"concentration\" must be in 2..=16".into()))?
                as u8,
        };

        let base_phases = match (hetero, quick) {
            (false, false) => PhaseConfig::default(),
            (false, true) => PhaseConfig::quick(),
            (true, false) => PhaseConfig::pure_cycles(4_000, 20_000, 6_000),
            (true, true) => PhaseConfig::pure_cycles(1_500, 6_000, 3_000),
        };
        let phases = match v.get("phases") {
            None => base_phases,
            Some(p) => parse_phases(p, base_phases)?,
        };

        let faults = match v.get("faults") {
            None => Vec::new(),
            Some(Json::Arr(items)) => items
                .iter()
                .map(parse_fault)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => {
                return Err(ScenarioError::Fault(
                    "\"faults\" must be an array of fault objects".into(),
                ))
            }
        };
        let checkpoint_out = opt_str(v, "checkpoint_out")?;
        let checkpoint_from = opt_str(v, "checkpoint_from")?;
        if checkpoint_out.is_some() && checkpoint_from.is_some() {
            return Err(ScenarioError::Checkpoint(
                "give \"checkpoint_out\" or \"checkpoint_from\", not both".into(),
            ));
        }
        if hetero && (checkpoint_out.is_some() || checkpoint_from.is_some()) {
            return Err(ScenarioError::Checkpoint(
                "checkpoints apply to synthetic scenarios only".into(),
            ));
        }

        let policy = match v.get("policy") {
            None => Vec::new(),
            Some(Json::Arr(items)) => items
                .iter()
                .map(parse_rule)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => {
                return Err(ScenarioError::Parse(
                    "\"policy\" must be an array of match-action rules".into(),
                ))
            }
        };
        let profile_circuits = opt_u64(v, "profile_circuits")?
            .map(|n| {
                u32::try_from(n).map_err(|_| {
                    ScenarioError::Parse("\"profile_circuits\" must fit in a u32".into())
                })
            })
            .transpose()?;
        let trace_export = opt_str(v, "trace_export")?;
        if hetero && (!policy.is_empty() || profile_circuits.is_some() || trace_export.is_some()) {
            return Err(ScenarioError::Parse(
                "\"policy\", \"profile_circuits\" and \"trace_export\" apply to \
                 synthetic and trace scenarios only"
                    .into(),
            ));
        }
        if trace_export.is_some() && checkpoint_from.is_some() {
            return Err(ScenarioError::Parse(
                "\"trace_export\" cannot restore from a checkpoint: the warm-up \
                 injections it must record are skipped"
                    .into(),
            ));
        }

        let spec = ScenarioSpec {
            backend,
            mesh,
            topology,
            concentration,
            traffic,
            phases,
            seed: opt_u64(v, "seed")?.unwrap_or(1),
            slot_capacity: opt_u64(v, "slot_capacity")?.map(|c| c as u16),
            faults,
            checkpoint_out,
            checkpoint_from,
            policy,
            profile_circuits,
            trace_export,
        };
        if let TrafficSpec::Trace { trace: Some(t), .. } = &spec.traffic {
            let routers = spec.topo().len();
            if t.nodes as usize != routers {
                return Err(ScenarioError::Parse(format!(
                    "trace was captured on {} nodes but this topology has {routers}",
                    t.nodes
                )));
            }
        }
        spec.validate_faults()?;
        Ok(spec)
    }
}

/// Parse the nested trace-workload form: `path` (load + hash, optionally
/// verified against a declared `sha256`) or `sha256` alone (a detached
/// echo — comparable and cache-keyable, but not runnable).
fn parse_trace_workload(tsrc: &Json) -> Result<TrafficSpec, ScenarioError> {
    for k in ["pattern", "rate", "hotspots", "cpu", "gpu"] {
        if tsrc.get(k).is_some() {
            return Err(ScenarioError::Parse(format!(
                "trace workloads take \"path\"/\"sha256\", not {k:?}"
            )));
        }
    }
    let declared = match tsrc.get("sha256") {
        None => None,
        Some(Json::Str(s)) => Some(parse_hex32(s).ok_or_else(|| {
            ScenarioError::Parse("\"sha256\" must be 64 hexadecimal characters".into())
        })?),
        Some(_) => return Err(ScenarioError::Parse("\"sha256\" must be a string".into())),
    };
    match tsrc.get("path") {
        Some(Json::Str(p)) => {
            let bytes =
                std::fs::read(p).map_err(|e| ScenarioError::Parse(format!("trace {p:?}: {e}")))?;
            let trace = noc_workload::PacketTrace::decode(&bytes)
                .map_err(|e| ScenarioError::Parse(format!("trace {p:?}: {e}")))?;
            let spec = TrafficSpec::trace(Arc::new(trace));
            if let (Some(want), TrafficSpec::Trace { sha256, .. }) = (declared, &spec) {
                if want != *sha256 {
                    return Err(ScenarioError::Parse(format!(
                        "trace {p:?} content hash {} does not match the declared sha256",
                        hex32(sha256)
                    )));
                }
            }
            Ok(spec)
        }
        Some(_) => Err(ScenarioError::Parse("\"path\" must be a string".into())),
        None => match declared {
            Some(sha256) => Ok(TrafficSpec::Trace {
                sha256,
                trace: None,
            }),
            None => Err(ScenarioError::Parse(
                "trace workload needs a \"path\" (or \"sha256\" for a detached echo)".into(),
            )),
        },
    }
}

/// Parse one policy rule: `{"match": {...}, "action": {...}}`.
fn parse_rule(v: &Json) -> Result<RuleSpec, ScenarioError> {
    let Json::Obj(fields) = v else {
        return Err(ScenarioError::Parse(
            "each policy rule must be an object with \"match\" and \"action\"".into(),
        ));
    };
    for (k, _) in fields {
        if !["match", "action"].contains(&k.as_str()) {
            return Err(ScenarioError::Parse(format!(
                "unknown policy rule field {k:?}"
            )));
        }
    }
    let mut rule = RuleSpec::default();
    if let Some(m) = v.get("match") {
        let Json::Obj(mf) = m else {
            return Err(ScenarioError::Parse(
                "rule \"match\" must be an object".into(),
            ));
        };
        for (k, _) in mf {
            if !["src", "dst", "class", "region"].contains(&k.as_str()) {
                return Err(ScenarioError::Parse(format!(
                    "unknown rule match field {k:?}"
                )));
            }
        }
        rule.src = parse_node_list(m, "src")?;
        rule.dst = parse_node_list(m, "dst")?;
        rule.class = match m.get("class").map(Json::as_str) {
            None => None,
            Some(Some("cs")) => Some(ClassMatch::Cs),
            Some(Some("ps")) => Some(ClassMatch::Ps),
            Some(_) => {
                return Err(ScenarioError::Parse(
                    "rule \"class\" must be \"cs\" or \"ps\"".into(),
                ))
            }
        };
        rule.region = match m.get("region") {
            None => None,
            Some(Json::Arr(xs)) if xs.len() == 4 => {
                let c = xs
                    .iter()
                    .map(|x| x.as_u64().and_then(|n| u16::try_from(n).ok()))
                    .collect::<Option<Vec<u16>>>()
                    .ok_or_else(|| {
                        ScenarioError::Parse("\"region\" coordinates must be u16".into())
                    })?;
                Some(Region {
                    x0: c[0],
                    y0: c[1],
                    x1: c[2],
                    y1: c[3],
                })
            }
            Some(_) => {
                return Err(ScenarioError::Parse(
                    "rule \"region\" must be [x0, y0, x1, y1]".into(),
                ))
            }
        };
    }
    let a = v
        .get("action")
        .ok_or_else(|| ScenarioError::Parse("policy rule needs an \"action\"".into()))?;
    let Json::Obj(af) = a else {
        return Err(ScenarioError::Parse(
            "rule \"action\" must be an object".into(),
        ));
    };
    for (k, _) in af {
        if !["scale", "drop", "cs_eligible", "redirect"].contains(&k.as_str()) {
            return Err(ScenarioError::Parse(format!(
                "unknown rule action field {k:?}"
            )));
        }
    }
    rule.action =
        ActionSpec {
            scale: match a.get("scale") {
                None => None,
                Some(x) => Some(x.as_f64().ok_or_else(|| {
                    ScenarioError::Parse("action \"scale\" must be a number".into())
                })?),
            },
            drop: match a.get("drop") {
                None => false,
                Some(Json::Bool(b)) => *b,
                Some(_) => {
                    return Err(ScenarioError::Parse(
                        "action \"drop\" must be a boolean".into(),
                    ))
                }
            },
            cs_eligible: match a.get("cs_eligible") {
                None => None,
                Some(Json::Bool(b)) => Some(*b),
                Some(_) => {
                    return Err(ScenarioError::Parse(
                        "action \"cs_eligible\" must be a boolean".into(),
                    ))
                }
            },
            redirect: match a.get("redirect") {
                None => None,
                Some(x) => Some(x.as_u64().and_then(|n| u32::try_from(n).ok()).ok_or_else(
                    || ScenarioError::Parse("action \"redirect\" must be a node id".into()),
                )?),
            },
        };
    Ok(rule)
}

fn parse_node_list(m: &Json, key: &'static str) -> Result<Option<Vec<u32>>, ScenarioError> {
    match m.get(key) {
        None => Ok(None),
        Some(Json::Arr(xs)) => {
            let ids = xs
                .iter()
                .map(|x| x.as_u64().and_then(|n| u32::try_from(n).ok()))
                .collect::<Option<Vec<u32>>>()
                .ok_or_else(|| {
                    ScenarioError::Parse(format!("rule {key:?} must be an array of node ids"))
                })?;
            Ok(Some(ids))
        }
        Some(_) => Err(ScenarioError::Parse(format!(
            "rule {key:?} must be an array of node ids"
        ))),
    }
}

/// Lower-case hex of a 32-byte digest.
pub fn hex32(b: &[u8; 32]) -> String {
    let mut s = String::with_capacity(64);
    for byte in b {
        s.push_str(&format!("{byte:02x}"));
    }
    s
}

fn parse_hex32(s: &str) -> Option<[u8; 32]> {
    if s.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
        let hi = (chunk[0] as char).to_digit(16)?;
        let lo = (chunk[1] as char).to_digit(16)?;
        out[i] = ((hi << 4) | lo) as u8;
    }
    Some(out)
}

/// Spec-file spelling of a link direction.
pub fn dir_name(dir: Direction) -> &'static str {
    match dir {
        Direction::North => "north",
        Direction::East => "east",
        Direction::South => "south",
        Direction::West => "west",
    }
}

fn parse_fault(v: &Json) -> Result<FaultEvent, ScenarioError> {
    let Json::Obj(fields) = v else {
        return Err(ScenarioError::Fault(
            "each fault must be an object with \"at\", \"node\", \"dir\" \
             and optional \"up\""
                .into(),
        ));
    };
    for (k, _) in fields {
        if !["at", "node", "dir", "up"].contains(&k.as_str()) {
            return Err(ScenarioError::Fault(format!("unknown fault field {k:?}")));
        }
    }
    let at = v
        .get("at")
        .and_then(Json::as_u64)
        .ok_or_else(|| ScenarioError::Fault("\"at\" must be a cycle number".into()))?;
    let node = v
        .get("node")
        .and_then(Json::as_u64)
        .filter(|&n| n <= u32::MAX as u64)
        .ok_or_else(|| ScenarioError::Fault("\"node\" must be a router index".into()))?
        as u32;
    let dir = match v.get("dir").and_then(Json::as_str) {
        Some("north") => Direction::North,
        Some("east") => Direction::East,
        Some("south") => Direction::South,
        Some("west") => Direction::West,
        _ => {
            return Err(ScenarioError::Fault(
                "\"dir\" must be \"north\", \"east\", \"south\" or \"west\"".into(),
            ))
        }
    };
    let up = match v.get("up") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => {
            return Err(ScenarioError::Fault(
                "\"up\" must be a boolean (false = kill, true = revive)".into(),
            ))
        }
    };
    Ok(FaultEvent { at, node, dir, up })
}

fn opt_str(v: &Json, key: &'static str) -> Result<Option<String>, ScenarioError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ScenarioError::Parse(format!("{key:?} must be a string"))),
    }
}

fn opt_u64(v: &Json, key: &'static str) -> Result<Option<u64>, ScenarioError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| ScenarioError::Parse(format!("{key:?} must be a non-negative integer"))),
    }
}

fn parse_phases(v: &Json, base: PhaseConfig) -> Result<PhaseConfig, ScenarioError> {
    let Json::Obj(fields) = v else {
        return Err(ScenarioError::Parse("\"phases\" must be an object".into()));
    };
    let mut ph = base;
    for (k, val) in fields {
        let n = val
            .as_u64()
            .ok_or_else(|| ScenarioError::Parse(format!("phase {k:?} must be an integer")))?;
        // A zero-length measurement window offers nothing, and the run
        // would report all-zero stats as if it had measured.
        if n == 0 && matches!(k.as_str(), "measure_cycles" | "measure_packets") {
            return Err(ScenarioError::Parse(format!(
                "phase {k:?} must be at least 1: a zero window measures nothing"
            )));
        }
        match k.as_str() {
            "warmup_cycles" => ph.warmup_cycles = n,
            "warmup_packets" => ph.warmup_packets = n,
            "measure_cycles" => ph.measure_cycles = n,
            "measure_packets" => ph.measure_packets = n,
            "drain_cycles" => ph.drain_cycles = n,
            _ => return Err(ScenarioError::Parse(format!("unknown phase field {k:?}"))),
        }
    }
    Ok(ph)
}

/// Parse a traffic-pattern string: the paper abbreviation (`"UR"`) or the
/// enum variant name (`"UniformRandom"`).
pub fn parse_pattern(name: &str, hotspots: Vec<NodeId>) -> Result<TrafficPattern, ScenarioError> {
    if !matches!(name, "HS" | "Hotspot") && !hotspots.is_empty() {
        return Err(ScenarioError::Parse(format!(
            "\"hotspots\" only applies to the HS pattern, not {name:?}"
        )));
    }
    let p = match name {
        "UR" | "UniformRandom" => TrafficPattern::UniformRandom,
        "TOR" | "Tornado" => TrafficPattern::Tornado,
        "TR" | "Transpose" => TrafficPattern::Transpose,
        "BC" | "BitComplement" => TrafficPattern::BitComplement,
        "BR" | "BitReverse" => TrafficPattern::BitReverse,
        "SH" | "Shuffle" => TrafficPattern::Shuffle,
        "NB" | "Neighbor" => TrafficPattern::Neighbor,
        "HS" | "Hotspot" => {
            if hotspots.is_empty() {
                return Err(ScenarioError::Parse(
                    "hotspot pattern needs a non-empty \"hotspots\" array".into(),
                ));
            }
            TrafficPattern::Hotspot(hotspots)
        }
        _ => return Err(ScenarioError::UnknownPattern(name.to_string())),
    };
    Ok(p)
}

impl Serialize for TrafficSpec {
    fn to_value(&self) -> Value {
        match self {
            TrafficSpec::Synthetic { pattern, rate } => {
                let mut fields = vec![
                    ("mode".to_string(), Value::Str("synthetic".into())),
                    ("pattern".to_string(), Value::Str(pattern.name().into())),
                    ("rate".to_string(), Value::Float(*rate)),
                ];
                if let TrafficPattern::Hotspot(spots) = pattern {
                    fields.push((
                        "hotspots".to_string(),
                        Value::Array(spots.iter().map(|n| Value::UInt(n.0 as u64)).collect()),
                    ));
                }
                Value::Object(fields)
            }
            TrafficSpec::Hetero { cpu, gpu } => Value::Object(vec![
                ("mode".to_string(), Value::Str("hetero".into())),
                ("cpu".to_string(), Value::Str(cpu.clone())),
                ("gpu".to_string(), Value::Str(gpu.clone())),
            ]),
            // Content-addressed echo: the hash, never a host-local path.
            // This parses back as the detached form.
            TrafficSpec::Trace { sha256, .. } => Value::Object(vec![
                ("mode".to_string(), Value::Str("trace".into())),
                ("sha256".to_string(), Value::Str(hex32(sha256))),
            ]),
        }
    }
}

fn rule_to_value(r: &RuleSpec) -> Value {
    let ids = |xs: &[u32]| Value::Array(xs.iter().map(|&n| Value::UInt(n as u64)).collect());
    let mut m = Vec::new();
    if let Some(src) = &r.src {
        m.push(("src".to_string(), ids(src)));
    }
    if let Some(dst) = &r.dst {
        m.push(("dst".to_string(), ids(dst)));
    }
    if let Some(c) = r.class {
        let name = match c {
            ClassMatch::Cs => "cs",
            ClassMatch::Ps => "ps",
        };
        m.push(("class".to_string(), Value::Str(name.into())));
    }
    if let Some(rg) = &r.region {
        m.push((
            "region".to_string(),
            Value::Array(
                [rg.x0, rg.y0, rg.x1, rg.y1]
                    .iter()
                    .map(|&c| Value::UInt(c as u64))
                    .collect(),
            ),
        ));
    }
    let mut a = Vec::new();
    if let Some(s) = r.action.scale {
        a.push(("scale".to_string(), Value::Float(s)));
    }
    if r.action.drop {
        a.push(("drop".to_string(), Value::Bool(true)));
    }
    if let Some(b) = r.action.cs_eligible {
        a.push(("cs_eligible".to_string(), Value::Bool(b)));
    }
    if let Some(n) = r.action.redirect {
        a.push(("redirect".to_string(), Value::UInt(n as u64)));
    }
    let mut fields = Vec::new();
    if !m.is_empty() {
        fields.push(("match".to_string(), Value::Object(m)));
    }
    fields.push(("action".to_string(), Value::Object(a)));
    Value::Object(fields)
}

impl Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            (
                "backend".to_string(),
                Value::Str(self.backend.name().into()),
            ),
            ("mesh".to_string(), Value::UInt(self.mesh as u64)),
        ];
        // Topology fields are emitted only when non-default, so envelopes
        // of plain-mesh scenarios stay byte-identical to the pre-topology
        // format (and echoes of defaulted specs round-trip exactly).
        match self.topology {
            TopologyKind::Mesh2D => {}
            TopologyKind::Torus2D => {
                fields.push(("topology".to_string(), Value::Str("torus".into())));
            }
            TopologyKind::CMesh => {
                fields.push(("topology".to_string(), Value::Str("cmesh".into())));
                fields.push((
                    "concentration".to_string(),
                    Value::UInt(self.concentration as u64),
                ));
            }
        }
        fields.extend([
            ("traffic".to_string(), self.traffic.to_value()),
            ("phases".to_string(), self.phases.to_value()),
            ("seed".to_string(), Value::UInt(self.seed)),
            (
                "slot_capacity".to_string(),
                match self.slot_capacity {
                    Some(c) => Value::UInt(c as u64),
                    None => Value::Null,
                },
            ),
        ]);
        // The fault schedule is emitted only when non-empty, keeping
        // fault-free envelopes byte-identical to the historic format
        // (the topology-field precedent above).
        if !self.faults.is_empty() {
            fields.push((
                "faults".to_string(),
                Value::Array(
                    self.faults
                        .iter()
                        .map(|f| {
                            Value::Object(vec![
                                ("at".to_string(), Value::UInt(f.at)),
                                ("node".to_string(), Value::UInt(f.node as u64)),
                                ("dir".to_string(), Value::Str(dir_name(f.dir).into())),
                                ("up".to_string(), Value::Bool(f.up)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        // Like faults: emitted only when non-empty, so policy-free
        // envelopes stay byte-identical to the historic format.
        if !self.policy.is_empty() {
            fields.push((
                "policy".to_string(),
                Value::Array(self.policy.iter().map(rule_to_value).collect()),
            ));
        }
        if let Some(n) = self.profile_circuits {
            fields.push(("profile_circuits".to_string(), Value::UInt(n as u64)));
        }
        // The checkpoint and trace-export paths are deliberately NOT
        // echoed: they are host-local runtime plumbing, and a
        // checkpointed (or trace-exporting) run's result envelope must
        // stay byte-identical to the continuous run it reproduces.
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_spec_builds_and_runs() {
        let spec = ScenarioSpec::synthetic(
            BackendKind::HybridTdmVc4,
            4,
            TrafficPattern::Transpose,
            0.1,
            PhaseConfig::quick(),
            3,
        );
        let mut fabric = spec.build_fabric().unwrap();
        let mut source = spec.build_source().unwrap();
        let r = noc_traffic::run_phases(fabric.as_mut(), &mut source, spec.phases);
        assert!(r.stats.packets_delivered > 20);
        assert_eq!(
            fabric.active_slots(),
            Some(128),
            "synthetic TDM: fixed tables"
        );
    }

    #[test]
    fn json_round_trip_of_a_full_spec() {
        let specs = ScenarioSpec::parse(
            r#"{
                "backend": "HybridTdmVct",
                "mesh": 8,
                "pattern": "TOR",
                "rate": 0.3,
                "phases": {"warmup_cycles": 100, "measure_cycles": 1000},
                "seed": 42,
                "slot_capacity": 64
            }"#,
        )
        .unwrap();
        assert_eq!(specs.len(), 1);
        let s = &specs[0];
        assert_eq!(s.backend, BackendKind::HybridTdmVct);
        assert_eq!(s.mesh, 8);
        assert_eq!(
            s.traffic,
            TrafficSpec::Synthetic {
                pattern: TrafficPattern::Tornado,
                rate: 0.3
            }
        );
        assert_eq!(s.phases.warmup_cycles, 100);
        assert_eq!(s.phases.measure_cycles, 1_000);
        // Unset phase fields keep the defaults.
        assert_eq!(s.phases.drain_cycles, PhaseConfig::default().drain_cycles);
        assert_eq!(s.seed, 42);
        assert_eq!(s.slot_capacity, Some(64));
    }

    /// Parse a 4×4 TDM-VC4 TR spec with `phases` and return the error.
    fn phases_error(phases: &str) -> String {
        let text = format!(
            r#"{{"backend": "HybridTdmVc4", "mesh": 4, "pattern": "TR",
                "rate": 0.1, "phases": {phases}}}"#
        );
        match ScenarioSpec::parse(&text) {
            Err(ScenarioError::Parse(e)) => e,
            other => panic!("{phases}: expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn zero_measure_packets_is_rejected() {
        let e = phases_error(r#"{"measure_packets": 0}"#);
        assert!(e.contains("measure_packets"), "{e}");
    }

    #[test]
    fn zero_measure_cycles_is_rejected() {
        let e = phases_error(r#"{"warmup_cycles": 100, "measure_cycles": 0}"#);
        assert!(e.contains("measure_cycles"), "{e}");
    }

    #[test]
    fn serialized_echo_round_trips_as_scenario_input() {
        // Result envelopes echo specs with traffic nested under
        // "traffic"; that form must parse back to the identical specs.
        let specs = vec![
            ScenarioSpec::synthetic(
                BackendKind::HybridTdmVct,
                6,
                TrafficPattern::Transpose,
                0.2,
                PhaseConfig::quick(),
                17,
            ),
            ScenarioSpec::hetero(
                BackendKind::HybridTdmHopVct,
                "SWIM",
                "STO",
                PhaseConfig::pure_cycles(500, 2_500, 2_000),
                5,
            ),
        ];
        let text = serde_json::to_string_pretty(&specs).expect("serializable");
        let parsed = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(parsed, specs);
    }

    #[test]
    fn topology_field_parses_and_round_trips() {
        let specs = ScenarioSpec::parse(
            r#"[
                {"backend": "PacketVc4", "mesh": 4, "topology": "torus",
                 "pattern": "UR", "rate": 0.1, "quick": true},
                {"backend": "HybridTdmVc4", "mesh": 4, "topology": "cmesh",
                 "concentration": 2, "pattern": "UR", "rate": 0.1, "quick": true}
            ]"#,
        )
        .unwrap();
        assert_eq!(specs[0].topology, TopologyKind::Torus2D);
        assert_eq!(specs[0].concentration, 1);
        assert!(specs[0].topo().is_torus());
        assert_eq!(specs[1].topology, TopologyKind::CMesh);
        assert_eq!(specs[1].concentration, 2);
        assert_eq!(specs[1].topo().clients(), 32);
        // Echoes parse back to the identical specs.
        let text = serde_json::to_string_pretty(&specs).expect("serializable");
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), specs);
        // Both build and run.
        for spec in &specs {
            let mut fabric = spec.build_fabric().unwrap();
            let mut source = spec.build_source().unwrap();
            let r = noc_traffic::run_phases(fabric.as_mut(), &mut source, spec.phases);
            assert!(r.stats.packets_delivered > 0, "{:?}", spec.topology);
        }
    }

    #[test]
    fn cmesh_concentration_defaults_to_four() {
        let specs = ScenarioSpec::parse(
            r#"{"backend": "PacketVc4", "mesh": 4, "topology": "cmesh",
                "pattern": "UR", "rate": 0.1}"#,
        )
        .unwrap();
        assert_eq!(specs[0].concentration, 4);
        assert_eq!(specs[0].topo().clients(), 64);
    }

    #[test]
    fn default_topology_keeps_the_legacy_echo_format() {
        // Plain-mesh specs must serialize without the topology fields, so
        // existing result envelopes stay byte-identical.
        let spec = ScenarioSpec::synthetic(
            BackendKind::PacketVc4,
            6,
            TrafficPattern::UniformRandom,
            0.2,
            PhaseConfig::quick(),
            17,
        );
        let Value::Object(fields) = spec.to_value() else {
            panic!("not an object")
        };
        assert!(fields.iter().all(|(n, _)| n != "topology"));
        assert!(fields.iter().all(|(n, _)| n != "concentration"));
    }

    #[test]
    fn torus_rejects_gating_backends_and_stray_concentration() {
        for backend in ["PacketVct", "HybridTdmVct", "HybridTdmHopVct"] {
            let e = ScenarioSpec::parse(&format!(
                r#"{{"backend": "{backend}", "mesh": 4, "topology": "torus",
                    "pattern": "UR", "rate": 0.1}}"#
            ))
            .unwrap_err();
            assert!(e.to_string().contains("gating"), "{e}");
        }
        let e = ScenarioSpec::parse(
            r#"{"backend": "PacketVc4", "mesh": 4, "concentration": 2,
                "pattern": "UR", "rate": 0.1}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("cmesh"), "{e}");
        let e = ScenarioSpec::parse(
            r#"{"backend": "PacketVc4", "topology": "ring",
                "pattern": "UR", "rate": 0.1}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("topology"), "{e}");
        let e = ScenarioSpec::parse(
            r#"{"backend": "PacketVc4", "cpu": "CANNEAL", "gpu": "STO",
                "topology": "torus"}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("6x6"), "{e}");
    }

    #[test]
    fn fault_schedule_parses_validates_and_round_trips() {
        let specs = ScenarioSpec::parse(
            r#"{"backend": "HybridTdmVc4", "mesh": 4, "pattern": "TR",
                "rate": 0.15, "quick": true,
                "faults": [
                    {"at": 500, "node": 5, "dir": "east"},
                    {"at": 900, "node": 5, "dir": "east", "up": true}
                ]}"#,
        )
        .unwrap();
        let s = &specs[0];
        assert_eq!(
            s.faults,
            vec![
                FaultEvent {
                    at: 500,
                    node: 5,
                    dir: Direction::East,
                    up: false
                },
                FaultEvent {
                    at: 900,
                    node: 5,
                    dir: Direction::East,
                    up: true
                },
            ]
        );
        // Echoes parse back to the identical spec.
        let text = serde_json::to_string_pretty(&specs).expect("serializable");
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), specs);
        // The torus wrap link off the open-mesh edge is valid on a torus.
        ScenarioSpec::parse(
            r#"{"backend": "PacketVc4", "mesh": 4, "topology": "torus",
                "pattern": "UR", "rate": 0.1,
                "faults": [{"at": 10, "node": 0, "dir": "west"}]}"#,
        )
        .unwrap();
    }

    #[test]
    fn invalid_fault_schedules_are_rejected_with_context() {
        for (text, needle) in [
            // Off the edge of an open mesh.
            (
                r#"{"backend": "PacketVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "faults": [{"at": 10, "node": 0, "dir": "west"}]}"#,
                "non-existent link",
            ),
            // Router index out of range.
            (
                r#"{"backend": "PacketVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "faults": [{"at": 10, "node": 99, "dir": "east"}]}"#,
                "non-existent link",
            ),
            // VC power gating cannot reroute.
            (
                r#"{"backend": "HybridTdmVct", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "faults": [{"at": 10, "node": 5, "dir": "east"}]}"#,
                "power-gating",
            ),
            // Neither can the SDM hybrid.
            (
                r#"{"backend": "HybridSdmVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "faults": [{"at": 10, "node": 5, "dir": "east"}]}"#,
                "reroute",
            ),
            // Hetero runs own their fabric elsewhere.
            (
                r#"{"backend": "HybridTdmVc4", "cpu": "CANNEAL", "gpu": "STO",
                    "faults": [{"at": 10, "node": 5, "dir": "east"}]}"#,
                "synthetic",
            ),
            (
                r#"{"backend": "PacketVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "faults": [{"at": 10, "node": 5, "dir": "up"}]}"#,
                "north",
            ),
            (
                r#"{"backend": "PacketVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "faults": [{"at": 10, "node": 5, "dir": "east", "boom": 1}]}"#,
                "boom",
            ),
            (
                r#"{"backend": "PacketVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "faults": {"at": 10}}"#,
                "array",
            ),
        ] {
            let e = ScenarioSpec::parse(text).unwrap_err();
            assert!(
                matches!(e, ScenarioError::Fault(_)),
                "expected a Fault error, got {e}"
            );
            assert!(
                e.to_string().contains(needle),
                "error {e} should mention {needle}"
            );
        }
    }

    #[test]
    fn checkpoint_fields_parse_and_round_trip() {
        let specs = ScenarioSpec::parse(
            r#"{"backend": "HybridTdmVc4", "mesh": 4, "pattern": "UR",
                "rate": 0.1, "checkpoint_from": "warm.ckpt"}"#,
        )
        .unwrap();
        assert_eq!(specs[0].checkpoint_from.as_deref(), Some("warm.ckpt"));
        assert_eq!(specs[0].checkpoint_out, None);
        // Checkpoint paths are runtime plumbing: the echo drops them, so
        // a checkpointed run's envelope matches the continuous run's.
        let text = serde_json::to_string_pretty(&specs).expect("serializable");
        assert!(!text.contains("checkpoint_from"), "path leaked: {text}");
        let back = ScenarioSpec::parse(&text).unwrap();
        let mut scrubbed = specs.clone();
        scrubbed[0].checkpoint_from = None;
        assert_eq!(back, scrubbed);

        for (text, needle) in [
            (
                r#"{"backend": "PacketVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "checkpoint_out": "a", "checkpoint_from": "b"}"#,
                "not both",
            ),
            (
                r#"{"backend": "PacketVc4", "cpu": "CANNEAL", "gpu": "STO",
                    "checkpoint_out": "a"}"#,
                "synthetic",
            ),
        ] {
            let e = ScenarioSpec::parse(text).unwrap_err();
            assert!(
                matches!(e, ScenarioError::Checkpoint(_)),
                "expected a Checkpoint error, got {e}"
            );
            assert!(
                e.to_string().contains(needle),
                "error {e} should mention {needle}"
            );
        }
    }

    #[test]
    fn fault_free_specs_keep_the_legacy_echo_format() {
        let spec = ScenarioSpec::synthetic(
            BackendKind::PacketVc4,
            6,
            TrafficPattern::UniformRandom,
            0.2,
            PhaseConfig::quick(),
            17,
        );
        let Value::Object(fields) = spec.to_value() else {
            panic!("not an object")
        };
        for absent in ["faults", "checkpoint_out", "checkpoint_from"] {
            assert!(fields.iter().all(|(n, _)| n != absent), "{absent} leaked");
        }
    }

    #[test]
    fn nested_and_flat_traffic_cannot_be_mixed() {
        let err = ScenarioSpec::parse(
            r#"{"backend": "PacketVc4", "rate": 0.1,
                "traffic": {"pattern": "UR", "rate": 0.1}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("not both"), "{err}");
    }

    #[test]
    fn hetero_spec_and_array_form() {
        let specs = ScenarioSpec::parse(
            r#"[
                {"backend": "PacketVc4", "cpu": "CANNEAL", "gpu": "STO", "quick": true},
                {"backend": "HybridTdmHopVct", "cpu": "CANNEAL", "gpu": "STO", "quick": true}
            ]"#,
        )
        .unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].mesh, 6);
        assert!(matches!(&specs[0].traffic, TrafficSpec::Hetero { cpu, .. } if cpu == "CANNEAL"));
        // Hetero quick phases are pure cycle counts.
        assert_eq!(specs[0].phases.warmup_packets, 0);
        assert_eq!(specs[0].phases.measure_packets, u64::MAX);
        assert_eq!(specs[0].phases.measure_cycles, 6_000);
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (text, needle) in [
            (r#"{"mesh": 4, "pattern": "UR", "rate": 0.1}"#, "backend"),
            (r#"{"backend": "PacketVc4"}"#, "pattern"),
            (
                r#"{"backend": "Nope", "pattern": "UR", "rate": 0.1}"#,
                "unknown backend",
            ),
            (
                r#"{"backend": "PacketVc4", "pattern": "XX", "rate": 0.1}"#,
                "pattern",
            ),
            (
                r#"{"backend": "PacketVc4", "pattern": "UR", "rate": 0.1, "bogus": 1}"#,
                "bogus",
            ),
            (
                r#"{"backend": "PacketVc4", "cpu": "CANNEAL", "gpu": "STO", "mesh": 8}"#,
                "6x6",
            ),
            (
                r#"{"backend": "PacketVc4", "pattern": "HS", "rate": 0.1}"#,
                "hotspots",
            ),
        ] {
            let e = ScenarioSpec::parse(text).unwrap_err();
            assert!(
                e.to_string()
                    .to_lowercase()
                    .contains(&needle.to_lowercase()),
                "error {e} should mention {needle}"
            );
        }
    }

    fn tiny_trace() -> Arc<PacketTrace> {
        use noc_workload::TraceRecord;
        let mut t = PacketTrace::new(16);
        t.records = vec![
            TraceRecord {
                cycle: 0,
                src: 0,
                dst: 15,
                class: noc_workload::CLASS_CS,
                size: 4,
            },
            TraceRecord {
                cycle: 3,
                src: 5,
                dst: 10,
                class: noc_workload::CLASS_PS,
                size: 4,
            },
        ];
        t.validate().expect("valid trace");
        Arc::new(t)
    }

    #[test]
    fn trace_spec_parses_from_file_and_echoes_detached() {
        let trace = tiny_trace();
        let dir = std::env::temp_dir().join("noc-spec-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.trace");
        std::fs::write(&path, trace.to_binary()).unwrap();
        let specs = ScenarioSpec::parse(&format!(
            r#"{{"backend": "HybridTdmVc4", "mesh": 4, "quick": true,
                "workload": {{"mode": "trace", "path": {path:?}}}}}"#
        ))
        .unwrap();
        let s = &specs[0];
        assert_eq!(s.traffic, TrafficSpec::trace(Arc::clone(&trace)));
        let TrafficSpec::Trace {
            trace: Some(loaded),
            ..
        } = &s.traffic
        else {
            panic!("trace not loaded")
        };
        assert_eq!(**loaded, *trace);
        // The echo carries the content hash, never the path, and parses
        // back as a detached spec that compares equal.
        let text = serde_json::to_string_pretty(&specs).expect("serializable");
        assert!(!text.contains("tiny.trace"), "path leaked: {text}");
        assert!(text.contains("\"mode\": \"trace\""), "{text}");
        let back = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(back, specs);
        assert!(matches!(
            &back[0].traffic,
            TrafficSpec::Trace { trace: None, .. }
        ));
        // A declared sha256 alongside the path is verified.
        let e = ScenarioSpec::parse(&format!(
            r#"{{"backend": "HybridTdmVc4", "mesh": 4,
                "workload": {{"path": {path:?}, "sha256": "{}"}}}}"#,
            "0".repeat(64)
        ))
        .unwrap_err();
        assert!(e.to_string().contains("hash"), "{e}");
    }

    #[test]
    fn trace_specs_reject_node_count_mismatch_and_bad_forms() {
        let trace = tiny_trace(); // 16 nodes
        let dir = std::env::temp_dir().join("noc-spec-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny2.trace");
        std::fs::write(&path, trace.to_binary()).unwrap();
        // 6x6 topology vs a 16-node trace.
        let e = ScenarioSpec::parse(&format!(
            r#"{{"backend": "HybridTdmVc4", "mesh": 6,
                "workload": {{"mode": "trace", "path": {path:?}}}}}"#
        ))
        .unwrap_err();
        assert!(e.to_string().contains("16 nodes"), "{e}");
        for (text, needle) in [
            (
                r#"{"backend": "HybridTdmVc4", "mesh": 4,
                    "workload": {"mode": "trace"}}"#
                    .to_string(),
                "path",
            ),
            (
                r#"{"backend": "HybridTdmVc4", "mesh": 4,
                    "workload": {"mode": "trace", "pattern": "UR", "rate": 0.1}}"#
                    .to_string(),
                "pattern",
            ),
            (
                r#"{"backend": "HybridTdmVc4", "mesh": 4,
                    "workload": {"mode": "trace", "sha256": "zz"}}"#
                    .to_string(),
                "hex",
            ),
            (
                format!(
                    r#"{{"backend": "HybridTdmVc4", "mesh": 4,
                        "traffic": {{"pattern": "UR", "rate": 0.1}},
                        "workload": {{"path": {path:?}}}}}"#
                ),
                "not both",
            ),
        ] {
            let e = ScenarioSpec::parse(&text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "{e} should mention {needle}"
            );
        }
    }

    #[test]
    fn policy_table_parses_and_round_trips() {
        let specs = ScenarioSpec::parse(
            r#"{"backend": "HybridTdmVc4", "mesh": 4, "pattern": "UR",
                "rate": 0.2, "quick": true,
                "policy": [
                    {"match": {"src": [0, 1], "class": "cs"},
                     "action": {"scale": 0.5}},
                    {"match": {"region": [0, 0, 1, 1]},
                     "action": {"drop": true}},
                    {"match": {"dst": [15]},
                     "action": {"cs_eligible": false, "redirect": 3}},
                    {"action": {}}
                ]}"#,
        )
        .unwrap();
        let s = &specs[0];
        assert_eq!(s.policy.len(), 4);
        assert_eq!(s.policy[0].src.as_deref(), Some(&[0u32, 1][..]));
        assert_eq!(s.policy[0].class, Some(ClassMatch::Cs));
        assert_eq!(s.policy[0].action.scale, Some(0.5));
        assert_eq!(
            s.policy[1].region,
            Some(Region {
                x0: 0,
                y0: 0,
                x1: 1,
                y1: 1
            })
        );
        assert!(s.policy[1].action.drop);
        assert_eq!(s.policy[2].action.cs_eligible, Some(false));
        assert_eq!(s.policy[2].action.redirect, Some(3));
        assert_eq!(s.policy[3], RuleSpec::default());
        // Echo round-trips exactly.
        let text = serde_json::to_string_pretty(&specs).expect("serializable");
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), specs);
    }

    #[test]
    fn policy_and_export_misuse_is_rejected_with_context() {
        for (text, needle) in [
            (
                r#"{"backend": "HybridTdmVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "policy": [{"action": {"warp": 9}}]}"#,
                "warp",
            ),
            (
                r#"{"backend": "HybridTdmVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "policy": [{"match": {"speed": 1}, "action": {}}]}"#,
                "speed",
            ),
            (
                r#"{"backend": "HybridTdmVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "policy": [{"match": {"class": "warp"}, "action": {}}]}"#,
                "class",
            ),
            (
                r#"{"backend": "HybridTdmVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "policy": [{"match": {"region": [1, 2]}, "action": {}}]}"#,
                "region",
            ),
            (
                r#"{"backend": "HybridTdmVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "policy": [{"match": {}}]}"#,
                "action",
            ),
            (
                r#"{"backend": "HybridTdmVc4", "cpu": "CANNEAL", "gpu": "STO",
                    "policy": [{"action": {}}]}"#,
                "synthetic and trace",
            ),
            (
                r#"{"backend": "HybridTdmVc4", "cpu": "CANNEAL", "gpu": "STO",
                    "trace_export": "x.trace"}"#,
                "synthetic and trace",
            ),
            (
                r#"{"backend": "HybridTdmVc4", "mesh": 4, "pattern": "UR", "rate": 0.1,
                    "trace_export": "x.trace", "checkpoint_from": "warm.ckpt"}"#,
                "checkpoint",
            ),
        ] {
            let e = ScenarioSpec::parse(text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "{e} should mention {needle}"
            );
        }
    }

    #[test]
    fn new_runtime_fields_keep_the_legacy_echo_format() {
        // A spec with profile_circuits and trace_export set: only
        // profile_circuits (a result-shaping parameter) is echoed.
        let mut spec = ScenarioSpec::synthetic(
            BackendKind::PacketVc4,
            6,
            TrafficPattern::UniformRandom,
            0.2,
            PhaseConfig::quick(),
            17,
        );
        spec.profile_circuits = Some(8);
        spec.trace_export = Some("secret-host-path.trace".into());
        let text = serde_json::to_string(&spec.to_value()).unwrap();
        assert!(text.contains("profile_circuits"), "{text}");
        assert!(!text.contains("secret-host-path"), "{text}");
        assert!(
            !text.contains("policy"),
            "empty table must not echo: {text}"
        );
        // And the echo parses back (trace_export scrubbed, like the
        // checkpoint paths).
        let back = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(back[0].profile_circuits, Some(8));
        assert_eq!(back[0].trace_export, None);
    }

    #[test]
    fn spec_serializes_to_self_describing_echo() {
        let spec = ScenarioSpec::synthetic(
            BackendKind::PacketVc4,
            6,
            TrafficPattern::UniformRandom,
            0.2,
            PhaseConfig::quick(),
            17,
        );
        let Value::Object(fields) = spec.to_value() else {
            panic!("not an object")
        };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(get("backend"), Some(Value::Str("PacketVc4".into())));
        assert_eq!(get("seed"), Some(Value::UInt(17)));
        let Some(Value::Object(tr)) = get("traffic") else {
            panic!("traffic")
        };
        assert!(tr.contains(&("pattern".to_string(), Value::Str("UR".into()))));
    }
}
