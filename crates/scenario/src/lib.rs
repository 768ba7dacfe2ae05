//! # noc-scenario — backend registry and declarative experiment scenarios
//!
//! The single seam between "what the paper evaluates" and "how it runs":
//!
//! * [`backend`] — [`BackendKind`], the one registry of every switching
//!   backend (collapsing the old per-crate `SynthKind`/`NetKind` enums),
//!   with `Result`-based configuration builders and [`build_fabric`]
//!   mapping a kind to a boxed [`noc_sim::Fabric`];
//! * [`spec`] — [`ScenarioSpec`], a declarative scenario (backend, mesh,
//!   traffic, phases, seed, host threading) loadable from JSON and
//!   serialisable back into result files;
//! * [`envelope`] — the shared `--json` result envelope
//!   ([`SCHEMA_VERSION`] + scenario echo);
//! * [`checkpoint`] — warm-up checkpoint blobs ([`Checkpoint`]): a spec
//!   echo + source replay counters + framed [`noc_sim::FabricSnapshot`],
//!   behind the `--checkpoint-out`/`--checkpoint-from` flags;
//! * [`json`] — the in-tree JSON reader (the vendored `serde` is
//!   serialise-only);
//! * [`cli`] — the `--quick`/`--json`/`--scenario` conventions shared by
//!   the experiment binaries.

pub mod backend;
pub mod cache_key;
pub mod checkpoint;
pub mod cli;
pub mod envelope;
pub mod json;
pub mod source;
pub mod spec;

pub use backend::{
    build_fabric, hetero_tdm_config, slot_capacity_for, synthetic_sdm_config, synthetic_tdm_config,
    BackendKind, ScenarioError, Tuning,
};
pub use cache_key::{
    canonical_spec_json, canonicalize, code_version, result_key, warmup_key, CacheKey,
};
pub use checkpoint::{Checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use cli::{
    check_cli_args, checkpoint_from_flag, checkpoint_out_flag, json_flag, metrics_window_flag,
    profile_circuits_flag, quick_flag, scenario_flag, scenario_specs_from_cli, sweep_threads_flag,
    telemetry_from_cli, trace_events_flag, trace_export_flag, trace_in_flag, trace_out_flag,
    trace_sample_flag,
};
pub use envelope::{result_envelope, result_envelope_with_telemetry, write_json, SCHEMA_VERSION};
pub use json::Json;
pub use source::{build_workload, SpecSource};
pub use spec::{dir_name, parse_pattern, ScenarioSpec, TrafficSpec};
