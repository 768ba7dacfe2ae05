//! # noc-traffic — synthetic traffic patterns and open-loop drivers
//!
//! Implements the synthetic-workload methodology of §IV: uniform-random,
//! tornado and transpose patterns (after Dally & Towles / GOAL \[10\]),
//! Bernoulli packet sources parameterised in flits/node/cycle, and the
//! open-loop engine with warm-up, measurement and drain phases.

pub mod driver;
pub mod engine;
pub mod pattern;
pub mod source;

pub use driver::{PhaseConfig, RunResult};
pub use engine::{
    run_measurement, run_measurement_ctl, run_phases, run_warmup, run_warmup_ctl, FreeRun,
    RunControl, Workload,
};
pub use pattern::TrafficPattern;
pub use source::{PacketFactory, SyntheticSource};
