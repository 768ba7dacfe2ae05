//! # noc-hetero — heterogeneous CPU+GPU multicore traffic model
//!
//! The paper drives its NoC from a Simics/GEMS CPU simulator (SPEC OMP
//! 2001) plus GPGPU-Sim (CUDA/Rodinia kernels). Those toolchains and
//! workload binaries are unavailable, so this crate substitutes statistical
//! per-benchmark traffic models calibrated to everything the paper reports
//! about the workloads (see DESIGN.md §3):
//!
//! * [`floorplan`] — the Figure-7 36-tile layout: 8 CPU tiles, 8
//!   accelerator tiles, 16 shared-L2 bank tiles and 4 memory-controller
//!   tiles on a 6×6 mesh, extensible to larger meshes;
//! * [`workload`] — the 8 SPEC OMP CPU models and 7 GPU models with the
//!   Table III injection rates, many-to-few L2/MC locality, request/reply
//!   structure and an L2 miss path;
//! * [`slack`] — the warp-availability process behind the §V-A2
//!   circuit-switching decision ("we estimate the GPU message slack by
//!   referring to the number of available warps");
//! * [`speedup`] — the latency-sensitivity model that converts network
//!   latency deltas into CPU/GPU "speedup" (Figure 8b/8c);
//! * [`driver`] — per-mix experiment runner producing Figure 8/9 and
//!   Table III data for any network configuration.

pub mod config;
pub mod driver;
pub mod floorplan;
pub mod slack;
pub mod speedup;
pub mod workload;

pub use config::SystemConfig;
pub use driver::{mix_phases, run_mix, run_spec, MixResult};
pub use floorplan::{Floorplan, TileKind};
pub use slack::WarpSlack;
pub use workload::{
    cpu_bench, gpu_bench, CpuBench, GpuBench, HeteroWorkload, CPU_BENCHES, GPU_BENCHES,
};
