//! # noc-sdm — the SDM-based hybrid-switched baseline (Jerger et al. \[5\])
//!
//! Reimplemented from its description in the paper: every link is
//! physically partitioned into `P` planes (default 4 × 4 B for a 16 B
//! channel). A circuit-switched connection claims one plane end-to-end;
//! packet-switched packets are *forced onto a single plane* even when the
//! others are idle, so each 16 B flit serialises into `P` phits and
//! consecutive flits of a packet are spaced `P` cycles apart on every link
//! (§I: "an SDM network serializes packets … resulting in packet
//! serialization delay and intra-router contentions").
//!
//! Modelling choices (documented in DESIGN.md):
//!
//! * the router is the canonical VC pipeline every backend shares
//!   (`noc_sim::PsPipeline`, round-robin separable VC and switch
//!   allocation); SDM only adds the output side — planes, per-plane
//!   circuits and the circuit bypass — and withholds from switch
//!   allocation an input VC whose packet finds no free plane;
//! * phit-level cut-through is modelled at flit granularity: a flit departs
//!   a router immediately (same pipeline stages as the canonical router),
//!   but *occupies its plane for `P` cycles*, which reproduces both the
//!   `P`-cycle inter-flit spacing and the ≤ `P` concurrent packets per
//!   link;
//! * circuit-switched flits bypass the pipeline (2 cycles per hop like any
//!   pre-configured crossbar) and are injected `P` cycles apart at the
//!   source — no time-slot wait, which is exactly why SDM wins on latency
//!   at low load and loses on throughput at high load (§IV-B);
//! * plane 0 is reserved for packet-switched traffic, so at most `P−1`
//!   circuits exist per link — the path-count ceiling the paper contrasts
//!   with TDM's "theoretically unlimited" slots.

pub mod config;
pub mod node;
pub mod router;

pub use config::SdmConfig;
pub use node::SdmNode;
pub use router::SdmRouter;
