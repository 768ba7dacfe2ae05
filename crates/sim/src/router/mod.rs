//! Router microarchitecture.
//!
//! The packet-switched pipeline ([`PsPipeline`]) implements the canonical
//! virtual-channel wormhole router of Figure 2's left half: input buffers
//! organised as per-port VC FIFOs, route computation (X-Y for data,
//! west-first minimal-adaptive for configuration packets), separable
//! round-robin VC and switch allocation, and a crossbar with credit-based
//! flow control toward each neighbour.
//!
//! The TDM hybrid router (`tdm-noc`) reuses this pipeline and injects its
//! switching decisions through the [`HybridCtrl`] hook: each cycle the
//! pipeline asks whether an output port is free for packet-switched
//! traffic, reserved-but-idle (time-slot stealing permitted, §II-D) or
//! occupied by a circuit-switched flit. The SDM hybrid router (`noc-sdm`)
//! has its own plane-partitioned pipeline, built from the same [`VcCtl`]
//! tables and [`FlitRings`](crate::FlitRings).

mod gating;
mod packet;
mod pipeline;

pub use gating::{GatingConfig, GatingMetric, VcGatingController};
pub use packet::PacketRouter;
pub use pipeline::{OutMeta, PsPipeline, VcCtl, VcState};

use crate::geometry::Port;
use crate::Cycle;

/// Availability of an output port for packet-switched traffic this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PsOutput {
    /// Not reserved: packet-switched traffic may use it freely.
    Free,
    /// Reserved for a circuit this cycle, but no circuit-switched flit is
    /// arriving: a packet-switched flit may *steal* the slot (§II-D).
    ReservedIdle,
    /// A circuit-switched flit is using the crossbar output this cycle;
    /// packet-switched traffic must not be granted this port.
    Busy,
}

/// Hook through which a hybrid switching scheme constrains the
/// packet-switched pipeline.
pub trait HybridCtrl {
    /// State of output port `o` for packet-switched traffic at cycle `now`.
    fn ps_output_state(&self, now: Cycle, o: Port) -> PsOutput;

    /// Whether crossbar input `p` is taken by a circuit-switched flit this
    /// cycle: the input demultiplexer gives the CS latch priority, so no
    /// buffered packet-switched flit from that port may be granted.
    fn ps_input_blocked(&self, _now: Cycle, _p: Port) -> bool {
        false
    }
}

/// Control for a pure packet-switched router: every output is always free.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullCtrl;

impl HybridCtrl for NullCtrl {
    #[inline]
    fn ps_output_state(&self, _now: Cycle, _o: Port) -> PsOutput {
        PsOutput::Free
    }
}
