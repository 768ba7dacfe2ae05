//! Packets, flits and the path-configuration message vocabulary.
//!
//! The paper's routers exchange three kinds of traffic:
//!
//! * **data packets** — 5-flit packet-switched packets (a 64 B cache line in
//!   16 B flits plus a header flit) or 4-flit circuit-switched packets (the
//!   header is not needed on a reserved path);
//! * **configuration packets** — single-flit `setup` / `teardown` / `ack`
//!   messages that manage circuit-switched paths and always travel through
//!   the packet-switched network (§II-B);
//! * **circuit-switched flits** — flits that follow a reserved path without
//!   buffering or routing.
//!
//! [`Flit`] is plain-old-data: 32 bytes, `Copy`, no pointers. Pipeline
//! stages, wire ring buffers, NIC queues and CS latches move flits by
//! memcpy. A configuration message is one flit and carries its whole
//! `setup`/`teardown`/`ack` payload in it: the path id takes the 8 bytes
//! a data flit uses for its creation cycle, and the slot, duration and
//! message tag take 4 more (DESIGN.md §12 has the byte table).

use crate::geometry::{NodeId, Port};
use crate::Cycle;

/// Unique identifier of a packet within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl std::fmt::Debug for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Message class, which selects the routing algorithm (Table I: minimal
/// adaptive routing for configuration packets, X-Y for everything else).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Ordinary data traffic.
    Data,
    /// Path-configuration traffic (`setup`/`teardown`/`ack`).
    Config,
}

/// How a packet traverses the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Switching {
    /// Buffered/routed at every hop.
    Packet,
    /// Follows a reserved path (TDM slots or an SDM plane).
    Circuit,
}

/// Identification of a circuit-switched path reservation.
///
/// Carried by `setup`, `teardown` and `ack` messages. `slot` is interpreted
/// by the switching scheme: the initial time-slot for TDM, the plane index
/// for SDM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SetupInfo {
    /// Source node requesting the path.
    pub src: NodeId,
    /// Destination node of the path.
    pub dst: NodeId,
    /// Initial time-slot (TDM) or plane id (SDM) at the *current* router.
    pub slot: u16,
    /// Number of consecutive slots reserved per period (§II-B: 4 data slots,
    /// +1 header slot when vicinity-sharing is enabled).
    pub duration: u8,
    /// Unique id of this path attempt (lets `teardown` find exactly the
    /// entries its `setup` created).
    pub path_id: u64,
}

/// The three configuration message types of §II-B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigKind {
    /// Create a circuit-switched connection.
    Setup(SetupInfo),
    /// Destroy an existing (possibly partially constructed) connection.
    Teardown(SetupInfo),
    /// Setup success/failure notification travelling back to the source.
    Ack { info: SetupInfo, success: bool },
}

impl ConfigKind {
    pub fn info(&self) -> &SetupInfo {
        match self {
            ConfigKind::Setup(i) | ConfigKind::Teardown(i) => i,
            ConfigKind::Ack { info, .. } => info,
        }
    }
}

/// A packet, as created by a traffic source and handed to a NIC.
#[derive(Clone, Debug)]
pub struct Packet {
    pub id: PacketId,
    pub src: NodeId,
    pub dst: NodeId,
    /// Number of flits (Table I: 1 configuration, 4 circuit-switched,
    /// 5 packet-switched or vicinity-shared circuit-switched).
    pub len_flits: u8,
    pub class: MsgClass,
    /// Cycle the packet was created at the source (queueing delay at the NIC
    /// counts toward its latency, as in open-loop measurement).
    pub created: Cycle,
    /// Configuration payload, present iff `class == Config`.
    pub config: Option<ConfigKind>,
    /// Set when the packet's *measured* latency should be recorded (packets
    /// created during warm-up or drain phases are excluded).
    pub measured: bool,
    /// Whether the source may circuit-switch this message. The paper's
    /// heterogeneous policy packet-switches all CPU traffic and only
    /// hybrid-switches GPU messages with sufficient warp slack (§V-A2).
    pub cs_eligible: bool,
}

impl Packet {
    /// A data packet of `len_flits` flits.
    pub fn data(id: PacketId, src: NodeId, dst: NodeId, len_flits: u8, created: Cycle) -> Self {
        Packet {
            id,
            src,
            dst,
            len_flits,
            class: MsgClass::Data,
            created,
            config: None,
            measured: true,
            cs_eligible: true,
        }
    }

    /// A single-flit configuration packet.
    pub fn config(
        id: PacketId,
        src: NodeId,
        dst: NodeId,
        kind: ConfigKind,
        created: Cycle,
    ) -> Self {
        Packet {
            id,
            src,
            dst,
            len_flits: 1,
            class: MsgClass::Config,
            created,
            config: Some(kind),
            measured: false,
            cs_eligible: false,
        }
    }
}

/// Position of a flit within its packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FlitKind {
    Head = 0,
    Body = 1,
    Tail = 2,
    /// Single-flit packet.
    HeadTail = 3,
}

impl FlitKind {
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// Kind of flit `seq` in a packet of `len` flits.
    pub fn for_seq(seq: u8, len: u8) -> FlitKind {
        match (seq, len) {
            (0, 1) => FlitKind::HeadTail,
            (0, _) => FlitKind::Head,
            (s, l) if s + 1 == l => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }
}

/// Sentinel for "no node" in the packed 16-bit node fields. [`Mesh::new`]
/// caps meshes at 65534 nodes so every real id fits below it.
///
/// [`Mesh::new`]: crate::topology::Topology::new
const NO_NODE: u16 = u16::MAX;

// Bit layout of `Flit::flags`.
const KIND_MASK: u8 = 0b0000_0011; // FlitKind discriminant
const CLASS_BIT: u8 = 1 << 2; // set = Config
const SWITCH_BIT: u8 = 1 << 3; // set = Circuit
const MEASURED_BIT: u8 = 1 << 4;
const FORCED_SHIFT: u32 = 5; // bits 5-7: forced port + 1, 0 = none

// Bit layout of `Flit::tag`, 0 on a flit without a payload.
const MSG_MASK: u8 = 0b0000_0011; // 0 setup, 1 teardown, 2 ack; 3 names no message
const SUCCESS_BIT: u8 = 1 << 2; // an ack's outcome
const PAYLOAD_BIT: u8 = 1 << 7; // set = the flit carries a configuration payload

/// A flow-control unit travelling on a link.
///
/// 32 bytes, `Copy`, niche-free: the `Option<NodeId>` / `Option<Port>`
/// fields are packed into a `u16` with a `NO_NODE` sentinel and three
/// bits of the flags byte, and a configuration payload shares the flit
/// with the fields a data flit uses (see [`Flit::config`]). The packed
/// fields are private; accessors present the `Option`-shaped API the
/// routers use.
#[derive(Clone, Copy, Debug)]
pub struct Flit {
    pub packet: PacketId,
    /// Creation cycle of the parent packet on a data flit; the path id on
    /// a configuration flit.
    word: u64,
    /// Payload slot (TDM) or plane (SDM); 0 without a payload.
    slot: u16,
    src: u16,
    dst: u16,
    /// Vicinity hop-off destination, `NO_NODE` when absent.
    true_dst: u16,
    /// An ack's circuit destination, `NO_NODE` on every other flit (a
    /// setup's or teardown's circuit is the flit's own `src`/`dst`).
    circuit_dst: u16,
    pub seq: u8,
    /// Virtual channel the flit currently occupies (packet-switched only;
    /// circuit-switched flits are never buffered).
    pub vc: u8,
    /// Hops traversed so far.
    pub hops: u8,
    /// Packed kind / class / switching / measured / forced-out.
    flags: u8,
    /// Payload duration; 0 without a payload.
    duration: u8,
    /// Packed payload presence / message / ack outcome.
    tag: u8,
}

const _: () = assert!(
    std::mem::size_of::<Flit>() <= 32,
    "Flit must stay a 32-byte POD (see DESIGN.md §12)"
);
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<Flit>();
    assert_copy::<Credit>();
    assert_copy::<ConfigKind>();
};

#[inline]
fn node16(n: NodeId) -> u16 {
    debug_assert!(n.0 < NO_NODE as u32, "NodeId exceeds packed-flit range");
    n.0 as u16
}

impl Flit {
    /// Build the `seq`-th flit of `packet`. The head flit of a
    /// configuration packet carries its payload.
    pub fn of_packet(packet: &Packet, seq: u8, switching: Switching) -> Flit {
        debug_assert!(seq < packet.len_flits);
        let kind = FlitKind::for_seq(seq, packet.len_flits);
        let mut flags = kind as u8;
        if packet.class == MsgClass::Config {
            flags |= CLASS_BIT;
        }
        if switching == Switching::Circuit {
            flags |= SWITCH_BIT;
        }
        if packet.measured {
            flags |= MEASURED_BIT;
        }
        let mut flit = Flit {
            packet: packet.id,
            word: packet.created,
            slot: 0,
            src: node16(packet.src),
            dst: node16(packet.dst),
            true_dst: NO_NODE,
            circuit_dst: NO_NODE,
            seq,
            vc: 0,
            hops: 0,
            flags,
            duration: 0,
            tag: 0,
        };
        if let Some(k) = packet.config {
            if kind.is_head() {
                flit.set_config(k);
            }
        }
        flit
    }

    #[inline]
    pub fn src(&self) -> NodeId {
        NodeId(self.src as u32)
    }

    #[inline]
    pub fn dst(&self) -> NodeId {
        NodeId(self.dst as u32)
    }

    #[inline]
    pub fn set_dst(&mut self, dst: NodeId) {
        self.dst = node16(dst);
    }

    /// Creation cycle of the parent packet, for latency accounting. Read
    /// on data flits only: a configuration flit holds its path id here.
    #[inline]
    pub fn created(&self) -> Cycle {
        debug_assert!(self.tag == 0, "a configuration flit has no creation cycle");
        self.word
    }

    /// The configuration payload on the head flit of a `setup`,
    /// `teardown` or `ack`; `None` on every other flit. A setup's or
    /// teardown's circuit runs from the flit's `src` to its `dst`; an ack
    /// travels back to the circuit's source, so its `dst` is the
    /// circuit's `src`.
    #[inline]
    pub fn config(&self) -> Option<ConfigKind> {
        if self.tag == 0 {
            return None;
        }
        let info = SetupInfo {
            src: self.src(),
            dst: self.dst(),
            slot: self.slot,
            duration: self.duration,
            path_id: self.word,
        };
        Some(match self.tag & MSG_MASK {
            0 => ConfigKind::Setup(info),
            1 => ConfigKind::Teardown(info),
            _ => ConfigKind::Ack {
                info: SetupInfo {
                    src: self.dst(),
                    dst: NodeId(self.circuit_dst as u32),
                    ..info
                },
                success: self.tag & SUCCESS_BIT != 0,
            },
        })
    }

    /// Write `kind` as this flit's payload (a forwarded TDM setup
    /// advances its slot this way). The payload's circuit must match the
    /// flit's endpoints as [`Flit::config`] reads them.
    pub fn set_config(&mut self, kind: ConfigKind) {
        let (info, msg, circuit_dst) = match kind {
            ConfigKind::Setup(i) => (i, 0, NO_NODE),
            ConfigKind::Teardown(i) => (i, 1, NO_NODE),
            ConfigKind::Ack { info, success } => {
                let msg = if success { 2 | SUCCESS_BIT } else { 2 };
                (info, msg, node16(info.dst))
            }
        };
        self.word = info.path_id;
        self.slot = info.slot;
        self.duration = info.duration;
        self.tag = PAYLOAD_BIT | msg;
        self.circuit_dst = circuit_dst;
        debug_assert_eq!(
            self.config(),
            Some(kind),
            "payload and flit endpoints disagree"
        );
    }

    #[inline]
    pub fn kind(&self) -> FlitKind {
        match self.flags & KIND_MASK {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            2 => FlitKind::Tail,
            _ => FlitKind::HeadTail,
        }
    }

    #[inline]
    pub fn class(&self) -> MsgClass {
        if self.flags & CLASS_BIT != 0 {
            MsgClass::Config
        } else {
            MsgClass::Data
        }
    }

    #[inline]
    pub fn switching(&self) -> Switching {
        if self.flags & SWITCH_BIT != 0 {
            Switching::Circuit
        } else {
            Switching::Packet
        }
    }

    #[inline]
    pub fn measured(&self) -> bool {
        self.flags & MEASURED_BIT != 0
    }

    /// Final destination after a vicinity-sharing hop-off. When a message
    /// rides a circuit reserved to `dst` but is really bound for a
    /// neighbour of `dst` (§III-A2), `dst` names the circuit endpoint and
    /// `true_dst` the real destination the endpoint must forward to.
    #[inline]
    pub fn true_dst(&self) -> Option<NodeId> {
        if self.true_dst == NO_NODE {
            None
        } else {
            Some(NodeId(self.true_dst as u32))
        }
    }

    #[inline]
    pub fn set_true_dst(&mut self, dst: Option<NodeId>) {
        self.true_dst = match dst {
            Some(n) => node16(n),
            None => NO_NODE,
        };
    }

    /// Route decision pre-computed by configuration-message processing:
    /// when a hybrid router reserves slots for a `setup` flit on arrival,
    /// the flit must later leave through exactly the reserved output port.
    /// Consumed (taken) by the route-computation stage.
    #[inline]
    pub fn forced_out(&self) -> Option<Port> {
        match self.flags >> FORCED_SHIFT {
            0 => None,
            p => Some(Port::from_index(p as usize - 1)),
        }
    }

    #[inline]
    pub fn set_forced_out(&mut self, port: Option<Port>) {
        let bits = match port {
            Some(p) => p.index() as u8 + 1,
            None => 0,
        };
        self.flags = (self.flags & !(0b111 << FORCED_SHIFT)) | (bits << FORCED_SHIFT);
    }

    #[inline]
    pub fn take_forced_out(&mut self) -> Option<Port> {
        let out = self.forced_out();
        self.flags &= !(0b111 << FORCED_SHIFT);
        out
    }

    /// The node this flit must be delivered to next: the vicinity hop-off
    /// point if set, otherwise the packet destination.
    #[inline]
    pub fn route_dst(&self) -> NodeId {
        self.true_dst().unwrap_or_else(|| self.dst())
    }
}

/// A credit returned upstream when a buffered flit leaves an input VC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Credit {
    pub vc: u8,
}

// ---------------------------------------------------------------------------
// Snapshot encodings (see DESIGN.md §14). Enum tags are explicit and
// stable; the packed `Flit` fields are written raw, so a snapshot is
// bit-faithful to the wire representation.

use crate::impl_snap;
use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

impl Snap for PacketId {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.0);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        Ok(PacketId(r.u64()?))
    }
}

impl Snap for MsgClass {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(match self {
            MsgClass::Data => 0,
            MsgClass::Config => 1,
        });
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(MsgClass::Data),
            1 => Ok(MsgClass::Config),
            _ => Err(SnapshotError::Corrupt("MsgClass tag")),
        }
    }
}

impl Snap for Switching {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(match self {
            Switching::Packet => 0,
            Switching::Circuit => 1,
        });
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(Switching::Packet),
            1 => Ok(Switching::Circuit),
            _ => Err(SnapshotError::Corrupt("Switching tag")),
        }
    }
}

impl_snap!(SetupInfo {
    src,
    dst,
    slot,
    duration,
    path_id
});

impl Snap for ConfigKind {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            ConfigKind::Setup(info) => {
                w.u8(0);
                info.save(w);
            }
            ConfigKind::Teardown(info) => {
                w.u8(1);
                info.save(w);
            }
            ConfigKind::Ack { info, success } => {
                w.u8(2);
                info.save(w);
                w.bool(*success);
            }
        }
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(ConfigKind::Setup(SetupInfo::load(r)?)),
            1 => Ok(ConfigKind::Teardown(SetupInfo::load(r)?)),
            2 => Ok(ConfigKind::Ack {
                info: SetupInfo::load(r)?,
                success: r.bool()?,
            }),
            _ => Err(SnapshotError::Corrupt("ConfigKind tag")),
        }
    }
}

impl_snap!(Packet {
    id,
    src,
    dst,
    len_flits,
    class,
    created,
    config,
    measured,
    cs_eligible
});

impl Snap for Flit {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.packet.0);
        w.u64(self.word);
        w.u16(self.slot);
        w.u16(self.src);
        w.u16(self.dst);
        w.u16(self.true_dst);
        w.u16(self.circuit_dst);
        w.u8(self.seq);
        w.u8(self.vc);
        w.u8(self.hops);
        w.u8(self.flags);
        w.u8(self.duration);
        w.u8(self.tag);
    }

    /// Refuses payload bits that name no message: a payload on a data or
    /// non-head flit, a message tag of 3, stray tag bits, an outcome or
    /// circuit destination on anything but an ack, or slot and duration
    /// bits on a flit without a payload.
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let f = Flit {
            packet: PacketId(r.u64()?),
            word: r.u64()?,
            slot: r.u16()?,
            src: r.u16()?,
            dst: r.u16()?,
            true_dst: r.u16()?,
            circuit_dst: r.u16()?,
            seq: r.u8()?,
            vc: r.u8()?,
            hops: r.u8()?,
            flags: r.u8()?,
            duration: r.u8()?,
            tag: r.u8()?,
        };
        if (f.flags >> FORCED_SHIFT) as usize > Port::COUNT {
            return Err(SnapshotError::Corrupt("flit forced-out port"));
        }
        let msg = f.tag & MSG_MASK;
        let ok = if f.tag == 0 {
            f.slot == 0 && f.duration == 0 && f.circuit_dst == NO_NODE
        } else {
            f.tag & !(MSG_MASK | SUCCESS_BIT) == PAYLOAD_BIT
                && msg != 3
                && (msg == 2 || f.tag & SUCCESS_BIT == 0)
                && (msg == 2) == (f.circuit_dst != NO_NODE)
                && f.class() == MsgClass::Config
                && f.kind().is_head()
        };
        if !ok {
            return Err(SnapshotError::Corrupt("flit payload"));
        }
        Ok(f)
    }
}

impl Snap for Credit {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(self.vc);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        Ok(Credit { vc: r.u8()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_kinds_for_lengths() {
        assert_eq!(FlitKind::for_seq(0, 1), FlitKind::HeadTail);
        assert_eq!(FlitKind::for_seq(0, 5), FlitKind::Head);
        assert_eq!(FlitKind::for_seq(2, 5), FlitKind::Body);
        assert_eq!(FlitKind::for_seq(4, 5), FlitKind::Tail);
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
    }

    #[test]
    fn packet_to_flits() {
        let p = Packet::data(PacketId(7), NodeId(0), NodeId(5), 5, 100);
        let flits: Vec<Flit> = (0..5)
            .map(|s| Flit::of_packet(&p, s, Switching::Packet))
            .collect();
        assert!(flits[0].kind().is_head());
        assert!(flits[4].kind().is_tail());
        assert!(flits
            .iter()
            .all(|f| f.packet == PacketId(7) && f.created() == 100));
        assert!(flits.iter().all(|f| f.config().is_none()));
    }

    fn snap_round_trip(f: &Flit) -> Result<Flit, SnapshotError> {
        let mut w = SnapshotWriter::new();
        f.save(&mut w);
        Flit::load(&mut SnapshotReader::new(&w.into_bytes()))
    }

    /// Every message kind survives `of_packet`, `config()` and a snapshot
    /// round trip at the edges of each payload field.
    #[test]
    fn config_payload_round_trips_through_flit_and_snapshot() {
        let (a, b, big) = (NodeId(3), NodeId(65_533), (65_533 << 32) | 0xFFFF_FFFF);
        for (slot, duration, path_id) in [(0, 4, 0), (u16::MAX, 5, big), (0, 5, big)] {
            let info = SetupInfo {
                src: a,
                dst: b,
                slot,
                duration,
                path_id,
            };
            // An ack travels from wherever the setup ended back to the
            // circuit's source.
            let ack = |success| ConfigKind::Ack { info, success };
            for (src, dst, kind) in [
                (a, b, ConfigKind::Setup(info)),
                (a, b, ConfigKind::Teardown(info)),
                (NodeId(7), a, ack(false)),
                (NodeId(7), a, ack(true)),
            ] {
                let p = Packet::config(PacketId(u64::MAX), src, dst, kind, 123);
                let f = Flit::of_packet(&p, 0, Switching::Packet);
                assert_eq!(
                    (f.kind(), f.class()),
                    (FlitKind::HeadTail, MsgClass::Config)
                );
                for f in [f, snap_round_trip(&f).expect("a valid payload decodes")] {
                    assert_eq!((f.config(), f.src(), f.dst()), (Some(kind), src, dst));
                }
            }
        }
    }

    #[test]
    fn decoder_refuses_payload_bits_that_name_no_message() {
        let data = Flit::of_packet(
            &Packet::data(PacketId(1), NodeId(0), NodeId(5), 5, 9),
            0,
            Switching::Packet,
        );
        let info = SetupInfo {
            src: NodeId(0),
            dst: NodeId(5),
            slot: 2,
            duration: 4,
            path_id: 11,
        };
        let p = Packet::config(
            PacketId(2),
            NodeId(0),
            NodeId(5),
            ConfigKind::Setup(info),
            9,
        );
        let setup = Flit::of_packet(&p, 0, Switching::Packet);
        assert!(snap_round_trip(&data).is_ok() && snap_round_trip(&setup).is_ok());
        type Edit = fn(&mut Flit);
        let edits: [(Flit, Edit); 8] = [
            // Payload bits on a data flit.
            (data, |f| f.tag = PAYLOAD_BIT),
            (data, |f| f.slot = 1),
            (data, |f| f.circuit_dst = 0),
            // A message tag of 3, an outcome or circuit destination on a
            // setup, stray tag bits, a payload on a body flit.
            (setup, |f| f.tag = PAYLOAD_BIT | 3),
            (setup, |f| f.tag |= SUCCESS_BIT),
            (setup, |f| f.circuit_dst = 0),
            (setup, |f| f.tag |= 1 << 5),
            (setup, |f| f.flags = (f.flags & !KIND_MASK) | 1),
        ];
        let refused = |mut f: Flit, edit: Edit| {
            edit(&mut f);
            snap_round_trip(&f).unwrap_err()
        };
        for (f, edit) in edits {
            assert_eq!(refused(f, edit), SnapshotError::Corrupt("flit payload"));
        }
        assert_eq!(
            refused(data, |f| f.flags |= 0b111 << FORCED_SHIFT),
            SnapshotError::Corrupt("flit forced-out port")
        );
    }

    #[test]
    fn config_kind_info_access() {
        let info = SetupInfo {
            src: NodeId(1),
            dst: NodeId(2),
            slot: 0,
            duration: 4,
            path_id: 9,
        };
        for k in [
            ConfigKind::Setup(info),
            ConfigKind::Teardown(info),
            ConfigKind::Ack {
                info,
                success: false,
            },
        ] {
            assert_eq!(k.info().path_id, 9);
        }
    }

    #[test]
    fn packed_fields_roundtrip() {
        let p = Packet::data(PacketId(3), NodeId(12), NodeId(40), 4, 77);
        let mut f = Flit::of_packet(&p, 0, Switching::Circuit);
        assert_eq!(f.src(), NodeId(12));
        assert_eq!(f.dst(), NodeId(40));
        assert_eq!(f.switching(), Switching::Circuit);
        assert_eq!(f.class(), MsgClass::Data);
        assert!(f.measured());
        assert_eq!(f.true_dst(), None);
        assert_eq!(f.forced_out(), None);

        for port in Port::ALL {
            f.set_forced_out(Some(port));
            assert_eq!(f.forced_out(), Some(port));
            // forced_out must not disturb its flag neighbours.
            assert_eq!(f.kind(), FlitKind::Head);
            assert!(f.measured());
        }
        assert_eq!(f.take_forced_out(), Some(Port::West));
        assert_eq!(f.forced_out(), None);

        f.set_true_dst(Some(NodeId(41)));
        assert_eq!(f.true_dst(), Some(NodeId(41)));
        f.set_true_dst(None);
        assert_eq!(f.true_dst(), None);

        f.set_dst(NodeId(2));
        assert_eq!(f.dst(), NodeId(2));
    }

    #[test]
    fn route_dst_honours_hop_off() {
        let p = Packet::data(PacketId(8), NodeId(1), NodeId(6), 5, 0);
        let mut f = Flit::of_packet(&p, 0, Switching::Circuit);
        // No hop-off: route to the packet destination.
        assert_eq!(f.route_dst(), NodeId(6));
        // Vicinity sharing: the circuit ends at 6 but the message is for 7;
        // routing must aim at the hop-off field, not the circuit endpoint.
        f.set_true_dst(Some(NodeId(7)));
        assert_eq!(f.route_dst(), NodeId(7));
    }
}
