//! The snapshot seam: a versioned, deterministic byte encoding of all
//! mutable simulation state, plus the fault-injection vocabulary that
//! rides on it.
//!
//! # Codec
//!
//! Serialisation is a hand-rolled little-endian byte stream (the vendored
//! `serde` stand-in is serialise-only, so JSON round-tripping is not an
//! option). The rules are deliberately boring:
//!
//! * fixed-width integers are written little-endian, `usize` as `u64`;
//! * `f64` is written as its IEEE-754 bit pattern (`to_bits`);
//! * `bool` is one byte (0/1, anything else is corruption);
//! * sequences (`Vec`, `VecDeque`, `Box<[T]>`) are a `u64` length followed
//!   by the elements; arrays write elements only (the length is in the
//!   type);
//! * `Option<T>` is a presence byte then the payload;
//! * enums write a `u8` discriminant chosen by their manual impl.
//!
//! Nothing is self-describing: reader and writer must agree on the exact
//! field order, which is why every struct's encoding lives next to its
//! definition (the [`impl_snap!`] macro names the fields once) and why the
//! container format carries an explicit version. **Any change to a
//! snapshotted type's fields or field order must bump
//! [`SNAPSHOT_VERSION`]** — old snapshots are then rejected instead of
//! being misdecoded.
//!
//! # What is serialized vs reconstructed
//!
//! A snapshot stores state, once. Configuration (mesh shape, router
//! config, TDM/SDM config) is *not* in it: a snapshot is restored into a
//! freshly built fabric of the same configuration, and
//! [`crate::network::Network::restore`] verifies the shape matches.
//! Nor is anything a scan of the stored state derives — the harness's
//! occupancy, in-flight and power caches, the NIC's flit counts, the
//! router pipeline's occupancy counters and stage masks, the slot
//! tables' per-slot output masks and valid counts: each decoder rebuilds
//! them with the scan that defines them, so no stored copy can disagree
//! with its source. What decoders check is structure: geometry and
//! lengths against the built fabric ([`SnapshotError::Mismatch`]), and
//! state that must agree with other stored state, such as a pipeline's
//! VC allocations or two inputs holding one output in a slot
//! ([`SnapshotError::Corrupt`]).

use std::collections::VecDeque;
use std::fmt;

use crate::geometry::Direction;
use crate::Cycle;

/// Version tag embedded in every [`FabricSnapshot`]. Bump on any change
/// to any snapshotted type's encoding.
///
/// v2: `TdmNode` gained the circuit-plan `pinned` table.
/// v3: `SdmRouter` runs on `PsPipeline`: its state is the pipeline's,
/// then the planes, circuits, circuit flits, acks and owed credits.
/// v4: `RxTable` is written as its entry list (packet id, flit count).
/// v5: `NetStats` drops its per-class latency split and its
/// configuration-packet count, and `DeliveredPacket` its `class` and
/// `kind`.
/// v6: derived state is no longer written: the harness's occupancy,
/// in-flight, power and leakage caches and its down-link count, the
/// NIC's flit counts, its VC limit and its copy of the router's active
/// VC count, the pipeline's occupancy counters, and the slot tables'
/// output masks and valid counts. The NIC's `flits_injected` and the
/// pipeline's `waiting`/`active` counters are gone.
/// v7: a configuration payload rides in its flit. A flit writes its
/// creation cycle or path id, then its slot, four node fields (the
/// fourth an ack's circuit destination), its four bytes, the duration
/// and the message tag; the harness writes no payload arena.
pub const SNAPSHOT_VERSION: u32 = 7;

/// Magic prefix of the container format.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"NOCSNAP\x01";

/// Why a snapshot could not be produced or consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The backend (or a node model) does not implement the seam.
    Unsupported(&'static str),
    /// The byte stream ended early.
    Eof,
    /// The byte stream decoded to something impossible.
    Corrupt(&'static str),
    /// The container header carried an unknown version.
    Version(u32),
    /// The snapshot does not match the fabric it is being restored into.
    Mismatch(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Unsupported(what) => {
                write!(f, "snapshot unsupported: {what}")
            }
            SnapshotError::Eof => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::Version(v) => {
                write!(f, "snapshot version {v} (expected {SNAPSHOT_VERSION})")
            }
            SnapshotError::Mismatch(what) => {
                write!(f, "snapshot does not match this fabric: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Append-only encoder for the snapshot byte stream.
#[derive(Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// `Some(bytes so far)` for the sizing pass of
    /// [`FabricSnapshot::capture`]: bytes are counted, not stored.
    sized: Option<usize>,
}

impl SnapshotWriter {
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.sized.unwrap_or(self.buf.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        match &mut self.sized {
            Some(n) => *n += bytes.len(),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
}

/// Cursor-based decoder over a snapshot byte stream.
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt("usize overflow"))
    }

    /// A `usize` that will be used as an allocation size: bounded against
    /// the remaining input so corrupt lengths cannot OOM the process.
    pub fn seq_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapshotError::Corrupt("sequence length exceeds input"));
        }
        Ok(n)
    }

    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool out of range")),
        }
    }
}

/// A type with a deterministic snapshot encoding.
pub trait Snap: Sized {
    fn save(&self, w: &mut SnapshotWriter);
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError>;
}

macro_rules! snap_prim {
    ($($t:ty => $put:ident),* $(,)?) => {$(
        impl Snap for $t {
            #[inline]
            fn save(&self, w: &mut SnapshotWriter) {
                w.$put(*self);
            }
            #[inline]
            fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
                r.$put()
            }
        }
    )*};
}

snap_prim!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize, f64 => f64, bool => bool);

impl Snap for i64 {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        Ok(r.u64()? as i64)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            _ => Err(SnapshotError::Corrupt("Option tag")),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let n = r.seq_len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Box<[T]> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.len());
        for v in self.iter() {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        Ok(Vec::<T>::load(r)?.into_boxed_slice())
    }
}

impl<T: Snap + Default + Copy, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapshotWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let mut out = [T::default(); N];
        for slot in out.iter_mut() {
            *slot = T::load(r)?;
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// Implement [`Snap`] for a struct by listing its fields once, in
/// encoding order. Must be invoked in (or under) the module that owns the
/// struct so private fields resolve.
#[macro_export]
macro_rules! impl_snap {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::snapshot::Snap for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                $($crate::snapshot::Snap::save(&self.$field, w);)*
            }
            fn load(
                r: &mut $crate::snapshot::SnapshotReader,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                $(let $field = $crate::snapshot::Snap::load(r)?;)*
                Ok(Self { $($field),* })
            }
        }
    };
}

/// An opaque, versioned snapshot of one fabric's mutable state.
///
/// Layout: [`SNAPSHOT_MAGIC`] (8 bytes) · [`SNAPSHOT_VERSION`] (u32 LE) ·
/// payload. The payload encoding is owned by the backend that produced
/// it; a snapshot is only meaningful to a fabric built from the same
/// configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FabricSnapshot {
    bytes: Vec<u8>,
}

impl FabricSnapshot {
    /// Encode a fabric's state with `save` into one buffer of exactly the
    /// container's size: a sizing pass counts the payload, then header and
    /// payload are written once. A growing buffer would instead peak at
    /// about three times the payload (a doubling, then the copy behind the
    /// header), megabytes on a kilo-node fabric. `save` must write the same
    /// bytes both times; it reads the fabric through `&self`, so it does.
    pub fn capture(
        save: impl Fn(&mut SnapshotWriter) -> Result<(), SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        let mut sizing = SnapshotWriter {
            buf: Vec::new(),
            sized: Some(0),
        };
        save(&mut sizing)?;
        let len = 12 + sizing.len();
        let mut w = SnapshotWriter {
            buf: Vec::with_capacity(len),
            sized: None,
        };
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        save(&mut w)?;
        debug_assert_eq!(w.buf.len(), len, "sizing pass disagrees with the encode");
        Ok(FabricSnapshot { bytes: w.buf })
    }

    /// The full container (header + payload), e.g. for writing to disk.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Validate the header of `bytes` and wrap it.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        if bytes.len() < 12 {
            return Err(SnapshotError::Eof);
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::Corrupt("bad magic"));
        }
        let ver = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if ver != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version(ver));
        }
        Ok(FabricSnapshot { bytes })
    }

    /// A reader positioned at the start of the backend payload.
    pub fn payload(&self) -> SnapshotReader<'_> {
        SnapshotReader::new(&self.bytes[12..])
    }
}

/// One scheduled change to a link's health, in simulation time.
///
/// A fault names the *directed* link leaving `node` towards `dir`; the
/// harness applies it to both directions of the physical link (the
/// reverse direction from the neighbouring router goes down with it), so
/// scenarios do not have to list each cable twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the change takes effect (applied before that
    /// cycle's node stepping).
    pub at: Cycle,
    /// Router owning the outgoing side of the link.
    pub node: u32,
    /// Which of its links.
    pub dir: Direction,
    /// `false` = kill, `true` = revive.
    pub up: bool,
}

impl Snap for FaultEvent {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.at);
        w.u32(self.node);
        w.u8(self.dir as u8);
        w.bool(self.up);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let at = r.u64()?;
        let node = r.u32()?;
        let d = r.u8()? as usize;
        if d >= Direction::ALL.len() {
            return Err(SnapshotError::Corrupt("direction out of range"));
        }
        let dir = Direction::from_index(d);
        let up = r.bool()?;
        Ok(FaultEvent { at, node, dir, up })
    }
}

/// A dense per-(node, destination) next-hop override table, rebuilt by
/// BFS over the live links whenever the fault set changes. `None` when no
/// link is down, so the fault-free path pays nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteOverrides {
    nodes: u32,
    /// `next[node * nodes + dst]`: direction index (0..4), or
    /// [`RouteOverrides::NO_ROUTE`] when `dst` is unreachable from
    /// `node` (the flit is then left to the default route and dropped at
    /// the dead link).
    next: Box<[u8]>,
}

impl RouteOverrides {
    pub const NO_ROUTE: u8 = u8::MAX;

    pub fn new(nodes: u32, next: Box<[u8]>) -> Self {
        assert_eq!(next.len(), (nodes as usize).pow(2));
        RouteOverrides { nodes, next }
    }

    /// Next hop from `node` towards `dst`, if one exists over live links.
    #[inline]
    pub fn dir(&self, node: u32, dst: u32) -> Option<Direction> {
        let idx = node as usize * self.nodes as usize + dst as usize;
        let v = self.next[idx];
        if v == Self::NO_ROUTE || node == dst {
            None
        } else {
            Some(Direction::from_index(v as usize))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketId;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapshotWriter::new();
        0xdeadbeefu32.save(&mut w);
        true.save(&mut w);
        (-1.5f64).save(&mut w);
        Some(7u64).save(&mut w);
        Option::<u64>::None.save(&mut w);
        vec![1u16, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(u32::load(&mut r).unwrap(), 0xdeadbeef);
        assert!(bool::load(&mut r).unwrap());
        assert_eq!(f64::load(&mut r).unwrap(), -1.5);
        assert_eq!(Option::<u64>::load(&mut r).unwrap(), Some(7));
        assert_eq!(Option::<u64>::load(&mut r).unwrap(), None);
        assert_eq!(Vec::<u16>::load(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
        assert_eq!(u8::load(&mut r), Err(SnapshotError::Eof));
    }

    #[test]
    fn capture_writes_the_wrapped_payload_into_an_exact_buffer() {
        let save = |w: &mut SnapshotWriter| {
            w.u8(7);
            w.u64(u64::MAX);
            vec![1u16, 2, 3].save(w);
            Some(PacketId(9)).save(w);
            Ok(())
        };
        let mut w = SnapshotWriter::new();
        save(&mut w).unwrap();
        let mut wrapped = SNAPSHOT_MAGIC.to_vec();
        wrapped.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        wrapped.extend_from_slice(&w.into_bytes());
        let captured = FabricSnapshot::capture(save).unwrap();
        assert_eq!(captured.as_bytes(), wrapped);
        assert_eq!(captured.bytes.capacity(), captured.bytes.len());
        let failing = FabricSnapshot::capture(|w| {
            w.u8(1);
            Err(SnapshotError::Unsupported("test"))
        });
        assert!(matches!(failing, Err(SnapshotError::Unsupported(_))));
    }

    #[test]
    fn container_header_is_validated() {
        let snap = FabricSnapshot::capture(|w| {
            [1u8, 2, 3].iter().for_each(|&b| w.u8(b));
            Ok(())
        })
        .unwrap();
        let bytes = snap.as_bytes().to_vec();
        let back = FabricSnapshot::from_bytes(bytes.clone()).unwrap();
        let mut r = back.payload();
        assert_eq!(r.u8().unwrap(), 1);

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            FabricSnapshot::from_bytes(wrong_magic),
            Err(SnapshotError::Corrupt(_))
        ));

        let mut wrong_ver = bytes;
        wrong_ver[8] = 0xfe;
        assert!(matches!(
            FabricSnapshot::from_bytes(wrong_ver),
            Err(SnapshotError::Version(_))
        ));
        assert!(matches!(
            FabricSnapshot::from_bytes(vec![]),
            Err(SnapshotError::Eof)
        ));
    }

    #[test]
    fn corrupt_sequence_length_is_rejected_not_allocated() {
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            Vec::<u8>::load(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn route_overrides_lookup() {
        // 2x1 "mesh": node 0 east of nothing; hand-build the table.
        let mut next = vec![RouteOverrides::NO_ROUTE; 4].into_boxed_slice();
        next[1] = Direction::East as u8; // 0 -> 1 via East
        next[2] = Direction::West as u8; // 1 -> 0 via West
        let ov = RouteOverrides::new(2, next);
        assert_eq!(ov.dir(0, 1), Some(Direction::East));
        assert_eq!(ov.dir(1, 0), Some(Direction::West));
        assert_eq!(ov.dir(0, 0), None);
    }
}
