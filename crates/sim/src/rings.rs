//! Fixed-depth inline VC rings, owned by one router.
//!
//! The pipeline keeps its *control* state in flat structure-of-arrays
//! tables (DESIGN.md §13); this module does the same for the *data*:
//! instead of each input VC owning a heap-allocated `VecDeque<Flit>`, a
//! router keeps all of its input-VC FIFOs in one [`FlitRings`] — a flat
//! `[port][vc][slot]` array of flits plus a parallel POD
//! `RingMeta { head, len }` row per ring — so buffer writes, VA peeks,
//! SA/ST dequeues, fault sweeps and occupancy audits walk two contiguous
//! allocations (DESIGN.md §17). The router is the rings' sole owner:
//! every read goes through `&self`, every mutation through `&mut self`.
//!
//! Ring invariants (checked by debug assertions):
//! * `head < depth` and `len <= depth` at all times;
//! * occupied slots are `(head + k) % depth` for `k in 0..len`, in FIFO
//!   order;
//! * vacated slots keep stale flit bytes — they are never read and never
//!   serialised. A flit owns nothing outside its 32 bytes (a
//!   configuration payload rides in the flit), so vacating a slot
//!   releases nothing.

use crate::flit::{Flit, Packet, PacketId, Switching};
use crate::geometry::NodeId;
use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// Head/len of one ring, packed so the whole metadata table of a router
/// (20 rings at the default 5-port × 4-VC geometry) spans a cache line.
#[derive(Clone, Copy, Debug, Default)]
struct RingMeta {
    /// Slot index of the FIFO front; `< depth` always.
    head: u8,
    /// Occupied slots; `<= depth` always.
    len: u8,
}

const _: () = assert!(
    std::mem::size_of::<RingMeta>() == 2,
    "RingMeta must stay a 2-byte POD row (DESIGN.md §17)"
);

/// A router's input-VC FIFOs: `rings` rings of `depth` slots each.
#[derive(Clone)]
pub struct FlitRings {
    /// `rings * depth` slots, ring-major.
    flits: Box<[Flit]>,
    meta: Box<[RingMeta]>,
    depth: usize,
}

impl std::fmt::Debug for FlitRings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlitRings")
            .field("rings", &self.meta.len())
            .field("depth", &self.depth)
            .field(
                "occupancy",
                &self.meta.iter().map(|m| m.len as usize).sum::<usize>(),
            )
            .finish()
    }
}

impl FlitRings {
    /// `rings` empty rings, each `depth` slots deep.
    pub fn new(rings: usize, depth: u8) -> Self {
        assert!(depth >= 1, "ring depth must be at least 1");
        // A filler for vacant slots. Never observable: reads are bounded
        // by `len`, serialisation walks FIFO order only.
        let p = Packet::data(PacketId(0), NodeId(0), NodeId(0), 1, 0);
        let filler = Flit::of_packet(&p, 0, Switching::Packet);
        FlitRings {
            flits: vec![filler; rings * depth as usize].into_boxed_slice(),
            meta: vec![RingMeta::default(); rings].into_boxed_slice(),
            depth: depth as usize,
        }
    }

    #[inline]
    fn set_meta(&mut self, ring: usize, m: RingMeta) {
        debug_assert!((m.head as usize) < self.depth && m.len as usize <= self.depth);
        self.meta[ring] = m;
    }

    /// Slot index of FIFO position `pos` of `ring`.
    #[inline]
    fn slot(&self, ring: usize, head: u8, pos: usize) -> usize {
        let mut s = head as usize + pos;
        if s >= self.depth {
            s -= self.depth;
        }
        ring * self.depth + s
    }

    #[inline]
    pub fn len(&self, ring: usize) -> usize {
        self.meta[ring].len as usize
    }

    #[inline]
    pub fn is_empty(&self, ring: usize) -> bool {
        self.meta[ring].len == 0
    }

    #[inline]
    pub fn front(&self, ring: usize) -> Option<&Flit> {
        let m = self.meta[ring];
        if m.len == 0 {
            return None;
        }
        Some(&self.flits[self.slot(ring, m.head, 0)])
    }

    #[inline]
    pub fn front_mut(&mut self, ring: usize) -> Option<&mut Flit> {
        let m = self.meta[ring];
        if m.len == 0 {
            return None;
        }
        let i = self.slot(ring, m.head, 0);
        Some(&mut self.flits[i])
    }

    /// FIFO position `pos` (0 = front).
    #[inline]
    pub fn get(&self, ring: usize, pos: usize) -> &Flit {
        let m = self.meta[ring];
        assert!(pos < m.len as usize, "ring position out of bounds");
        &self.flits[self.slot(ring, m.head, pos)]
    }

    /// Append to the ring tail. Panics on overflow — the credit protocol
    /// bounds occupancy at `depth`, so an overflow is a flow-control bug.
    #[inline]
    pub fn push_back(&mut self, ring: usize, flit: Flit) {
        let m = self.meta[ring];
        assert!((m.len as usize) < self.depth, "ring overflow");
        let i = self.slot(ring, m.head, m.len as usize);
        self.flits[i] = flit;
        self.set_meta(
            ring,
            RingMeta {
                head: m.head,
                len: m.len + 1,
            },
        );
    }

    #[inline]
    pub fn pop_front(&mut self, ring: usize) -> Option<Flit> {
        let m = self.meta[ring];
        if m.len == 0 {
            return None;
        }
        let f = self.flits[self.slot(ring, m.head, 0)];
        let mut head = m.head + 1;
        if head as usize == self.depth {
            head = 0;
        }
        self.set_meta(
            ring,
            RingMeta {
                head,
                len: m.len - 1,
            },
        );
        Some(f)
    }

    /// Iterate `ring` in FIFO order.
    pub fn iter(&self, ring: usize) -> impl Iterator<Item = &Flit> + '_ {
        let m = self.meta[ring];
        (0..m.len as usize).map(move |pos| &self.flits[self.slot(ring, m.head, pos)])
    }

    /// Keep only the flits for which `keep` returns true, preserving FIFO
    /// order (the fault-sweep primitive). Returns the number removed.
    pub fn retain(&mut self, ring: usize, mut keep: impl FnMut(&Flit) -> bool) -> usize {
        let m = self.meta[ring];
        let mut kept = 0u8;
        for pos in 0..m.len as usize {
            let src = self.slot(ring, m.head, pos);
            let f = self.flits[src];
            if keep(&f) {
                let dst = self.slot(ring, m.head, kept as usize);
                self.flits[dst] = f;
                kept += 1;
            }
        }
        self.set_meta(
            ring,
            RingMeta {
                head: m.head,
                len: kept,
            },
        );
        (m.len - kept) as usize
    }

    /// Serialise `ring` in FIFO order: `u64` length then the flits. This is
    /// byte-identical to the `VecDeque<Flit>` encoding the per-VC buffers
    /// used before the rings, so `NOCSNAP`/`NOCCKPT` blobs are unchanged
    /// (DESIGN.md §17).
    pub fn save_ring(&self, ring: usize, w: &mut SnapshotWriter) {
        w.usize(self.len(ring));
        for f in self.iter(ring) {
            f.save(w);
        }
    }

    /// Inverse of [`FlitRings::save_ring`]; the restored ring is
    /// normalised to `head = 0` (head position is not observable through
    /// the FIFO API and is not part of the snapshot encoding).
    pub fn load_ring(&mut self, ring: usize, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let len = r.seq_len()?;
        if len > self.depth {
            return Err(SnapshotError::Corrupt("ring deeper than buffer depth"));
        }
        for pos in 0..len {
            self.flits[ring * self.depth + pos] = Flit::load(r)?;
        }
        self.set_meta(
            ring,
            RingMeta {
                head: 0,
                len: len as u8,
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotWriter;

    fn flit(seq: u8, of: u8) -> Flit {
        let p = Packet::data(PacketId(9), NodeId(1), NodeId(2), of, 3);
        Flit::of_packet(&p, seq, Switching::Packet)
    }

    #[test]
    fn fifo_order_and_wraparound() {
        let mut r = FlitRings::new(2, 3);
        // Fill, half-drain, refill: the ring must wrap and stay FIFO.
        for seq in 0..3 {
            r.push_back(1, flit(seq, 8));
        }
        assert_eq!(r.pop_front(1).unwrap().seq, 0);
        assert_eq!(r.pop_front(1).unwrap().seq, 1);
        r.push_back(1, flit(3, 8));
        r.push_back(1, flit(4, 8));
        assert_eq!(r.len(1), 3);
        let seqs: Vec<u8> = r.iter(1).map(|f| f.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(r.front(1).unwrap().seq, 2);
        // Ring 0 untouched throughout.
        assert!(r.is_empty(0) && r.pop_front(0).is_none());
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn overflow_panics() {
        let mut r = FlitRings::new(1, 2);
        for seq in 0..3 {
            r.push_back(0, flit(seq, 8));
        }
    }

    #[test]
    fn retain_preserves_order_across_wrap() {
        let mut r = FlitRings::new(1, 4);
        for seq in 0..4 {
            r.push_back(0, flit(seq, 8));
        }
        r.pop_front(0);
        r.pop_front(0);
        r.push_back(0, flit(4, 8)); // physically wraps
        r.push_back(0, flit(5, 8));
        let removed = r.retain(0, |f| f.seq % 2 == 0);
        assert_eq!(removed, 2);
        let seqs: Vec<u8> = r.iter(0).map(|f| f.seq).collect();
        assert_eq!(seqs, vec![2, 4]);
    }

    #[test]
    fn ring_snapshot_matches_vecdeque_encoding() {
        // The ring encoding must be byte-identical to the former
        // `VecDeque<Flit>` one, including for physically wrapped rings.
        let mut r = FlitRings::new(1, 3);
        for seq in 0..3 {
            r.push_back(0, flit(seq, 8));
        }
        r.pop_front(0);
        r.push_back(0, flit(3, 8)); // wrapped
        let mut w = SnapshotWriter::new();
        r.save_ring(0, &mut w);
        let mut dq = std::collections::VecDeque::new();
        for seq in 1..4 {
            dq.push_back(flit(seq, 8));
        }
        let mut w2 = SnapshotWriter::new();
        dq.save(&mut w2);
        assert_eq!(w.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn ring_snapshot_roundtrip() {
        let mut r = FlitRings::new(1, 5);
        for seq in 0..4 {
            r.push_back(0, flit(seq, 8));
        }
        r.pop_front(0); // head != 0
        let mut w = SnapshotWriter::new();
        r.save_ring(0, &mut w);
        let bytes = w.into_bytes();
        let mut fresh = FlitRings::new(1, 5);
        let mut rd = SnapshotReader::new(&bytes);
        fresh.load_ring(0, &mut rd).unwrap();
        let a: Vec<u8> = r.iter(0).map(|f| f.seq).collect();
        let b: Vec<u8> = fresh.iter(0).map(|f| f.seq).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn load_rejects_overdeep_ring() {
        let mut src = FlitRings::new(1, 4);
        for seq in 0..4 {
            src.push_back(0, flit(seq, 8));
        }
        let mut w = SnapshotWriter::new();
        src.save_ring(0, &mut w);
        let bytes = w.into_bytes();
        let mut shallow = FlitRings::new(1, 3);
        let mut rd = SnapshotReader::new(&bytes);
        assert!(shallow.load_ring(0, &mut rd).is_err());
    }

    #[test]
    fn clone_detaches() {
        let mut a = FlitRings::new(1, 3);
        a.push_back(0, flit(0, 8));
        let mut c = a.clone();
        c.push_back(0, flit(1, 8));
        assert_eq!(a.len(0), 1);
        assert_eq!(c.len(0), 2);
        assert_eq!(c.get(0, 1).seq, 1);
    }
}
