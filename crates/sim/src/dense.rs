//! Dense per-node and per-packet state tables for the hot path.
//!
//! [`NodeTable`] maps a [`NodeId`] to per-destination state (CS queues,
//! share-failure counters, connection runs, retry cool-downs, message
//! frequencies) and [`RxTable`] maps a [`PacketId`] to a NIC's
//! reassembly count. Each is one entry vector searched linearly. Meshes
//! reach 65534 nodes (see [`Mesh::new`]), but the live key sets are tiny:
//! a NIC reassembles a handful of packets at a time, and a node's tables
//! hold a few destinations (DESIGN.md §12 lists measured sizes). A scan
//! of a few contiguous entries costs no more than a hash and a probe
//! into a separate index, and needs no index kept in step.
//!
//! Iteration order is *insertion order*, changed only by removal's
//! `swap_remove`: a deterministic function of the simulation history,
//! the property the bit-identity pins need.
//!
//! [`Mesh::new`]: crate::topology::Topology::new

use crate::flit::PacketId;
use crate::geometry::NodeId;

/// Multi-word bit set over a fixed universe of `len` elements.
///
/// Word-order contract (DESIGN.md §13): bit `i` lives in word `i / 64` at
/// bit position `i % 64` (LSB-first), and [`BitSet::iter`] yields set bits
/// in strictly ascending index order. The harness masks (active set, wake
/// parities, step set) and every sweep that fans out over node indices
/// rely on this ordering for the determinism contract, so it is part of
/// the type's public API, not an implementation detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Box<[u64]>,
    len: usize,
}

impl BitSet {
    /// An empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0u64; len.div_ceil(64)].into_boxed_slice(),
            len,
        }
    }

    /// Universe size (maximum element count, not the popcount).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Clear every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Set every bit of the universe (the tail word is masked so bits
    /// beyond `len` stay clear — iteration never yields phantom indices).
    pub fn set_all(&mut self) {
        let n = self.len;
        for (w, word) in self.words.iter_mut().enumerate() {
            let hi = (64 * (w + 1)).min(n);
            *word = ones_below(hi - 64 * w);
        }
    }

    /// Overwrite `self` with `a | b` (the sets must share a universe).
    pub fn assign_union(&mut self, a: &BitSet, b: &BitSet) {
        debug_assert!(self.len == a.len && self.len == b.len);
        for (w, (x, y)) in self.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            *w = x | y;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// The backing words (bit `i` ⟺ word `i / 64`, LSB-first).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Set bits in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |bits| {
                let next = bits & (bits - 1);
                (next != 0).then_some(next)
            })
            .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
        })
    }
}

/// A `u64` with the low `k` bits set (`k ≤ 64`).
#[inline]
pub(crate) fn ones_below(k: usize) -> u64 {
    debug_assert!(k <= 64);
    if k >= 64 {
        !0
    } else {
        (1u64 << k) - 1
    }
}

/// Map from [`NodeId`] to `T` over a universe of node ids fixed at
/// construction (the mesh size): one entry vector searched linearly, so a
/// table holding k entries costs O(k) memory however large the mesh.
#[derive(Clone, Debug)]
pub struct NodeTable<T> {
    entries: Vec<(NodeId, T)>,
    /// Keys are `NodeId`s below this (written to snapshots).
    universe: usize,
}

/// Universes stay below this: node ids are packed into `u16` flit fields
/// with `u16::MAX` reserved, the bound `Mesh::new` enforces.
const UNIVERSE_LIMIT: usize = u16::MAX as usize;

impl<T> NodeTable<T> {
    pub fn new(nodes: usize) -> Self {
        assert!(nodes < UNIVERSE_LIMIT, "mesh too large for NodeTable");
        NodeTable {
            entries: Vec::new(),
            universe: nodes,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Position of `node`'s entry.
    #[inline]
    fn position(&self, node: NodeId) -> Option<usize> {
        self.entries.iter().position(|&(n, _)| n == node)
    }

    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.position(node).is_some()
    }

    #[inline]
    pub fn get(&self, node: NodeId) -> Option<&T> {
        self.position(node).map(|i| &self.entries[i].1)
    }

    #[inline]
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut T> {
        self.position(node).map(|i| &mut self.entries[i].1)
    }

    /// Append an entry for a key known to be absent; returns its position.
    fn push_new(&mut self, node: NodeId, value: T) -> usize {
        assert!(
            node.index() < self.universe,
            "NodeTable key outside the mesh"
        );
        self.entries.push((node, value));
        self.entries.len() - 1
    }

    /// Insert or overwrite; returns the previous value if any.
    pub fn insert(&mut self, node: NodeId, value: T) -> Option<T> {
        match self.position(node) {
            Some(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            None => {
                self.push_new(node, value);
                None
            }
        }
    }

    /// Get the entry for `node`, inserting `T::default()` if absent.
    pub fn entry_or_default(&mut self, node: NodeId) -> &mut T
    where
        T: Default,
    {
        let i = match self.position(node) {
            Some(i) => i,
            None => self.push_new(node, T::default()),
        };
        &mut self.entries[i].1
    }

    /// Remove by swap: the last entry fills the hole, so the resulting
    /// order is still history-deterministic.
    pub fn remove(&mut self, node: NodeId) -> Option<T> {
        let i = self.position(node)?;
        Some(self.entries.swap_remove(i).1)
    }

    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.entries.iter().map(|(n, v)| (*n, v))
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut T)> {
        self.entries.iter_mut().map(|(n, v)| (*n, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|(n, _)| *n)
    }

    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, v)| v)
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Drain every entry in ascending [`NodeId`] order. Used where a
    /// canonical order is required regardless of insertion history (e.g.
    /// freezing CS state for a slot-table resize).
    pub fn drain_sorted(&mut self) -> Vec<(NodeId, T)> {
        let mut drained: Vec<_> = self.entries.drain(..).collect();
        drained.sort_unstable_by_key(|&(node, _)| node);
        drained
    }

    pub fn retain(&mut self, mut keep: impl FnMut(NodeId, &mut T) -> bool) {
        let mut i = 0;
        while i < self.entries.len() {
            let (node, value) = &mut self.entries[i];
            if keep(*node, value) {
                i += 1;
            } else {
                // swap_remove moved a new entry into `i`; revisit it.
                self.entries.swap_remove(i);
            }
        }
    }

    /// Remove every entry whose value satisfies `done`, leaving the same
    /// order as visiting the entries in their current order and calling
    /// [`NodeTable::remove`] on each match — but without collecting keys.
    /// ([`NodeTable::retain`] re-examines the slot each removal swaps the
    /// tail into, so its final order can differ.) `done` must give the
    /// same answer whenever it is asked.
    pub fn remove_where(&mut self, mut done: impl FnMut(&T) -> bool) {
        // Ascending pass: a removal swaps the current tail into the hole.
        // That entry comes after every entry still ahead of the cursor in
        // visit order, so the pass leaves it for later. Successive holes
        // sit at ascending positions and receive entries from a shrinking
        // tail, so visiting the holes in descending position visits the
        // deferred entries in their original order; by then every slot
        // above the cursor holds a kept entry, which is what later swaps
        // move.
        let mut i = 0;
        while i < self.entries.len() {
            if done(&self.entries[i].1) {
                self.entries.swap_remove(i);
            }
            i += 1;
        }
        for i in (0..self.entries.len()).rev() {
            if done(&self.entries[i].1) {
                self.entries.swap_remove(i);
            }
        }
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// `PacketId -> u8` flit counts of the packets a NIC is reassembling: one
/// entry vector searched linearly. A count is bumped in place as each
/// flit arrives, and the tail flit swap-removes its packet's entry.
#[derive(Clone, Debug, Default)]
pub struct RxTable {
    entries: Vec<(PacketId, u8)>,
}

impl RxTable {
    pub fn new() -> Self {
        RxTable::default()
    }

    #[inline]
    fn position(&self, key: PacketId) -> Option<usize> {
        self.entries.iter().position(|&(k, _)| k == key)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all counts (used by occupancy accounting).
    pub fn total(&self) -> usize {
        self.entries.iter().map(|&(_, c)| c as usize).sum()
    }

    pub fn get(&self, key: PacketId) -> Option<u8> {
        self.position(key).map(|i| self.entries[i].1)
    }

    /// Increment the count for `key` (inserting at 0), returning the new
    /// count.
    pub fn bump(&mut self, key: PacketId) -> u8 {
        match self.position(key) {
            Some(i) => {
                let count = &mut self.entries[i].1;
                *count += 1;
                *count
            }
            None => {
                self.entries.push((key, 1));
                1
            }
        }
    }

    pub fn remove(&mut self, key: PacketId) -> Option<u8> {
        let i = self.position(key)?;
        Some(self.entries.swap_remove(i).1)
    }
}

// ---------------------------------------------------------------------------
// Snapshot encodings. `BitSet` is written verbatim; `NodeTable` writes its
// universe then its entries, and `RxTable` its entries, in their current
// order, which restores the exact iteration order.

use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// True when `keys` repeats a key. Sorting keeps the check O(k log k) on
/// a crafted blob.
fn has_duplicates<K: Ord>(keys: impl Iterator<Item = K>) -> bool {
    let mut keys: Vec<K> = keys.collect();
    keys.sort_unstable();
    keys.windows(2).any(|w| w[0] == w[1])
}

impl Snap for BitSet {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.len);
        self.words.save(w);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let len = r.usize()?;
        let words = Box::<[u64]>::load(r)?;
        if words.len() != len.div_ceil(64) {
            return Err(SnapshotError::Corrupt("BitSet word count"));
        }
        Ok(BitSet { words, len })
    }
}

impl<T: Snap> Snap for NodeTable<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.universe);
        self.entries.save(w);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let universe = r.usize()?;
        if universe >= UNIVERSE_LIMIT {
            return Err(SnapshotError::Corrupt("NodeTable universe"));
        }
        let entries = Vec::<(NodeId, T)>::load(r)?;
        if entries.iter().any(|(n, _)| n.index() >= universe)
            || has_duplicates(entries.iter().map(|&(n, _)| n))
        {
            return Err(SnapshotError::Corrupt("NodeTable entry"));
        }
        Ok(NodeTable { entries, universe })
    }
}

impl Snap for RxTable {
    fn save(&self, w: &mut SnapshotWriter) {
        self.entries.save(w);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let entries = Vec::<(PacketId, u8)>::load(r)?;
        if entries.iter().any(|&(_, count)| count == 0)
            || has_duplicates(entries.iter().map(|&(id, _)| id))
        {
            return Err(SnapshotError::Corrupt("RxTable entry"));
        }
        Ok(RxTable { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basics_across_word_boundaries() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        for i in [0usize, 63, 64, 127, 128, 129] {
            s.set(i);
            assert!(s.get(i));
        }
        assert_eq!(s.count_ones(), 6);
        // Word-order contract: bit i ⟺ word i/64, LSB-first.
        assert_eq!(s.words()[0], 1 | (1 << 63));
        assert_eq!(s.words()[1], 1 | (1 << 63));
        assert_eq!(s.words()[2], 0b11);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 129]);
        s.clear(64);
        assert!(!s.get(64));
        assert_eq!(s.count_ones(), 5);
        s.clear_all();
        assert!(s.is_empty());
    }

    #[test]
    fn bitset_set_all_masks_the_tail_word() {
        let mut s = BitSet::new(70);
        s.set_all();
        assert_eq!(s.count_ones(), 70);
        assert_eq!(s.words()[1], ones_below(6));
        assert_eq!(s.iter().max(), Some(69));
        // Exact multiples of 64 fill every word completely.
        let mut t = BitSet::new(128);
        t.set_all();
        assert_eq!(t.words(), &[!0u64, !0]);
    }

    #[test]
    fn bitset_union_assignment() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.set(3);
        a.set(70);
        b.set(70);
        b.set(99);
        let mut u = BitSet::new(100);
        u.assign_union(&a, &b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![3, 70, 99]);
        // Re-assignment overwrites, not accumulates.
        b.clear_all();
        u.assign_union(&a, &b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![3, 70]);
    }

    #[test]
    fn node_table_insert_lookup_remove() {
        let mut t: NodeTable<u32> = NodeTable::new(64);
        assert!(t.is_empty());
        assert_eq!(t.insert(NodeId(5), 50), None);
        assert_eq!(t.insert(NodeId(9), 90), None);
        assert_eq!(t.insert(NodeId(5), 55), Some(50));
        assert_eq!(t.len(), 2);
        assert!(t.contains(NodeId(5)));
        assert_eq!(t.get(NodeId(9)), Some(&90));
        assert_eq!(t.get(NodeId(10)), None);
        *t.entry_or_default(NodeId(10)) += 7;
        assert_eq!(t.get(NodeId(10)), Some(&7));
        assert_eq!(t.remove(NodeId(5)), Some(55));
        assert_eq!(t.remove(NodeId(5)), None);
        assert_eq!(t.len(), 2);
        let keys: Vec<_> = t.keys().collect();
        assert!(keys.contains(&NodeId(9)) && keys.contains(&NodeId(10)));
    }

    #[test]
    fn node_table_iteration_is_insertion_ordered() {
        let mut t: NodeTable<u8> = NodeTable::new(100);
        for n in [40u32, 3, 77, 12] {
            t.insert(NodeId(n), n as u8);
        }
        let order: Vec<_> = t.keys().map(|n| n.0).collect();
        assert_eq!(order, vec![40, 3, 77, 12]);
        // Removing swaps the tail in: deterministic, history-dependent.
        t.remove(NodeId(3));
        let order: Vec<_> = t.keys().map(|n| n.0).collect();
        assert_eq!(order, vec![40, 12, 77]);
    }

    #[test]
    fn node_table_drain_sorted_is_ascending() {
        let mut t: NodeTable<u8> = NodeTable::new(200);
        for n in [150u32, 2, 65, 64, 190, 0] {
            t.insert(NodeId(n), (n % 251) as u8);
        }
        let drained = t.drain_sorted();
        let keys: Vec<_> = drained.iter().map(|(n, _)| n.0).collect();
        assert_eq!(keys, vec![0, 2, 64, 65, 150, 190]);
        assert!(t.is_empty());
        assert!(!t.contains(NodeId(64)));
    }

    #[test]
    fn node_table_retain_and_clear() {
        let mut t: NodeTable<u32> = NodeTable::new(32);
        for n in 0..10u32 {
            t.insert(NodeId(n), n);
        }
        t.retain(|_, v| *v % 2 == 0);
        assert_eq!(t.len(), 5);
        assert!(t.values().all(|v| v % 2 == 0));
        t.clear();
        assert!(t.is_empty());
        assert!(!t.contains(NodeId(0)));
        // Reusable after clear.
        t.insert(NodeId(1), 11);
        assert_eq!(t.get(NodeId(1)), Some(&11));
    }

    #[test]
    fn node_table_remove_where_matches_visit_order_removal() {
        // Every subset of a 7-entry table: the result must equal removing
        // the matches one by one in the table's visit order.
        for removed in 0u32..(1 << 7) {
            let mut t: NodeTable<u32> = NodeTable::new(16);
            for n in 0..7u32 {
                t.insert(NodeId(n * 2), n);
            }
            let mut reference = t.clone();
            let matches: Vec<NodeId> = reference
                .iter()
                .filter(|(_, v)| removed >> **v & 1 == 1)
                .map(|(n, _)| n)
                .collect();
            for n in matches {
                reference.remove(n);
            }
            t.remove_where(|v| removed >> *v & 1 == 1);
            let order: Vec<_> = t.iter().map(|(n, v)| (n, *v)).collect();
            let want: Vec<_> = reference.iter().map(|(n, v)| (n, *v)).collect();
            assert_eq!(order, want, "subset {removed:07b}");
            for (n, _) in &want {
                assert_eq!(t.get(*n), reference.get(*n));
            }
        }
    }

    #[test]
    fn rx_table_bump_remove_and_growth() {
        let mut rx = RxTable::new();
        assert!(rx.is_empty());
        // Interleave inserts and removes across many ids, including
        // protocol-style high-bit ids.
        for round in 0u64..4 {
            for k in 0u64..40 {
                let id = PacketId((round << 62) | k);
                assert_eq!(rx.bump(id), 1);
                assert_eq!(rx.bump(id), 2);
                assert_eq!(rx.get(id), Some(2));
            }
            assert_eq!(rx.len(), 40);
            assert_eq!(rx.total(), 80);
            for k in 0u64..40 {
                let id = PacketId((round << 62) | k);
                assert_eq!(rx.remove(id), Some(2));
                assert_eq!(rx.remove(id), None);
                assert_eq!(rx.get(id), None);
            }
            assert!(rx.is_empty());
        }
        // Removal swaps the tail entry into the hole.
        for id in [7u64, 3, 9, 5] {
            rx.bump(PacketId(id));
        }
        rx.bump(PacketId(9));
        assert_eq!(rx.remove(PacketId(3)), Some(1));
        let order: Vec<_> = rx.entries.iter().map(|&(id, n)| (id.0, n)).collect();
        assert_eq!(order, vec![(7, 1), (5, 1), (9, 2)]);
        assert_eq!(rx.total(), 4);
    }

    fn snap_bytes<T: Snap>(t: &T) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        t.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn node_table_decoder_rejects_bad_keys_and_universes() {
        let mut t: NodeTable<u8> = NodeTable::new(60_000);
        t.insert(NodeId(59_999), 1);
        t.insert(NodeId(3), 2);
        let bytes = snap_bytes(&t);
        let back = NodeTable::<u8>::load(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(snap_bytes(&back), bytes);
        let encode = |universe: usize, keys: &[u32]| {
            let mut w = SnapshotWriter::new();
            w.usize(universe);
            keys.iter()
                .map(|&k| (NodeId(k), 0u8))
                .collect::<Vec<_>>()
                .save(&mut w);
            w.into_bytes()
        };
        for (what, bytes) in [
            ("key outside the universe", encode(16, &[3, 16])),
            ("duplicate key", encode(16, &[3, 5, 3])),
            ("universe too large", encode(UNIVERSE_LIMIT, &[])),
        ] {
            assert!(
                matches!(
                    NodeTable::<u8>::load(&mut SnapshotReader::new(&bytes)),
                    Err(SnapshotError::Corrupt(_))
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn rx_table_decoder_rejects_duplicates_and_zero_counts() {
        let load = |entries: &[(u64, u8)]| {
            let entries = entries.iter().map(|&(id, n)| (PacketId(id), n)).collect();
            RxTable::load(&mut SnapshotReader::new(&snap_bytes(&RxTable { entries })))
        };
        let back = load(&[(1 << 62, 1), (4, 2)]).unwrap();
        assert_eq!((back.get(PacketId(4)), back.total()), (Some(2), 3));
        for (what, entries) in [
            ("duplicate id", &[(4, 1), (9, 2), (4, 1)][..]),
            ("zero count", &[(4, 1), (9, 0)]),
        ] {
            assert!(
                matches!(load(entries), Err(SnapshotError::Corrupt(_))),
                "{what}"
            );
        }
    }

    mod node_table_model {
        use super::*;
        use proptest::prelude::*;

        const UNIVERSE: usize = 1024;

        #[derive(Clone, Debug)]
        enum Op {
            Insert(u32, u32),
            Bump(u32),
            Remove(u32),
            Retain(u32),
            RemoveWhere(u32),
            DrainSorted,
            Clear,
            Restore,
        }

        /// Keys from a few dozen ids, spread densely, along a mesh column
        /// (stride 32) or by an odd stride.
        fn key() -> impl Strategy<Value = u32> {
            (0u32..40, 0usize..3).prop_map(|(k, i)| k * [1, 32, 7][i] % UNIVERSE as u32)
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (key(), 0u32..100).prop_map(|(k, v)| Op::Insert(k, v)),
                (key(), 0u32..100).prop_map(|(k, v)| Op::Insert(k, v)),
                key().prop_map(Op::Bump),
                key().prop_map(Op::Bump),
                key().prop_map(Op::Remove),
                key().prop_map(Op::Remove),
                (2u32..5).prop_map(Op::Retain),
                (2u32..5).prop_map(Op::RemoveWhere),
                Just(Op::DrainSorted),
                Just(Op::Clear),
                Just(Op::Restore),
            ]
        }

        /// The reference: a plain vector searched linearly, with
        /// `NodeTable`'s documented order rules (push on insert,
        /// swap-remove on removal).
        #[derive(Default)]
        struct Model(Vec<(NodeId, u32)>);

        impl Model {
            fn pos(&self, k: NodeId) -> Option<usize> {
                self.0.iter().position(|&(n, _)| n == k)
            }
            fn get(&self, k: NodeId) -> Option<u32> {
                self.pos(k).map(|i| self.0[i].1)
            }
            fn insert(&mut self, k: NodeId, v: u32) -> Option<u32> {
                match self.pos(k) {
                    Some(i) => Some(std::mem::replace(&mut self.0[i].1, v)),
                    None => {
                        self.0.push((k, v));
                        None
                    }
                }
            }
            fn remove(&mut self, k: NodeId) -> Option<u32> {
                self.pos(k).map(|i| self.0.swap_remove(i).1)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Every operation returns what the linear-search model
            /// returns, and `iter()` keeps the model's order after every
            /// step.
            #[test]
            fn node_table_matches_a_linear_search_model(
                ops in prop::collection::vec(op(), 1..120),
            ) {
                let mut t: NodeTable<u32> = NodeTable::new(UNIVERSE);
                let mut m = Model::default();
                for op in ops {
                    match op {
                        Op::Insert(k, v) => {
                            prop_assert_eq!(t.insert(NodeId(k), v), m.insert(NodeId(k), v));
                        }
                        Op::Bump(k) => {
                            *t.entry_or_default(NodeId(k)) += 1;
                            let v = m.get(NodeId(k)).unwrap_or(0) + 1;
                            m.insert(NodeId(k), v);
                        }
                        Op::Remove(k) => {
                            prop_assert_eq!(t.remove(NodeId(k)), m.remove(NodeId(k)));
                        }
                        Op::Retain(d) => {
                            let keep = |n: NodeId, v: &mut u32| !(n.0 + *v).is_multiple_of(d);
                            t.retain(keep);
                            let mut i = 0;
                            while i < m.0.len() {
                                let (n, mut v) = m.0[i];
                                if keep(n, &mut v) {
                                    i += 1;
                                } else {
                                    m.0.swap_remove(i);
                                }
                            }
                        }
                        Op::RemoveWhere(d) => {
                            t.remove_where(|v| v.is_multiple_of(d));
                            let doomed: Vec<NodeId> =
                                m.0.iter().filter(|(_, v)| v.is_multiple_of(d)).map(|(n, _)| *n).collect();
                            for n in doomed {
                                m.remove(n);
                            }
                        }
                        Op::DrainSorted => {
                            m.0.sort_by_key(|&(n, _)| n);
                            prop_assert_eq!(t.drain_sorted(), std::mem::take(&mut m.0));
                        }
                        Op::Clear => {
                            t.clear();
                            m.0.clear();
                        }
                        Op::Restore => {
                            let bytes = snap_bytes(&t);
                            t = NodeTable::load(&mut SnapshotReader::new(&bytes)).unwrap();
                        }
                    }
                    let order: Vec<(NodeId, u32)> = t.iter().map(|(n, v)| (n, *v)).collect();
                    prop_assert_eq!(&order, &m.0);
                    prop_assert_eq!(t.len(), m.0.len());
                    for k in 0..40u32 {
                        for n in [k, k * 32 % 1024, k * 7] {
                            prop_assert_eq!(t.get(NodeId(n)).copied(), m.get(NodeId(n)));
                            prop_assert_eq!(t.contains(NodeId(n)), m.pos(NodeId(n)).is_some());
                        }
                    }
                }
            }
        }
    }
}
