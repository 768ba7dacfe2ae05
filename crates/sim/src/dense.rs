//! Dense per-node and per-packet state tables for the hot path.
//!
//! The simulator previously kept several small `FxHashMap`s keyed by
//! [`NodeId`] (CS queues, share-failure counters, the connection
//! registry) or by [`PacketId`] (NIC reassembly counts). Mesh sizes are
//! bounded (≤ 65534 nodes, see [`Mesh::new`]) and the live key sets are
//! tiny, so hashing is pure overhead: every lookup pays a hash plus a
//! probe into a cache-cold control table.
//!
//! [`NodeTable`] replaces the node-keyed maps with a sparse-set: a dense
//! entry vector for iteration and a small open-addressed `u16` index,
//! sized to the entries rather than to the mesh, for O(1) lookup.
//! Iteration order is *insertion order* (mutated only by `remove`'s
//! swap), a deterministic function of the simulation history — the
//! property the bit-identity pins need. It comes from the dense vector
//! alone; the index's layout never decides an order.
//!
//! [`RxTable`] replaces the reassembly `FxHashMap<PacketId, u8>` with a
//! small open-addressed table (linear probing, tombstone deletes, lazy
//! rehash) sized to in-flight packets.
//!
//! [`Mesh::new`]: crate::topology::Topology::new

use crate::flit::PacketId;
use crate::geometry::NodeId;

const IDX_NONE: u16 = u16::MAX;

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

/// Sparse-set map from [`NodeId`] to `T` over a universe of node ids
/// fixed at construction (the mesh size). Iteration walks a dense entry
/// vector; lookups go through an open-addressed index sized to the
/// entries, so a table holding k entries costs O(k) memory however large
/// the mesh.
#[derive(Clone, Debug)]
pub struct NodeTable<T> {
    /// Positions into `entries` (`IDX_NONE` = empty slot): linear probing
    /// from a Fibonacci hash of the key, power-of-two length (zero until
    /// the first insert), at most half full, so every probe ends at an
    /// empty slot. Deletion shifts displaced positions back instead of
    /// leaving tombstones. The index only answers "where is key k"; no
    /// iteration ever reads it.
    idx: Box<[u16]>,
    entries: Vec<(NodeId, T)>,
    /// Keys are `NodeId`s below this (written to snapshots).
    universe: usize,
}

/// Smallest non-empty index length.
const MIN_INDEX: usize = 8;

/// Index length for `n` entries: at most half full, and growing exactly
/// when `n` crosses a power of two, which is when the dense vector grows.
fn index_len_for(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (2 * n).next_power_of_two().max(MIN_INDEX)
    }
}

impl<T> NodeTable<T> {
    pub fn new(nodes: usize) -> Self {
        Self::with_capacity(nodes, 0)
    }

    /// An empty table with room for `n` entries before it allocates.
    fn with_capacity(nodes: usize, n: usize) -> Self {
        assert!(nodes < IDX_NONE as usize, "mesh too large for NodeTable");
        NodeTable {
            idx: vec![IDX_NONE; index_len_for(n)].into_boxed_slice(),
            entries: Vec::with_capacity(n),
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

    /// Home slot of `node` (the index must be non-empty).
    #[inline]
    fn home(&self, node: NodeId) -> usize {
        // Fibonacci hashing keeps the *top* bits of the product, so keys
        // differing by a power of two (a mesh column) still spread out.
        let bits = self.idx.len().trailing_zeros();
        ((node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Probe for `node`: `Ok(slot)` holding it, or `Err(slot)`, the empty
    /// slot ending its probe sequence (the index must be non-empty).
    #[inline]
    fn probe(&self, node: NodeId) -> Result<usize, usize> {
        let mask = self.idx.len() - 1;
        let mut s = self.home(node);
        loop {
            match self.idx[s] {
                IDX_NONE => return Err(s),
                i if self.entries[i as usize].0 == node => return Ok(s),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Dense position of `node`'s entry.
    #[inline]
    fn position(&self, node: NodeId) -> Option<usize> {
        if self.idx.is_empty() {
            return None;
        }
        self.probe(node).ok().map(|s| self.idx[s] as usize)
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
        let pos = self.entries.len();
        if 2 * (pos + 1) > self.idx.len() {
            self.reindex(index_len_for(pos + 1));
        }
        let slot = self.probe(node).expect_err("key is absent");
        self.idx[slot] = pos as u16;
        self.entries.push((node, value));
        pos
    }

    /// Rebuild the index at length `len` (only when the entry count
    /// reaches a new peak, so the steady state never allocates).
    fn reindex(&mut self, len: usize) {
        self.idx = vec![IDX_NONE; len].into_boxed_slice();
        for pos in 0..self.entries.len() {
            let slot = self
                .probe(self.entries[pos].0)
                .expect_err("keys are unique");
            self.idx[slot] = pos as u16;
        }
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

    /// Remove by swap: the last dense entry fills the hole, so the cost
    /// is O(1) and the resulting order is still history-deterministic.
    pub fn remove(&mut self, node: NodeId) -> Option<T> {
        if self.idx.is_empty() {
            return None;
        }
        let slot = self.probe(node).ok()?;
        let pos = self.idx[slot] as usize;
        self.unlink(slot);
        let (_, value) = self.entries.swap_remove(pos);
        if let Some(&(moved, _)) = self.entries.get(pos) {
            // The moved entry's slot still names its old (tail) position.
            let (mask, tail) = (self.idx.len() - 1, self.entries.len() as u16);
            let mut s = self.home(moved);
            while self.idx[s] != tail {
                s = (s + 1) & mask;
            }
            self.idx[s] = pos as u16;
        }
        Some(value)
    }

    /// Empty index slot `hole`, shifting later members of its probe run
    /// back so every key stays reachable from its home slot (reads
    /// `entries`, so it runs before the dense vector changes).
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.idx.len() - 1;
        let mut s = hole;
        loop {
            s = (s + 1) & mask;
            let i = self.idx[s];
            if i == IDX_NONE {
                break;
            }
            // The key at `s` may fill the hole unless its home lies
            // cyclically in (hole, s].
            let home = self.home(self.entries[i as usize].0);
            if (s.wrapping_sub(home) & mask) >= (s.wrapping_sub(hole) & mask) {
                self.idx[hole] = i;
                hole = s;
            }
        }
        self.idx[hole] = IDX_NONE;
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
        self.idx.fill(IDX_NONE);
        let mut drained: Vec<_> = self.entries.drain(..).collect();
        drained.sort_unstable_by_key(|&(node, _)| node);
        drained
    }

    pub fn retain(&mut self, mut keep: impl FnMut(NodeId, &mut T) -> bool) {
        let mut i = 0;
        while i < self.entries.len() {
            let node = self.entries[i].0;
            if keep(node, &mut self.entries[i].1) {
                i += 1;
            } else {
                self.remove(node);
                // swap_remove moved a new entry into `i`; revisit it.
            }
        }
    }

    /// Remove every entry whose value satisfies `done`, leaving the same
    /// dense order as visiting the entries in their current order and
    /// calling [`NodeTable::remove`] on each match — but without
    /// collecting keys. ([`NodeTable::retain`] re-examines the slot each
    /// removal swaps the tail into, so its final order can differ.)
    /// `done` must give the same answer whenever it is asked.
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
                self.remove(self.entries[i].0);
            }
            i += 1;
        }
        for i in (0..self.entries.len()).rev() {
            if done(&self.entries[i].1) {
                self.remove(self.entries[i].0);
            }
        }
    }

    pub fn clear(&mut self) {
        self.entries.clear();
        self.idx.fill(IDX_NONE);
    }
}

/// Open-addressed `PacketId -> u8` counter table for NIC reassembly.
///
/// Linear probing with tombstone deletes; rehashed (dropping tombstones)
/// when the occupied fraction passes 3/4. Capacity stays a power of two
/// and starts tiny — in-flight packet counts per node are single digits
/// in every operating regime.
#[derive(Clone, Debug)]
pub struct RxTable {
    // state: 0 = empty, 1 = tombstone, 2 = live
    state: Box<[u8]>,
    keys: Box<[u64]>,
    vals: Box<[u8]>,
    live: usize,
    used: usize,
}

const RX_EMPTY: u8 = 0;
const RX_DEAD: u8 = 1;
const RX_LIVE: u8 = 2;
/// Transient marker used only inside [`RxTable::rehash`]'s in-place
/// compaction: a live entry not yet moved to its post-compaction slot.
const RX_MOVE: u8 = 3;

impl Default for RxTable {
    fn default() -> Self {
        RxTable::new()
    }
}

impl RxTable {
    pub fn new() -> Self {
        RxTable::with_capacity(16)
    }

    fn with_capacity(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        RxTable {
            state: vec![RX_EMPTY; cap].into_boxed_slice(),
            keys: vec![0u64; cap].into_boxed_slice(),
            vals: vec![0u8; cap].into_boxed_slice(),
            live: 0,
            used: 0,
        }
    }

    #[inline]
    fn hash(key: u64, cap: usize) -> usize {
        // Fibonacci multiplicative hash: packet ids are sequential per
        // source (low bits) or protocol-tagged (high bits); the multiply
        // mixes both into the masked index.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (cap - 1)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Sum of all counts (used by occupancy accounting).
    pub fn total(&self) -> usize {
        self.state
            .iter()
            .zip(self.vals.iter())
            .filter(|(s, _)| **s == RX_LIVE)
            .map(|(_, v)| *v as usize)
            .sum()
    }

    pub fn get(&self, key: PacketId) -> Option<u8> {
        let cap = self.state.len();
        let mut i = Self::hash(key.0, cap);
        loop {
            match self.state[i] {
                RX_EMPTY => return None,
                RX_LIVE if self.keys[i] == key.0 => return Some(self.vals[i]),
                _ => i = (i + 1) & (cap - 1),
            }
        }
    }

    /// Increment the count for `key` (inserting at 0), returning the new
    /// count.
    pub fn bump(&mut self, key: PacketId) -> u8 {
        if (self.used + 1) * 4 > self.state.len() * 3 {
            self.rehash();
        }
        let cap = self.state.len();
        let mut i = Self::hash(key.0, cap);
        let mut first_dead = None;
        loop {
            match self.state[i] {
                RX_LIVE if self.keys[i] == key.0 => {
                    self.vals[i] += 1;
                    return self.vals[i];
                }
                RX_DEAD => {
                    if first_dead.is_none() {
                        first_dead = Some(i);
                    }
                    i = (i + 1) & (cap - 1);
                }
                RX_EMPTY => {
                    let slot = first_dead.unwrap_or(i);
                    if self.state[slot] == RX_EMPTY {
                        self.used += 1;
                    }
                    self.state[slot] = RX_LIVE;
                    self.keys[slot] = key.0;
                    self.vals[slot] = 1;
                    self.live += 1;
                    return 1;
                }
                _ => i = (i + 1) & (cap - 1),
            }
        }
    }

    pub fn remove(&mut self, key: PacketId) -> Option<u8> {
        let cap = self.state.len();
        let mut i = Self::hash(key.0, cap);
        loop {
            match self.state[i] {
                RX_EMPTY => return None,
                RX_LIVE if self.keys[i] == key.0 => {
                    self.state[i] = RX_DEAD;
                    self.live -= 1;
                    return Some(self.vals[i]);
                }
                _ => i = (i + 1) & (cap - 1),
            }
        }
    }

    fn rehash(&mut self) {
        if self.live * 2 >= self.state.len() {
            // Genuine growth: double the capacity (cold path — only taken
            // while the in-flight packet count exceeds every prior peak).
            let new_cap = self.state.len() * 2;
            let old_state =
                std::mem::replace(&mut self.state, vec![RX_EMPTY; new_cap].into_boxed_slice());
            let old_keys =
                std::mem::replace(&mut self.keys, vec![0u64; new_cap].into_boxed_slice());
            let old_vals = std::mem::replace(&mut self.vals, vec![0u8; new_cap].into_boxed_slice());
            self.live = 0;
            self.used = 0;
            for i in 0..old_state.len() {
                if old_state[i] == RX_LIVE {
                    let mut j = Self::hash(old_keys[i], new_cap);
                    while self.state[j] == RX_LIVE {
                        j = (j + 1) & (new_cap - 1);
                    }
                    self.state[j] = RX_LIVE;
                    self.keys[j] = old_keys[i];
                    self.vals[j] = old_vals[i];
                    self.live += 1;
                    self.used += 1;
                }
            }
            return;
        }
        // Tombstone compaction at unchanged capacity. This is the warm
        // path — insert/remove churn accretes tombstones forever — so it
        // must not allocate (the zero-allocation steady-state contract,
        // DESIGN.md §17). Mark every live entry, clear tombstones, then
        // reinsert by displacement: walking the probe sequence from each
        // entry's home slot, swapping with any not-yet-moved entry found
        // there.
        let cap = self.state.len();
        for s in self.state.iter_mut() {
            *s = match *s {
                RX_LIVE => RX_MOVE,
                _ => RX_EMPTY,
            };
        }
        for i in 0..cap {
            if self.state[i] != RX_MOVE {
                continue;
            }
            let mut key = self.keys[i];
            let mut val = self.vals[i];
            self.state[i] = RX_EMPTY;
            loop {
                let mut j = Self::hash(key, cap);
                while self.state[j] == RX_LIVE {
                    j = (j + 1) & (cap - 1);
                }
                let displaced = self.state[j] == RX_MOVE;
                let (dk, dv) = (self.keys[j], self.vals[j]);
                self.state[j] = RX_LIVE;
                self.keys[j] = key;
                self.vals[j] = val;
                if !displaced {
                    break;
                }
                key = dk;
                val = dv;
            }
        }
        self.used = self.live;
    }
}

// ---------------------------------------------------------------------------
// Snapshot encodings. `BitSet` and `RxTable` are written verbatim (their
// layouts are deterministic functions of history); `NodeTable` writes its
// dense entry vector in insertion order and rebuilds the index arrays,
// which reproduces the exact iteration order.

use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

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
        let nodes = r.usize()?;
        if nodes >= IDX_NONE as usize {
            return Err(SnapshotError::Corrupt("NodeTable universe"));
        }
        let entries = Vec::<(NodeId, T)>::load(r)?;
        let mut t = NodeTable::with_capacity(nodes, entries.len());
        for (node, value) in entries {
            if node.index() >= nodes || t.contains(node) {
                return Err(SnapshotError::Corrupt("NodeTable entry"));
            }
            t.insert(node, value);
        }
        Ok(t)
    }
}

impl Snap for RxTable {
    fn save(&self, w: &mut SnapshotWriter) {
        self.state.save(w);
        self.keys.save(w);
        self.vals.save(w);
        w.usize(self.live);
        w.usize(self.used);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let state = Box::<[u8]>::load(r)?;
        let keys = Box::<[u64]>::load(r)?;
        let vals = Box::<[u8]>::load(r)?;
        let live = r.usize()?;
        let used = r.usize()?;
        if !state.len().is_power_of_two()
            || keys.len() != state.len()
            || vals.len() != state.len()
            || live > used
            || used > state.len()
        {
            return Err(SnapshotError::Corrupt("RxTable shape"));
        }
        Ok(RxTable {
            state,
            keys,
            vals,
            live,
            used,
        })
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
        // Interleave inserts/removes across enough keys to force rehash,
        // including protocol-style high-bit ids.
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
    }

    fn node_table_bytes<T: Snap>(t: &NodeTable<T>) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        t.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn node_table_decoder_rejects_bad_keys_and_sizes_by_entries() {
        let mut t: NodeTable<u8> = NodeTable::new(60_000);
        t.insert(NodeId(59_999), 1);
        t.insert(NodeId(3), 2);
        let bytes = node_table_bytes(&t);
        let back = NodeTable::<u8>::load(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(node_table_bytes(&back), bytes);
        // Two entries in a 60k-node universe: the index holds two keys,
        // not the universe.
        assert_eq!(back.idx.len(), MIN_INDEX);
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
            ("universe too large", encode(IDX_NONE as usize, &[])),
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
        /// (stride 32) or by an odd stride, so small tables collide and
        /// grow.
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
                            let bytes = node_table_bytes(&t);
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
