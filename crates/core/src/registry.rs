//! Source-side connection state: the registry of established circuits,
//! pending setups with resend-on-failure, retry cool-downs, and the
//! communication-frequency tracker that selects which source–destination
//! pairs deserve a circuit (§II-A: "a circuit-switched path is only
//! reserved for source-destination pairs that communicate frequently").

use noc_sim::{
    Cycle, Mesh, NodeId, NodeTable, Snap, SnapshotError, SnapshotReader, SnapshotWriter,
};

/// An established circuit-switched connection, registered at the source
/// after a successful `ack` (§II-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Connection {
    pub dst: NodeId,
    /// Slot at the source router's local input port in which the burst
    /// begins.
    pub slot: u16,
    /// Consecutive slots reserved per period.
    pub duration: u8,
    pub path_id: u64,
    pub established: Cycle,
    pub last_used: Cycle,
    pub uses: u64,
}

/// A setup in flight, awaiting its `ack`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingSetup {
    pub dst: NodeId,
    pub slot: u16,
    pub duration: u8,
    /// Attempts so far (for the resend-with-a-different-slot policy).
    pub attempts: u8,
    pub issued: Cycle,
}

/// Connection registry of one node.
///
/// A hot source–destination pair may hold several *runs* — independent
/// consecutive-slot reservations spread over the period — which is how the
/// time-division granularity of §II-C scales a circuit's bandwidth share
/// with demand: R runs give the pair `R × duration / S` of the link.
#[derive(Clone, Debug)]
pub struct ConnRegistry {
    conns: NodeTable<Vec<Connection>>,
    /// Setups in flight, in ascending path-id order.
    pending: Vec<(u64, PendingSetup)>,
    /// Destinations that exhausted their retries: no new setup until the
    /// stored cycle, with an exponential-backoff level — repeatedly
    /// unsatisfiable pairs stop spamming the network with configuration
    /// messages (keeping them under the paper's 1 % of traffic).
    cooldown: NodeTable<(Cycle, u32)>,
}

impl ConnRegistry {
    /// A registry for a mesh of `nodes` nodes (keys are destinations).
    pub fn new(nodes: usize) -> Self {
        ConnRegistry {
            conns: NodeTable::new(nodes),
            pending: Vec::new(),
            cooldown: NodeTable::new(nodes),
        }
    }

    /// Number of connected destination pairs.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// First run toward `dst` (existence check / representative).
    pub fn get(&self, dst: NodeId) -> Option<&Connection> {
        self.conns.get(dst).and_then(|v| v.first())
    }

    /// All runs toward `dst`.
    pub fn runs(&self, dst: NodeId) -> &[Connection] {
        self.conns.get(dst).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Mark the run starting at `slot` used.
    pub fn touch(&mut self, dst: NodeId, slot: u16, now: Cycle) {
        if let Some(v) = self.conns.get_mut(dst) {
            for c in v.iter_mut() {
                if c.slot == slot {
                    c.last_used = now;
                    c.uses += 1;
                    return;
                }
            }
        }
    }

    /// A connection whose endpoint is a mesh neighbour of `dst`
    /// (vicinity-sharing candidate, §III-A2).
    pub fn vicinity_of(&self, mesh: &Mesh, dst: NodeId) -> Option<&Connection> {
        self.conns
            .values()
            .flat_map(|v| v.iter())
            .find(|c| mesh.adjacent(c.dst, dst))
    }

    pub fn iter(&self) -> impl Iterator<Item = &Connection> {
        self.conns.values().flat_map(|v| v.iter())
    }

    /// Where `path_id`'s pending setup is (`Ok`) or would go (`Err`).
    fn pending_position(&self, path_id: u64) -> Result<usize, usize> {
        self.pending.binary_search_by_key(&path_id, |&(id, _)| id)
    }

    /// Record an issued setup.
    pub fn begin_setup(&mut self, path_id: u64, setup: PendingSetup) {
        match self.pending_position(path_id) {
            Ok(i) => self.pending[i].1 = setup,
            Err(i) => self.pending.insert(i, (path_id, setup)),
        }
    }

    /// Forget `path_id`'s pending setup and return it.
    fn take_pending(&mut self, path_id: u64) -> Option<PendingSetup> {
        let i = self.pending_position(path_id).ok()?;
        Some(self.pending.remove(i).1)
    }

    pub fn pending_for(&self, dst: NodeId) -> bool {
        self.pending.iter().any(|(_, p)| p.dst == dst)
    }

    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Successful `ack`: register the run.
    pub fn confirm(&mut self, path_id: u64, now: Cycle) -> Option<Connection> {
        let p = self.take_pending(path_id)?;
        let conn = Connection {
            dst: p.dst,
            slot: p.slot,
            duration: p.duration,
            path_id,
            established: now,
            last_used: now,
            uses: 0,
        };
        self.conns.entry_or_default(p.dst).push(conn);
        Some(conn)
    }

    /// Failed `ack`: forget the pending setup and hand it back so the
    /// caller can retry with a different slot id.
    pub fn fail(&mut self, path_id: u64) -> Option<PendingSetup> {
        self.take_pending(path_id)
    }

    /// Remove every run toward `dst` (teardown initiated); returns them so
    /// the caller can send one teardown per path.
    pub fn remove(&mut self, dst: NodeId) -> Option<Vec<Connection>> {
        self.conns.remove(dst)
    }

    /// Pick the least-recently-used destination pair idle for at least
    /// `min_idle` cycles — the eviction candidate when a new setup needs
    /// room (§II-B). Returns the pair's most recent use.
    pub fn lru_idle(&self, now: Cycle, min_idle: Cycle) -> Option<Connection> {
        self.conns
            .values()
            .filter_map(|v| v.iter().max_by_key(|c| c.last_used))
            .filter(|c| now.saturating_sub(c.last_used) >= min_idle)
            .min_by_key(|c| c.last_used)
            .copied()
    }

    /// [`ConnRegistry::lru_idle`] restricted to destinations absent from
    /// `pinned` — connections a profiled circuit plan pinned are never
    /// eviction victims.
    pub fn lru_idle_excluding(
        &self,
        now: Cycle,
        min_idle: Cycle,
        pinned: &NodeTable<u8>,
    ) -> Option<Connection> {
        self.conns
            .values()
            .filter_map(|v| v.iter().max_by_key(|c| c.last_used))
            .filter(|c| pinned.get(c.dst).is_none())
            .filter(|c| now.saturating_sub(c.last_used) >= min_idle)
            .min_by_key(|c| c.last_used)
            .copied()
    }

    /// Start (or escalate) a retry cool-down: the n-th consecutive
    /// cool-down for `dst` lasts `base << min(n, 6)` cycles.
    pub fn set_cooldown(&mut self, dst: NodeId, now: Cycle, base: Cycle) {
        let level = self.cooldown.get(dst).map_or(0, |&(_, l)| (l + 1).min(6));
        self.cooldown.insert(dst, (now + (base << level), level));
    }

    /// A successful setup clears the backoff history.
    pub fn clear_cooldown(&mut self, dst: NodeId) {
        self.cooldown.remove(dst);
    }

    pub fn in_cooldown(&self, dst: NodeId, now: Cycle) -> bool {
        self.cooldown
            .get(dst)
            .is_some_and(|&(until, _)| now < until)
    }

    /// Drop all state (slot-table reset, §II-C).
    pub fn clear(&mut self) {
        self.conns.clear();
        self.pending.clear();
        self.cooldown.clear();
    }

    /// Serialise the registry (snapshot seam, DESIGN.md §14). Pending
    /// setups are written in their ascending path-id order.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        self.conns.save(w);
        self.pending.save(w);
        self.cooldown.save(w);
    }

    /// Inverse of [`ConnRegistry::save_state`]. Rejects pending path ids
    /// that are out of order or repeated.
    pub fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.conns.load_state(r)?;
        let pending: Vec<(u64, PendingSetup)> = Snap::load(r)?;
        if pending.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(SnapshotError::Corrupt("pending setup order"));
        }
        self.pending = pending;
        self.cooldown.load_state(r)?;
        Ok(())
    }
}

noc_sim::impl_snap!(Connection {
    dst,
    slot,
    duration,
    path_id,
    established,
    last_used,
    uses,
});

noc_sim::impl_snap!(PendingSetup {
    dst,
    slot,
    duration,
    attempts,
    issued,
});

/// Sliding-window message-frequency tracker: counts messages per
/// destination and halves all counts each window, so sustained traffic
/// dominates stale history.
#[derive(Clone, Debug)]
pub struct FrequencyTracker {
    counts: NodeTable<u32>,
    window: u64,
    next_decay: Cycle,
}

impl FrequencyTracker {
    pub fn new(window: u64, nodes: usize) -> Self {
        assert!(window > 0);
        FrequencyTracker {
            counts: NodeTable::new(nodes),
            window,
            next_decay: window,
        }
    }

    /// Record one message to `dst`; returns the current count.
    pub fn record(&mut self, dst: NodeId, now: Cycle) -> u32 {
        if now >= self.next_decay {
            self.counts.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
            self.next_decay = now + self.window;
        }
        let c = self.counts.entry_or_default(dst);
        *c += 1;
        *c
    }

    pub fn count(&self, dst: NodeId) -> u32 {
        self.counts.get(dst).copied().unwrap_or(0)
    }

    pub fn clear(&mut self) {
        self.counts.clear();
    }

    /// Serialise the tracker (`window` is construction-time).
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        self.counts.save(w);
        w.u64(self.next_decay);
    }

    /// Inverse of [`FrequencyTracker::save_state`].
    pub fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.counts.load_state(r)?;
        self.next_decay = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(dst: u32, slot: u16) -> PendingSetup {
        PendingSetup {
            dst: NodeId(dst),
            slot,
            duration: 4,
            attempts: 0,
            issued: 0,
        }
    }

    #[test]
    fn setup_lifecycle_success() {
        let mut r = ConnRegistry::new(16);
        r.begin_setup(1, pending(7, 12));
        assert!(r.pending_for(NodeId(7)));
        assert!(r.get(NodeId(7)).is_none());
        let c = r.confirm(1, 100).unwrap();
        assert_eq!(c.dst, NodeId(7));
        assert_eq!(c.slot, 12);
        assert!(r.get(NodeId(7)).is_some());
        assert!(!r.pending_for(NodeId(7)));
    }

    #[test]
    fn setup_lifecycle_failure() {
        let mut r = ConnRegistry::new(16);
        r.begin_setup(2, pending(7, 12));
        let p = r.fail(2).unwrap();
        assert_eq!(p.dst, NodeId(7));
        assert!(r.get(NodeId(7)).is_none());
        assert!(r.confirm(2, 10).is_none(), "double-resolve is a no-op");
    }

    #[test]
    fn lru_idle_eviction_candidate() {
        let mut r = ConnRegistry::new(16);
        for (pid, dst, used) in [(1u64, 3u32, 100u64), (2, 4, 50), (3, 5, 990)] {
            r.begin_setup(pid, pending(dst, 0));
            r.confirm(pid, used);
        }
        // At t=1000 with min_idle=100: conns idle since 100 and 50 qualify;
        // LRU is dst 4 (last used 50).
        let victim = r.lru_idle(1000, 100).unwrap();
        assert_eq!(victim.dst, NodeId(4));
        // Nothing idle enough at a tight threshold.
        assert!(r.lru_idle(1000, 951).is_none());
    }

    #[test]
    fn lru_idle_excluding_skips_pinned_destinations() {
        let mut r = ConnRegistry::new(16);
        for (pid, dst, used) in [(1u64, 3u32, 100u64), (2, 4, 50), (3, 5, 990)] {
            r.begin_setup(pid, pending(dst, 0));
            r.confirm(pid, used);
        }
        let mut pinned = NodeTable::new(16);
        // With no pins, behaves exactly like lru_idle.
        assert_eq!(
            r.lru_idle_excluding(1000, 100, &pinned).unwrap().dst,
            NodeId(4)
        );
        // Pinning the LRU victim promotes the next-least-recently-used.
        pinned.insert(NodeId(4), 1);
        assert_eq!(
            r.lru_idle_excluding(1000, 100, &pinned).unwrap().dst,
            NodeId(3)
        );
        // Pin everything idle enough: no victim at all.
        pinned.insert(NodeId(3), 1);
        assert!(r.lru_idle_excluding(1000, 100, &pinned).is_none());
    }

    #[test]
    fn cooldown_gate() {
        let mut r = ConnRegistry::new(16);
        r.set_cooldown(NodeId(9), 0, 500);
        assert!(r.in_cooldown(NodeId(9), 499));
        assert!(!r.in_cooldown(NodeId(9), 500));
        assert!(!r.in_cooldown(NodeId(8), 0));
        // Backoff escalates: the second cool-down lasts twice as long.
        r.set_cooldown(NodeId(9), 1000, 500);
        assert!(r.in_cooldown(NodeId(9), 1999));
        assert!(!r.in_cooldown(NodeId(9), 2000));
        // Success resets the ladder.
        r.clear_cooldown(NodeId(9));
        r.set_cooldown(NodeId(9), 3000, 500);
        assert!(!r.in_cooldown(NodeId(9), 3500));
    }

    #[test]
    fn vicinity_finds_adjacent_endpoint() {
        let mesh = Mesh::square(4);
        let mut r = ConnRegistry::new(16);
        r.begin_setup(1, pending(5, 0)); // (1,1)
        r.confirm(1, 0);
        assert!(r.vicinity_of(&mesh, NodeId(6)).is_some()); // (2,1)
        assert!(r.vicinity_of(&mesh, NodeId(15)).is_none()); // (3,3)
        assert!(r.vicinity_of(&mesh, NodeId(5)).is_none(), "endpoint itself");
    }

    #[test]
    fn pending_setups_round_trip_and_the_decoder_rejects_bad_ids() {
        let save = |r: &ConnRegistry| {
            let mut w = SnapshotWriter::new();
            r.save_state(&mut w);
            w.into_bytes()
        };
        let load = |bytes: &[u8]| ConnRegistry::new(16).load_state(&mut SnapshotReader::new(bytes));
        let mut r = ConnRegistry::new(16);
        for pid in [5u64, 2, 9] {
            r.begin_setup(pid, pending(3, 0));
        }
        assert_eq!(r.pending.iter().map(|p| p.0).collect::<Vec<_>>(), [2, 5, 9]);
        assert_eq!(load(&save(&r)), Ok(()));
        for ids in [[2u64, 9, 5], [2, 5, 5]] {
            r.pending = ids.iter().map(|&id| (id, pending(3, 0))).collect();
            assert!(
                matches!(load(&save(&r)), Err(SnapshotError::Corrupt(_))),
                "{ids:?}"
            );
        }
    }

    #[test]
    fn frequency_counts_and_decay() {
        let mut f = FrequencyTracker::new(100, 16);
        for _ in 0..6 {
            f.record(NodeId(1), 10);
        }
        assert_eq!(f.count(NodeId(1)), 6);
        // Crossing the window halves before counting.
        assert_eq!(f.record(NodeId(1), 150), 4);
        // A long-quiet destination decays to zero across windows.
        f.record(NodeId(2), 150);
        f.record(NodeId(9), 260); // triggers decay
        f.record(NodeId(9), 370); // triggers decay again
        assert_eq!(f.count(NodeId(2)), 0);
    }
}
