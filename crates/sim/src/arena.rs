//! The per-network configuration-payload arena.
//!
//! Flits are plain-old-data and copied by value at every pipeline stage,
//! wire hop and CS latch. The one variable-sized thing a flit used to
//! carry — the `setup`/`teardown`/`ack` payload on the head flit of a
//! configuration packet — is interned here and addressed by a 4-byte
//! [`ConfigRef`] handle, so the hot data path never touches an `Arc`
//! refcount or drop glue.
//!
//! # Lifecycle
//!
//! A payload is allocated when a configuration packet is serialised into
//! its head flit (NIC injection, or a hybrid router re-emitting a
//! forwarded `setup` with an advanced slot), and freed when the flit
//! carrying it is consumed: ejection at the destination NIC, `ack`
//! handling at the source, or in-router consumption of a
//! `setup`/`teardown`. A leaked handle only wastes one 24-byte slot —
//! never memory safety — and the whole arena drops with the network.
//!
//! # Sharing and determinism
//!
//! One arena is shared by every node of a network (`Arc`), so allocation
//! goes through a mutex. Configuration messages are well under 1 % of
//! traffic (§II-B), and data flits carry [`ConfigRef::NONE`] without ever
//! touching the arena, so the lock is off the hot path. Slot numbers
//! follow allocation order, and nodes step in ascending order, so a run
//! numbers its payloads the same way every time and the `NOCSNAP` blobs
//! that store the numbers are reproducible byte for byte. Otherwise
//! handles are pure names: no statistic or delivered-packet field
//! depends on them.

use std::sync::Mutex;

use crate::flit::ConfigKind;

/// Handle into a [`ConfigArena`]. `NONE` marks a flit with no payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConfigRef(u32);

impl ConfigRef {
    /// The null handle carried by every non-configuration flit.
    pub const NONE: ConfigRef = ConfigRef(u32::MAX);

    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }

    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != u32::MAX
    }
}

impl Default for ConfigRef {
    fn default() -> Self {
        ConfigRef::NONE
    }
}

#[derive(Default)]
struct ArenaInner {
    slots: Vec<Option<ConfigKind>>,
    free: Vec<u32>,
}

/// Slab of interned [`ConfigKind`] payloads, shared network-wide.
#[derive(Default)]
pub struct ConfigArena {
    inner: Mutex<ArenaInner>,
}

impl ConfigArena {
    pub fn new() -> Self {
        ConfigArena::default()
    }

    /// Intern a payload and return its handle.
    pub fn alloc(&self, kind: ConfigKind) -> ConfigRef {
        let mut inner = self.inner.lock().expect("config arena poisoned");
        match inner.free.pop() {
            Some(slot) => {
                debug_assert!(inner.slots[slot as usize].is_none());
                inner.slots[slot as usize] = Some(kind);
                ConfigRef(slot)
            }
            None => {
                let slot = inner.slots.len() as u32;
                assert!(slot != u32::MAX, "config arena exhausted");
                inner.slots.push(Some(kind));
                ConfigRef(slot)
            }
        }
    }

    /// Read a live payload by value ([`ConfigKind`] is `Copy`).
    ///
    /// Panics on `NONE` or a freed handle: both indicate a protocol bug
    /// (a data flit treated as configuration, or a use-after-free).
    pub fn get(&self, r: ConfigRef) -> ConfigKind {
        let inner = self.inner.lock().expect("config arena poisoned");
        inner
            .slots
            .get(r.0 as usize)
            .copied()
            .flatten()
            .expect("dangling ConfigRef")
    }

    /// Release a payload slot. `NONE` is a no-op so consumers can free a
    /// flit's handle unconditionally.
    pub fn free(&self, r: ConfigRef) {
        if r.is_none() {
            return;
        }
        let mut inner = self.inner.lock().expect("config arena poisoned");
        let slot = inner.slots[r.0 as usize].take();
        debug_assert!(slot.is_some(), "double free of ConfigRef");
        if slot.is_some() {
            inner.free.push(r.0);
        }
    }

    /// Number of live payloads (diagnostics / leak tests).
    pub fn live(&self) -> usize {
        let inner = self.inner.lock().expect("config arena poisoned");
        inner.slots.len() - inner.free.len()
    }

    /// Snapshot the slab verbatim (slots *and* free list), so every
    /// in-flight [`ConfigRef`] handle stays valid across a restore.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        let inner = self.inner.lock().expect("config arena poisoned");
        inner.slots.save(w);
        inner.free.save(w);
    }

    /// Replace this arena's contents with a snapshot's.
    pub fn load_state(&self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let slots = Vec::<Option<ConfigKind>>::load(r)?;
        let free = Vec::<u32>::load(r)?;
        for &f in &free {
            if slots.get(f as usize).is_none_or(|s| s.is_some()) {
                return Err(SnapshotError::Corrupt("arena free list"));
            }
        }
        let mut inner = self.inner.lock().expect("config arena poisoned");
        inner.slots = slots;
        inner.free = free;
        Ok(())
    }
}

use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

impl Snap for ConfigRef {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u32(self.0);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        Ok(ConfigRef(r.u32()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::SetupInfo;
    use crate::geometry::NodeId;

    fn setup(slot: u16) -> ConfigKind {
        ConfigKind::Setup(SetupInfo {
            src: NodeId(0),
            dst: NodeId(5),
            slot,
            duration: 4,
            path_id: 9,
        })
    }

    #[test]
    fn alloc_get_free_roundtrip() {
        let a = ConfigArena::new();
        let r1 = a.alloc(setup(3));
        let r2 = a.alloc(setup(7));
        assert_ne!(r1, r2);
        assert_eq!(a.get(r1).info().slot, 3);
        assert_eq!(a.get(r2).info().slot, 7);
        assert_eq!(a.live(), 2);
        a.free(r1);
        assert_eq!(a.live(), 1);
        // Freed slots are recycled.
        let r3 = a.alloc(setup(11));
        assert_eq!(r3, r1);
        assert_eq!(a.get(r3).info().slot, 11);
    }

    #[test]
    fn none_is_inert() {
        let a = ConfigArena::new();
        assert!(ConfigRef::NONE.is_none());
        assert!(!ConfigRef::NONE.is_some());
        a.free(ConfigRef::NONE);
        assert_eq!(a.live(), 0);
        assert_eq!(ConfigRef::default(), ConfigRef::NONE);
    }

    #[test]
    #[should_panic(expected = "dangling ConfigRef")]
    fn get_none_panics() {
        ConfigArena::new().get(ConfigRef::NONE);
    }
}
