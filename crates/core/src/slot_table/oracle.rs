//! The slot-table layout this crate shipped before the byte-row
//! [`SlotTables`](super::SlotTables): one 16-byte `Option<SlotEntry>` per
//! (input port, slot), with the path id and destination repeated in every
//! reserved slot. Kept as the reference model the property tests run the
//! production tables against; its `save_state` defines the snapshot
//! encoding both must write.

use super::{ReserveError, SlotEntry};
use noc_sim::{NodeId, Port, Snap, SnapshotWriter};

/// The five per-input-port slot tables of one hybrid router, one
/// `Option<SlotEntry>` row per (input port, slot).
#[derive(Clone, Debug)]
pub struct OracleSlotTables {
    /// Slot entries, flat over `port * capacity + slot` (one contiguous
    /// allocation instead of a Vec-of-Vecs; the per-cycle lookup is a
    /// single indexed load).
    tables: Box<[Option<SlotEntry>]>,
    /// Per-slot bitmask of reserved *output* ports (bit = `Port::index`),
    /// maintained by `try_reserve`/`release_path`/`reset`. Outputs are
    /// exclusive within a slot, so each set bit corresponds to exactly one
    /// entry. Lets the per-cycle constraint build read one byte instead of
    /// probing all five input tables. One byte caps the radix at 8 ports
    /// (checked at compile time in `slot_table.rs`).
    out_masks: Vec<u8>,
    capacity: u16,
    active: u16,
    cap_fraction: f64,
    /// Valid entries per input port (cap accounting).
    valid_counts: [u32; Port::COUNT],
}

impl OracleSlotTables {
    /// `capacity` physical entries per port, `active` of them powered on
    /// initially, and a reservation cap (fraction of active entries).
    pub fn new(capacity: u16, active: u16, cap_fraction: f64) -> Self {
        assert!(capacity > 0 && active > 0 && active <= capacity);
        assert!((0.0..=1.0).contains(&cap_fraction));
        OracleSlotTables {
            tables: vec![None; Port::COUNT * capacity as usize].into_boxed_slice(),
            out_masks: vec![0; capacity as usize],
            capacity,
            active,
            cap_fraction,
            valid_counts: [0; Port::COUNT],
        }
    }

    /// Slot index controlling cycle `t`.
    #[inline]
    pub fn slot_of(&self, t: u64) -> u16 {
        (t % self.active as u64) as u16
    }

    /// Flat index of `port`'s entry for slot `s`.
    #[inline]
    fn at(&self, port: Port, s: usize) -> usize {
        port.index() * self.capacity as usize + s
    }

    /// Look up the entry for input `port` at cycle `t`.
    pub fn lookup(&self, port: Port, t: u64) -> Option<&SlotEntry> {
        self.tables[self.at(port, self.slot_of(t) as usize)].as_ref()
    }

    /// Bitmask (by `Port::index`) of output ports reserved in the slot
    /// controlling cycle `t` — the O(1) read behind the per-cycle
    /// switch-constraint build.
    #[inline]
    pub fn reserved_outputs(&self, t: u64) -> u8 {
        self.out_masks[self.slot_of(t) as usize]
    }

    /// Which input port (if any) has reserved output `out` at cycle `t`.
    pub fn input_reserving_output(&self, t: u64, out: Port) -> Option<Port> {
        let s = self.slot_of(t) as usize;
        for p in Port::ALL {
            if let Some(e) = &self.tables[self.at(p, s)] {
                if e.out == out {
                    return Some(p);
                }
            }
        }
        None
    }

    /// Attempt to reserve `duration` consecutive slots starting at `slot`
    /// (modulo the active size) for `in_port → out`. Returns the number of
    /// entries written.
    pub fn try_reserve(
        &mut self,
        in_port: Port,
        slot: u16,
        duration: u8,
        out: Port,
        path_id: u64,
        dst: NodeId,
    ) -> Result<u8, ReserveError> {
        let s0 = slot % self.active;
        let cap_limit = (self.cap_fraction * self.active as f64) as u32;
        if self.valid_counts[in_port.index()] + duration as u32 > cap_limit {
            return Err(ReserveError::CapReached);
        }
        // Validate every required slot before mutating anything.
        for k in 0..duration {
            let s = ((s0 + k as u16) % self.active) as usize;
            if self.tables[self.at(in_port, s)].is_some() {
                return Err(ReserveError::SlotOccupied);
            }
            // Outputs are exclusive within a slot: one mask probe replaces
            // the four foreign-table scans (out_masks tracks every port).
            if self.out_masks[s] & (1 << out.index()) != 0 {
                return Err(ReserveError::OutputConflict);
            }
        }
        for k in 0..duration {
            let s = ((s0 + k as u16) % self.active) as usize;
            let i = self.at(in_port, s);
            self.tables[i] = Some(SlotEntry { out, path_id, dst });
            self.out_masks[s] |= 1 << out.index();
        }
        self.valid_counts[in_port.index()] += duration as u32;
        Ok(duration)
    }

    /// Invalidate every entry of `path_id` at `in_port` (teardown). Returns
    /// the reserved output port and the number of entries cleared, or
    /// `None` if the path has no entries here (the teardown reached the
    /// point where its setup failed).
    pub fn release_path(&mut self, in_port: Port, path_id: u64) -> Option<(Port, u8)> {
        let base = in_port.index() * self.capacity as usize;
        let mut out = None;
        let mut cleared = 0u8;
        for s in 0..self.capacity as usize {
            let e = &mut self.tables[base + s];
            if let Some(entry) = e {
                if entry.path_id == path_id {
                    out = Some(entry.out);
                    self.out_masks[s] &= !(1 << entry.out.index());
                    *e = None;
                    cleared += 1;
                }
            }
        }
        self.valid_counts[in_port.index()] -= cleared as u32;
        out.map(|o| (o, cleared))
    }

    /// Fraction of all active entries (across ports) currently reserved —
    /// the utilisation signal for dynamic table sizing (§II-C).
    pub fn reserved_fraction_total(&self) -> f64 {
        let valid: u32 = self.valid_counts.iter().sum();
        valid as f64 / (self.active as f64 * Port::COUNT as f64)
    }

    /// Find a start slot at `in_port` such that `duration` consecutive
    /// slots are free *and* the output port is unreserved in them; scanning
    /// starts at `from` (lets retries pick a different slot id, §II-B).
    pub fn find_free_run(&self, in_port: Port, out: Port, duration: u8, from: u16) -> Option<u16> {
        let s0 = from % self.active;
        'start: for off in 0..self.active {
            let start = (s0 + off) % self.active;
            for k in 0..duration as u16 {
                let s = ((start + k) % self.active) as usize;
                if self.tables[self.at(in_port, s)].is_some()
                    || self.out_masks[s] & (1 << out.index()) != 0
                {
                    continue 'start;
                }
            }
            return Some(start);
        }
        None
    }

    /// Reset all tables (dynamic granularity change, §II-C) and set the new
    /// active size. Returns the number of entries invalidated.
    pub fn reset(&mut self, new_active: u16) -> u32 {
        assert!(new_active > 0 && new_active <= self.capacity);
        let cleared: u32 = self.valid_counts.iter().sum();
        self.tables.fill(None);
        self.out_masks.fill(0);
        self.valid_counts = [0; Port::COUNT];
        self.active = new_active;
        cleared
    }

    /// Serialise the mutable table state (snapshot seam, DESIGN.md §14).
    /// `capacity` and the reservation cap are construction-time; `capacity`
    /// is written anyway so a restore into a differently-sized router is a
    /// detectable mismatch instead of silent corruption.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.u16(self.capacity);
        w.u16(self.active);
        self.tables.save(w);
        self.out_masks.save(w);
        self.valid_counts.save(w);
    }
}
