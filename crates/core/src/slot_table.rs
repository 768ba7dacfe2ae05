//! Slot tables (§II, Figure 1).
//!
//! Each input port keeps a table of S entries; entry `s` controls the
//! router in cycles `t ≡ s (mod S)`. An entry is either invalid (the cycle
//! belongs to the packet-switched network) or names the output port
//! reserved for a circuit. Reservations cover `duration` *consecutive*
//! slots (modulo S, §II-B) and fail if any required slot is taken at this
//! input port **or** the requested output port is already promised to a
//! different input port in that slot (Figure 1's `setup2`/`setup3`
//! failures).
//!
//! Microarchitecturally an entry is a valid bit plus a 3-bit output-port
//! id, and that is what the tables store per slot: one byte. The path id
//! and destination are bookkeeping that hardware keeps implicitly
//! (teardowns walk the same path as their setup, and the DLT snoops setup
//! messages); they are kept once per reservation, not per slot, and only
//! a circuit head flit's DLT confirm and a hitchhike check read them.

use noc_sim::{NodeId, Port, Snap, SnapshotError, SnapshotReader, SnapshotWriter};

#[cfg(test)]
mod oracle;

/// A valid slot-table entry with its reservation's bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotEntry {
    /// Reserved output port.
    pub out: Port,
    /// Path this reservation belongs to.
    pub path_id: u64,
    /// Final destination of the path (snooped by the DLT).
    pub dst: NodeId,
}

/// Why a reservation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReserveError {
    /// A required slot at this input port is already valid (Figure 1,
    /// `setup2`).
    SlotOccupied,
    /// The output port is reserved for another input port in a required
    /// slot (Figure 1, `setup3`).
    OutputConflict,
    /// The 90 % reservation cap would be exceeded (§II-B starvation
    /// prevention).
    CapReached,
}

/// Byte-row value of an invalid entry.
const INVALID: u8 = u8::MAX;

// SoA row-size contract (see the 32-byte Flit assert in `noc_sim::flit`):
// an entry is one byte holding a `Port::index` or `INVALID`.
const _: () = assert!(
    Port::COUNT <= INVALID as usize,
    "a slot-table entry must stay one byte (DESIGN.md §13)"
);

// The per-slot output reservation masks (and `reserved_outputs`'s return
// type) hold one bit per port in a u8.
const _: () = assert!(
    Port::COUNT <= 8,
    "SlotTables::out_masks packs port bits into a u8"
);

/// One reservation: `len` consecutive slots (modulo the active size) from
/// `start` at one input port, all switched to `out`.
#[derive(Clone, Copy, Debug)]
struct Run {
    path_id: u64,
    dst: NodeId,
    start: u16,
    len: u8,
    out: Port,
}

/// The five per-input-port slot tables of one hybrid router.
#[derive(Clone, Debug)]
pub struct SlotTables {
    /// Reserved output (`Port::index`) or `INVALID` per entry, flat over
    /// `port * capacity + slot`: the row every lookup, conflict probe and
    /// free-run scan reads.
    outs: Box<[u8]>,
    /// For each valid entry, the index of its reservation in
    /// `runs[port]` (stale where the entry is invalid).
    run_of: Box<[u16]>,
    /// Live reservations per input port, in no particular order.
    runs: [Vec<Run>; Port::COUNT],
    /// Per-slot bitmask of reserved *output* ports (bit = `Port::index`),
    /// maintained by `try_reserve`/`release_path`/`reset`. Outputs are
    /// exclusive within a slot, so each set bit corresponds to exactly one
    /// entry. Lets the per-cycle constraint build read one byte instead of
    /// probing all five input tables. One byte caps the radix at 8 ports
    /// (checked at compile time above).
    out_masks: Vec<u8>,
    capacity: u16,
    active: u16,
    cap_fraction: f64,
    /// Valid entries per input port (cap accounting).
    valid_counts: [u32; Port::COUNT],
}

impl SlotTables {
    /// `capacity` physical entries per port, `active` of them powered on
    /// initially, and a reservation cap (fraction of active entries).
    pub fn new(capacity: u16, active: u16, cap_fraction: f64) -> Self {
        assert!(capacity > 0 && active > 0 && active <= capacity);
        assert!((0.0..=1.0).contains(&cap_fraction));
        let entries = Port::COUNT * capacity as usize;
        SlotTables {
            outs: vec![INVALID; entries].into_boxed_slice(),
            run_of: vec![0; entries].into_boxed_slice(),
            runs: Default::default(),
            out_masks: vec![0; capacity as usize],
            capacity,
            active,
            cap_fraction,
            valid_counts: [0; Port::COUNT],
        }
    }

    /// Number of active (powered) entries per port — the modulus S.
    pub fn active(&self) -> u16 {
        self.active
    }

    pub fn capacity(&self) -> u16 {
        self.capacity
    }

    /// Slot index controlling cycle `t`. Table sizes are powers of two in
    /// every shipped configuration (128 and 256 entries, doubled or halved
    /// by a resize); there the mask is exact and skips a 64-bit division,
    /// which this per-hop lookup would otherwise pay several times a step.
    #[inline]
    pub fn slot_of(&self, t: u64) -> u16 {
        let a = self.active as u64;
        if a.is_power_of_two() {
            (t & (a - 1)) as u16
        } else {
            (t % a) as u16
        }
    }

    /// Total powered entries (leakage accounting): active × ports.
    pub fn powered_entries(&self) -> u32 {
        self.active as u32 * Port::COUNT as u32
    }

    /// Flat index of `port`'s entry for slot `s`.
    #[inline]
    fn at(&self, port: Port, s: usize) -> usize {
        port.index() * self.capacity as usize + s
    }

    /// The output reserved for input `port` at cycle `t`, if any.
    #[inline]
    pub fn lookup(&self, port: Port, t: u64) -> Option<Port> {
        match self.outs[self.at(port, self.slot_of(t) as usize)] {
            INVALID => None,
            o => Some(Port::from_index(o as usize)),
        }
    }

    /// The full entry for input `port` at cycle `t`: output, path and
    /// destination.
    pub fn entry(&self, port: Port, t: u64) -> Option<SlotEntry> {
        self.entry_at(port, self.slot_of(t) as usize)
    }

    fn entry_at(&self, port: Port, s: usize) -> Option<SlotEntry> {
        let i = self.at(port, s);
        if self.outs[i] == INVALID {
            return None;
        }
        let run = &self.runs[port.index()][self.run_of[i] as usize];
        Some(SlotEntry {
            out: run.out,
            path_id: run.path_id,
            dst: run.dst,
        })
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
        Port::ALL
            .into_iter()
            .find(|&p| self.outs[self.at(p, s)] == out.index() as u8)
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
            if self.outs[self.at(in_port, s)] != INVALID {
                return Err(ReserveError::SlotOccupied);
            }
            // Outputs are exclusive within a slot: one mask probe replaces
            // the four foreign-table scans (out_masks tracks every port).
            if self.out_masks[s] & (1 << out.index()) != 0 {
                return Err(ReserveError::OutputConflict);
            }
        }
        if duration > 0 {
            self.place(
                in_port,
                Run {
                    path_id,
                    dst,
                    start: s0,
                    len: duration,
                    out,
                },
            );
        }
        Ok(duration)
    }

    /// Record `run` at `in_port`, whose slots must be free.
    fn place(&mut self, in_port: Port, run: Run) {
        let runs = &mut self.runs[in_port.index()];
        // A port holds at most `active <= capacity` runs, so this fits.
        let r = runs.len() as u16;
        runs.push(run);
        for s in self.run_slots(&run) {
            let i = self.at(in_port, s);
            self.outs[i] = run.out.index() as u8;
            self.run_of[i] = r;
            self.out_masks[s] |= 1 << run.out.index();
        }
        self.valid_counts[in_port.index()] += run.len as u32;
    }

    /// The slots `run` covers.
    fn run_slots(&self, run: &Run) -> impl Iterator<Item = usize> {
        let active = self.active as usize;
        let start = run.start as usize;
        (0..run.len as usize).map(move |k| (start + k) % active)
    }

    /// Invalidate every entry of `path_id` at `in_port` (teardown). Returns
    /// the reserved output port and the number of entries cleared, or
    /// `None` if the path has no entries here (the teardown reached the
    /// point where its setup failed). A setup reserves once per router,
    /// so this normally clears one run; a path reserved several times at
    /// one port must name one output there.
    pub fn release_path(&mut self, in_port: Port, path_id: u64) -> Option<(Port, u8)> {
        let mut released = None;
        while let Some(r) = self.runs[in_port.index()]
            .iter()
            .position(|run| run.path_id == path_id)
        {
            let run = self.unplace(in_port, r);
            let before = released.map_or(0, |(_, n)| n);
            released = Some((run.out, before + run.len));
        }
        released
    }

    /// Remove run `r` of `in_port` and invalidate its slots.
    fn unplace(&mut self, in_port: Port, r: usize) -> Run {
        let runs = &mut self.runs[in_port.index()];
        let run = runs.swap_remove(r);
        if let Some(&moved) = runs.get(r) {
            for s in self.run_slots(&moved) {
                let i = self.at(in_port, s);
                self.run_of[i] = r as u16;
            }
        }
        for s in self.run_slots(&run) {
            let i = self.at(in_port, s);
            self.outs[i] = INVALID;
            self.out_masks[s] &= !(1 << run.out.index());
        }
        self.valid_counts[in_port.index()] -= run.len as u32;
        run
    }

    /// Fraction of active entries reserved at `in_port`.
    pub fn reserved_fraction(&self, in_port: Port) -> f64 {
        self.valid_counts[in_port.index()] as f64 / self.active as f64
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
                if self.outs[self.at(in_port, s)] != INVALID
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
        self.outs.fill(INVALID);
        self.runs.iter_mut().for_each(Vec::clear);
        self.out_masks.fill(0);
        self.valid_counts = [0; Port::COUNT];
        self.active = new_active;
        cleared
    }

    /// Serialise the mutable table state (snapshot seam, DESIGN.md §14).
    /// `capacity` and the reservation cap are construction-time; `capacity`
    /// is written anyway so a restore into a differently-sized router is a
    /// detectable mismatch instead of silent corruption. The entries are
    /// written as one `Option<SlotEntry>` per (input port, slot), the
    /// encoding of the per-slot layout these tables replaced.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.u16(self.capacity);
        w.u16(self.active);
        w.usize(self.outs.len());
        for p in Port::ALL {
            for s in 0..self.capacity as usize {
                self.entry_at(p, s).save(w);
            }
        }
        self.out_masks.save(w);
        self.valid_counts.save(w);
    }

    /// Inverse of [`SlotTables::save_state`]. The output masks and valid
    /// counts are derived from the decoded entries, and a blob whose
    /// stored copies disagree with them, whose entries claim one output
    /// for two inputs in a slot, or whose entries for one path at a port
    /// name different outputs or destinations is rejected as corrupt.
    pub fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        if r.u16()? != self.capacity {
            return Err(SnapshotError::Mismatch("slot-table capacity"));
        }
        let active = r.u16()?;
        if active == 0 || active > self.capacity {
            return Err(SnapshotError::Corrupt("slot-table active count"));
        }
        let entries: Box<[Option<SlotEntry>]> = Snap::load(r)?;
        if entries.len() != self.outs.len() {
            return Err(SnapshotError::Corrupt("slot-table entry count"));
        }
        let out_masks: Vec<u8> = Snap::load(r)?;
        if out_masks.len() != self.out_masks.len() {
            return Err(SnapshotError::Corrupt("slot-table mask count"));
        }
        let valid_counts: [u32; Port::COUNT] = Snap::load(r)?;
        let mut t = SlotTables::new(self.capacity, active, self.cap_fraction);
        for (p, row) in Port::ALL
            .into_iter()
            .zip(entries.chunks(t.capacity as usize))
        {
            t.load_port(p, row)?;
        }
        if t.out_masks != out_masks {
            return Err(SnapshotError::Corrupt("slot-table output masks"));
        }
        if t.valid_counts != valid_counts {
            return Err(SnapshotError::Corrupt("slot-table valid counts"));
        }
        *self = t;
        Ok(())
    }

    /// Rebuild input `port`'s runs from its decoded per-slot entries.
    fn load_port(&mut self, port: Port, row: &[Option<SlotEntry>]) -> Result<(), SnapshotError> {
        let active = self.active as usize;
        if row[active..].iter().any(Option::is_some) {
            return Err(SnapshotError::Corrupt(
                "slot-table entry beyond the active size",
            ));
        }
        let row = &row[..active];
        let path = |s: usize| row[s % active].map(|e| e.path_id);
        // With no slot free and one path everywhere, no slot follows a
        // different path; the run then starts at slot 0.
        let one_ring = (0..active).all(|s| path(s).is_some() && path(s) == path(0));
        for start in 0..active {
            let Some(head) = row[start] else { continue };
            if path(start + active - 1) == Some(head.path_id) && !(one_ring && start == 0) {
                continue; // inside a run that started earlier
            }
            if self.runs[port.index()]
                .iter()
                .any(|r| r.path_id == head.path_id && (r.out, r.dst) != (head.out, head.dst))
            {
                return Err(SnapshotError::Corrupt("slot-table path entries disagree"));
            }
            let mut len = 0;
            while len < active && path(start + len) == Some(head.path_id) {
                let s = (start + len) % active;
                if row[s] != Some(head) {
                    return Err(SnapshotError::Corrupt("slot-table path entries disagree"));
                }
                if self.out_masks[s] & (1 << head.out.index()) != 0 {
                    return Err(SnapshotError::Corrupt("slot-table output reserved twice"));
                }
                len += 1;
            }
            let len =
                u8::try_from(len).map_err(|_| SnapshotError::Corrupt("slot-table run length"))?;
            let run = Run {
                path_id: head.path_id,
                dst: head.dst,
                start: start as u16,
                len,
                out: head.out,
            };
            self.place(port, run);
        }
        Ok(())
    }
}

noc_sim::impl_snap!(SlotEntry { out, path_id, dst });

#[cfg(test)]
mod tests {
    use super::*;

    const IN_1: Port = Port::West;
    const IN_2: Port = Port::South;
    const OUT_3: Port = Port::North;
    const OUT_4: Port = Port::East;
    const DST: NodeId = NodeId(9);

    fn figure1_tables() -> SlotTables {
        // Figure 1: 4-slot tables, two input ports shown.
        SlotTables::new(4, 4, 1.0)
    }

    #[test]
    fn figure1_setup1_succeeds_with_modulo_wrap() {
        let mut t = figure1_tables();
        // setup1: in_1 → out_4, slot s3, duration 2 ⇒ s3 and s0 reserved.
        assert_eq!(t.try_reserve(IN_1, 3, 2, OUT_4, 1, DST), Ok(2));
        assert_eq!(t.lookup(IN_1, 3), Some(OUT_4));
        assert_eq!(t.lookup(IN_1, 4), Some(OUT_4)); // cycle 4 ≡ s0
        assert!(t.lookup(IN_1, 1).is_none());
        assert!(t.lookup(IN_2, 3).is_none());
    }

    #[test]
    fn figure1_setup2_fails_slot_occupied() {
        let mut t = figure1_tables();
        t.try_reserve(IN_1, 3, 2, OUT_4, 1, DST).unwrap();
        // setup2: in_1 → out_3 at s3: the slot is already allocated.
        assert_eq!(
            t.try_reserve(IN_1, 3, 1, OUT_3, 2, DST),
            Err(ReserveError::SlotOccupied)
        );
        // Tables unchanged.
        assert_eq!(t.entry(IN_1, 3).unwrap().path_id, 1);
    }

    #[test]
    fn figure1_setup3_fails_output_conflict() {
        let mut t = figure1_tables();
        t.try_reserve(IN_1, 3, 2, OUT_4, 1, DST).unwrap();
        // setup3: in_2 → out_4 at s3: out_4 is reserved for in_1 at s3.
        assert_eq!(
            t.try_reserve(IN_2, 3, 1, OUT_4, 3, DST),
            Err(ReserveError::OutputConflict)
        );
        assert!(t.lookup(IN_2, 3).is_none());
    }

    #[test]
    fn figure1_teardown_frees_slots_for_reuse() {
        let mut t = figure1_tables();
        t.try_reserve(IN_1, 3, 2, OUT_4, 1, DST).unwrap();
        let (out, n) = t.release_path(IN_1, 1).unwrap();
        assert_eq!(out, OUT_4);
        assert_eq!(n, 2);
        // Both failures from Figure 1 now succeed.
        assert_eq!(t.try_reserve(IN_1, 3, 1, OUT_3, 2, DST), Ok(1));
        assert_eq!(t.try_reserve(IN_2, 0, 1, OUT_4, 3, DST), Ok(1));
    }

    #[test]
    fn release_unknown_path_returns_none() {
        let mut t = figure1_tables();
        assert_eq!(t.release_path(IN_1, 77), None);
    }

    #[test]
    fn different_outputs_share_a_slot_across_ports() {
        let mut t = figure1_tables();
        t.try_reserve(IN_1, 2, 1, OUT_4, 1, DST).unwrap();
        // Same slot, different input *and* different output: fine.
        assert_eq!(t.try_reserve(IN_2, 2, 1, OUT_3, 2, DST), Ok(1));
        assert_eq!(t.input_reserving_output(2, OUT_4), Some(IN_1));
        assert_eq!(t.input_reserving_output(2, OUT_3), Some(IN_2));
        assert_eq!(t.input_reserving_output(3, OUT_4), None);
    }

    #[test]
    fn reservation_cap_blocks_at_90_percent() {
        // 10 active slots, cap 0.9 ⇒ at most 9 reserved entries per port.
        let mut t = SlotTables::new(10, 10, 0.9);
        assert_eq!(t.try_reserve(IN_1, 0, 4, OUT_4, 1, DST), Ok(4));
        assert_eq!(t.try_reserve(IN_1, 4, 4, OUT_4, 2, DST), Ok(4));
        // 8 reserved; 4 more would exceed 9.
        assert_eq!(
            t.try_reserve(IN_1, 8, 4, OUT_3, 3, DST),
            Err(ReserveError::CapReached)
        );
        assert!((t.reserved_fraction(IN_1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn find_free_run_skips_conflicts() {
        let mut t = SlotTables::new(16, 16, 1.0);
        t.try_reserve(IN_1, 0, 4, OUT_4, 1, DST).unwrap();
        // From slot 0 the next free run at IN_1 starts at 4.
        assert_eq!(t.find_free_run(IN_1, OUT_3, 4, 0), Some(4));
        // A run at IN_2 avoiding OUT_4 (reserved s0–s3 by IN_1) starts at 4.
        assert_eq!(t.find_free_run(IN_2, OUT_4, 4, 0), Some(4));
        // A run at IN_2 with a different output can start right at 0.
        assert_eq!(t.find_free_run(IN_2, OUT_3, 4, 0), Some(0));
    }

    #[test]
    fn find_free_run_none_when_full() {
        let mut t = SlotTables::new(8, 8, 1.0);
        t.try_reserve(IN_1, 0, 4, OUT_4, 1, DST).unwrap();
        t.try_reserve(IN_1, 4, 4, OUT_3, 2, DST).unwrap();
        assert_eq!(t.find_free_run(IN_1, OUT_4, 4, 0), None);
    }

    #[test]
    fn reset_doubles_active_size() {
        let mut t = SlotTables::new(128, 16, 0.9);
        assert_eq!(t.active(), 16);
        t.try_reserve(IN_1, 1, 4, OUT_4, 1, DST).unwrap();
        let cleared = t.reset(32);
        assert_eq!(cleared, 4);
        assert_eq!(t.active(), 32);
        assert!(t.lookup(IN_1, 1).is_none());
        assert_eq!(t.powered_entries(), 32 * 5);
    }

    #[test]
    fn slot_of_uses_active_modulus() {
        let t = SlotTables::new(128, 16, 0.9);
        assert_eq!(t.slot_of(16), 0);
        assert_eq!(t.slot_of(35), 3);
    }

    fn saved(t: &SlotTables) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        t.save_state(&mut w);
        w.into_bytes()
    }

    fn entry(out: Port, path_id: u64) -> SlotEntry {
        SlotEntry {
            out,
            path_id,
            dst: DST,
        }
    }

    /// A hand-written 8-slot table blob: `entries` as (input, slot, entry),
    /// with the output masks and valid counts derived from them and then
    /// passed through `edit` (the hook that corrupts the stored copies).
    fn blob(
        active: u16,
        entries: &[(Port, usize, SlotEntry)],
        edit: impl FnOnce(&mut Vec<u8>, &mut [u32; Port::COUNT]),
    ) -> Vec<u8> {
        const CAP: usize = 8;
        let mut rows = vec![None; Port::COUNT * CAP];
        let mut masks = vec![0u8; CAP];
        let mut counts = [0u32; Port::COUNT];
        for &(p, s, e) in entries {
            rows[p.index() * CAP + s] = Some(e);
            masks[s] |= 1 << e.out.index();
            counts[p.index()] += 1;
        }
        edit(&mut masks, &mut counts);
        let mut w = SnapshotWriter::new();
        w.u16(CAP as u16);
        w.u16(active);
        rows.into_boxed_slice().save(&mut w);
        masks.save(&mut w);
        counts.save(&mut w);
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<SlotTables, SnapshotError> {
        let mut t = SlotTables::new(8, 8, 1.0);
        t.load_state(&mut SnapshotReader::new(bytes))?;
        Ok(t)
    }

    #[test]
    fn load_rebuilds_runs_including_wrapped_ones() {
        let mut t = SlotTables::new(8, 8, 1.0);
        t.try_reserve(IN_1, 6, 4, OUT_4, 1, DST).unwrap(); // s6, s7, s0, s1
        t.try_reserve(IN_1, 2, 2, OUT_3, 2, DST).unwrap(); // adjacent run
        t.try_reserve(Port::Local, 0, 8, Port::South, 4, NodeId(4))
            .unwrap(); // whole ring
        let bytes = saved(&t);
        let mut u = load(&bytes).expect("a saved table loads");
        assert_eq!(saved(&u), bytes);
        assert_eq!(u.entry(IN_1, 0), Some(entry(OUT_4, 1)));
        assert_eq!(u.release_path(IN_1, 1), Some((OUT_4, 4)));
        assert_eq!(u.release_path(Port::Local, 4), Some((Port::South, 8)));
        assert_eq!(u.lookup(IN_1, 3), Some(OUT_3));
        assert_eq!(u.reserved_outputs(0), 0);
    }

    #[test]
    fn load_rejects_inconsistent_tables() {
        let w0 = (IN_1, 0, entry(OUT_4, 1));
        let w1 = (IN_1, 1, entry(OUT_4, 1));
        let good = [w0, w1];
        assert!(load(&blob(8, &good, |_, _| {})).is_ok());
        let split = blob(8, &[w0, (IN_1, 3, entry(OUT_4, 1))], |_, _| {});
        let mut t = load(&split).expect("one path may hold two runs at a port");
        assert_eq!(saved(&t), split);
        assert_eq!(t.release_path(IN_1, 1), Some((OUT_4, 2)));
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "mask missing a reservation",
                blob(8, &good, |m, _| m[1] = 0),
            ),
            (
                "mask with a phantom output",
                blob(8, &good, |m, _| m[5] = 1),
            ),
            (
                "count under-reports",
                blob(8, &good, |_, c| c[IN_1.index()] = 1),
            ),
            (
                "count over-reports",
                blob(8, &good, |_, c| c[IN_2.index()] = 3),
            ),
            (
                "two inputs claim one output",
                blob(8, &[w0, (IN_2, 0, entry(OUT_4, 2))], |m, _| {
                    m[0] = 1 << OUT_4.index()
                }),
            ),
            (
                "one path, two outputs",
                blob(8, &[w0, (IN_1, 1, entry(OUT_3, 1))], |_, _| {}),
            ),
            (
                "one path, two destinations",
                blob(
                    8,
                    &[
                        w0,
                        (
                            IN_1,
                            1,
                            SlotEntry {
                                dst: NodeId(3),
                                ..w1.2
                            },
                        ),
                    ],
                    |_, _| {},
                ),
            ),
            (
                "one path, two runs, two outputs",
                blob(8, &[w0, (IN_1, 3, entry(OUT_3, 1))], |_, _| {}),
            ),
            (
                "entry beyond the active size",
                blob(4, &[(IN_1, 6, entry(OUT_4, 1))], |_, _| {}),
            ),
        ];
        for (what, bytes) in cases {
            match load(&bytes) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("{what}: expected Corrupt, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn under_reported_counts_cannot_underflow_a_release() {
        // Decoded as stored, this blob would let `release_path` subtract
        // two entries from a count of one.
        let bytes = blob(
            8,
            &[(IN_1, 0, entry(OUT_4, 1)), (IN_1, 1, entry(OUT_4, 1))],
            |_, c| c[IN_1.index()] = 1,
        );
        let mut t = SlotTables::new(8, 8, 1.0);
        t.try_reserve(IN_2, 4, 2, OUT_3, 9, DST).unwrap();
        let before = saved(&t);
        assert!(t.load_state(&mut SnapshotReader::new(&bytes)).is_err());
        assert_eq!(
            saved(&t),
            before,
            "a rejected blob leaves the tables as they were"
        );
    }

    #[test]
    fn truncated_blobs_are_errors() {
        let mut t = SlotTables::new(8, 8, 0.9);
        t.try_reserve(IN_1, 6, 3, OUT_4, 1, DST).unwrap();
        let bytes = saved(&t);
        for n in 0..bytes.len() {
            assert!(load(&bytes[..n]).is_err(), "prefix of {n} bytes decoded");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::oracle::OracleSlotTables;
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        /// Reserve for a fresh path, or again for an earlier path (with
        /// that path's output and destination) when `reuse` picks one.
        Reserve {
            port: usize,
            slot: u16,
            duration: u8,
            out: usize,
            dst: u32,
            reuse: usize,
        },
        /// Release a reservation made so far at its own port (when `pick`
        /// indexes one), else an issued path id, or one never issued, at
        /// `port`.
        Release {
            port: usize,
            pick: usize,
        },
        FindFreeRun {
            port: usize,
            out: usize,
            duration: u8,
            from: u16,
        },
        Reset {
            active: u16,
        },
        /// Replace the tables by a copy decoded from their own snapshot.
        Restore,
    }

    fn op() -> impl Strategy<Value = Op> {
        let reserve = || {
            (
                0usize..5,
                0u16..64,
                1u8..7,
                0usize..5,
                0u32..16,
                0usize..128,
            )
                .prop_map(|(port, slot, duration, out, dst, reuse)| Op::Reserve {
                    port,
                    slot,
                    duration,
                    out,
                    dst,
                    reuse,
                })
        };
        prop_oneof![
            reserve(),
            reserve(),
            reserve(),
            (0usize..5, 0usize..48).prop_map(|(port, pick)| Op::Release { port, pick }),
            (0usize..5, 0usize..48).prop_map(|(port, pick)| Op::Release { port, pick }),
            (0usize..5, 0usize..5, 1u8..7, 0u16..64).prop_map(|(port, out, duration, from)| {
                Op::FindFreeRun {
                    port,
                    out,
                    duration,
                    from,
                }
            }),
            (1u16..17).prop_map(|active| Op::Reset { active }),
            Just(Op::Restore),
        ]
    }

    fn saved_bytes(save: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The byte-row tables behave exactly like the per-slot
        /// `Option<SlotEntry>` layout they replaced: same return values,
        /// same lookups in every slot, same snapshot bytes after every step.
        #[test]
        fn byte_rows_match_the_per_slot_reference(
            cap_i in 0usize..3,
            active in 1u16..17,
            ops in prop::collection::vec(op(), 1..80),
        ) {
            const CAP: u16 = 16;
            let cap_fraction = [0.5, 0.9, 1.0][cap_i];
            let mut t = SlotTables::new(CAP, active, cap_fraction);
            let mut oracle = OracleSlotTables::new(CAP, active, cap_fraction);
            let mut issued: Vec<(u64, usize, u32)> = Vec::new();
            let mut reserved: Vec<(Port, u64)> = Vec::new();
            for op in ops {
                match op {
                    Op::Reserve { port, slot, duration, out, dst, reuse } => {
                        let (id, out, dst) = match issued.get(reuse) {
                            Some(&earlier) if reuse < 32 => earlier,
                            _ => {
                                issued.push((100 + issued.len() as u64, out, dst));
                                issued[issued.len() - 1]
                            }
                        };
                        let args = (Port::ALL[port], slot, duration, Port::ALL[out]);
                        let made = t.try_reserve(args.0, args.1, args.2, args.3, id, NodeId(dst));
                        prop_assert_eq!(
                            made,
                            oracle.try_reserve(args.0, args.1, args.2, args.3, id, NodeId(dst))
                        );
                        if made.is_ok() {
                            reserved.push((args.0, id));
                        }
                    }
                    Op::Release { port, pick } => {
                        let (p, id) = match reserved.get(pick) {
                            Some(&made) if pick < 24 => made,
                            _ => (Port::ALL[port], issued.get(pick).map_or(7, |&(id, _, _)| id)),
                        };
                        prop_assert_eq!(t.release_path(p, id), oracle.release_path(p, id));
                    }
                    Op::FindFreeRun { port, out, duration, from } => {
                        let (p, o) = (Port::ALL[port], Port::ALL[out]);
                        prop_assert_eq!(
                            t.find_free_run(p, o, duration, from),
                            oracle.find_free_run(p, o, duration, from)
                        );
                    }
                    Op::Reset { active } => {
                        prop_assert_eq!(t.reset(active), oracle.reset(active));
                    }
                    Op::Restore => {
                        let bytes = saved_bytes(|w| t.save_state(w));
                        t = SlotTables::new(CAP, 1, cap_fraction);
                        t.load_state(&mut SnapshotReader::new(&bytes)).unwrap();
                    }
                }
                prop_assert_eq!(
                    saved_bytes(|w| t.save_state(w)),
                    saved_bytes(|w| oracle.save_state(w))
                );
                for now in 0..t.active() as u64 {
                    prop_assert_eq!(t.reserved_outputs(now), oracle.reserved_outputs(now));
                    for p in Port::ALL {
                        let want = oracle.lookup(p, now).copied();
                        prop_assert_eq!(t.lookup(p, now), want.map(|e| e.out));
                        prop_assert_eq!(t.entry(p, now), want);
                        prop_assert_eq!(
                            t.input_reserving_output(now, p),
                            oracle.input_reserving_output(now, p)
                        );
                    }
                }
                prop_assert_eq!(t.reserved_fraction_total(), oracle.reserved_fraction_total());
            }
        }
    }

    proptest! {
        /// Whatever `find_free_run` returns must actually be reservable,
        /// and a successful reservation must not overlap any pre-existing
        /// one at the same port or conflict on the output.
        #[test]
        fn find_free_run_results_are_reservable(
            seed_ops in prop::collection::vec((0usize..5, 0u16..32, 1u8..6, 0usize..5), 0..25),
            in_p in 0usize..5,
            out_p in 0usize..5,
            dur in 1u8..6,
            from in 0u16..32,
        ) {
            // Cap 1.0: this property tests the geometric contract; the
            // reservation cap is the caller's concern.
            let mut t = SlotTables::new(32, 32, 1.0);
            for (pid, (p, slot, d, o)) in (1u64..).zip(seed_ops) {
                let _ = t.try_reserve(Port::ALL[p], slot, d, Port::ALL[o], pid, NodeId(0));
            }
            let in_port = Port::ALL[in_p];
            let out = Port::ALL[out_p];
            if let Some(start) = t.find_free_run(in_port, out, dur, from) {
                prop_assert!(
                    t.try_reserve(in_port, start, dur, out, 999_999, NodeId(9)).is_ok(),
                    "find_free_run proposed an unreservable start {start}"
                );
            }
        }

        /// Reserve/release round-trips leave valid counts exact.
        #[test]
        fn valid_counts_balance(
            ops in prop::collection::vec((0usize..5, 0u16..32, 1u8..5, 0usize..5), 1..40)
        ) {
            let mut t = SlotTables::new(32, 32, 1.0);
            let mut live: Vec<(Port, u64, u8)> = Vec::new();
            for (pid, (p, slot, d, o)) in (1u64..).zip(ops) {
                let port = Port::ALL[p];
                if t.try_reserve(port, slot, d, Port::ALL[o], pid, NodeId(0)).is_ok() {
                    live.push((port, pid, d));
                }
            }
            let expected: f64 = live.iter().map(|&(_, _, d)| d as f64).sum::<f64>()
                / (32.0 * Port::COUNT as f64);
            let measured = t.reserved_fraction_total();
            prop_assert!((measured - expected).abs() < 1e-9);
            for (port, id, _) in live {
                prop_assert!(t.release_path(port, id).is_some());
            }
            prop_assert!(t.reserved_fraction_total() < 1e-12);
        }
    }
}
