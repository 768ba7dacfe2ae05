//! Round-robin arbiters used by the separable VC and switch allocators.

use crate::snapshot::{Snap, SnapshotError, SnapshotReader};

/// A round-robin arbiter over `n` requesters with a rotating priority
/// pointer, as in canonical VC router allocators.
///
/// # Grant order
///
/// The priority pointer holds the **last granted** index and the search
/// starts one past it. A fresh arbiter initialises the pointer to `n - 1`
/// so that the very first grant goes to index 0 and a fully-loaded arbiter
/// then rotates `0, 1, …, n-1, 0, …` — the order the allocator unit tests
/// pin. [`RoundRobin::grant_mask`] implements the same rotation over a
/// `u64` request mask with `trailing_zeros`; the two are grant-for-grant
/// identical (see the `mask_matches_slice` property test).
#[derive(Clone, Debug)]
pub struct RoundRobin {
    n: usize,
    last: usize,
}

impl RoundRobin {
    pub fn new(n: usize) -> Self {
        RoundRobin {
            n,
            last: n.saturating_sub(1),
        }
    }

    /// Number of requesters this arbiter serves.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Grant one of the asserted requests (`reqs[i] == true`), starting the
    /// search after the previously granted index. Returns the winner and
    /// advances the priority pointer, or `None` if nothing is requested.
    pub fn grant(&mut self, reqs: &[bool]) -> Option<usize> {
        debug_assert_eq!(reqs.len(), self.n);
        if self.n == 0 {
            return None;
        }
        for off in 1..=self.n {
            let i = (self.last + off) % self.n;
            if reqs[i] {
                self.last = i;
                return Some(i);
            }
        }
        None
    }

    /// Like [`RoundRobin::grant`] but with requests given by predicate.
    pub fn grant_by<F: FnMut(usize) -> bool>(&mut self, mut req: F) -> Option<usize> {
        if self.n == 0 {
            return None;
        }
        for off in 1..=self.n {
            let i = (self.last + off) % self.n;
            if req(i) {
                self.last = i;
                return Some(i);
            }
        }
        None
    }

    /// Like [`RoundRobin::grant`] but with the request set given as a `u64`
    /// bitmask (bit `i` set ⇔ requester `i` asserts). The rotating search of
    /// the slice variant becomes two `trailing_zeros` probes: first over the
    /// bits at or past the start position, then over the wrapped-around low
    /// bits. Grant-for-grant identical to `grant` on the same request set.
    pub fn grant_mask(&mut self, mask: u64) -> Option<usize> {
        debug_assert!(self.n <= 64, "mask arbiter supports at most 64 requesters");
        debug_assert!(
            self.n == 64 || mask >> self.n == 0,
            "request mask has bits beyond the requester count"
        );
        if self.n == 0 || mask == 0 {
            return None;
        }
        // `last < n` holds (`new`, `resize` and `check_restored` keep it),
        // so one past it is at most `n` and wraps with a compare, not a
        // division.
        debug_assert!(self.last < self.n, "arbiter pointer past its requesters");
        let start = if self.last + 1 == self.n {
            0
        } else {
            self.last + 1
        };
        let ahead = mask >> start;
        let i = if ahead != 0 {
            start + ahead.trailing_zeros() as usize
        } else {
            mask.trailing_zeros() as usize
        };
        self.last = i;
        Some(i)
    }

    /// Resize the arbiter (used when VC counts change under power gating).
    pub fn resize(&mut self, n: usize) {
        self.n = n;
        if n == 0 {
            self.last = 0;
        } else {
            self.last %= n;
        }
    }
}

// Arbiter pointers are simulation state: a restored allocator must grant
// in exactly the order the continuous run would have.
crate::impl_snap!(RoundRobin { n, last });

impl RoundRobin {
    /// Accept a decoded arbiter in place of `built`, the one the fabric
    /// constructed: the requester count must be the built one and the
    /// pointer must name a requester (a zero-requester arbiter's is 0).
    /// The grants trust both, so a wrong one would trip
    /// [`RoundRobin::grant_mask`]'s assertions or grant a requester that
    /// does not exist once stepping resumes.
    pub fn check_restored(&self, built: &RoundRobin) -> Result<(), SnapshotError> {
        if self.n != built.n {
            return Err(SnapshotError::Mismatch("arbiter requester count"));
        }
        if self.last >= self.n.max(1) {
            return Err(SnapshotError::Corrupt(
                "arbiter pointer past its requesters",
            ));
        }
        Ok(())
    }
}

/// Decode a vector of arbiters saved in place of `built`, checking the
/// count and each arbiter with [`RoundRobin::check_restored`].
pub fn load_arbiters(
    r: &mut SnapshotReader,
    built: &[RoundRobin],
) -> Result<Vec<RoundRobin>, SnapshotError> {
    let arbs: Vec<RoundRobin> = Snap::load(r)?;
    if arbs.len() != built.len() {
        return Err(SnapshotError::Mismatch("arbiter count"));
    }
    for (a, b) in arbs.iter().zip(built) {
        a.check_restored(b)?;
    }
    Ok(arbs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotWriter;

    #[test]
    fn fairness_under_full_load() {
        let mut a = RoundRobin::new(4);
        let reqs = [true; 4];
        let mut grants = [0u32; 4];
        for _ in 0..400 {
            grants[a.grant(&reqs).unwrap()] += 1;
        }
        assert_eq!(grants, [100; 4]);
    }

    #[test]
    fn skips_idle_requesters() {
        let mut a = RoundRobin::new(3);
        let reqs = [false, true, false];
        for _ in 0..5 {
            assert_eq!(a.grant(&reqs), Some(1));
        }
        assert_eq!(a.grant(&[false; 3]), None);
    }

    #[test]
    fn rotates_after_grant() {
        let mut a = RoundRobin::new(3);
        // Starts searching at index 0.
        assert_eq!(a.grant(&[true, true, true]), Some(0));
        assert_eq!(a.grant(&[true, true, true]), Some(1));
        assert_eq!(a.grant(&[true, false, true]), Some(2));
        assert_eq!(a.grant(&[true, true, true]), Some(0));
    }

    #[test]
    fn grant_by_predicate() {
        let mut a = RoundRobin::new(5);
        assert_eq!(a.grant_by(|i| i % 2 == 1), Some(1));
        assert_eq!(a.grant_by(|i| i % 2 == 1), Some(3));
        assert_eq!(a.grant_by(|i| i % 2 == 1), Some(1));
    }

    /// Pins the grant order the mask rewrite must preserve: a fresh arbiter
    /// (priority pointer at `n - 1`) grants index 0 first, then rotates.
    #[test]
    fn fresh_arbiter_grants_index_zero_first() {
        let mut slice = RoundRobin::new(3);
        let mut mask = RoundRobin::new(3);
        assert_eq!(slice.grant(&[true, true, true]), Some(0));
        assert_eq!(mask.grant_mask(0b111), Some(0));
        assert_eq!(mask.grant_mask(0b111), Some(1));
        assert_eq!(mask.grant_mask(0b101), Some(2));
        assert_eq!(mask.grant_mask(0b111), Some(0));
    }

    #[test]
    fn mask_wraps_past_pointer() {
        let mut a = RoundRobin::new(4);
        assert_eq!(a.grant_mask(0b0100), Some(2));
        // Only lower indices request: search wraps around.
        assert_eq!(a.grant_mask(0b0011), Some(0));
        assert_eq!(a.grant_mask(0b0010), Some(1));
        assert_eq!(a.grant_mask(0), None);
    }

    #[test]
    fn mask_full_width() {
        let mut a = RoundRobin::new(64);
        assert_eq!(a.grant_mask(u64::MAX), Some(0));
        assert_eq!(a.grant_mask(1 << 63), Some(63));
        assert_eq!(a.grant_mask(u64::MAX), Some(0));
    }

    #[test]
    fn zero_and_resize() {
        let mut a = RoundRobin::new(0);
        assert_eq!(a.grant(&[]), None);
        a.resize(2);
        assert!(a.grant(&[true, true]).is_some());
        a.resize(1);
        assert_eq!(a.grant(&[true]), Some(0));
    }

    #[test]
    fn restored_arbiters_must_match_the_built_geometry() {
        let built = vec![RoundRobin::new(4), RoundRobin::new(4)];
        let decode = |arbs: &[RoundRobin]| {
            let mut w = SnapshotWriter::new();
            arbs.to_vec().save(&mut w);
            let bytes = w.into_bytes();
            load_arbiters(&mut SnapshotReader::new(&bytes), &built).map(|_| ())
        };
        let mut granted = RoundRobin::new(4);
        granted.grant_mask(0b1000);
        assert_eq!(decode(&[RoundRobin::new(4), granted]), Ok(()));
        let short = RoundRobin::new(3);
        assert!(matches!(
            decode(&[RoundRobin::new(4), short]),
            Err(SnapshotError::Mismatch(_))
        ));
        assert!(matches!(
            decode(&[RoundRobin::new(4)]),
            Err(SnapshotError::Mismatch(_))
        ));
        let past = RoundRobin { n: 4, last: 4 };
        assert!(matches!(
            decode(&[past, RoundRobin::new(4)]),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A grant always goes to a requesting index, and repeated grants
        /// over a fixed request set visit every requester (no starvation).
        #[test]
        fn grants_are_valid_and_starvation_free(
            n in 1usize..16,
            reqs in prop::collection::vec(any::<bool>(), 1..16),
        ) {
            let n = n.min(reqs.len());
            let reqs = &reqs[..n];
            let mut arb = RoundRobin::new(n);
            let requesters: Vec<usize> =
                (0..n).filter(|&i| reqs[i]).collect();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..2 * n {
                match arb.grant(reqs) {
                    Some(w) => {
                        prop_assert!(reqs[w], "granted a non-requester");
                        seen.insert(w);
                    }
                    None => prop_assert!(requesters.is_empty()),
                }
            }
            // Everyone who asked got served within 2n rounds.
            prop_assert_eq!(seen.len(), requesters.len());
        }

        /// `grant_mask` is grant-for-grant identical to the slice-based
        /// `grant` over arbitrary request sequences, including empty sets
        /// (which must not advance the priority pointer). Resizes are
        /// interleaved (a `resize` draw of 1..=16 applies before that
        /// round's grant), so the compare-and-wrap start stays pinned to
        /// the modular search after a shrink leaves the pointer at `n - 1`
        /// or wraps it.
        #[test]
        fn mask_matches_slice(
            n in 1usize..17,
            rounds in prop::collection::vec((any::<u16>(), 0usize..40), 1..64),
        ) {
            let mut n = n;
            let mut slice = RoundRobin::new(n);
            let mut mask = RoundRobin::new(n);
            for (bits, resize) in rounds {
                if (1..=16).contains(&resize) {
                    n = resize;
                    slice.resize(n);
                    mask.resize(n);
                }
                let reqs: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                let m = reqs.iter().enumerate()
                    .filter(|(_, &r)| r)
                    .fold(0u64, |acc, (i, _)| acc | 1 << i);
                prop_assert_eq!(slice.grant(&reqs), mask.grant_mask(m));
            }
        }

        /// Consecutive grants over a full request set never repeat an index
        /// before all others have been served (strict rotation).
        #[test]
        fn full_load_is_strictly_rotating(n in 2usize..12) {
            let reqs = vec![true; n];
            let mut arb = RoundRobin::new(n);
            let mut order = Vec::new();
            for _ in 0..n {
                order.push(arb.grant(&reqs).expect("always grants"));
            }
            let distinct: std::collections::HashSet<_> = order.iter().collect();
            prop_assert_eq!(distinct.len(), n);
        }
    }
}
