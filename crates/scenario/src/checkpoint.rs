//! Warm-up checkpoint blobs: pay a scenario's warm-up once, then fork it
//! into many measurement runs (`--checkpoint-out` / `--checkpoint-from`).
//!
//! A blob couples three things a restored run needs:
//!
//! 1. the **spec** whose warm-up produced the snapshot (embedded as the
//!    normal envelope-echo JSON), so restores can verify fabric
//!    compatibility and reproduce the warm-up traffic;
//! 2. the **warm-up tick count** and the **packet-id watermark**: the
//!    restoring run fast-forwards its own source's RNG streams by the
//!    tick count (`SpecSource::skip_ticks`, an O(log n) generator jump
//!    for synthetic patterns other than UR without a policy table, a
//!    replay otherwise), then raises its id allocator to the watermark
//!    (`skip_to`), so it never reuses an id still in flight inside the
//!    snapshot;
//! 3. the framed [`FabricSnapshot`] itself (which carries its own magic
//!    and snapshot version — see DESIGN.md §14).
//!
//! Layout (little-endian): 8-byte magic `NOCCKPT1`, `u32` blob version,
//! `u32` spec-JSON length + bytes, `u64` warm-up ticks, `u64` packet-id
//! watermark, `u64` snapshot length + snapshot bytes, end of file.

use noc_sim::FabricSnapshot;
use serde::Serialize as _;

use crate::backend::ScenarioError;
use crate::spec::ScenarioSpec;

/// File magic of a checkpoint blob.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"NOCCKPT1";
/// Version of the blob *framing* (the snapshot payload inside carries the
/// separate `SNAPSHOT_VERSION`). Bump on any layout change; old blobs are
/// rejected, never reinterpreted.
///
/// v2: the embedded snapshot moved to `SNAPSHOT_VERSION` 2 (TdmNode
/// `pinned` table); bumping here too keys the warm-up cache away from
/// stale v1 blobs.
/// v3: the embedded snapshot moved to `SNAPSHOT_VERSION` 3 (the SDM
/// router's state is its `PsPipeline`'s plus its planes); bumping here
/// too keys result and warm-up caches away from stale SDM envelopes.
/// v4: the embedded snapshot moved to `SNAPSHOT_VERSION` 4 (NIC
/// reassembly tables are written as their entry lists); bumping here too
/// keys the warm-up cache away from v3 blobs.
/// v5: the embedded snapshot moved to `SNAPSHOT_VERSION` 5 (`NetStats`
/// and pending deliveries lost the per-class latency fields); bumping
/// here too keys the warm-up cache away from v4 blobs.
/// v6: the embedded snapshot moved to `SNAPSHOT_VERSION` 6 (derived
/// caches and counters are no longer written); bumping here too keys the
/// warm-up cache away from v5 blobs.
/// v7: the embedded snapshot moved to `SNAPSHOT_VERSION` 7 (configuration
/// payloads ride in their flits; no payload arena); bumping here too
/// keys the warm-up cache away from v6 blobs.
pub const CHECKPOINT_VERSION: u32 = 7;

/// A warm-up checkpoint: everything needed to resume (or fork) a
/// synthetic scenario run after its warm-up phase.
#[derive(Debug)]
pub struct Checkpoint {
    /// The spec whose warm-up produced [`Checkpoint::snapshot`].
    pub spec: ScenarioSpec,
    /// Workload ticks performed during warm-up (the `skip_ticks` count
    /// for the restoring source).
    pub warmup_ticks: u64,
    /// `PacketFactory` watermark at checkpoint time: the restoring
    /// source's allocator is raised to at least this id.
    pub next_packet_id: u64,
    /// The fabric state, framed with its own magic + version.
    pub snapshot: FabricSnapshot,
}

impl Checkpoint {
    /// Serialise to the blob format.
    pub fn encode(&self) -> Vec<u8> {
        // The blob, megabytes on a kilo-node fabric, is allocated before
        // the spec is serialised. Made first, the spec's small temporaries
        // split the free block an earlier blob left behind, and the blob
        // then takes fresh memory: +4.6 MB peak RSS when one process
        // captured a 32×32 TDM warm-up for the second time. A spec longer
        // than `SPEC_ROOM` (long fault or policy lists) grows the buffer.
        const SPEC_ROOM: usize = 4096;
        let snap = self.snapshot.as_bytes();
        let mut out = Vec::with_capacity(36 + SPEC_ROOM + snap.len());
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        let spec_json =
            serde_json::to_string(&self.spec.to_value()).expect("spec serialisation is infallible");
        out.extend_from_slice(&(spec_json.len() as u32).to_le_bytes());
        out.extend_from_slice(spec_json.as_bytes());
        out.extend_from_slice(&self.warmup_ticks.to_le_bytes());
        out.extend_from_slice(&self.next_packet_id.to_le_bytes());
        out.extend_from_slice(&(snap.len() as u64).to_le_bytes());
        out.extend_from_slice(snap);
        out
    }

    /// Parse a blob produced by [`Checkpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, ScenarioError> {
        let mut cur = Cursor { bytes, pos: 0 };
        if cur.take(8)? != CHECKPOINT_MAGIC {
            return Err(ScenarioError::Checkpoint(
                "bad magic (not a checkpoint blob)".into(),
            ));
        }
        let ver = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
        if ver != CHECKPOINT_VERSION {
            return Err(ScenarioError::Checkpoint(format!(
                "unsupported blob version {ver} (expected {CHECKPOINT_VERSION})"
            )));
        }
        let spec_len = u32::from_le_bytes(cur.take(4)?.try_into().unwrap()) as usize;
        let spec_json = std::str::from_utf8(cur.take(spec_len)?)
            .map_err(|_| ScenarioError::Checkpoint("embedded spec is not UTF-8".into()))?;
        let specs = ScenarioSpec::parse(spec_json)
            .map_err(|e| ScenarioError::Checkpoint(format!("embedded spec: {e}")))?;
        let [spec] = <[ScenarioSpec; 1]>::try_from(specs)
            .map_err(|_| ScenarioError::Checkpoint("blob must embed exactly one spec".into()))?;
        let warmup_ticks = u64::from_le_bytes(cur.take(8)?.try_into().unwrap());
        let next_packet_id = u64::from_le_bytes(cur.take(8)?.try_into().unwrap());
        let snap_len = u64::from_le_bytes(cur.take(8)?.try_into().unwrap()) as usize;
        let snap = cur.take(snap_len)?.to_vec();
        if cur.pos != bytes.len() {
            return Err(ScenarioError::Checkpoint(
                "trailing bytes after snapshot".into(),
            ));
        }
        let snapshot = FabricSnapshot::from_bytes(snap)
            .map_err(|e| ScenarioError::Checkpoint(format!("snapshot: {e}")))?;
        Ok(Checkpoint {
            spec,
            warmup_ticks,
            next_packet_id,
            snapshot,
        })
    }

    /// Write the blob to disk.
    pub fn write(&self, path: &str) -> Result<(), ScenarioError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Read a blob from disk.
    pub fn read(path: &str) -> Result<Checkpoint, ScenarioError> {
        Checkpoint::decode(&std::fs::read(path)?)
    }

    /// Can `spec` restore from this checkpoint? The fabric-shaping fields
    /// (backend, grid, slot capacity) and the fault schedule must match —
    /// the snapshot's fault state continues the embedded timeline, so a
    /// different schedule would silently diverge. Traffic, seed and phase
    /// lengths are free: that is the warm-up fork.
    pub fn compatible_with(&self, spec: &ScenarioSpec) -> Result<(), ScenarioError> {
        let mismatch = |what: &str| {
            Err(ScenarioError::Checkpoint(format!(
                "{what} differs from the checkpointed run"
            )))
        };
        if spec.backend != self.spec.backend {
            return mismatch("backend");
        }
        if spec.mesh != self.spec.mesh
            || spec.topology != self.spec.topology
            || spec.concentration != self.spec.concentration
        {
            return mismatch("grid (mesh/topology/concentration)");
        }
        if spec.slot_capacity != self.spec.slot_capacity {
            return mismatch("slot_capacity");
        }
        if spec.faults != self.spec.faults {
            return mismatch("fault schedule");
        }
        Ok(())
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ScenarioError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| ScenarioError::Checkpoint("truncated blob".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use noc_traffic::{PhaseConfig, TrafficPattern};

    fn blob() -> Checkpoint {
        Checkpoint {
            spec: ScenarioSpec::synthetic(
                BackendKind::HybridTdmVc4,
                4,
                TrafficPattern::Transpose,
                0.15,
                PhaseConfig::quick(),
                9,
            ),
            warmup_ticks: 1_234,
            next_packet_id: 567,
            snapshot: FabricSnapshot::capture(|w| {
                [1u8, 2, 3, 4].iter().for_each(|&b| w.u8(b));
                Ok(())
            })
            .expect("infallible"),
        }
    }

    #[test]
    fn blob_round_trips() {
        let ck = blob();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).expect("decodes");
        assert_eq!(back.spec, ck.spec);
        assert_eq!(back.warmup_ticks, 1_234);
        assert_eq!(back.next_packet_id, 567);
        assert_eq!(back.snapshot.as_bytes(), ck.snapshot.as_bytes());
    }

    #[test]
    fn corrupt_blobs_are_rejected_with_context() {
        let good = blob().encode();
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        let mut bad_version = good.clone();
        bad_version[8] = 99;
        let truncated = &good[..good.len() - 3];
        let mut trailing = good.clone();
        trailing.push(0);
        for (bytes, needle) in [
            (&bad_magic[..], "magic"),
            (&bad_version[..], "version"),
            (truncated, "truncated"),
            (&trailing[..], "trailing"),
        ] {
            let e = Checkpoint::decode(bytes).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "{e} should mention {needle}"
            );
        }
    }

    #[test]
    fn compatibility_frees_traffic_but_pins_the_fabric() {
        let ck = blob();
        // Same fabric, different rate + seed: the warm-up fork.
        let mut fork = ck.spec.clone();
        fork.seed = 99;
        if let crate::spec::TrafficSpec::Synthetic { rate, .. } = &mut fork.traffic {
            *rate = 0.4;
        }
        ck.compatible_with(&fork).expect("forks are compatible");
        // Fabric-shaping changes are rejected.
        let mut other = ck.spec.clone();
        other.mesh = 6;
        assert!(ck.compatible_with(&other).is_err());
        let mut other = ck.spec.clone();
        other.backend = BackendKind::PacketVc4;
        assert!(ck.compatible_with(&other).is_err());
        let mut other = ck.spec.clone();
        other.slot_capacity = Some(64);
        assert!(ck.compatible_with(&other).is_err());
    }
}
