//! Content-addressed cache keys for scenario results and warm-up
//! checkpoints (`noc-serve`).
//!
//! Determinism makes result caching sound: the same spec + seed produces
//! a byte-identical envelope (CI-pinned), so a finished envelope can be
//! replayed for any later identical request without simulating. The key
//! must therefore be a function of the *scenario content*, not of its
//! JSON spelling: two specs that parse to the same `ScenarioSpec` — field
//! order permuted, defaults spelled out or omitted — must hash
//! identically, and any semantic change must change the hash.
//!
//! Both properties come from hashing the **canonical echo**: the spec is
//! serialised exactly as the result envelope echoes it (defaults omitted,
//! checkpoint paths never included — see `ScenarioSpec::to_value`), the
//! object keys are sorted recursively, and the compact JSON is hashed
//! with SHA-256. A [`code_version`] string is mixed into every key so
//! results computed by older simulator code are invalidated wholesale
//! instead of being replayed across a behaviour change.
//!
//! The **warm-up key** hashes only the prefix of the spec that determines
//! the fabric state at the end of warm-up: grid, backend, traffic, seed,
//! faults and the warm-up phase lengths. Measurement and drain parameters
//! are excluded, so a sweep over measurement windows shares one checkpoint.
//!
//! The retired `step_threads` field is parsed and dropped, so it is not
//! part of the echo: requests that differ only in it share both keys.

use serde::{Serialize, Value};

use crate::checkpoint::CHECKPOINT_VERSION;
use crate::envelope::SCHEMA_VERSION;
use crate::spec::{ScenarioSpec, TrafficSpec};

/// A 256-bit content hash, used as both result- and warm-up-cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub [u8; 32]);

impl CacheKey {
    /// Lower-case hex of the digest (the on-disk cache file stem).
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// The cache-invalidation epoch mixed into every key: crate version plus
/// the envelope/checkpoint format versions, so a release or format bump
/// invalidates stale entries instead of replaying them. Override with the
/// `NOC_CODE_VERSION` environment variable to segregate (or deliberately
/// invalidate) a cache population.
pub fn code_version() -> String {
    if let Ok(v) = std::env::var("NOC_CODE_VERSION") {
        if !v.is_empty() {
            return v;
        }
    }
    format!(
        "{}+env{}+ckpt{}",
        env!("CARGO_PKG_VERSION"),
        SCHEMA_VERSION,
        CHECKPOINT_VERSION
    )
}

/// Recursively sort every object's keys (ties keep first-spelled order,
/// which cannot arise from `ScenarioSpec::to_value` — it never emits a
/// duplicate key). Arrays keep their order: element order is semantic
/// (fault timelines, hotspot lists).
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Object(fields) => {
            let mut sorted: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, val)| (k.clone(), canonicalize(val)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(sorted)
        }
        Value::Array(items) => Value::Array(items.iter().map(canonicalize).collect()),
        other => other.clone(),
    }
}

/// The canonical compact JSON of a spec: the envelope echo with sorted
/// keys. This string (not the user's original text) is what gets hashed.
pub fn canonical_spec_json(spec: &ScenarioSpec) -> String {
    serde_json::to_string(&canonicalize(&spec.to_value()))
        .expect("spec serialisation is infallible")
}

/// Result-cache key: everything the envelope echoes, plus the code
/// version. Two requests with equal keys are guaranteed byte-identical
/// result envelopes.
pub fn result_key(spec: &ScenarioSpec, code_version: &str) -> CacheKey {
    hash_parts("result", code_version, &canonical_spec_json(spec))
}

/// Warm-up-cache key: the spec prefix that determines post-warm-up fabric
/// state. `None` when the spec has no checkpointable warm-up (hetero
/// traffic owns its fabric; zero-length warm-ups aren't worth a blob).
pub fn warmup_key(spec: &ScenarioSpec, code_version: &str) -> Option<CacheKey> {
    if !matches!(
        spec.traffic,
        TrafficSpec::Synthetic { .. } | TrafficSpec::Trace { .. }
    ) {
        return None;
    }
    if spec.phases.warmup_cycles == 0 && spec.phases.warmup_packets == 0 {
        return None;
    }
    // Trace export must record the warm-up injections too, so such a run
    // can neither produce nor reuse a warm-up blob.
    if spec.trace_export.is_some() {
        return None;
    }
    let mut fields = Vec::new();
    for (k, v) in match spec.to_value() {
        Value::Object(f) => f,
        _ => unreachable!("spec echo is an object"),
    } {
        match k.as_str() {
            // Measurement/drain lengths are the warm-up *fork* axis.
            "phases" => {
                if let Value::Object(ph) = v {
                    let warm: Vec<(String, Value)> = ph
                        .into_iter()
                        .filter(|(k, _)| k == "warmup_cycles" || k == "warmup_packets")
                        .collect();
                    fields.push((k, Value::Object(warm)));
                }
            }
            _ => fields.push((k, v)),
        }
    }
    let json = serde_json::to_string(&canonicalize(&Value::Object(fields)))
        .expect("spec serialisation is infallible");
    Some(hash_parts("warmup", code_version, &json))
}

fn hash_parts(domain: &str, code_version: &str, canonical_json: &str) -> CacheKey {
    // Length-prefix every part so no concatenation of distinct inputs can
    // collide, and separate the result/warm-up domains.
    let mut bytes = Vec::with_capacity(canonical_json.len() + code_version.len() + 32);
    for part in [domain, code_version, canonical_json] {
        bytes.extend_from_slice(&(part.len() as u64).to_le_bytes());
        bytes.extend_from_slice(part.as_bytes());
    }
    CacheKey(sha256(&bytes))
}

// --- SHA-256 (FIPS 180-4), self-contained so the offline workspace needs
// no crypto dependency. Used for content addressing, not for security
// against an adversary — but a real 256-bit hash keeps accidental
// collisions out of the question in a way truncated/non-crypto hashes
// would not.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for chunk in msg.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(chunk[i * 4..i * 4 + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (i, v) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&v.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use noc_traffic::{PhaseConfig, TrafficPattern};

    fn hex(bytes: &[u8]) -> String {
        CacheKey(bytes.try_into().unwrap()).hex()
    }

    #[test]
    fn sha256_matches_known_vectors() {
        // FIPS 180-4 / RFC 6234 test vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Multi-block input (length 120 > 64).
        assert_eq!(
            hex(&sha256(&[b'a'; 120])),
            "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"
        );
    }

    fn base_spec_json() -> &'static str {
        r#"{
            "backend": "HybridTdmVc4",
            "mesh": 4,
            "traffic": {"mode": "synthetic", "pattern": "TR", "rate": 0.12},
            "phases": {"warmup_cycles": 400, "warmup_packets": 40,
                       "measure_cycles": 2000, "measure_packets": 5000,
                       "drain_cycles": 1500},
            "seed": 7,
            "slot_capacity": 128
        }"#
    }

    fn parse_one(json: &str) -> ScenarioSpec {
        let mut v = ScenarioSpec::parse(json).expect("spec parses");
        assert_eq!(v.len(), 1);
        v.pop().unwrap()
    }

    #[test]
    fn field_order_permutations_hash_identically() {
        let a = parse_one(base_spec_json());
        // Same content, every nesting level permuted.
        let b = parse_one(
            r#"{
            "slot_capacity": 128,
            "seed": 7,
            "phases": {"drain_cycles": 1500, "measure_packets": 5000,
                       "measure_cycles": 2000, "warmup_packets": 40,
                       "warmup_cycles": 400},
            "traffic": {"rate": 0.12, "pattern": "TR", "mode": "synthetic"},
            "mesh": 4,
            "backend": "HybridTdmVc4"
        }"#,
        );
        assert_eq!(a, b, "permuted spellings parse to the same spec");
        let cv = code_version();
        assert_eq!(result_key(&a, &cv), result_key(&b, &cv));
        assert_eq!(warmup_key(&a, &cv), warmup_key(&b, &cv));
        // And the canonical text itself is spelling-independent.
        assert_eq!(canonical_spec_json(&a), canonical_spec_json(&b));
    }

    #[test]
    fn every_field_change_changes_the_result_key() {
        let base = parse_one(base_spec_json());
        let cv = code_version();
        let k0 = result_key(&base, &cv);
        let mutations: Vec<(&str, ScenarioSpec)> = vec![
            ("backend", {
                let mut s = base.clone();
                s.backend = BackendKind::PacketVc4;
                s
            }),
            ("mesh", {
                let mut s = base.clone();
                s.mesh = 6;
                s
            }),
            ("rate", {
                let mut s = base.clone();
                if let TrafficSpec::Synthetic { rate, .. } = &mut s.traffic {
                    *rate = 0.2;
                }
                s
            }),
            ("pattern", {
                let mut s = base.clone();
                if let TrafficSpec::Synthetic { pattern, .. } = &mut s.traffic {
                    *pattern = TrafficPattern::UniformRandom;
                }
                s
            }),
            ("warmup_cycles", {
                let mut s = base.clone();
                s.phases.warmup_cycles = 500;
                s
            }),
            ("warmup_packets", {
                let mut s = base.clone();
                s.phases.warmup_packets = 80;
                s
            }),
            ("measure_cycles", {
                let mut s = base.clone();
                s.phases.measure_cycles = 2500;
                s
            }),
            ("measure_packets", {
                let mut s = base.clone();
                s.phases.measure_packets = 6000;
                s
            }),
            ("drain_cycles", {
                let mut s = base.clone();
                s.phases.drain_cycles = 1000;
                s
            }),
            ("seed", {
                let mut s = base.clone();
                s.seed = 8;
                s
            }),
            ("slot_capacity", {
                let mut s = base.clone();
                s.slot_capacity = Some(64);
                s
            }),
        ];
        let mut keys = vec![k0];
        for (what, spec) in &mutations {
            let k = result_key(spec, &cv);
            assert_ne!(k, k0, "changing {what} must change the result key");
            keys.push(k);
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), mutations.len() + 1, "all keys are distinct");
    }

    /// `step_threads` named a node-stepping thread pool that no longer
    /// exists. Scenario files, checkpoint blobs and serve caches written
    /// before its removal still spell it, so the parser accepts it and
    /// drops it: such a request is the plain spec, echoes without the key,
    /// and shares the plain spec's result and warm-up cache entries.
    #[test]
    fn step_threads_is_accepted_and_ignored() {
        let plain = parse_one(base_spec_json());
        let text = base_spec_json().replace(r#""seed": 7,"#, r#""seed": 7, "step_threads": 3,"#);
        assert!(text.contains(r#""step_threads": 3"#));
        let with = parse_one(&text);
        assert_eq!(with, plain);
        assert!(!canonical_spec_json(&with).contains("step_threads"));
        let cv = code_version();
        assert_eq!(result_key(&with, &cv), result_key(&plain, &cv));
        assert_eq!(warmup_key(&with, &cv), warmup_key(&plain, &cv));
    }

    #[test]
    fn warmup_key_ignores_measurement_but_tracks_warmup_params() {
        let base = parse_one(base_spec_json());
        let cv = code_version();
        let k0 = warmup_key(&base, &cv).expect("synthetic spec has a warm-up key");

        // The fork axis: measurement/drain changes share it.
        for spec in [
            {
                let mut s = base.clone();
                s.phases.measure_cycles = 9_999;
                s
            },
            {
                let mut s = base.clone();
                s.phases.measure_packets = 1;
                s
            },
            {
                let mut s = base.clone();
                s.phases.drain_cycles = 50;
                s
            },
        ] {
            assert_eq!(warmup_key(&spec, &cv), Some(k0));
            assert_ne!(
                result_key(&spec, &cv),
                result_key(&base, &cv),
                "but the result key still distinguishes them"
            );
        }

        // Warm-up-determining changes get their own blob.
        for (what, spec) in [
            ("seed", {
                let mut s = base.clone();
                s.seed = 1234;
                s
            }),
            ("warmup_cycles", {
                let mut s = base.clone();
                s.phases.warmup_cycles = 401;
                s
            }),
            ("mesh", {
                let mut s = base.clone();
                s.mesh = 8;
                s
            }),
        ] {
            assert_ne!(
                warmup_key(&spec, &cv),
                Some(k0),
                "changing {what} must change the warm-up key"
            );
        }

        // No warm-up phase, no key.
        let mut cold = base.clone();
        cold.phases.warmup_cycles = 0;
        cold.phases.warmup_packets = 0;
        assert_eq!(warmup_key(&cold, &cv), None);
    }

    #[test]
    fn trace_keys_follow_content_not_paths() {
        use noc_workload::{PacketTrace, TraceRecord};
        use std::sync::Arc;
        let rec = |cycle, src, dst| TraceRecord {
            cycle,
            src,
            dst,
            class: noc_workload::CLASS_CS,
            size: 4,
        };
        let mut t1 = PacketTrace::new(16);
        t1.records = vec![rec(0, 0, 5), rec(2, 3, 9)];
        let mut t2 = t1.clone();
        t2.records.push(rec(7, 1, 2));
        let cv = code_version();
        let spec_for = |t: &PacketTrace| {
            ScenarioSpec::trace(
                BackendKind::HybridTdmVc4,
                4,
                Arc::new(t.clone()),
                PhaseConfig::quick(),
                3,
            )
        };
        let a = spec_for(&t1);
        let b = spec_for(&t2);
        assert_ne!(
            result_key(&a, &cv),
            result_key(&b, &cv),
            "trace content change must change the result key"
        );
        assert_ne!(
            warmup_key(&a, &cv),
            warmup_key(&b, &cv),
            "trace content change must change the warm-up key"
        );
        assert!(warmup_key(&a, &cv).is_some(), "trace runs cache warm-ups");
        // The same content loaded from two different paths keys
        // identically: specs are content-addressed, paths never hashed.
        let dir = std::env::temp_dir().join("noc-cache-key-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let keys: Vec<CacheKey> = ["one.trace", "two.trace"]
            .iter()
            .map(|name| {
                let p = dir.join(name);
                std::fs::write(&p, t1.to_binary()).unwrap();
                let spec = ScenarioSpec::parse(&format!(
                    r#"{{"backend": "HybridTdmVc4", "mesh": 4, "quick": true, "seed": 3,
                        "workload": {{"mode": "trace", "path": {p:?}}}}}"#
                ))
                .unwrap()
                .pop()
                .unwrap();
                result_key(&spec, &cv)
            })
            .collect();
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[0], result_key(&a, &cv));
    }

    #[test]
    fn policy_and_profile_changes_change_both_keys() {
        use noc_workload::{ActionSpec, RuleSpec};
        let base = parse_one(base_spec_json());
        let cv = code_version();
        let rk0 = result_key(&base, &cv);
        let wk0 = warmup_key(&base, &cv).unwrap();

        let mut with_policy = base.clone();
        with_policy.policy = vec![RuleSpec {
            src: Some(vec![0]),
            action: ActionSpec {
                drop: true,
                ..ActionSpec::default()
            },
            ..RuleSpec::default()
        }];
        // The policy shapes warm-up traffic too: both keys move.
        assert_ne!(result_key(&with_policy, &cv), rk0);
        assert_ne!(warmup_key(&with_policy, &cv), Some(wk0));

        let mut with_plan = base.clone();
        with_plan.profile_circuits = Some(8);
        // Pre-established pinned circuits change fabric state from cycle
        // zero: both keys move.
        assert_ne!(result_key(&with_plan, &cv), rk0);
        assert_ne!(warmup_key(&with_plan, &cv), Some(wk0));

        // Trace export is runtime plumbing for the *result* (never
        // echoed), but an exporting run cannot reuse a warm-up blob.
        let mut exporting = base.clone();
        exporting.trace_export = Some("out.trace".into());
        assert_eq!(result_key(&exporting, &cv), rk0);
        assert_eq!(warmup_key(&exporting, &cv), None);
    }

    #[test]
    fn code_version_partitions_the_key_space() {
        let spec = ScenarioSpec::synthetic(
            BackendKind::HybridTdmVc4,
            4,
            TrafficPattern::Transpose,
            0.1,
            PhaseConfig::quick(),
            3,
        );
        assert_ne!(result_key(&spec, "v1"), result_key(&spec, "v2"));
        assert_ne!(warmup_key(&spec, "v1"), warmup_key(&spec, "v2"));
        // Result and warm-up domains never collide even on equal input.
        assert_ne!(Some(result_key(&spec, "v1")), warmup_key(&spec, "v1"));
    }
}
