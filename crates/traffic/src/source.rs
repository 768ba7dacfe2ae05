//! Bernoulli packet sources for open-loop synthetic workloads.

use noc_sim::{Cycle, Mesh, NodeId, Packet, PacketId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pattern::TrafficPattern;

/// Allocates globally unique packet ids and stamps creation metadata.
#[derive(Debug, Default)]
pub struct PacketFactory {
    next: u64,
}

impl PacketFactory {
    pub fn new() -> Self {
        PacketFactory::default()
    }

    pub fn next_id(&mut self) -> PacketId {
        let id = PacketId(self.next);
        self.next += 1;
        id
    }

    /// The id the next allocation would get (the checkpoint watermark:
    /// restored runs record it so forked sources never reuse an id that
    /// is still in flight inside the snapshot).
    pub fn next_id_preview(&self) -> u64 {
        self.next
    }

    /// Raise the allocator to at least `floor` (no-op when already past).
    /// Used when restoring from a checkpoint whose warm-up allocated more
    /// ids than this source's replay did.
    pub fn skip_to(&mut self, floor: u64) {
        self.next = self.next.max(floor);
    }

    /// Build a data packet, marking whether its latency is measured.
    pub fn data(
        &mut self,
        src: NodeId,
        dst: NodeId,
        len_flits: u8,
        now: Cycle,
        measured: bool,
    ) -> Packet {
        let mut p = Packet::data(self.next_id(), src, dst, len_flits, now);
        p.measured = measured;
        p
    }
}

/// A Bernoulli injection process: every node independently creates a packet
/// with probability `rate / packet_len` per cycle, so the offered load is
/// `rate` flits/node/cycle — the unit used across the paper's figures.
pub struct SyntheticSource {
    mesh: Mesh,
    pattern: TrafficPattern,
    /// Offered load in flits/node/cycle.
    rate: f64,
    packet_len: u8,
    rng: StdRng,
    pub factory: PacketFactory,
}

impl SyntheticSource {
    pub fn new(mesh: Mesh, pattern: TrafficPattern, rate: f64, packet_len: u8, seed: u64) -> Self {
        assert!(rate >= 0.0 && packet_len > 0);
        SyntheticSource {
            mesh,
            pattern,
            rate,
            packet_len,
            rng: StdRng::seed_from_u64(seed),
            factory: PacketFactory::new(),
        }
    }

    pub fn pattern(&self) -> &TrafficPattern {
        &self.pattern
    }

    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Fast-forward the source's RNG past `ticks` injection cycles, to
    /// where a live run that ticked them would have left it.
    ///
    /// Only the RNG stream is positioned: the packet-id allocator is left
    /// at or below a live run's, and the caller restores it with
    /// [`PacketFactory::skip_to`] and the checkpoint's watermark. When the
    /// pattern's destinations draw nothing (every pattern but UR), a tick
    /// makes the same number of draws whatever they return, so the
    /// generator jumps ahead in O(log ticks). UR replays the trials and
    /// destination draws, building no packets.
    pub fn skip_ticks(&mut self, ticks: u64) {
        let trial = self.trial();
        let SyntheticSource {
            mesh, pattern, rng, ..
        } = self;
        if pattern.dest_draws() {
            for _ in 0..ticks {
                run_trials(trial, mesh, rng, |src, rng| {
                    pattern.dest(mesh, src, rng);
                });
            }
        } else if trial.draws() {
            rng.advance(u128::from(ticks) * mesh.clients() as u128);
        }
    }

    /// Generate this cycle's new packets; `measured` marks whether they are
    /// in the measurement window.
    ///
    /// On a concentrated mesh each router serves `c` clients, so every
    /// router runs `c` independent Bernoulli trials per cycle and the
    /// offered load per *router* is `c × rate` flits/cycle. With `c == 1`
    /// the RNG call sequence is identical to the historical single-trial
    /// loop, so plain-mesh runs stay bit-identical.
    pub fn tick(&mut self, now: Cycle, measured: bool, mut sink: impl FnMut(NodeId, Packet)) {
        let trial = self.trial();
        let SyntheticSource {
            mesh,
            pattern,
            packet_len,
            rng,
            factory,
            ..
        } = self;
        run_trials(trial, mesh, rng, |src, rng| {
            if let Some(dst) = pattern.dest(mesh, src, rng) {
                sink(src, factory.data(src, dst, *packet_len, now, measured));
            }
        });
    }

    /// The per-trial decision at this source's packet probability.
    fn trial(&self) -> Trial {
        Trial::new((self.rate / self.packet_len as f64).min(1.0))
    }
}

/// One Bernoulli trial at probability `p`, decided exactly as
/// `RngExt::random_bool(p)` decides it, draw for draw.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Trial {
    /// `p ≤ 0`: never succeeds and draws nothing.
    Never,
    /// `p ≥ 1`: always succeeds and draws nothing.
    Always,
    /// Succeeds when a draw's 53 high bits are below the threshold.
    Below(u64),
}

impl Trial {
    /// `random_bool(p)` succeeds when `(x >> 11) · 2^-53 < p`. Both sides
    /// are exact in f64 and `x >> 11` is an integer, so the test is
    /// `x >> 11 < ceil(p · 2^53)`.
    fn new(p: f64) -> Trial {
        if p >= 1.0 {
            Trial::Always
        } else if p <= 0.0 {
            Trial::Never
        } else {
            Trial::Below((p * (1u64 << 53) as f64).ceil() as u64)
        }
    }

    /// Does a trial consume a draw?
    fn draws(self) -> bool {
        matches!(self, Trial::Below(_))
    }
}

/// Run one tick's `mesh.clients()` trials (`c` per router). Trial `k`
/// belongs to router `k / c`; `hit` gets each successful trial's router
/// and the generator, just past that trial's draw (if it made one). The
/// generator is
/// worked on in a local and written back once, and only hits leave the
/// loop.
fn run_trials(
    trial: Trial,
    mesh: &Mesh,
    rng: &mut StdRng,
    mut hit: impl FnMut(NodeId, &mut StdRng),
) {
    let c = usize::from(mesh.concentration());
    let node = |k: usize| NodeId((k / c) as u32);
    let mut local = rng.clone();
    match trial {
        Trial::Never => {}
        Trial::Always => {
            for k in 0..mesh.clients() {
                hit(node(k), &mut local);
            }
        }
        Trial::Below(threshold) => {
            for k in 0..mesh.clients() {
                if local.next_u64() >> 11 < threshold {
                    hit(node(k), &mut local);
                }
            }
        }
    }
    *rng = local;
}

impl crate::engine::Workload for SyntheticSource {
    fn tick(&mut self, now: Cycle, measured: bool, sink: &mut dyn FnMut(NodeId, Packet)) {
        SyntheticSource::tick(self, now, measured, sink);
    }

    fn offered_load(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn injection_rate_matches_offered_load() {
        let mesh = Mesh::square(6);
        let mut src = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.2, 5, 42);
        let mut flits = 0u64;
        let cycles = 20_000u64;
        for now in 0..cycles {
            src.tick(now, true, |_, p| flits += p.len_flits as u64);
        }
        let rate = flits as f64 / (cycles as f64 * mesh.len() as f64);
        assert!((rate - 0.2).abs() < 0.01, "measured offered load {rate}");
    }

    #[test]
    fn cmesh_injects_c_trials_per_router() {
        let mesh = Mesh::cmesh(4, 4, 4);
        let mut src = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.2, 5, 42);
        let mut flits = 0u64;
        let cycles = 20_000u64;
        for now in 0..cycles {
            src.tick(now, true, |_, p| flits += p.len_flits as u64);
        }
        // Offered load per *router* is c × rate.
        let per_router = flits as f64 / (cycles as f64 * mesh.len() as f64);
        assert!(
            (per_router - 0.8).abs() < 0.03,
            "measured per-router load {per_router}"
        );
    }

    #[test]
    fn unit_concentration_matches_the_legacy_stream() {
        // The c-trial loop with c == 1 must consume the RNG exactly like
        // the historical single-trial path: same seed → same packets.
        let run = |mesh: Mesh| {
            let mut s = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.3, 5, 9);
            let mut v = Vec::new();
            for now in 0..500 {
                s.tick(now, true, |n, p| v.push((now, n, p.dst)));
            }
            v
        };
        assert_eq!(run(Mesh::square(5)), run(Mesh::cmesh(5, 5, 1)));
    }

    #[test]
    fn skip_ticks_matches_a_live_replay() {
        // A skipped source whose allocator is raised to the live one's
        // watermark continues exactly where the live source does: same
        // RNG position, same packets, same ids. UR replays its trials;
        // TR jumps the generator.
        for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Transpose] {
            for mesh in [Mesh::square(4), Mesh::cmesh(4, 4, 4)] {
                let new = || SyntheticSource::new(mesh, pattern.clone(), 0.25, 5, 77);
                let mut live = new();
                for now in 0..300 {
                    live.tick(now, false, |_, _| {});
                }
                let mut skipped = new();
                skipped.skip_ticks(300);
                assert_eq!(skipped.rng, live.rng, "{}", pattern.name());
                skipped.factory.skip_to(live.factory.next_id_preview());
                let drain = |s: &mut SyntheticSource| {
                    let mut v = Vec::new();
                    for now in 300..400 {
                        s.tick(now, true, |n, p| v.push((now, n, p.id, p.dst)));
                    }
                    v
                };
                assert_eq!(drain(&mut live), drain(&mut skipped));
            }
        }
    }

    #[test]
    fn threshold_trial_matches_random_bool() {
        // Two generators in lockstep: the threshold test must take the
        // same decision as `random_bool` on every draw, and draw exactly
        // when it does.
        let ulp = 1.0 / (1u64 << 53) as f64;
        let agree = |p: f64, draws: usize, seed: u64| {
            let trial = Trial::new(p);
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..draws {
                let want = a.random_bool(p);
                let got = match trial {
                    Trial::Never => false,
                    Trial::Always => true,
                    Trial::Below(t) => b.next_u64() >> 11 < t,
                };
                assert_eq!(got, want, "p = {p:e}");
            }
            assert_eq!(a, b, "p = {p:e}: draw counts differ");
            // Random draws almost never land on the boundary, so pin it
            // directly: the 53-bit value just below the threshold passes
            // `random_bool`'s comparison and the threshold fails it.
            if let Trial::Below(t) = trial {
                let unit = |m: u64| m as f64 * ulp;
                assert!(unit(t - 1) < p && unit(t) >= p, "p = {p:e}: threshold {t}");
            }
        };
        for p in [ulp, 0.002, 0.25, 0.5, 1.0 - ulp] {
            agree(p, 1_000_000, 1);
        }
        for p in [0.0, -1.0, 1.0, 3.0] {
            agree(p, 1_000, 2);
        }
        // Random p: uniform in (0, 1), and on the 2^-53 grid, where the
        // strict comparison decides ties.
        let mut r = StdRng::seed_from_u64(3);
        for i in 0..1_000u64 {
            let p = if i % 2 == 0 {
                r.random_range(0.0..1.0)
            } else {
                (r.next_u64() >> 11) as f64 * ulp
            };
            agree(p, 1_000, i);
        }
    }

    #[test]
    fn factory_skip_to_only_raises() {
        let mut f = PacketFactory::new();
        f.next_id_preview();
        f.skip_to(10);
        assert_eq!(f.next_id(), PacketId(10));
        f.skip_to(5); // no-op: already past
        assert_eq!(f.next_id(), PacketId(11));
    }

    #[test]
    fn ids_are_unique() {
        let mesh = Mesh::square(4);
        let mut src = SyntheticSource::new(mesh, TrafficPattern::Transpose, 1.0, 5, 7);
        let mut ids = std::collections::HashSet::new();
        for now in 0..100 {
            src.tick(now, true, |_, p| {
                assert!(ids.insert(p.id), "duplicate packet id");
            });
        }
        assert!(!ids.is_empty());
    }

    #[test]
    fn measured_flag_propagates() {
        let mesh = Mesh::square(4);
        let mut src = SyntheticSource::new(mesh, TrafficPattern::BitComplement, 1.0, 5, 7);
        src.tick(0, false, |_, p| assert!(!p.measured));
        src.tick(1, true, |_, p| assert!(p.measured));
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mesh = Mesh::square(5);
        let run = |seed| {
            let mut s = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.3, 5, seed);
            let mut v = Vec::new();
            for now in 0..200 {
                s.tick(now, true, |n, p| v.push((now, n, p.dst)));
            }
            v
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
