//! Synthetic spatial traffic patterns (§IV).

use noc_sim::{Coord, Mesh, NodeId};
use rand::{Rng, RngExt};

/// A spatial traffic pattern mapping each source to destinations.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Destinations drawn uniformly at random (excluding the source).
    UniformRandom,
    /// Messages from `(x, y)` go to `(x + k/2 - 1 mod k, y)` — adversarial
    /// for dimension-order routing on a mesh.
    Tornado,
    /// Messages from `(x, y)` go to `(y, x)`; requires a square mesh.
    Transpose,
    /// Messages from `(x, y)` go to the bit-complement node
    /// `(k-1-x, k-1-y)`.
    BitComplement,
    /// All sources send to the listed hotspot nodes, chosen round-robin by
    /// the source id (models many-to-few accelerator→memory traffic).
    Hotspot(Vec<NodeId>),
    /// Bit-reverse permutation of the node index (power-of-two meshes).
    BitReverse,
    /// Perfect shuffle: rotate the node-index bits left by one
    /// (power-of-two meshes).
    Shuffle,
    /// Nearest neighbour: each node sends to its east neighbour (wrapping
    /// by row) — the friendliest possible pattern, a useful lower bound.
    Neighbor,
}

impl TrafficPattern {
    /// Name used in experiment output (matches the paper's abbreviations).
    pub fn name(&self) -> &'static str {
        match self {
            TrafficPattern::UniformRandom => "UR",
            TrafficPattern::Tornado => "TOR",
            TrafficPattern::Transpose => "TR",
            TrafficPattern::BitComplement => "BC",
            TrafficPattern::Hotspot(_) => "HS",
            TrafficPattern::BitReverse => "BR",
            TrafficPattern::Shuffle => "SH",
            TrafficPattern::Neighbor => "NB",
        }
    }

    /// Does [`TrafficPattern::dest`] draw from its RNG? Only UR does;
    /// every other pattern is a fixed map that leaves the RNG untouched.
    pub fn dest_draws(&self) -> bool {
        matches!(self, TrafficPattern::UniformRandom)
    }

    /// Destination for a packet from `src`. Returns `None` when the pattern
    /// maps the source onto itself (such sources inject no traffic, as in
    /// standard synthetic methodology).
    pub fn dest<R: Rng + ?Sized>(&self, mesh: &Mesh, src: NodeId, rng: &mut R) -> Option<NodeId> {
        let c = mesh.coord(src);
        let (kx, ky) = (mesh.kx(), mesh.ky());
        let d = match self {
            TrafficPattern::UniformRandom => {
                let n = mesh.len() as u32;
                // Draw uniformly among the n-1 other nodes.
                let mut t = rng.random_range(0..n - 1);
                if t >= src.0 {
                    t += 1;
                }
                return Some(NodeId(t));
            }
            TrafficPattern::Tornado => {
                // (x + ⌈k/2⌉ - 1, y): GOAL's tornado definition, §IV.
                let shift = (kx / 2).max(1) as u32 - 1 + u32::from(kx % 2 == 1);
                if shift == 0 {
                    return None;
                }
                Coord::new(((c.x as u32 + shift) % kx as u32) as u16, c.y)
            }
            TrafficPattern::Transpose => {
                assert_eq!(kx, ky, "transpose requires a square mesh");
                Coord::new(c.y, c.x)
            }
            TrafficPattern::BitComplement => Coord::new(kx - 1 - c.x, ky - 1 - c.y),
            TrafficPattern::Hotspot(spots) => {
                assert!(!spots.is_empty(), "hotspot pattern needs targets");
                let t = spots[src.index() % spots.len()];
                return if t == src { None } else { Some(t) };
            }
            TrafficPattern::BitReverse => {
                let n = mesh.len() as u32;
                assert!(
                    n.is_power_of_two(),
                    "bit-reverse needs a power-of-two node count"
                );
                let bits = n.trailing_zeros();
                let t = src.0.reverse_bits() >> (32 - bits);
                return if t == src.0 { None } else { Some(NodeId(t)) };
            }
            TrafficPattern::Shuffle => {
                let n = mesh.len() as u32;
                assert!(
                    n.is_power_of_two(),
                    "shuffle needs a power-of-two node count"
                );
                let bits = n.trailing_zeros();
                let t = ((src.0 << 1) | (src.0 >> (bits - 1))) & (n - 1);
                return if t == src.0 { None } else { Some(NodeId(t)) };
            }
            TrafficPattern::Neighbor => Coord::new((c.x + 1) % kx, c.y),
        };
        let dst = mesh.id(d);
        if dst == src {
            None
        } else {
            Some(dst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mesh() -> Mesh {
        Mesh::square(6)
    }

    #[test]
    fn uniform_random_never_self_and_covers() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(1);
        let src = NodeId(17);
        let mut seen = vec![false; m.len()];
        for _ in 0..5000 {
            let d = TrafficPattern::UniformRandom
                .dest(&m, src, &mut rng)
                .unwrap();
            assert_ne!(d, src);
            seen[d.index()] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert_eq!(covered, m.len() - 1, "UR must reach every other node");
    }

    #[test]
    fn tornado_is_deterministic_row_shift() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(2);
        // k=6: shift = k/2 - 1 = 2.
        let src = m.id(Coord::new(1, 3));
        let d = TrafficPattern::Tornado.dest(&m, src, &mut rng).unwrap();
        assert_eq!(m.coord(d), Coord::new(3, 3));
        // Wrap-around.
        let src = m.id(Coord::new(5, 0));
        let d = TrafficPattern::Tornado.dest(&m, src, &mut rng).unwrap();
        assert_eq!(m.coord(d), Coord::new(1, 0));
    }

    #[test]
    fn transpose_mirrors_coordinates() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(3);
        let src = m.id(Coord::new(2, 5));
        let d = TrafficPattern::Transpose.dest(&m, src, &mut rng).unwrap();
        assert_eq!(m.coord(d), Coord::new(5, 2));
        // Diagonal nodes map to themselves → no traffic.
        let diag = m.id(Coord::new(3, 3));
        assert_eq!(TrafficPattern::Transpose.dest(&m, diag, &mut rng), None);
    }

    #[test]
    fn bit_complement_is_involution() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(4);
        for src in m.nodes() {
            if let Some(d) = TrafficPattern::BitComplement.dest(&m, src, &mut rng) {
                let back = TrafficPattern::BitComplement.dest(&m, d, &mut rng).unwrap();
                assert_eq!(back, src);
            }
        }
    }

    #[test]
    fn bit_reverse_and_shuffle_are_permutations() {
        let m = Mesh::square(4); // 16 nodes, power of two
        let mut rng = StdRng::seed_from_u64(8);
        for p in [TrafficPattern::BitReverse, TrafficPattern::Shuffle] {
            let mut seen = std::collections::HashSet::new();
            for src in m.nodes() {
                match p.dest(&m, src, &mut rng) {
                    Some(d) => {
                        assert!(seen.insert(d), "{}: duplicate target {d:?}", p.name());
                    }
                    None => {
                        // Fixed point maps to itself: count it too.
                        assert!(seen.insert(src));
                    }
                }
            }
            assert_eq!(seen.len(), m.len(), "{} must be a permutation", p.name());
        }
    }

    #[test]
    fn neighbor_is_one_hop_with_row_wrap() {
        let m = Mesh::square(6);
        let mut rng = StdRng::seed_from_u64(9);
        for src in m.nodes() {
            let d = TrafficPattern::Neighbor.dest(&m, src, &mut rng).unwrap();
            let (cs, cd) = (m.coord(src), m.coord(d));
            assert_eq!(cs.y, cd.y);
            assert_eq!(cd.x, (cs.x + 1) % 6);
        }
    }

    #[test]
    fn dest_leaves_the_rng_untouched_unless_it_draws() {
        let m = Mesh::square(4); // power of two, for BR and SH
        let patterns = [
            TrafficPattern::UniformRandom,
            TrafficPattern::Tornado,
            TrafficPattern::Transpose,
            TrafficPattern::BitComplement,
            TrafficPattern::Hotspot(vec![NodeId(0), NodeId(5)]),
            TrafficPattern::BitReverse,
            TrafficPattern::Shuffle,
            TrafficPattern::Neighbor,
        ];
        for p in patterns {
            let mut rng = StdRng::seed_from_u64(10);
            for src in m.nodes() {
                let before = rng.clone();
                p.dest(&m, src, &mut rng);
                assert_eq!(rng != before, p.dest_draws(), "{} from {src:?}", p.name());
            }
        }
    }

    #[test]
    fn hotspot_targets_are_stable() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(5);
        let spots = vec![NodeId(0), NodeId(35)];
        let p = TrafficPattern::Hotspot(spots);
        let a = p.dest(&m, NodeId(2), &mut rng).unwrap();
        let b = p.dest(&m, NodeId(2), &mut rng).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, NodeId(0));
        assert_eq!(p.dest(&m, NodeId(3), &mut rng), Some(NodeId(35)));
        // A hotspot node addressed to itself injects nothing.
        assert_eq!(p.dest(&m, NodeId(0), &mut rng), None);
    }
}
