//! Routing functions: deterministic dimension-order routing for data
//! packets and minimal adaptive routing under the west-first turn model
//! for configuration packets (Table I).
//!
//! All routes are topology-aware: on a torus, dimension-order routing
//! takes the shorter way around each ring (ties resolve to the positive
//! direction so the choice never flips mid-path), and deadlock freedom
//! comes from the dateline VC-class discipline in the router pipeline
//! (DESIGN.md §13) rather than from the turn restrictions a mesh enjoys.
//! The west-first route (`west_first_*`) encodes a mesh-only deadlock
//! argument and must not be used on a torus — callers fall back to
//! deterministic dimension-order routing there.

use crate::geometry::{Direction, NodeId, Port};
use crate::topology::Mesh;

/// Deterministic dimension-order (X-Y) routing: fully traverse the X
/// dimension, then Y. Deadlock-free on a mesh without extra VC classes;
/// on a torus it is minimal (shorter way around each ring) and relies on
/// the dateline VC classes for deadlock freedom.
pub fn xy_route(mesh: &Mesh, cur: NodeId, dst: NodeId) -> Port {
    let c = mesh.coord(cur);
    let d = mesh.coord(dst);
    if let Some(dir) = mesh.x_dir_toward(c.x, d.x) {
        dir.as_port()
    } else if let Some(dir) = mesh.y_dir_toward(c.y, d.y) {
        dir.as_port()
    } else {
        Port::Local
    }
}

/// Directions permitted by the west-first turn model for a minimal route:
/// a packet with any westward displacement must finish it first (no
/// adaptivity); otherwise every productive direction is allowed.
///
/// West-first forbids exactly the turns into West (`N→W`, `S→W`, `E→W`).
/// Deterministic X-Y routing uses none of those turns, so **X-Y data
/// traffic and west-first adaptive configuration traffic can safely share
/// the same virtual channels**: the union of their channel dependencies is
/// the west-first set, which is acyclic.
pub fn west_first_directions(mesh: &Mesh, cur: NodeId, dst: NodeId) -> DirPair {
    debug_assert!(
        !mesh.is_torus(),
        "west-first turn model is a mesh-only deadlock argument"
    );
    let c = mesh.coord(cur);
    let d = mesh.coord(dst);
    let mut dirs = DirPair::default();
    if d.x < c.x {
        dirs.push(Direction::West);
        return dirs;
    }
    if d.x > c.x {
        dirs.push(Direction::East);
    }
    if d.y > c.y {
        dirs.push(Direction::South);
    } else if d.y < c.y {
        dirs.push(Direction::North);
    }
    dirs
}

/// At most two permitted directions, stored inline — the adaptive route
/// query sits on the per-flit hot path, so it must not heap-allocate
/// (DESIGN.md §17).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirPair {
    len: u8,
    dirs: [Option<Direction>; 2],
}

impl DirPair {
    fn push(&mut self, d: Direction) {
        self.dirs[self.len as usize] = Some(d);
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, i: usize) -> Direction {
        self.dirs[i].expect("index within len")
    }

    pub fn last(&self) -> Option<Direction> {
        self.len.checked_sub(1).map(|i| self.get(i as usize))
    }

    pub fn contains(&self, d: Direction) -> bool {
        self.iter().any(|x| x == d)
    }

    pub fn iter(&self) -> impl Iterator<Item = Direction> + '_ {
        self.dirs[..self.len as usize].iter().map(|d| d.unwrap())
    }
}

impl IntoIterator for DirPair {
    type Item = Direction;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Direction>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.dirs.into_iter().flatten()
    }
}

/// Minimal adaptive routing under the west-first turn model: choose the
/// permitted direction with the best congestion score.
pub fn west_first_route<F: FnMut(Direction) -> u32>(
    mesh: &Mesh,
    cur: NodeId,
    dst: NodeId,
    mut score: F,
) -> Port {
    let dirs = west_first_directions(mesh, cur, dst);
    match dirs.len() {
        0 => Port::Local,
        1 => dirs.get(0).as_port(),
        _ => {
            let mut best = dirs.get(0);
            let mut best_score = score(best);
            for d in dirs.iter().skip(1) {
                let s = score(d);
                if s > best_score {
                    best = d;
                    best_score = s;
                }
            }
            best.as_port()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Coord;

    fn mesh() -> Mesh {
        Mesh::square(6)
    }

    #[test]
    fn xy_goes_x_first() {
        let m = mesh();
        let cur = m.id(Coord::new(1, 1));
        let dst = m.id(Coord::new(4, 4));
        assert_eq!(xy_route(&m, cur, dst), Port::East);
        let aligned = m.id(Coord::new(4, 1));
        assert_eq!(xy_route(&m, aligned, dst), Port::South);
        assert_eq!(xy_route(&m, dst, dst), Port::Local);
    }

    #[test]
    fn xy_route_is_minimal_and_terminates() {
        let m = mesh();
        for src in m.nodes() {
            for dst in m.nodes() {
                let mut cur = src;
                let mut hops = 0;
                loop {
                    let p = xy_route(&m, cur, dst);
                    if p == Port::Local {
                        break;
                    }
                    cur = m.neighbor(cur, p.direction().unwrap()).unwrap();
                    hops += 1;
                    assert!(hops <= m.hops(src, dst), "non-minimal XY route");
                }
                assert_eq!(cur, dst);
                assert_eq!(hops, m.hops(src, dst));
            }
        }
    }

    #[test]
    fn torus_xy_is_minimal_and_terminates() {
        for t in [Mesh::torus(5, 4), Mesh::torus(6, 6), Mesh::torus(2, 3)] {
            for src in t.nodes() {
                for dst in t.nodes() {
                    let mut cur = src;
                    let mut hops = 0;
                    loop {
                        let p = xy_route(&t, cur, dst);
                        if p == Port::Local {
                            break;
                        }
                        cur = t.neighbor(cur, p.direction().unwrap()).unwrap();
                        hops += 1;
                        assert!(hops <= t.hops(src, dst), "non-minimal torus XY route");
                    }
                    assert_eq!(cur, dst);
                    assert_eq!(hops, t.hops(src, dst));
                }
            }
        }
    }

    #[test]
    fn torus_xy_direction_is_stable_along_a_dimension() {
        // The shorter-way-around choice (and its tie break) must never
        // flip while a packet is still crossing that dimension; otherwise
        // a packet could ping-pong on an even-radix ring.
        let t = Mesh::torus(6, 6);
        for src in t.nodes() {
            for dst in t.nodes() {
                let mut cur = src;
                let mut x_dir: Option<Port> = None;
                loop {
                    let p = xy_route(&t, cur, dst);
                    if p == Port::Local {
                        break;
                    }
                    if matches!(p, Port::East | Port::West) {
                        if let Some(prev) = x_dir {
                            assert_eq!(prev, p, "X heading flipped mid-dimension");
                        }
                        x_dir = Some(p);
                    }
                    cur = t.neighbor(cur, p.direction().unwrap()).unwrap();
                }
            }
        }
    }
}

#[cfg(test)]
mod west_first_tests {
    use super::*;
    use crate::geometry::Coord;

    #[test]
    fn west_first_is_minimal_and_complete() {
        let m = Mesh::square(6);
        for src in m.nodes() {
            for dst in m.nodes() {
                if src == dst {
                    continue;
                }
                for pick_last in [false, true] {
                    let mut cur = src;
                    let mut hops = 0u32;
                    while cur != dst {
                        let dirs = west_first_directions(&m, cur, dst);
                        assert!(!dirs.is_empty());
                        let d = if pick_last {
                            dirs.last().unwrap()
                        } else {
                            dirs.get(0)
                        };
                        let next = m.neighbor(cur, d).expect("productive");
                        assert_eq!(m.hops(next, dst) + 1, m.hops(cur, dst));
                        cur = next;
                        hops += 1;
                        assert!(hops <= m.hops(src, dst));
                    }
                }
            }
        }
    }

    #[test]
    fn never_turns_into_west() {
        // Once a west-first walk leaves the west heading, it never offers
        // West again — the defining property that makes it safe to mix
        // with X-Y in shared VCs.
        let m = Mesh::square(6);
        for src in m.nodes() {
            for dst in m.nodes() {
                if src == dst {
                    continue;
                }
                let mut cur = src;
                let mut left_west = false;
                while cur != dst {
                    let dirs = west_first_directions(&m, cur, dst);
                    if left_west {
                        assert!(
                            !dirs.contains(Direction::West),
                            "turn into West offered after leaving the west heading"
                        );
                    }
                    let d = dirs.get(0);
                    if d != Direction::West {
                        left_west = true;
                    }
                    cur = m.neighbor(cur, d).expect("productive");
                }
            }
        }
    }

    #[test]
    fn westward_displacement_allows_no_adaptivity() {
        let m = Mesh::square(6);
        let cur = m.id(Coord::new(4, 2));
        let dst = m.id(Coord::new(1, 5));
        let dirs = west_first_directions(&m, cur, dst);
        assert_eq!(dirs.len(), 1);
        assert_eq!(dirs.get(0), Direction::West);
        // Pure eastward+vertical offers both.
        let dst2 = m.id(Coord::new(5, 5));
        assert_eq!(west_first_directions(&m, cur, dst2).len(), 2);
    }

    #[test]
    fn west_first_route_prefers_high_score() {
        let m = Mesh::square(6);
        let cur = m.id(Coord::new(1, 1));
        let dst = m.id(Coord::new(4, 4));
        let p = west_first_route(&m, cur, dst, |d| if d == Direction::South { 9 } else { 1 });
        assert_eq!(p, Port::South);
    }
}
