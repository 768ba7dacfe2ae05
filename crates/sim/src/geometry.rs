//! Geometry primitives: node identifiers, coordinates, ports and
//! directions. The topology types themselves live in [`crate::topology`].

use serde::{Deserialize, Serialize};

/// Identifier of a node (tile) in the network. Nodes are numbered in
/// row-major order: `id = y * k_x + x`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An (x, y) coordinate on the mesh. `x` grows east, `y` grows south.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    pub x: u16,
    pub y: u16,
}

impl Coord {
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }
}

/// One of the four inter-router link directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Direction {
    North = 0,
    East = 1,
    South = 2,
    West = 3,
}

impl Direction {
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn from_index(i: usize) -> Direction {
        Self::ALL[i]
    }

    /// The direction a flit sent this way arrives *from* at the neighbour.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }

    pub fn as_port(self) -> Port {
        match self {
            Direction::North => Port::North,
            Direction::East => Port::East,
            Direction::South => Port::South,
            Direction::West => Port::West,
        }
    }
}

/// A router port: the local (NIC) port plus the four link directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Port {
    Local = 0,
    North = 1,
    East = 2,
    South = 3,
    West = 4,
}

impl Port {
    pub const COUNT: usize = 5;
    pub const ALL: [Port; 5] = [
        Port::Local,
        Port::North,
        Port::East,
        Port::South,
        Port::West,
    ];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn from_index(i: usize) -> Port {
        Self::ALL[i]
    }

    pub fn direction(self) -> Option<Direction> {
        match self {
            Port::Local => None,
            Port::North => Some(Direction::North),
            Port::East => Some(Direction::East),
            Port::South => Some(Direction::South),
            Port::West => Some(Direction::West),
        }
    }
}

// Snapshot encodings: ids/coords raw, direction/port as their
// discriminant with range-checked decode.
use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

impl Snap for NodeId {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u32(self.0);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        Ok(NodeId(r.u32()?))
    }
}

impl Snap for Direction {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(*self as u8);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let i = r.u8()? as usize;
        if i >= Direction::ALL.len() {
            return Err(SnapshotError::Corrupt("Direction tag"));
        }
        Ok(Direction::from_index(i))
    }
}

impl Snap for Port {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(*self as u8);
    }
    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let i = r.u8()? as usize;
        if i >= Port::COUNT {
            return Err(SnapshotError::Corrupt("Port tag"));
        }
        Ok(Port::from_index(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_opposite_involution() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn port_direction_roundtrip() {
        for d in Direction::ALL {
            assert_eq!(d.as_port().direction(), Some(d));
        }
        assert_eq!(Port::Local.direction(), None);
    }
}
