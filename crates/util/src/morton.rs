//! Morton (Z-order) space-filling-curve keys.
//!
//! Octo-Tiger distributes its octree nodes onto compute nodes (localities)
//! using a space filling curve (paper §4.2). We use Morton order: each
//! octree node at level `l` with integer coordinates `(x, y, z)` in
//! `[0, 2^l)` maps to a key obtained by interleaving the coordinate bits.
//! Keys at different levels are made comparable by prefixing with the
//! level, so a sorted list of keys enumerates the leaves of the tree in
//! curve order, which is what the SFC partitioner consumes.

/// A Morton key: level plus bit-interleaved coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MortonKey {
    /// Octree refinement level (0 = root). At most [`MortonKey::MAX_LEVEL`].
    pub level: u8,
    /// Interleaved bits, `3 * level` significant bits.
    pub code: u64,
}

serde::impl_codec_struct!(MortonKey { level, code });

impl MortonKey {
    /// 21 levels * 3 bits fit in a u64 with a bit to spare.
    pub const MAX_LEVEL: u8 = 21;

    /// Build a key from a level and integer coordinates in `[0, 2^level)`.
    ///
    /// # Panics
    /// If `level > MAX_LEVEL` or any coordinate is out of range.
    pub fn new(level: u8, x: u32, y: u32, z: u32) -> Self {
        assert!(level <= Self::MAX_LEVEL, "level {level} exceeds maximum");
        let bound = 1u64 << level;
        assert!(
            (x as u64) < bound && (y as u64) < bound && (z as u64) < bound,
            "coordinates ({x},{y},{z}) out of range for level {level}"
        );
        MortonKey { level, code: morton_encode(x, y, z) }
    }

    /// The root key.
    pub const fn root() -> Self {
        MortonKey { level: 0, code: 0 }
    }

    /// Integer coordinates of this key.
    pub fn coords(self) -> (u32, u32, u32) {
        morton_decode(self.code)
    }

    /// Key of the parent node; `None` at the root.
    pub fn parent(self) -> Option<MortonKey> {
        if self.level == 0 {
            None
        } else {
            Some(MortonKey { level: self.level - 1, code: self.code >> 3 })
        }
    }

    /// Key of child `octant` (0..8, bit 0 = x, bit 1 = y, bit 2 = z).
    pub fn child(self, octant: u8) -> MortonKey {
        assert!(octant < 8, "octant must be in 0..8");
        assert!(self.level < Self::MAX_LEVEL, "cannot refine beyond max level");
        MortonKey { level: self.level + 1, code: (self.code << 3) | octant as u64 }
    }

    /// Which child of its parent this key is (0..8); 0 for the root.
    pub fn octant(self) -> u8 {
        (self.code & 0b111) as u8
    }

    /// Whether `self` is an ancestor of (or equal to) `other`.
    pub fn is_ancestor_of(self, other: MortonKey) -> bool {
        if self.level > other.level {
            return false;
        }
        let shift = 3 * (other.level - self.level) as u64;
        (other.code >> shift) == self.code
    }

    /// The neighbor at integer offset `(dx, dy, dz)` on the same level, or
    /// `None` if it would fall outside the root domain.
    pub fn neighbor(self, dx: i32, dy: i32, dz: i32) -> Option<MortonKey> {
        let (x, y, z) = self.coords();
        let bound = 1i64 << self.level;
        let nx = x as i64 + dx as i64;
        let ny = y as i64 + dy as i64;
        let nz = z as i64 + dz as i64;
        if nx < 0 || ny < 0 || nz < 0 || nx >= bound || ny >= bound || nz >= bound {
            None
        } else {
            Some(MortonKey::new(self.level, nx as u32, ny as u32, nz as u32))
        }
    }
}

/// Spread the low 21 bits of `v` so there are two zero bits between each.
#[inline]
fn spread_bits(v: u32) -> u64 {
    let mut x = (v as u64) & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`spread_bits`].
#[inline]
fn compact_bits(x: u64) -> u32 {
    let mut x = x & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x as u32
}

/// Interleave the bits of three 21-bit coordinates into a Morton code.
#[inline]
pub fn morton_encode(x: u32, y: u32, z: u32) -> u64 {
    spread_bits(x) | (spread_bits(y) << 1) | (spread_bits(z) << 2)
}

/// Recover the three coordinates from a Morton code.
#[inline]
pub fn morton_decode(code: u64) -> (u32, u32, u32) {
    (compact_bits(code), compact_bits(code >> 1), compact_bits(code >> 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_examples() {
        assert_eq!(morton_encode(0, 0, 0), 0);
        assert_eq!(morton_encode(1, 0, 0), 0b001);
        assert_eq!(morton_encode(0, 1, 0), 0b010);
        assert_eq!(morton_encode(0, 0, 1), 0b100);
        assert_eq!(morton_encode(1, 1, 1), 0b111);
        assert_eq!(morton_encode(2, 0, 0), 0b001_000);
    }

    #[test]
    fn parent_child_roundtrip() {
        let k = MortonKey::new(5, 13, 7, 22);
        for oct in 0..8 {
            let c = k.child(oct);
            assert_eq!(c.parent().unwrap(), k);
            assert_eq!(c.octant(), oct);
            assert!(k.is_ancestor_of(c));
            assert!(!c.is_ancestor_of(k));
        }
    }

    #[test]
    fn root_has_no_parent() {
        assert_eq!(MortonKey::root().parent(), None);
    }

    #[test]
    fn neighbors_clip_at_domain_boundary() {
        let k = MortonKey::new(2, 0, 0, 3);
        assert!(k.neighbor(-1, 0, 0).is_none());
        assert!(k.neighbor(0, 0, 1).is_none());
        let n = k.neighbor(1, 1, -1).unwrap();
        assert_eq!(n.coords(), (1, 1, 2));
    }

    #[test]
    #[should_panic]
    fn out_of_range_coord_panics() {
        let _ = MortonKey::new(2, 4, 0, 0);
    }

    #[test]
    fn sibling_order_is_curve_order() {
        let parent = MortonKey::new(3, 1, 2, 3);
        let mut codes: Vec<u64> = (0..8).map(|o| parent.child(o).code).collect();
        let sorted = codes.clone();
        codes.sort_unstable();
        assert_eq!(codes, sorted);
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(x in 0u32..(1 << 21), y in 0u32..(1 << 21), z in 0u32..(1 << 21)) {
            let code = morton_encode(x, y, z);
            prop_assert_eq!(morton_decode(code), (x, y, z));
        }

        #[test]
        fn locality_of_curve(x in 0u32..255, y in 0u32..255, z in 0u32..255) {
            // Adjacent cells along x differ only in x bits: the decoded
            // neighbour of the neighbour returns to the original cell.
            let k = MortonKey::new(8, x, y, z);
            if let Some(n) = k.neighbor(1, 0, 0) {
                prop_assert_eq!(n.neighbor(-1, 0, 0).unwrap(), k);
            }
        }

        #[test]
        fn ancestor_transitivity(x in 0u32..(1<<6), y in 0u32..(1<<6), z in 0u32..(1<<6), o1 in 0u8..8, o2 in 0u8..8) {
            let k = MortonKey::new(6, x, y, z);
            let c = k.child(o1);
            let g = c.child(o2);
            prop_assert!(k.is_ancestor_of(g));
            prop_assert!(c.is_ancestor_of(g));
        }
    }
}
