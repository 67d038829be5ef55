//! Space-filling-curve ordering.
//!
//! "These octree nodes are distributed onto the compute nodes using a
//! space filling curve" (§4.2). [`curve_cmp`] orders keys of any level
//! along the Morton curve; [`crate::shard::ShardMap`] cuts the leaves,
//! so ordered, into contiguous count-balanced chunks, one per locality.

use std::cmp::Ordering;
use util::morton::MortonKey;

/// Where `key`'s cell starts along the curve: its code aligned to the
/// finest level, [`MortonKey::MAX_LEVEL`] (63 bits, so a `u64` holds it).
fn curve_start(key: MortonKey) -> u64 {
    key.code << (3 * (MortonKey::MAX_LEVEL - key.level) as u32)
}

/// Compare two keys (of possibly different levels) along the space
/// filling curve: codes aligned to the finest level, then ancestors
/// before their descendants.
pub fn curve_cmp(a: MortonKey, b: MortonKey) -> Ordering {
    curve_start(a).cmp(&curve_start(b)).then(a.level.cmp(&b.level))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Domain;
    use crate::shard::ShardMap;
    use crate::tree::Octree;

    #[test]
    fn curve_cmp_orders_siblings() {
        let p = MortonKey::new(2, 1, 1, 1);
        for o in 0..7u8 {
            assert_eq!(curve_cmp(p.child(o), p.child(o + 1)), Ordering::Less);
        }
    }

    #[test]
    fn curve_cmp_ancestor_before_descendant() {
        let p = MortonKey::new(3, 2, 5, 1);
        assert_eq!(curve_cmp(p, p.child(0)), Ordering::Less);
        assert_eq!(curve_cmp(p.child(0), p), Ordering::Greater);
        assert_eq!(curve_cmp(p, p), Ordering::Equal);
    }

    #[test]
    fn curve_cmp_descendants_stay_within_parent_range() {
        // All descendants of parent's child 3 sort before child 4.
        let p = MortonKey::new(1, 0, 1, 0);
        let c3 = p.child(3);
        let c4 = p.child(4);
        for o in 0..8 {
            assert_eq!(curve_cmp(c3.child(o), c4), Ordering::Less);
            assert_eq!(curve_cmp(c4.child(o), c3), Ordering::Greater);
        }
    }

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let mut t = Octree::structure_only(Domain::new(16.0));
        t.refine_where(3, |d, k| d.node_center(k).norm() < 6.0);
        let mut leaves = t.leaves();
        leaves.sort_by(|a, b| curve_cmp(*a, *b));
        let n_parts = 7;
        let map = ShardMap::partition(&t, n_parts).unwrap();
        // Contiguity: shard indices are non-decreasing in curve order.
        let mut last = 0;
        for leaf in &leaves {
            let p = map.owner(*leaf).unwrap();
            assert!(p >= last, "partition must be monotone along the curve");
            last = p;
        }
        // Balance: counts differ by at most 1.
        let counts: Vec<usize> = (0..n_parts as u32).map(|s| map.owned(s).len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), leaves.len());
        let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(mx - mn <= 1, "counts {counts:?} not balanced");
    }
}
