//! Space-filling-curve ordering and partitioning.
//!
//! "These octree nodes are distributed onto the compute nodes using a
//! space filling curve" (§4.2). Leaves sorted along the Morton curve
//! ([`curve_cmp`]) are split into contiguous, count-balanced chunks, one
//! per locality ([`partition`]). [`crate::shard::ShardMap`] wraps the
//! assignment and derives from it the halo push plan — which (leaf,
//! peer) pairs exchange data each step. That plan is what both the
//! distributed driver and the scaling model (`perfmodel::des`) consume;
//! message sizes come from the driver's own traffic (whole interiors
//! today, see [`crate::halo`]), not from a per-direction slab census.

use std::cmp::Ordering;
use std::collections::HashMap;
use util::morton::MortonKey;

/// Compare two keys (of possibly different levels) along the space
/// filling curve: codes are aligned to a common depth; ancestors sort
/// before their descendants.
pub fn curve_cmp(a: MortonKey, b: MortonKey) -> Ordering {
    let depth = a.level.max(b.level);
    let ca = (a.code as u128) << (3 * (depth - a.level) as u32);
    let cb = (b.code as u128) << (3 * (depth - b.level) as u32);
    ca.cmp(&cb).then(a.level.cmp(&b.level))
}

/// Assign `leaves` (must be in curve order) to `n_parts` contiguous,
/// count-balanced chunks. Returns the partition index per leaf.
pub fn partition(leaves: &[MortonKey], n_parts: usize) -> HashMap<MortonKey, usize> {
    assert!(n_parts > 0, "need at least one partition");
    let n = leaves.len();
    let mut out = HashMap::with_capacity(n);
    for (i, &key) in leaves.iter().enumerate() {
        // Balanced contiguous chunks: leaf i goes to floor(i*P/n).
        let part = if n == 0 { 0 } else { i * n_parts / n };
        out.insert(key, part.min(n_parts - 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Domain;
    use crate::tree::Octree;

    fn refined_tree(levels: u8) -> Octree {
        let mut t = Octree::structure_only(Domain::new(16.0));
        t.refine_where(levels, |d, k| d.node_center(k).norm() < 6.0);
        t
    }

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
        let t = refined_tree(3);
        let leaves = t.leaves();
        let n_parts = 7;
        let asg = partition(&leaves, n_parts);
        // Contiguity: partition indices are non-decreasing in curve order.
        let mut last = 0;
        for leaf in &leaves {
            let p = asg[leaf];
            assert!(p >= last, "partition must be monotone along the curve");
            last = p;
        }
        // Balance: counts differ by at most 1.
        let mut counts = vec![0usize; n_parts];
        for p in asg.values() {
            counts[*p] += 1;
        }
        let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(mx - mn <= 1, "counts {counts:?} not balanced");
    }
}
