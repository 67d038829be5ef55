//! Shard maps: the space filling curve cut into one chunk per locality.
//!
//! Octo-Tiger assigns octree nodes to localities along the space filling
//! curve (paper §4.2). A [`ShardMap`] stores exactly that: the tree's
//! leaves in curve order ([`crate::sfc::curve_cmp`]) and one cut point
//! per shard boundary, shard `s` owning the leaves between cuts `s` and
//! `s + 1`. Every leaf has one owner and every shard is a contiguous run
//! of the curve by construction. The map records ownership only:
//!
//! * [`ShardMap::owner`] — which locality owns a leaf,
//! * [`ShardMap::owned`] — a locality's leaves in SFC order (the order
//!   every deterministic fold/write uses),
//! * [`ShardMap::migration_plan`] — which leaves change hands between
//!   two maps.
//!
//! Which leaves a locality must receive to gather its ghosts is halo
//! geometry, and lives with it: [`InterfacePlan::push_plan`]
//! projects a tree's one resolution onto a map.
//! [`ShardMap::halo_push_plan`] is that projection over a fresh plan.

use crate::halo::{BoundaryCondition, InterfacePlan};
use crate::sfc::curve_cmp;
use crate::tree::Octree;
use std::collections::BTreeMap;
use util::error::{Error, Result};
use util::morton::MortonKey;

/// The versioned assignment of leaves to shards (localities).
///
/// A map is stamped with an `epoch`: partition epochs start at 0 and
/// every [`ShardMap::repartition`] bumps the number, so in-flight
/// messages tagged with the sender's epoch can be rejected
/// deterministically once ownership has moved on (the distributed
/// driver's stale-parcel guard).
#[derive(Debug, Clone)]
pub struct ShardMap {
    leaves: Vec<MortonKey>,
    /// `n_shards + 1` indices into `leaves`, in order from 0 to
    /// `leaves.len()`: shard `s` owns `leaves[cuts[s]..cuts[s + 1]]`.
    cuts: Vec<usize>,
    epoch: u64,
}

impl ShardMap {
    /// Partition the tree's leaves into `n_shards` contiguous,
    /// balanced chunks along the space filling curve (epoch 0).
    pub fn partition(tree: &Octree, n_shards: usize) -> Result<ShardMap> {
        Self::balanced(tree, n_shards, 0)
    }

    /// Cut the curve at `ceil(s·n/P)`: leaf `i` goes to shard `floor(i·P/n)`.
    fn balanced(tree: &Octree, n_shards: usize, epoch: u64) -> Result<ShardMap> {
        let leaves = tree.leaves();
        if n_shards == 0 || leaves.is_empty() {
            let why = format!("cannot cut {} leaves into {n_shards} shards", leaves.len());
            return Err(Error::Octree(why));
        }
        let cuts = (0..=n_shards).map(|s| (s * leaves.len()).div_ceil(n_shards)).collect();
        Ok(ShardMap { leaves, cuts, epoch })
    }

    /// A deliberately *skewed* partition: the first shard takes
    /// `first_share_permille`/1000 of the SFC-ordered leaves (clamped so
    /// every shard keeps at least one) and the rest are split evenly
    /// over the remaining shards. Epoch 0. This is the load-imbalance
    /// injection hook for the rebalancing bench and the forced-migration
    /// tests — a balanced SFC partition would otherwise never trip the
    /// imbalance signal.
    pub fn partition_skewed(
        tree: &Octree,
        n_shards: usize,
        first_share_permille: u32,
    ) -> Result<ShardMap> {
        let leaves = tree.leaves();
        let total = leaves.len();
        if n_shards == 0 || total < n_shards {
            return Err(Error::Octree(format!("{total} leaves cannot feed {n_shards} shards")));
        }
        let want = (total * first_share_permille.min(1000) as usize) / 1000;
        // Leave at least one leaf for every other shard, and none over
        // when there is no other.
        let first = if n_shards == 1 { total } else { want.clamp(1, total - (n_shards - 1)) };
        // The rest cut evenly over shards 1..n, as `balanced` cuts a
        // whole curve: at least one leaf each, since `rest >= n - 1`.
        let (rest, others) = (total - first, (n_shards - 1).max(1));
        let starts = (1..=n_shards).map(|s| first + ((s - 1) * rest).div_ceil(others));
        let cuts = std::iter::once(0).chain(starts).collect();
        Ok(ShardMap { leaves, cuts, epoch: 0 })
    }

    /// Re-partition the (possibly regridded) tree's current leaves into
    /// balanced SFC chunks, stamping the successor epoch. The tree need
    /// not have the same leaf set this map was built from — this is the
    /// post-regrid / rebalance path.
    pub fn repartition(&self, tree: &Octree, n_shards: usize) -> Result<ShardMap> {
        Self::balanced(tree, n_shards, self.epoch + 1)
    }

    /// The partition epoch this map belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The migration diff against a successor map: every leaf present in
    /// *both* maps whose owner changed, as `(key, old_owner, new_owner)`
    /// sorted by key. Leaves created or destroyed by a regrid between
    /// the two maps are absent — their data moves via the regrid
    /// broadcast, not leaf migration.
    pub fn migration_plan(&self, next: &ShardMap) -> Vec<(MortonKey, u32, u32)> {
        let mut moves: Vec<(MortonKey, u32, u32)> = self
            .leaves
            .iter()
            .enumerate()
            .filter_map(|(i, &key)| {
                let (old, new) = (self.shard_at(i), next.owner(key).ok()?);
                (new != old).then_some((key, old, new))
            })
            .collect();
        moves.sort_by_key(|&(key, _, _)| key);
        moves
    }

    /// Owned-leaf-count imbalance in permille above the mean:
    /// `max(owned) / mean(owned) - 1`, scaled by 1000. 0 for a
    /// perfectly balanced map; 3000 when one shard holds 4× its fair
    /// share. Deterministic (counts, not timings), so it can gate
    /// rebalancing without making runs flaky; the bench layer separately
    /// validates it against measured per-locality idle rates.
    pub fn imbalance_permille(&self) -> u64 {
        let max = self.cuts.windows(2).map(|c| c[1] - c[0]).max().unwrap_or(0);
        (max * self.n_shards() * 1000 / self.n_leaves()).saturating_sub(1000) as u64
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.cuts.len() - 1
    }

    /// Total number of leaves across all shards.
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The locality owning leaf `key`.
    pub fn owner(&self, key: MortonKey) -> Result<u32> {
        match self.leaves.binary_search_by(|&leaf| curve_cmp(leaf, key)) {
            Ok(i) => Ok(self.shard_at(i)),
            Err(_) => Err(Error::Octree(format!("{key:?} is not a leaf in the shard map"))),
        }
    }

    /// [`ShardMap::owner`] of `key`, a leaf of the map, trying shard
    /// `near` first: a leaf between its first and last is its own, known
    /// without a search (most halo sources of a shard's leaves are).
    pub(crate) fn owner_near(&self, key: MortonKey, near: u32) -> Result<u32> {
        let own = self.owned(near);
        match (own.first(), own.last()) {
            (Some(&a), Some(&b)) if curve_cmp(a, key).is_le() && curve_cmp(key, b).is_le() => {
                Ok(near)
            }
            _ => self.owner(key),
        }
    }

    /// The shard holding curve position `i`: the last to start at or
    /// before it. A balanced map puts `i` in shard `floor(i·P/n)`, which
    /// is tried before the search (EXPERIMENTS §E33 times both).
    fn shard_at(&self, i: usize) -> u32 {
        let guess = i * self.n_shards() / self.n_leaves();
        let hit = self.cuts[guess] <= i && i < self.cuts[guess + 1];
        (if hit { guess } else { self.cuts.partition_point(|&cut| cut <= i) - 1 }) as u32
    }

    /// The leaves owned by `shard`, in SFC order.
    pub fn owned(&self, shard: u32) -> &[MortonKey] {
        &self.leaves[self.cuts[shard as usize]..self.cuts[shard as usize + 1]]
    }

    /// Verify the map against `tree`: its leaves are the tree's leaves
    /// in curve order, and its cuts run in order from 0 to their count.
    /// One owner per leaf and contiguous shards hold by construction.
    ///
    /// # Panics
    /// With a description of the violated invariant.
    pub fn check_invariants(&self, tree: &Octree) {
        let n = self.leaves.len();
        assert!(self.leaves == tree.leaves(), "the leaves are not the tree's, in curve order");
        let ordered = self.cuts.windows(2).all(|c| c[0] <= c[1]);
        let ends = (self.cuts.first(), self.cuts.last()) == (Some(&0), Some(&n));
        assert!(ordered && ends, "the cuts {:?} do not run in order from 0 to {n}", self.cuts);
    }

    /// [`InterfacePlan::push_plan`] of this map over a fresh plan of
    /// `tree`, for callers that hold no plan.
    pub fn halo_push_plan(&self, tree: &Octree) -> Vec<BTreeMap<u32, Vec<MortonKey>>> {
        InterfacePlan::new(tree, BoundaryCondition::default()).push_plan(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Domain;
    use std::collections::BTreeSet;
    use util::Fnv1a;

    fn amr_tree() -> Octree {
        let mut t = Octree::new(Domain::new(16.0));
        t.refine_where(2, |d, k| d.node_origin(k).x < 0.0);
        t.check_invariants();
        t
    }

    #[test]
    fn partition_covers_every_leaf_exactly_once() {
        let t = amr_tree();
        let map = ShardMap::partition(&t, 4).unwrap();
        let mut seen = BTreeSet::new();
        for shard in 0..4u32 {
            for &leaf in map.owned(shard) {
                assert_eq!(map.owner(leaf).unwrap(), shard);
                assert!(seen.insert(leaf), "{leaf:?} owned twice");
            }
        }
        assert_eq!(seen.len(), t.leaves().len());
        assert_eq!(map.n_leaves(), t.leaves().len());
    }

    /// Every constructor's map passes the checker, and each way of
    /// breaking one by hand fails it.
    #[test]
    fn check_invariants_rejects_a_broken_map() {
        let t = amr_tree();
        let map = ShardMap::partition(&t, 3).unwrap();
        map.check_invariants(&t);
        map.repartition(&t, 2).unwrap().check_invariants(&t);
        ShardMap::partition_skewed(&t, 3, 700).unwrap().check_invariants(&t);
        let broken = |what: &str, edit: &dyn Fn(&mut ShardMap)| {
            let mut bad = map.clone();
            edit(&mut bad);
            let out = std::panic::catch_unwind(|| bad.check_invariants(&t));
            assert!(out.is_err(), "{what} passed the checker");
        };
        broken("a leaf missing", &|m| {
            m.leaves.pop();
            *m.cuts.last_mut().unwrap() -= 1;
        });
        broken("leaves out of curve order", &|m| m.leaves.swap(0, 1));
        broken("cuts short of the curve", &|m| *m.cuts.last_mut().unwrap() -= 1);
        broken("cuts out of order", &|m| m.cuts.swap(1, 2));
    }

    /// A balanced map's shard sizes differ by at most one (the AMR tree,
    /// 3 shards; `sfc::tests::partition_is_contiguous_and_balanced` cuts
    /// a sphere-refined level-3 tree 7 ways).
    #[test]
    fn partition_is_balanced() {
        let t = amr_tree();
        let map = ShardMap::partition(&t, 3).unwrap();
        let counts: Vec<usize> = (0..3).map(|s| map.owned(s).len()).collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "unbalanced: {counts:?}");
    }

    #[test]
    fn zero_shards_and_unknown_leaf_error() {
        let t = amr_tree();
        assert!(ShardMap::partition(&t, 0).is_err());
        let map = ShardMap::partition(&t, 2).unwrap();
        // The root is refined, hence not a leaf.
        assert!(map.owner(MortonKey::root()).is_err());
    }

    #[test]
    fn single_shard_plan_is_empty() {
        let t = amr_tree();
        let map = ShardMap::partition(&t, 1).unwrap();
        let plan = map.halo_push_plan(&t);
        assert!(plan[0].is_empty());
    }

    #[test]
    fn repartition_bumps_the_epoch() {
        let t = amr_tree();
        let map = ShardMap::partition(&t, 3).unwrap();
        assert_eq!(map.epoch(), 0);
        let next = map.repartition(&t, 3).unwrap();
        assert_eq!(next.epoch(), 1);
        let third = next.repartition(&t, 2).unwrap();
        assert_eq!(third.epoch(), 2);
        assert_eq!(third.n_shards(), 2);
        assert_eq!(third.n_leaves(), t.leaves().len());
    }

    #[test]
    fn skewed_partition_is_skewed_and_complete() {
        let t = amr_tree();
        let map = ShardMap::partition_skewed(&t, 4, 700).unwrap();
        assert_eq!(map.n_leaves(), t.leaves().len());
        let first = map.owned(0).len();
        for shard in 1..4 {
            assert!(
                first > map.owned(shard).len(),
                "shard 0 ({first}) must dominate shard {shard} ({})",
                map.owned(shard).len()
            );
            assert!(!map.owned(shard).is_empty(), "shard {shard} starved");
        }
        assert!(map.imbalance_permille() > 1000, "70% share must read as imbalanced");
        // Owned lists keep the tree's SFC traversal order: concatenated
        // in shard order they reproduce `leaves()` exactly.
        let mut cat = Vec::new();
        for shard in 0..4u32 {
            cat.extend_from_slice(map.owned(shard));
        }
        assert_eq!(cat, t.leaves());
    }

    /// Every shard of a skewed map keeps a leaf, whatever the shard
    /// count and share — 64 leaves over 40 shards at permille 0, say,
    /// where chunks of `ceil(rest / (n − 1))` run out seven shards
    /// early.
    #[test]
    fn skewed_partition_never_starves_a_shard() {
        let mut t = Octree::new(Domain::new(16.0));
        t.refine_where(2, |_, _| true);
        assert_eq!(t.leaf_count(), 64);
        for n in 1..=64 {
            for permille in [0, 500, 900, 1000] {
                let map = ShardMap::partition_skewed(&t, n, permille).unwrap();
                map.check_invariants(&t);
                for shard in 0..n as u32 {
                    assert!(!map.owned(shard).is_empty(), "{n} shards at {permille}: {shard}");
                }
            }
        }
    }

    #[test]
    fn balanced_partition_reads_as_balanced() {
        let t = amr_tree();
        let map = ShardMap::partition(&t, 4).unwrap();
        // SFC chunks differ by at most one leaf; with 36 leaves over 4
        // shards that is exactly balanced.
        assert!(map.imbalance_permille() <= 150, "{}", map.imbalance_permille());
    }

    /// Every shard's owned keys, the epoch, the imbalance and the owner
    /// of each leaf of `map`, folded into `h`.
    fn fold_map(h: &mut Fnv1a, map: &ShardMap, leaves: &[MortonKey]) {
        let key = |h: &mut Fnv1a, k: MortonKey| {
            h.update(&[k.level]);
            h.update_u64(k.code);
        };
        h.update_u64(map.n_shards() as u64);
        for shard in 0..map.n_shards() as u32 {
            h.update_u64(map.owned(shard).len() as u64);
            for &k in map.owned(shard) {
                key(h, k);
            }
        }
        h.update_u64(map.epoch());
        h.update_u64(map.imbalance_permille());
        for &leaf in leaves {
            h.update_u64(map.owner(leaf).unwrap() as u64);
        }
    }

    /// Every partition, repartition, migration plan, owner and imbalance
    /// over uniform, half-refined and sphere-refined trees and 1 to 40
    /// shards, pinned to one digest: the map's storage may change, what
    /// it assigns may not.
    #[test]
    fn partitions_are_pinned_bit_for_bit() {
        let mut trees = Vec::new();
        for level in 1..=3 {
            let mut uniform = Octree::structure_only(Domain::new(16.0));
            uniform.refine_where(level, |_, _| true);
            let mut half = Octree::structure_only(Domain::new(16.0));
            half.refine_where(level, |d, k| d.node_origin(k).x < 0.0);
            trees.extend([uniform, half]);
        }
        let mut sphere = Octree::structure_only(Domain::new(16.0));
        sphere.refine_where(4, |d, k| d.node_center(k).norm() < 6.0);
        trees.push(sphere);
        let mut h = Fnv1a::new();
        for t in &trees {
            let leaves = t.leaves();
            h.update_u64(leaves.len() as u64);
            for n in 1..=40 {
                let map = ShardMap::partition(t, n).unwrap();
                let next = map.repartition(t, (n - 1).max(1)).unwrap();
                fold_map(&mut h, &map, &leaves);
                fold_map(&mut h, &next, &leaves);
                for (k, old, new) in map.migration_plan(&next) {
                    h.update(&[k.level]);
                    h.update_u64(k.code);
                    h.update_u64(((old as u64) << 32) | new as u64);
                }
                for permille in [0, 1, 333, 500, 700, 999, 1000] {
                    match ShardMap::partition_skewed(t, n, permille) {
                        Ok(skewed) => fold_map(&mut h, &skewed, &leaves),
                        Err(_) => h.update(b"err"),
                    }
                }
            }
        }
        assert_eq!(h.finish(), 0xf586_1903_5f9c_097f, "digest {:#x}", h.finish());
    }

    #[test]
    fn migration_plan_diffs_owner_changes_only() {
        let t = amr_tree();
        let skewed = ShardMap::partition_skewed(&t, 3, 800).unwrap();
        let balanced = skewed.repartition(&t, 3).unwrap();
        let plan = skewed.migration_plan(&balanced);
        assert!(!plan.is_empty(), "rebalancing a skew must move leaves");
        for &(key, old, new) in &plan {
            assert_eq!(skewed.owner(key).unwrap(), old);
            assert_eq!(balanced.owner(key).unwrap(), new);
            assert_ne!(old, new);
        }
        // Sorted by key, no duplicates.
        for pair in plan.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
        // A map diffed against itself moves nothing.
        assert!(skewed.migration_plan(&skewed).is_empty());
    }
}
