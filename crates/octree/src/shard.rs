//! Shard-aware owner maps for distributing sub-grids over localities.
//!
//! Octo-Tiger assigns octree nodes to localities along the space filling
//! curve (paper §4.2); [`ShardMap`] wraps [`crate::sfc::partition`] into
//! the owner/owned view the distributed driver needs, and records
//! ownership only:
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
use crate::sfc;
use crate::tree::Octree;
use std::collections::{BTreeMap, HashMap};
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
    owner: HashMap<MortonKey, u32>,
    owned: Vec<Vec<MortonKey>>,
    epoch: u64,
}

impl ShardMap {
    /// Partition the tree's leaves into `n_shards` contiguous,
    /// balanced chunks along the space filling curve (epoch 0).
    pub fn partition(tree: &Octree, n_shards: usize) -> Result<ShardMap> {
        Self::partition_at_epoch(tree, n_shards, 0)
    }

    fn partition_at_epoch(tree: &Octree, n_shards: usize, epoch: u64) -> Result<ShardMap> {
        if n_shards == 0 {
            return Err(Error::Octree("cannot partition over zero shards".into()));
        }
        let leaves = tree.leaves();
        if leaves.is_empty() {
            return Err(Error::Octree("tree has no leaves to partition".into()));
        }
        let assignment = sfc::partition(&leaves, n_shards);
        let mut owner = HashMap::with_capacity(leaves.len());
        let mut owned = vec![Vec::new(); n_shards];
        // Iterating `leaves` (SFC-sorted) keeps each owned list in SFC
        // order — the deterministic iteration order for all shard work.
        for &leaf in &leaves {
            let part = assignment[&leaf] as u32;
            owner.insert(leaf, part);
            owned[part as usize].push(leaf);
        }
        Ok(ShardMap { owner, owned, epoch })
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
        if n_shards == 0 {
            return Err(Error::Octree("cannot partition over zero shards".into()));
        }
        let leaves = tree.leaves();
        if leaves.len() < n_shards {
            return Err(Error::Octree(format!(
                "{} leaves cannot feed {n_shards} skewed shards",
                leaves.len()
            )));
        }
        let total = leaves.len();
        let want = (total * first_share_permille.min(1000) as usize) / 1000;
        // Leave at least one leaf for every other shard, and none over
        // when there is no other.
        let first = if n_shards == 1 { total } else { want.clamp(1, total - (n_shards - 1)) };
        let mut owner = HashMap::with_capacity(total);
        let mut owned = vec![Vec::new(); n_shards];
        let rest = total - first;
        for (i, &leaf) in leaves.iter().enumerate() {
            // The rest split evenly over shards 1..n, as `sfc::partition`
            // splits a whole curve: at least one leaf each, since
            // `rest >= n_shards - 1`.
            let part = if i < first { 0 } else { 1 + (i - first) * (n_shards - 1) / rest };
            owner.insert(leaf, part as u32);
            owned[part].push(leaf);
        }
        Ok(ShardMap { owner, owned, epoch: 0 })
    }

    /// Re-partition the (possibly regridded) tree's current leaves into
    /// balanced SFC chunks, stamping the successor epoch. The tree need
    /// not have the same leaf set this map was built from — this is the
    /// post-regrid / rebalance path.
    pub fn repartition(&self, tree: &Octree, n_shards: usize) -> Result<ShardMap> {
        let next = Self::partition_at_epoch(tree, n_shards, self.epoch + 1)?;
        debug_assert!(next.epoch > self.epoch, "a repartition must raise the epoch");
        Ok(next)
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
            .owner
            .iter()
            .filter_map(|(&key, &old)| {
                let new = *next.owner.get(&key)?;
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
        let total = self.n_leaves();
        if total == 0 {
            return 0;
        }
        let max = self.owned.iter().map(Vec::len).max().unwrap_or(0);
        (max * self.n_shards() * 1000 / total).saturating_sub(1000) as u64
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.owned.len()
    }

    /// Total number of leaves across all shards.
    pub fn n_leaves(&self) -> usize {
        self.owner.len()
    }

    /// The locality owning leaf `key`.
    pub fn owner(&self, key: MortonKey) -> Result<u32> {
        self.owner
            .get(&key)
            .copied()
            .ok_or_else(|| Error::Octree(format!("{key:?} is not a leaf in the shard map")))
    }

    /// The leaves owned by `shard`, in SFC order.
    pub fn owned(&self, shard: u32) -> &[MortonKey] {
        &self.owned[shard as usize]
    }

    /// Verify the map against `tree`: every leaf is owned exactly once,
    /// `owner` and `owned` agree, each shard's list is in SFC order, and
    /// the shards are contiguous along the curve — shard 0's leaves,
    /// then shard 1's, and so on, are the tree's leaves in curve order.
    ///
    /// # Panics
    /// With a description of the first violated invariant.
    pub fn check_invariants(&self, tree: &Octree) {
        for (shard, keys) in self.owned.iter().enumerate() {
            for key in keys {
                let owner = self.owner.get(key);
                let listed = Some(&(shard as u32));
                assert_eq!(owner, listed, "shard {shard} lists {key:?}, owned by {owner:?}");
            }
        }
        let along: Vec<MortonKey> = self.owned.concat();
        assert_eq!(
            along.len(),
            self.owner.len(),
            "the shards list {} leaves, the owner map holds {}",
            along.len(),
            self.owner.len()
        );
        let leaves = tree.leaves();
        let len = along.len().max(leaves.len());
        if let Some(n) = (0..len).find(|&n| along.get(n) != leaves.get(n)) {
            panic!(
                "position {n} along the curve: the shards list {:?}, the tree's leaf is {:?} \
                 (a leaf owned twice or not at all, a list out of SFC order, or shards not \
                 contiguous along the curve)",
                along.get(n),
                leaves.get(n)
            );
        }
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
        let last = |m: &ShardMap| *m.owned[0].last().unwrap();
        broken("an owner disagreeing with its list", &|m| {
            let key = last(m);
            m.owner.insert(key, 1);
        });
        broken("a leaf owned twice", &|m| {
            let key = last(m);
            m.owned[1].insert(0, key);
        });
        broken("a leaf owned by no shard", &|m| {
            let key = m.owned[0].pop().unwrap();
            m.owner.remove(&key);
        });
        broken("a list out of SFC order", &|m| m.owned[0].swap(0, 1));
        broken("shards not contiguous along the curve", &|m| {
            let key = m.owned[0].pop().unwrap();
            m.owned[2].push(key);
            m.owner.insert(key, 2);
        });
    }

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
