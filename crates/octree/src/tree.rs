//! The adaptive octree.
//!
//! Invariants maintained by every mutation (checked by
//! [`Octree::check_invariants`], exercised by property tests):
//!
//! * **Proper nesting** — every non-root node's parent exists and is
//!   marked refined; a refined node has exactly eight children.
//! * **2:1 balance** — the leaves containing any two adjacent regions
//!   differ by at most one level (across faces, edges and corners), so
//!   halo exchange only ever deals with one level of difference, as in
//!   Octo-Tiger.
//!
//! Only leaves hold a sub-grid, and only its interior: refining a leaf
//! moves its grid into its children, coarsening restricts theirs back
//! into it, and the flux sweep gathers ghosts into a scratch grid of
//! its own (`crate::halo`). The FMM needs every level (§4.3), but it
//! builds a refined node's multipoles from its children's moments, not
//! from a grid. [`Octree::restrict_all`] fills refined-node grids and
//! `halo::fill_all_halos_parallel` widens leaf grids for a caller that
//! wants them; nothing on a run's path does, and
//! [`Octree::check_leaf_grids`] says so.

use crate::geometry::Domain;
use crate::prolong::{prolong_octant, restrict_into_octant};
use crate::subgrid::{BoxMap, SubGrid};
use std::collections::HashMap;
use util::morton::MortonKey;

/// One octree node.
#[derive(Debug, Clone)]
pub struct TreeNode {
    pub key: MortonKey,
    /// Whether this node has eight children.
    pub refined: bool,
    /// Evolved variables of a leaf, its interior alone ([`SubGrid::new`])
    /// unless a halo fill widened it. `None` on a refined node (unless
    /// [`Octree::restrict_all`] filled it) and in structure-only trees
    /// (used for large-scale counting experiments like Table 4).
    pub grid: Option<SubGrid>,
}

/// What lies on the other side of a leaf's face/edge/corner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Neighbor {
    /// A leaf at the same level.
    SameLevel(MortonKey),
    /// A coarser leaf (one level up, by 2:1 balance).
    Coarser(MortonKey),
    /// A refined node; the listed children are the leaves adjacent to
    /// the shared face (one level down, by 2:1 balance).
    Finer(Vec<MortonKey>),
    /// Outside the simulation domain.
    Boundary,
}

/// The adaptive octree of sub-grids.
///
/// `Clone` deep-copies every node's sub-grid — the distributed driver
/// uses this to give each simulated locality its own mirror of the tree.
#[derive(Clone)]
pub struct Octree {
    domain: Domain,
    nodes: HashMap<MortonKey, TreeNode>,
    with_grids: bool,
}

/// The 26 direction offsets (faces, edges, corners).
pub const DIRECTIONS: [(i32, i32, i32); 26] = build_directions();

const fn build_directions() -> [(i32, i32, i32); 26] {
    let mut out = [(0, 0, 0); 26];
    let mut n = 0;
    let mut i = -1;
    while i <= 1 {
        let mut j = -1;
        while j <= 1 {
            let mut k = -1;
            while k <= 1 {
                if !(i == 0 && j == 0 && k == 0) {
                    out[n] = (i, j, k);
                    n += 1;
                }
                k += 1;
            }
            j += 1;
        }
        i += 1;
    }
    out
}

impl Octree {
    /// A tree holding data: a single root leaf with a zeroed sub-grid.
    pub fn new(domain: Domain) -> Octree {
        let mut nodes = HashMap::new();
        nodes.insert(
            MortonKey::root(),
            TreeNode { key: MortonKey::root(), refined: false, grid: Some(SubGrid::new()) },
        );
        Octree { domain, nodes, with_grids: true }
    }

    /// A structure-only tree (no sub-grid allocation), for large
    /// refinement-counting experiments (Table 4 goes to 1.5M nodes).
    pub fn structure_only(domain: Domain) -> Octree {
        let mut nodes = HashMap::new();
        nodes.insert(
            MortonKey::root(),
            TreeNode { key: MortonKey::root(), refined: false, grid: None },
        );
        Octree { domain, nodes, with_grids: false }
    }

    /// The simulation domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Whether nodes carry sub-grid data.
    pub fn has_grids(&self) -> bool {
        self.with_grids
    }

    /// Total number of nodes (all levels).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True only for a default-constructed tree with its root removed
    /// (cannot happen through the public API).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `key` exists in the tree.
    pub fn contains(&self, key: MortonKey) -> bool {
        self.nodes.contains_key(&key)
    }

    /// Borrow a node.
    pub fn node(&self, key: MortonKey) -> Option<&TreeNode> {
        self.nodes.get(&key)
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, key: MortonKey) -> Option<&mut TreeNode> {
        self.nodes.get_mut(&key)
    }

    /// Whether `key` is a leaf.
    pub fn is_leaf(&self, key: MortonKey) -> bool {
        self.nodes.get(&key).map(|n| !n.refined).unwrap_or(false)
    }

    /// All leaf keys, sorted in space-filling-curve order.
    pub fn leaves(&self) -> Vec<MortonKey> {
        let mut keys: Vec<MortonKey> = self
            .nodes
            .values()
            .filter(|n| !n.refined)
            .map(|n| n.key)
            .collect();
        keys.sort_by(|a, b| crate::sfc::curve_cmp(*a, *b));
        keys
    }

    /// Number of leaves (= "sub-grids" in the paper's Table 4 counting).
    pub fn leaf_count(&self) -> usize {
        self.nodes.values().filter(|n| !n.refined).count()
    }

    /// All node keys at `level`, unsorted.
    pub fn level_keys(&self, level: u8) -> Vec<MortonKey> {
        self.nodes
            .keys()
            .filter(|k| k.level == level)
            .copied()
            .collect()
    }

    /// Deepest refinement level present.
    pub fn max_level(&self) -> u8 {
        self.nodes.keys().map(|k| k.level).max().unwrap_or(0)
    }

    /// Refine a leaf into eight children (conservatively prolonging its
    /// sub-grid, which the now-refined node gives up), recursively
    /// refining coarser neighbors first to keep the 2:1 balance.
    ///
    /// # Panics
    /// If `key` is not a leaf of this tree.
    pub fn refine(&mut self, key: MortonKey) {
        assert!(self.is_leaf(key), "refine target {key:?} is not a leaf");
        // 2:1 balance: every neighboring region at this node's level must
        // be covered by a leaf at level >= key.level - 1 *after* we
        // split, i.e. at level >= key.level before the split is usable
        // ... precisely: after splitting, children are at key.level + 1;
        // their neighbors must be leaves at >= key.level. So any
        // neighboring leaf coarser than key.level must be refined first.
        for dir in DIRECTIONS {
            if let Some(nk) = key.neighbor(dir.0, dir.1, dir.2) {
                if let Some(containing) = self.containing_leaf(nk) {
                    if containing.level + 1 < key.level + 1 && containing != key {
                        // containing.level < key.level: balance violation
                        // after split; refine the coarse neighbor first.
                        self.refine(containing);
                    }
                }
            }
        }
        let node = self.nodes.get_mut(&key).expect("leaf exists");
        node.refined = true;
        let parent_grid = node.grid.take();
        for octant in 0..8u8 {
            let child_key = key.child(octant);
            let grid = parent_grid.as_ref().map(|pg| prolong_octant(pg, octant));
            self.nodes
                .insert(child_key, TreeNode { key: child_key, refined: false, grid });
        }
    }

    /// Coarsen: remove the eight (leaf) children of `key`, restricting
    /// their data into it.
    ///
    /// # Panics
    /// If `key` is not refined or any child is itself refined.
    pub fn coarsen(&mut self, key: MortonKey) {
        let node = self.nodes.get(&key).expect("node must exist");
        assert!(node.refined, "coarsen target must be refined");
        for octant in 0..8u8 {
            assert!(
                self.is_leaf(key.child(octant)),
                "cannot coarsen {key:?}: child {octant} is refined"
            );
        }
        // 2:1 balance: no neighboring leaf may be finer than the new
        // leaf's children would allow, i.e. all neighboring regions must
        // be covered by leaves at level <= key.level + 1.
        for dir in DIRECTIONS {
            if let Some(nk) = key.neighbor(dir.0, dir.1, dir.2) {
                if let Some(n) = self.nodes.get(&nk) {
                    if n.refined {
                        for octant in 0..8u8 {
                            let gc = nk.child(octant);
                            assert!(
                                self.is_leaf(gc),
                                "coarsening {key:?} would break 2:1 balance with {gc:?}"
                            );
                        }
                    }
                }
            }
        }
        let mut parent_grid = self.with_grids.then(SubGrid::new);
        for octant in 0..8u8 {
            let child = self.nodes.remove(&key.child(octant)).expect("child exists");
            if let (Some(pg), Some(cg)) = (parent_grid.as_mut(), child.grid.as_ref()) {
                restrict_into_octant(cg, pg, octant);
            }
        }
        let node = self.nodes.get_mut(&key).expect("node must exist");
        node.refined = false;
        node.grid = parent_grid;
    }

    /// The leaf whose region contains the region of `key` (which need
    /// not exist in the tree). `None` only if the tree somehow lacks a
    /// root.
    pub fn containing_leaf(&self, key: MortonKey) -> Option<MortonKey> {
        let mut cur = key;
        loop {
            if let Some(node) = self.nodes.get(&cur) {
                if !node.refined {
                    return Some(cur);
                }
                // `cur` exists and is refined: the original key's region
                // is covered by finer leaves; descend is impossible
                // (key's own level was too coarse). This happens when
                // `key` itself exists and is refined: its region has no
                // single containing leaf. Return None.
                return None;
            }
            cur = cur.parent()?;
        }
    }

    /// Classify what lies in direction `dir` of leaf `key`.
    pub fn neighbor(&self, key: MortonKey, dir: (i32, i32, i32)) -> Neighbor {
        let Some(nk) = key.neighbor(dir.0, dir.1, dir.2) else {
            return Neighbor::Boundary;
        };
        if let Some(node) = self.nodes.get(&nk) {
            if !node.refined {
                return Neighbor::SameLevel(nk);
            }
            // Finer: collect the children of nk adjacent to `key`
            // (those on the face/edge/corner towards -dir).
            let mut adjacent = Vec::new();
            for octant in 0..8u8 {
                let ox = (octant & 1) as i32;
                let oy = ((octant >> 1) & 1) as i32;
                let oz = ((octant >> 2) & 1) as i32;
                let near_x = dir.0 == 0 || (dir.0 == 1 && ox == 0) || (dir.0 == -1 && ox == 1);
                let near_y = dir.1 == 0 || (dir.1 == 1 && oy == 0) || (dir.1 == -1 && oy == 1);
                let near_z = dir.2 == 0 || (dir.2 == 1 && oz == 0) || (dir.2 == -1 && oz == 1);
                if near_x && near_y && near_z {
                    adjacent.push(nk.child(octant));
                }
            }
            return Neighbor::Finer(adjacent);
        }
        match self.containing_leaf(nk) {
            Some(c) if c.level < key.level => Neighbor::Coarser(c),
            Some(c) => Neighbor::SameLevel(c),
            None => Neighbor::Boundary,
        }
    }

    /// Refine every leaf for which `criterion` holds, up to `max_level`,
    /// sweeping until a fixed point (new children may satisfy the
    /// criterion too).
    pub fn refine_where(&mut self, max_level: u8, criterion: impl Fn(&Domain, MortonKey) -> bool) {
        loop {
            let to_refine: Vec<MortonKey> = self
                .leaves()
                .into_iter()
                .filter(|k| k.level < max_level && criterion(&self.domain, *k))
                .collect();
            if to_refine.is_empty() {
                return;
            }
            for key in to_refine {
                // Balance enforcement may have already refined it.
                if self.is_leaf(key) {
                    self.refine(key);
                }
            }
        }
    }

    /// Fill every refined node's grid by conservative restriction from
    /// its children, deepest levels first (so data propagates to the
    /// root). Leaves are untouched. An on-demand view for whoever wants
    /// coarse averages: no step, regrid or solve reads a refined node's
    /// grid, so nothing keeps them current, and
    /// [`Octree::keep_leaf_interiors`] drops them again.
    pub fn restrict_all(&mut self) {
        assert!(self.with_grids, "restrict_all needs grid data");
        let mut levels: Vec<u8> = self.nodes.keys().map(|k| k.level).collect();
        levels.sort_unstable();
        levels.dedup();
        for &level in levels.iter().rev() {
            let refined_keys: Vec<MortonKey> = self
                .nodes
                .values()
                .filter(|n| n.key.level == level && n.refined)
                .map(|n| n.key)
                .collect();
            for key in refined_keys {
                let mut acc = SubGrid::new();
                for octant in 0..8u8 {
                    let child = self
                        .nodes
                        .get(&key.child(octant))
                        .expect("proper nesting: child exists");
                    let cg = child.grid.as_ref().expect("grids present");
                    restrict_into_octant(cg, &mut acc, octant);
                }
                self.nodes.get_mut(&key).expect("node exists").grid = Some(acc);
            }
        }
    }

    /// Drop every refined node's grid and every leaf's ghost ring,
    /// leaving the state stored once: an interior-only grid on each
    /// leaf, as [`Octree::check_leaf_grids`] asserts.
    pub fn keep_leaf_interiors(&mut self) {
        for node in self.nodes.values_mut() {
            match node.grid.as_mut() {
                Some(_) if node.refined => node.grid = None,
                Some(grid) if grid.indexer().ghost > 0 => {
                    let mut interior = SubGrid::new();
                    interior.copy_box(&BoxMap::same_level((0, 0, 0)), grid);
                    *grid = interior;
                }
                _ => {}
            }
        }
    }

    /// Verify that the state is stored once: every leaf has a grid, no
    /// refined node has one, and every grid is interior-only — the
    /// layout the wire and the checkpoint carry.
    ///
    /// # Panics
    /// With the first node that breaks it.
    pub fn check_leaf_grids(&self) {
        for node in self.nodes.values() {
            match &node.grid {
                Some(_) if node.refined => panic!("refined node {:?} holds a grid", node.key),
                Some(grid) => assert_eq!(
                    grid.indexer().ghost,
                    0,
                    "leaf {:?} holds a ghost ring",
                    node.key
                ),
                None => assert!(node.refined, "leaf {:?} has no grid", node.key),
            }
        }
    }

    /// Verify proper nesting, child completeness, and 2:1 balance.
    ///
    /// # Panics
    /// With a description of the first violated invariant.
    pub fn check_invariants(&self) {
        assert!(
            self.nodes.contains_key(&MortonKey::root()),
            "tree must contain the root"
        );
        for node in self.nodes.values() {
            if let Some(parent) = node.key.parent() {
                let p = self
                    .nodes
                    .get(&parent)
                    .unwrap_or_else(|| panic!("orphan node {:?}", node.key));
                assert!(p.refined, "parent of {:?} is not refined", node.key);
            }
            if node.refined {
                for octant in 0..8u8 {
                    assert!(
                        self.nodes.contains_key(&node.key.child(octant)),
                        "refined node {:?} missing child {octant}",
                        node.key
                    );
                }
            }
            if self.with_grids && !node.refined {
                assert!(node.grid.is_some(), "leaf {:?} missing grid", node.key);
            }
        }
        // 2:1 balance over all 26 directions.
        for node in self.nodes.values() {
            if node.refined {
                continue;
            }
            let key = node.key;
            for dir in DIRECTIONS {
                if let Some(nk) = key.neighbor(dir.0, dir.1, dir.2) {
                    if let Some(c) = self.containing_leaf(nk) {
                        assert!(
                            (c.level as i16 - key.level as i16).abs() <= 1,
                            "2:1 balance violated between {key:?} and {c:?}"
                        );
                    }
                    // containing_leaf = None means the neighbor region is
                    // refined finer than nk — check its children are not
                    // more than one level deeper via the Finer lookup.
                    if let Neighbor::Finer(children) = self.neighbor(key, dir) {
                        for ck in children {
                            assert!(
                                self.contains(ck),
                                "finer neighbor {ck:?} of {key:?} missing"
                            );
                            assert!(
                                self.is_leaf(ck),
                                "2:1 balance violated: {ck:?} (neighbor of {key:?}) is refined"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Count of leaves per level, for Table 4 style reporting.
    pub fn leaves_per_level(&self) -> Vec<(u8, usize)> {
        let mut counts: HashMap<u8, usize> = HashMap::new();
        for n in self.nodes.values() {
            if !n.refined {
                *counts.entry(n.key.level).or_insert(0) += 1;
            }
        }
        let mut v: Vec<(u8, usize)> = counts.into_iter().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgrid::{Field, ALL_FIELDS};

    fn small_domain() -> Domain {
        Domain::new(16.0)
    }

    #[test]
    fn fresh_tree_is_single_root_leaf() {
        let t = Octree::new(small_domain());
        assert_eq!(t.len(), 1);
        assert_eq!(t.leaf_count(), 1);
        assert!(t.is_leaf(MortonKey::root()));
        t.check_invariants();
    }

    /// The refined node gives its grid up: it holds none, and each child
    /// is bit for bit `prolong_octant` of the former leaf grid.
    #[test]
    fn refine_creates_eight_children() {
        let mut t = Octree::new(small_domain());
        let g = t.node_mut(MortonKey::root()).unwrap().grid.as_mut().unwrap();
        for (idx, (i, j, k)) in g.indexer().interior().enumerate() {
            g.set(Field::Rho, i, j, k, 1.0 + (idx % 7) as f64 * 0.3);
            g.set(Field::Egas, i, j, k, 2.0 + (idx % 11) as f64 * 0.1);
        }
        let leaf_grid = g.clone();
        t.refine(MortonKey::root());
        assert_eq!(t.len(), 9);
        assert_eq!(t.leaf_count(), 8);
        assert!(!t.is_leaf(MortonKey::root()));
        assert!(t.node(MortonKey::root()).unwrap().grid.is_none(), "refined node kept a grid");
        for octant in 0..8u8 {
            let want = prolong_octant(&leaf_grid, octant);
            let got = t.node(MortonKey::root().child(octant)).unwrap().grid.as_ref().unwrap();
            for f in ALL_FIELDS {
                let bits = |g: &SubGrid| g.field(f).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(&want), "octant {octant} {f:?}");
            }
        }
        t.check_invariants();
    }

    #[test]
    fn refinement_conserves_field_totals() {
        let mut t = Octree::new(small_domain());
        {
            let g = t.node_mut(MortonKey::root()).unwrap().grid.as_mut().unwrap();
            for (idx, (i, j, k)) in g.indexer().interior().enumerate() {
                g.set(Field::Rho, i, j, k, 1.0 + (idx % 17) as f64 * 0.25);
            }
        }
        let mass_before = t
            .node(MortonKey::root())
            .unwrap()
            .grid
            .as_ref()
            .unwrap()
            .interior_sum(Field::Rho)
            * t.domain().cell_volume(0);
        t.refine(MortonKey::root());
        let mass_after: f64 = t
            .leaves()
            .iter()
            .map(|k| {
                t.node(*k).unwrap().grid.as_ref().unwrap().interior_sum(Field::Rho)
                    * t.domain().cell_volume(k.level)
            })
            .sum();
        assert!(
            (mass_after - mass_before).abs() < 1e-12 * mass_before.abs(),
            "prolongation must conserve mass: {mass_before} -> {mass_after}"
        );
    }

    #[test]
    fn coarsen_restores_leaf_and_conserves() {
        let mut t = Octree::new(small_domain());
        {
            let g = t.node_mut(MortonKey::root()).unwrap().grid.as_mut().unwrap();
            for (idx, (i, j, k)) in g.indexer().interior().enumerate() {
                g.set(Field::Egas, i, j, k, (idx % 5) as f64 + 0.5);
            }
        }
        let before = t
            .node(MortonKey::root())
            .unwrap()
            .grid
            .as_ref()
            .unwrap()
            .interior_sum(Field::Egas);
        t.refine(MortonKey::root());
        t.coarsen(MortonKey::root());
        assert_eq!(t.len(), 1);
        let after = t
            .node(MortonKey::root())
            .unwrap()
            .grid
            .as_ref()
            .unwrap()
            .interior_sum(Field::Egas);
        assert!((after - before).abs() < 1e-12 * before.abs());
        t.check_invariants();
    }

    #[test]
    fn corner_path_needs_no_balance_refinement() {
        // A strict corner path stays inside one sibling subtree at every
        // level, so 2:1 balance never triggers: exactly 1 + 4*8 nodes.
        let mut t = Octree::new(small_domain());
        let mut key = MortonKey::root();
        for _ in 0..4 {
            t.refine(key);
            key = key.child(0);
        }
        t.check_invariants();
        assert_eq!(t.len(), 33);
    }

    #[test]
    fn deep_refinement_keeps_two_to_one_balance() {
        // Refine a path hugging the domain centre: its neighbors fall in
        // other subtrees, so balance must force extra refinement.
        let mut t = Octree::new(small_domain());
        t.refine(MortonKey::root());
        let mut key = MortonKey::root().child(7); // upper corner at centre
        for _ in 0..3 {
            t.refine(key);
            key = key.child(0); // low corner: stays at the domain centre
        }
        t.check_invariants();
        // The naked path would be 1 + 8 + 3*8 = 33 nodes; balance with
        // the other seven level-1 subtrees forces many more.
        assert!(t.len() > 40, "balance must refine neighbors, len = {}", t.len());
    }

    #[test]
    fn neighbor_classification() {
        let mut t = Octree::new(small_domain());
        t.refine(MortonKey::root());
        let k0 = MortonKey::new(1, 0, 0, 0);
        // +x neighbor is the sibling at same level.
        assert_eq!(
            t.neighbor(k0, (1, 0, 0)),
            Neighbor::SameLevel(MortonKey::new(1, 1, 0, 0))
        );
        // -x is the domain boundary.
        assert_eq!(t.neighbor(k0, (-1, 0, 0)), Neighbor::Boundary);
        // Refine the +x sibling: now it is finer, with 4 adjacent children.
        t.refine(MortonKey::new(1, 1, 0, 0));
        match t.neighbor(k0, (1, 0, 0)) {
            Neighbor::Finer(children) => {
                assert_eq!(children.len(), 4);
                // All adjacent children have x-coordinate at the low face
                // of the refined node (x = 2 at level 2).
                for c in children {
                    assert_eq!(c.coords().0, 2);
                }
            }
            other => panic!("expected Finer, got {other:?}"),
        }
        // From a child of the refined node, looking back -x: coarser.
        let fine = MortonKey::new(2, 2, 0, 0);
        assert_eq!(t.neighbor(fine, (-1, 0, 0)), Neighbor::Coarser(k0));
        t.check_invariants();
    }

    #[test]
    fn refine_where_reaches_fixed_point() {
        // Refine every node whose box touches a ball around the centre.
        let ball = 3.0;
        let touches = |d: &Domain, k: MortonKey| {
            let c = d.node_center(k);
            let half = d.node_extent(k.level) / 2.0;
            // Box touches ball if centre distance < ball + half-diagonal.
            c.norm() < ball + half * 3f64.sqrt()
        };
        let mut t = Octree::new(small_domain());
        t.refine_where(3, touches);
        t.check_invariants();
        assert_eq!(t.max_level(), 3);
        // Every leaf at max level is near the centre.
        for k in t.leaves() {
            if k.level == 3 {
                assert!(t.domain().node_center(k).norm() < ball + 2.0 * t.domain().node_extent(2));
            }
        }
    }

    #[test]
    fn structure_only_tree_counts_without_allocating() {
        let mut t = Octree::structure_only(small_domain());
        t.refine_where(5, |d, k| {
            let c = d.node_center(k);
            let half = d.node_extent(k.level) / 2.0;
            c.norm() < 2.0 + half * 3f64.sqrt()
        });
        t.check_invariants();
        assert!(t.leaf_count() > 64);
        assert!(t.node(MortonKey::root()).unwrap().grid.is_none());
    }

    #[test]
    fn restrict_all_propagates_to_root() {
        let mut t = Octree::new(small_domain());
        t.refine(MortonKey::root());
        t.refine(MortonKey::new(1, 0, 0, 0));
        // Paint all leaves with constant density 2.0.
        for k in t.leaves() {
            let g = t.node_mut(k).unwrap().grid.as_mut().unwrap();
            g.field_mut(Field::Rho).fill(2.0);
        }
        t.restrict_all();
        let root = t.node(MortonKey::root()).unwrap().grid.as_ref().unwrap();
        for (i, j, k) in root.indexer().interior() {
            assert!((root.at(Field::Rho, i, j, k) - 2.0).abs() < 1e-14);
        }
        t.keep_leaf_interiors();
        t.check_leaf_grids();
    }

    /// The checker names each way a tree can hold state twice or not at
    /// all, and `keep_leaf_interiors` undoes the first two bit for bit.
    #[test]
    fn leaf_grid_checker_catches_ghost_rings_and_refined_grids() {
        let breaks = |t: &Octree| std::panic::catch_unwind(|| t.check_leaf_grids()).is_err();
        let mut t = Octree::new(small_domain());
        t.refine(MortonKey::root());
        let leaf = MortonKey::root().child(3);
        let g = t.node_mut(leaf).unwrap().grid.as_mut().unwrap();
        for (n, (i, j, k)) in g.indexer().interior().enumerate() {
            g.set(Field::Tau, i, j, k, n as f64 - 0.5);
        }
        let stored = g.clone();
        assert!(!breaks(&t));

        let mut widened = SubGrid::ghosted();
        widened.copy_box(&BoxMap::same_level((0, 0, 0)), &stored);
        t.node_mut(leaf).unwrap().grid = Some(widened);
        assert!(breaks(&t), "a ghost ring on a leaf");
        t.keep_leaf_interiors();
        assert_eq!(t.node(leaf).unwrap().grid.as_ref(), Some(&stored));

        t.node_mut(MortonKey::root()).unwrap().grid = Some(SubGrid::new());
        assert!(breaks(&t), "a grid on a refined node");
        t.keep_leaf_interiors();
        assert!(!breaks(&t));

        t.node_mut(leaf).unwrap().grid = None;
        assert!(breaks(&t), "a leaf without a grid");
    }

    #[test]
    fn leaves_per_level_sums_to_leaf_count() {
        let mut t = Octree::new(small_domain());
        t.refine_where(3, |d, k| d.node_center(k).x < 0.0);
        let per: usize = t.leaves_per_level().iter().map(|(_, c)| c).sum();
        assert_eq!(per, t.leaf_count());
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn refining_refined_node_panics() {
        let mut t = Octree::new(small_domain());
        t.refine(MortonKey::root());
        t.refine(MortonKey::root());
    }
}
