//! Ghost-layer (halo) filling, by slab, from one interface plan per
//! tree.
//!
//! Each octree node's solvers need a halo of neighbor data: "their input
//! data are the current node's sub-grid as well as all sub-grids of all
//! neighboring nodes as a halo (ghost layer)" (§4.3). A leaf's ghost
//! layer is the 26 boxes around its interior, one per direction, and
//! with 2:1 balance each box has exactly one kind of source, found with
//! one tree lookup per direction (`resolve`):
//!
//! * a **same-level** neighbor leaf — the box is a shifted copy,
//! * a **coarser** neighbor leaf — piecewise-constant injection (each
//!   ghost cell reads the coarse cell containing it),
//! * a **finer** neighbor — the box is tiled by up to four child leaves
//!   (a face; two for an edge, one for a corner) and each ghost cell is
//!   the conservative average of the 8 child cells tiling it,
//! * the **physical boundary** — along exactly the axes on which the
//!   direction leaves the domain, cells are clamped (outflow) or
//!   mirrored (reflect) back into the leaf's own span; the source is
//!   then the neighbor in the direction with those components zeroed —
//!   the leaf itself when nothing is left — at whatever level it is.
//!
//! All four are one operation on a [`BoxMap`] — per axis, which source
//! cell each ghost cell reads — moved for all 14 fields with `k`-row
//! loops by [`SubGrid::copy_box`] / [`SubGrid::average_box`].
//!
//! **One resolution per tree.** [`InterfacePlan::new`] is `resolve`'s
//! only caller: it resolves every leaf's 26 boxes once per tree topology
//! and keeps the slabs (source, `finer`, `BoxMap`; 48 bytes each), each
//! leaf's run faces first — 6 faces, 12 edges, 8 corners. Everything
//! that needs halo geometry is a projection of that one list: the gather
//! ([`InterfacePlan::gather`]), a leaf's source set
//! ([`InterfacePlan::sources`]), the distributed push plan
//! ([`InterfacePlan::push_plan`]) and the grids a distributed mirror
//! keeps. The push ships the 26-neighbor closure and the gather reads
//! its face subset — both from the same slabs, so there is no second
//! derivation to drift from the first — and the plan changes only when
//! the topology does.
//!
//! **The gather moves faces only.** The flux sweep is dimensionally
//! split: PPM and the flux run along one axis at a time, over lines
//! through the interior, so it reads the interior and the six face
//! boxes and never an edge or corner ghost (1 080 of a leaf's 2 232
//! ghost cells per field). The gather moves the face-prefix slabs of a
//! leaf's run — finer children on a face (up to four), coarse injection
//! and the wall fold alike — and leaves edge and corner cells of its
//! output as they were.
//!
//! **The sources are the 26-direction neighbor closure.** Every ghost
//! cell of a leaf lies, per axis, either in the leaf's own span or in
//! the adjacent span one cell-block over (after the boundary
//! clamp/reflect it can only move back *towards* the leaf), so the cell
//! it reads — directly, via coarse injection, or via the one-level fine
//! average that 2:1 balance permits — belongs to the leaf itself or to
//! one of the leaves touching it. Folding at a wall moves a ghost cell
//! within the leaf's span, never to another source, so the source set is
//! the same under either boundary condition.
//!
//! Ghosts do not live in the tree: a leaf's grid is its interior alone
//! ([`SubGrid::new`]). [`InterfacePlan::gather`] builds one leaf's
//! [`SubGrid::ghosted`] grid — its own interior plus the six face
//! boxes — in a caller's buffer; it is pure and reads interiors only.
//! The driver's per-leaf RHS task runs it into a scratch grid of its
//! worker thread right before the flux sweep, so no step phase fills,
//! stores or waits for ghosts. The distributed driver still ships whole
//! leaf grids into each peer's mirror tree; the plan's boxes are what a
//! slab payload would ship instead. [`fill_all_halos_parallel`] gives
//! every leaf of a tree a ghosted grid, its faces filled, for callers
//! that want ghosts there.

use crate::sfc::curve_cmp;
use crate::shard::ShardMap;
use crate::subgrid::{ghost_span, BoxMap, SubGrid, N_GHOST, N_SUB};
use crate::tree::{Octree, DIRECTIONS};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;
use util::morton::MortonKey;

/// Physical boundary condition applied at the domain surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryCondition {
    /// Zero-gradient outflow: ghost cells copy the nearest interior cell.
    #[default]
    Outflow,
    /// Reflecting walls: ghost cells mirror the interior (used by some
    /// verification tests).
    Reflect,
}

/// One box of a leaf's ghost layer and the leaf interior it reads.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HaloSlab {
    source: MortonKey,
    /// `source` is one level finer: `map` addresses the 2×2×2 blocks to
    /// average, not cells to copy.
    finer: bool,
    map: BoxMap,
}

/// Resolve the ghost box of leaf `key` in direction `dir` into the slabs
/// that fill it: one, or one per adjacent child when the neighbor is
/// finer. Relies on 2:1 balance (`Octree::check_invariants`).
fn resolve(
    tree: &Octree,
    key: MortonKey,
    dir: (i32, i32, i32),
    bc: BoundaryCondition,
    mut emit: impl FnMut(HaloSlab),
) {
    let n = N_SUB as isize;
    let (x, y, z) = key.coords();
    let at = [x, y, z].map(|c| c as isize);
    let blocks = 1isize << key.level;
    let step = [dir.0, dir.1, dir.2].map(|d| d.signum() as isize);
    let outside: [bool; 3] = std::array::from_fn(|a| !(0..blocks).contains(&(at[a] + step[a])));
    // The wall folds a ghost cell's out-of-domain axes back into the
    // leaf's own span; what is left of `dir` points at the source block.
    let fold = |a: usize, cell: isize| match (outside[a], bc) {
        (false, _) => cell,
        (true, BoundaryCondition::Outflow) => cell.clamp(0, n - 1),
        (true, BoundaryCondition::Reflect) if cell < 0 => -cell - 1,
        (true, BoundaryCondition::Reflect) => 2 * n - 1 - cell,
    };
    let toward: [isize; 3] = std::array::from_fn(|a| if outside[a] { 0 } else { step[a] });
    let Some(block) = key.neighbor(toward[0] as i32, toward[1] as i32, toward[2] as i32) else {
        return; // unreachable: `toward` stays inside the domain
    };
    // The folded cell in the frame of `block`.
    let local = |a: usize, cell: isize| fold(a, cell) - n * toward[a];
    let whole = [dir.0, dir.1, dir.2].map(ghost_span);

    match tree.node(block) {
        Some(node) if !node.refined => {
            emit(HaloSlab { source: block, finer: false, map: BoxMap::new(whole, local) });
        }
        Some(_) => {
            // Each child of `block` fills the ghost cells whose folded
            // position lies in its half, per axis — a contiguous run.
            for octant in 0..8u8 {
                let upper = [octant & 1, (octant >> 1) & 1, (octant >> 2) & 1].map(|bit| bit == 1);
                let span: [(isize, usize); 3] = std::array::from_fn(|a| {
                    let (first, count) = whole[a];
                    let mut mine = (first..first + count as isize)
                        .filter(|&cell| (local(a, cell) >= n / 2) == upper[a]);
                    mine.next().map_or((first, 0), |cell| (cell, 1 + mine.count()))
                });
                if span.iter().all(|&(_, count)| count > 0) {
                    let fine = |a: usize, cell: isize| 2 * local(a, cell) - n * upper[a] as isize;
                    let map = BoxMap::new(span, fine);
                    emit(HaloSlab { source: block.child(octant), finer: true, map });
                }
            }
        }
        None => {
            // `block` lies inside a leaf one level up (the root is always
            // a node, so a missing block has a parent).
            let Some(coarse) = block.parent() else { return };
            let (cx, cy, cz) = coarse.coords();
            let origin = [cx, cy, cz].map(|c| c as isize * n);
            let inject = |a: usize, cell: isize| (at[a] * n + fold(a, cell)) / 2 - origin[a];
            emit(HaloSlab { source: coarse, finer: false, map: BoxMap::new(whole, inject) });
        }
    }
}

/// The sub-grid of leaf `key`.
fn leaf_grid(tree: &Octree, key: MortonKey) -> Option<&SubGrid> {
    tree.node(key).filter(|node| !node.refined)?.grid.as_ref()
}

/// The halo geometry of one tree topology under one boundary condition:
/// every leaf's ghost slabs, resolved once. It reads keys only, so any
/// copy of the topology — a distributed mirror with some grids missing,
/// a tree without grids — builds the same plan.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfacePlan {
    /// The tree's leaves in curve order, each with its run of `slabs`
    /// and where the run's face slabs end.
    leaves: Vec<(MortonKey, Range<u32>, u32)>,
    /// Every leaf's slabs, leaf after leaf, each run faces first.
    slabs: Vec<HaloSlab>,
}

impl InterfacePlan {
    /// Resolve every ghost box of every leaf of `tree` under `bc`.
    /// Relies on 2:1 balance (`Octree::check_invariants`).
    pub fn new(tree: &Octree, bc: BoundaryCondition) -> InterfacePlan {
        // The 6 faces, then the 12 edges, then the 8 corners: a leaf's
        // face slabs, all the gather moves, lead its run.
        let mut order = DIRECTIONS;
        order.sort_by_key(|&(i, j, k)| [i, j, k].iter().filter(|&&d| d != 0).count());
        let mut slabs = Vec::new();
        let leaves = tree
            .leaves()
            .into_iter()
            .map(|key| {
                let start = slabs.len() as u32;
                let mut faces_end = start;
                for (n, dir) in order.into_iter().enumerate() {
                    if n == 6 {
                        faces_end = slabs.len() as u32;
                    }
                    resolve(tree, key, dir, bc, |slab| slabs.push(slab));
                }
                (key, start..slabs.len() as u32, faces_end)
            })
            .collect();
        slabs.shrink_to_fit();
        InterfacePlan { leaves, slabs }
    }

    /// The slabs of leaf `key`, and how many of them, leading, fill its
    /// six face boxes; none when `key` is no leaf of the plan's tree (a
    /// leaf always has at least 26 slabs, at least 6 of them faces).
    fn slabs(&self, key: MortonKey) -> (&[HaloSlab], usize) {
        match self.leaves.binary_search_by(|(leaf, ..)| curve_cmp(*leaf, key)) {
            Ok(at) => {
                let (_, run, faces_end) = &self.leaves[at];
                let slabs = &self.slabs[run.start as usize..run.end as usize];
                (slabs, (faces_end - run.start) as usize)
            }
            Err(_) => (&[], 0),
        }
    }

    /// The leaves whose interiors `key`'s ghost boxes read — all 26 of
    /// them, so a superset of what [`InterfacePlan::gather`] reads —
    /// `key` itself excluded, sorted by key.
    pub fn sources(&self, key: MortonKey) -> Vec<MortonKey> {
        let set: BTreeSet<MortonKey> =
            self.slabs(key).0.iter().map(|slab| slab.source).filter(|&s| s != key).collect();
        set.into_iter().collect()
    }

    /// Build in `out`, a [`SubGrid::ghosted`] grid, leaf `key`'s grid as
    /// the flux sweep reads it: the interior copied and each of the six
    /// face boxes moved from its sources. The sweep is dimensionally
    /// split — it reads lines along one axis through the interior — so
    /// it never reads an edge or corner ghost, and those cells of `out`
    /// are left as they were. Pure — reads interiors only, of grids in
    /// either layout — and every cell the sweep reads is overwritten, so
    /// one buffer serves any number of leaves in turn. `tree` must have
    /// the plan's topology; it needs grids on `key` and its
    /// [`InterfacePlan::sources`] only.
    pub fn gather(&self, tree: &Octree, key: MortonKey, out: &mut SubGrid) {
        let (slabs, faces) = self.slabs(key);
        debug_assert!(!slabs.is_empty(), "{key:?} is not a leaf of the plan's tree");
        move_slabs(tree, key, &slabs[..faces], out);
    }

    /// The static send schedule of `shard`: `plan[src][dst]` is the
    /// sorted list of leaves owned by shard `src` whose interiors shard
    /// `dst` reads to gather the ghosts of its own leaves. `shard` must
    /// partition the plan's tree.
    pub fn push_plan(&self, shard: &ShardMap) -> Vec<BTreeMap<u32, Vec<MortonKey>>> {
        let mut plan: Vec<BTreeMap<u32, Vec<MortonKey>>> = vec![BTreeMap::new(); shard.n_shards()];
        for dst in 0..shard.n_shards() as u32 {
            for &target in shard.owned(dst) {
                for &HaloSlab { source, .. } in self.slabs(target).0 {
                    let src =
                        shard.owner_near(source, dst).expect("a halo source is a leaf of the map");
                    if src != dst {
                        plan[src as usize].entry(dst).or_default().push(source);
                    }
                }
            }
        }
        for keys in plan.iter_mut().flat_map(BTreeMap::values_mut) {
            keys.sort_unstable();
            keys.dedup();
        }
        plan
    }
}

/// Copy leaf `key`'s interior into `out`, a [`SubGrid::ghosted`] grid,
/// and move each of `slabs` — some of `key`'s — from its source.
fn move_slabs(tree: &Octree, key: MortonKey, slabs: &[HaloSlab], out: &mut SubGrid) {
    debug_assert_eq!(out.indexer().ghost, N_GHOST, "ghosts gather into a ghosted grid");
    let Some(own) = leaf_grid(tree, key) else {
        debug_assert!(false, "{key:?} is not a leaf with a grid");
        return;
    };
    out.copy_box(&BoxMap::same_level((0, 0, 0)), own);
    for HaloSlab { source, finer, map } in slabs {
        match leaf_grid(tree, *source) {
            Some(grid) if *finer => out.average_box(map, grid),
            Some(grid) => out.copy_box(map, grid),
            None => debug_assert!(false, "{source:?}, a source of {key:?}, has no leaf grid"),
        }
    }
}

/// Give every leaf of the tree a [`SubGrid::ghosted`] grid, its face
/// ghosts filled — what the flux sweep reads; its edge and corner ghosts
/// stay `0.0`. The tree's [`InterfacePlan`] is built once; the reads
/// are futurized — one [`InterfacePlan::gather`] task per leaf into a
/// fresh ghosted grid, `when_all` in leaf order — and the writes serial:
/// each filled grid replaces its leaf's. Every read happens before the
/// first write, so the result does not depend on the thread count. The
/// tree grows by the ghost rings, 250 KB a leaf.
///
/// `tree` should be the only strong reference: the function waits for
/// runtime quiescence after the read barrier, so task-held clones are
/// gone when it writes, and any other holder makes the write copy the
/// tree.
pub fn fill_all_halos_parallel(
    tree: &mut Arc<Octree>,
    bc: BoundaryCondition,
    rt: &Arc<amt::Runtime>,
) {
    assert!(tree.has_grids(), "halo filling needs grid data");
    let leaves = tree.leaves();
    let plan = Arc::new(InterfacePlan::new(tree, bc));
    let sched = Arc::clone(rt.scheduler());
    let futs = leaves
        .iter()
        .map(|&key| {
            let (tree, plan) = (Arc::clone(tree), Arc::clone(&plan));
            rt.async_call(move || {
                let mut filled = SubGrid::ghosted();
                plan.gather(&tree, key, &mut filled);
                filled
            })
        })
        .collect();
    // `when_all` yields results in input order = leaf order.
    let filled = amt::when_all(&sched, futs).get_help(&sched);
    rt.wait_quiescent();
    debug_assert_eq!(Arc::strong_count(tree), 1, "tree is shared during a halo write");
    let tree = Arc::make_mut(tree);
    for (key, grid) in leaves.into_iter().zip(filled) {
        if let Some(leaf) = tree.node_mut(key).filter(|node| !node.refined) {
            leaf.grid = Some(grid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Domain;
    use crate::subgrid::{Field, ALL_FIELDS};
    use proptest::prelude::*;

    // The per-cell oracle: the fill this module had before slabs, one
    // tree walk per ghost cell per field. Kept verbatim as the reference
    // the slab fill must match bit for bit.

    /// Global integer cell coordinates of cell `(i, j, k)` of leaf `key`
    /// (may be negative / beyond the domain for ghost cells).
    fn global_cell(key: MortonKey, i: isize, j: isize, k: isize) -> (i64, i64, i64) {
        let (x, y, z) = key.coords();
        (
            x as i64 * N_SUB as i64 + i as i64,
            y as i64 * N_SUB as i64 + j as i64,
            z as i64 * N_SUB as i64 + k as i64,
        )
    }

    /// Look up the value of the cell with global coordinates `g` at `level`,
    /// resolving across refinement levels. The cell must be inside the
    /// domain and its region covered by the tree.
    fn sample_cell(
        tree: &Octree,
        level: u8,
        g: (i64, i64, i64),
        f: Field,
    ) -> f64 {
        let n = N_SUB as i64;
        let owner = MortonKey::new(
            level,
            (g.0 / n) as u32,
            (g.1 / n) as u32,
            (g.2 / n) as u32,
        );
        match tree.containing_leaf(owner) {
            Some(leaf) if leaf.level == level => {
                let (lx, ly, lz) = leaf.coords();
                let grid = tree.node(leaf).expect("leaf exists").grid.as_ref().expect("grid");
                grid.at(
                    f,
                    (g.0 - lx as i64 * n) as isize,
                    (g.1 - ly as i64 * n) as isize,
                    (g.2 - lz as i64 * n) as isize,
                )
            }
            Some(leaf) => {
                // Coarser leaf (2:1 balance guarantees exactly one level).
                assert_eq!(
                    leaf.level + 1,
                    level,
                    "2:1 balance violated between levels {} and {}",
                    leaf.level,
                    level
                );
                let (lx, ly, lz) = leaf.coords();
                let grid = tree.node(leaf).expect("leaf exists").grid.as_ref().expect("grid");
                grid.at(
                    f,
                    (g.0 / 2 - lx as i64 * n) as isize,
                    (g.1 / 2 - ly as i64 * n) as isize,
                    (g.2 / 2 - lz as i64 * n) as isize,
                )
            }
            None => {
                // Finer region: average the 8 level+1 cells tiling this cell.
                // All eight live in a single child sub-grid (pairs 2g, 2g+1
                // never straddle an 8-cell block boundary).
                let mut sum = 0.0;
                for di in 0..2 {
                    for dj in 0..2 {
                        for dk in 0..2 {
                            sum += sample_cell(
                                tree,
                                level + 1,
                                (2 * g.0 + di, 2 * g.1 + dj, 2 * g.2 + dk),
                                f,
                            );
                        }
                    }
                }
                sum / 8.0
            }
        }
    }

    /// Compute every ghost value of leaf `key`.
    fn ghost_values(tree: &Octree, key: MortonKey, bc: BoundaryCondition) -> Vec<f64> {
        let indexer = SubGrid::ghosted().indexer();
        let n_cells = indexer.len();
        let max_global = (N_SUB as i64) << key.level;
        let mut out = Vec::with_capacity(ALL_FIELDS.len() * (n_cells - indexer.interior_len()));
        for f in ALL_FIELDS {
            for (i, j, k) in indexer.all() {
                if indexer.is_interior(i, j, k) {
                    continue;
                }
                let (mut gx, mut gy, mut gz) = global_cell(key, i, j, k);
                let outside = gx < 0 || gy < 0 || gz < 0 || gx >= max_global || gy >= max_global || gz >= max_global;
                if outside {
                    match bc {
                        BoundaryCondition::Outflow => {
                            gx = gx.clamp(0, max_global - 1);
                            gy = gy.clamp(0, max_global - 1);
                            gz = gz.clamp(0, max_global - 1);
                        }
                        BoundaryCondition::Reflect => {
                            let refl = |g: i64| -> i64 {
                                if g < 0 {
                                    -g - 1
                                } else if g >= max_global {
                                    2 * max_global - g - 1
                                } else {
                                    g
                                }
                            };
                            gx = refl(gx);
                            gy = refl(gy);
                            gz = refl(gz);
                        }
                    }
                }
                out.push(sample_cell(tree, key.level, (gx, gy, gz), f));
            }
        }
        out
    }

    /// Widen `grid` to a ghosted grid and write `values` — one leaf's
    /// [`ghost_values`] — into its ghost cells, in the order they were
    /// computed: field-major, then `indexer.all()` skipping the interior.
    fn write_ghost_values(grid: &mut SubGrid, values: Vec<f64>) {
        let mut ghosted = SubGrid::ghosted();
        ghosted.copy_box(&BoxMap::same_level((0, 0, 0)), grid);
        *grid = ghosted;
        let indexer = grid.indexer();
        let mut src = values.into_iter();
        for f in ALL_FIELDS {
            let field = grid.field_mut(f);
            for (i, j, k) in indexer.all() {
                if indexer.is_interior(i, j, k) {
                    continue;
                }
                field[indexer.idx(i, j, k)] = src.next().expect("ghost count mismatch");
            }
        }
    }

    /// Oracle fill of the ghost layers of every leaf in the tree.
    fn fill_all_halos(tree: &mut Octree, bc: BoundaryCondition) {
        assert!(tree.has_grids(), "halo filling needs grid data");
        let leaves = tree.leaves();
        // Two-phase: read everything, then write, so sources are consistent.
        let ghosts: Vec<(MortonKey, Vec<f64>)> = leaves
            .iter()
            .map(|&k| (k, ghost_values(tree, k, bc)))
            .collect();
        for (key, values) in ghosts {
            let grid = tree.node_mut(key).expect("leaf exists").grid.as_mut().expect("grid");
            write_ghost_values(grid, values);
        }
    }


    /// Paint every leaf interior: field `n` gets `(n + 1) · f` plus a
    /// tilt of its own, so no two fields agree anywhere (`Rho` is `f`).
    fn paint(t: &mut Octree, f: impl Fn(f64, f64, f64) -> f64) {
        let domain = t.domain();
        for key in t.leaves() {
            let grid = t.node_mut(key).unwrap().grid.as_mut().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                let c = domain.cell_center(key, i, j, k);
                for (n, field) in ALL_FIELDS.into_iter().enumerate() {
                    let n = n as f64;
                    let tilt = 0.125 * n * (c.x - 2.0 * c.y + 3.0 * c.z);
                    grid.set(field, i, j, k, (n + 1.0) * f(c.x, c.y, c.z) + tilt);
                }
            }
        }
    }

    fn tree_with_profile(f: impl Fn(f64, f64, f64) -> f64, refine_levels: u8) -> Octree {
        let mut t = Octree::new(Domain::new(16.0));
        // Refine the left half of the domain (boxes whose origin is left
        // of centre), giving same-level and coarse/fine interfaces.
        t.refine_where(refine_levels, |d, k| d.node_origin(k).x < 0.0);
        paint(&mut t, f);
        t
    }

    /// Root refined, then its (−,−,−) child: level-1 and level-2 leaves
    /// on the domain faces with same-level, coarser and finer neighbors
    /// along them, and a coarse face tiled by four fine children.
    fn corner_tree(f: impl Fn(f64, f64, f64) -> f64) -> Octree {
        let mut t = Octree::new(Domain::new(16.0));
        t.refine(MortonKey::root());
        t.refine(MortonKey::new(1, 0, 0, 0));
        t.check_invariants();
        paint(&mut t, f);
        t
    }

    /// The production fill, on `threads` workers.
    fn filled(t: Octree, bc: BoundaryCondition, threads: usize) -> Octree {
        let mut t = Arc::new(t);
        fill_all_halos_parallel(&mut t, bc, &amt::Runtime::new(threads));
        Arc::try_unwrap(t).ok().expect("the fill leaves no tree reference behind")
    }

    fn grid(t: &Octree, key: MortonKey) -> &SubGrid {
        t.node(key).unwrap().grid.as_ref().unwrap()
    }

    /// Whether the flux sweep reads cell `(i, j, k)` of a ghosted grid:
    /// at most one axis outside the interior — the interior and the six
    /// face boxes.
    fn swept(i: isize, j: isize, k: isize) -> bool {
        [i, j, k].iter().filter(|&&c| !(0..N_SUB as isize).contains(&c)).count() <= 1
    }

    fn everywhere(_: isize, _: isize, _: isize) -> bool {
        true
    }

    /// Every cell `on` picks, of every field of every leaf, agrees to the
    /// bit.
    fn assert_bit_identical(a: &Octree, b: &Octree, tag: &str, on: fn(isize, isize, isize) -> bool) {
        assert_eq!(a.leaves(), b.leaves());
        for key in a.leaves() {
            let (ga, gb) = (grid(a, key), grid(b, key));
            for f in ALL_FIELDS {
                for (i, j, k) in ga.indexer().all().filter(|&(i, j, k)| on(i, j, k)) {
                    assert_eq!(
                        ga.at(f, i, j, k).to_bits(),
                        gb.at(f, i, j, k).to_bits(),
                        "{tag}: {key:?} {f:?} ({i},{j},{k}): {} vs {}",
                        ga.at(f, i, j, k),
                        gb.at(f, i, j, k)
                    );
                }
            }
        }
    }

    /// Every cell the sweep does not read, of every field of every leaf,
    /// holds `value`'s bits: a gather leaves those cells as they were.
    fn assert_unswept_cells_hold(t: &Octree, value: f64, tag: &str) {
        for key in t.leaves() {
            let g = grid(t, key);
            for f in ALL_FIELDS {
                for (i, j, k) in g.indexer().all().filter(|&(i, j, k)| !swept(i, j, k)) {
                    let got = g.at(f, i, j, k);
                    let at = (i, j, k);
                    assert_eq!(got.to_bits(), value.to_bits(), "{tag}: {key:?} {f:?} {at:?}: {got}");
                }
            }
        }
    }

    /// Leaf `key`'s interior and every slab of its run — faces, edges
    /// and corners — moved into `out`: the whole ghost geometry the plan
    /// resolves, which defines [`InterfacePlan::sources`] and the push
    /// plan, though the gather moves the faces only.
    fn gather_every_slab(plan: &InterfacePlan, t: &Octree, key: MortonKey, out: &mut SubGrid) {
        move_slabs(t, key, plan.slabs(key).0, out);
    }

    /// Every leaf's grid as `gather` builds it from the tree's plan,
    /// through one scratch grid that starts as NaN and serves the leaves
    /// in turn, as a worker's scratch does.
    fn gathered(
        t: &Octree,
        bc: BoundaryCondition,
        gather: fn(&InterfacePlan, &Octree, MortonKey, &mut SubGrid),
    ) -> Octree {
        let plan = InterfacePlan::new(t, bc);
        let mut scratch = SubGrid::ghosted();
        for f in ALL_FIELDS {
            scratch.field_mut(f).fill(f64::NAN);
        }
        let mut out = t.clone();
        for key in t.leaves() {
            gather(&plan, t, key, &mut scratch);
            out.node_mut(key).unwrap().grid = Some(scratch.clone());
        }
        out
    }

    /// The oracle's fill of `t` under `bc`.
    fn oracle(t: &Octree, bc: BoundaryCondition) -> Octree {
        let mut want = t.clone();
        fill_all_halos(&mut want, bc);
        want
    }

    /// Under `bc`: moving every slab of each leaf reproduces `want`, the
    /// oracle's fill, on all 2 232 ghost cells; the gather reproduces it
    /// on every cell the sweep reads and leaves the edge and corner
    /// cells NaN, as its scratch had them.
    fn assert_gathers_match(t: &Octree, bc: BoundaryCondition, want: &Octree) {
        let every = gathered(t, bc, gather_every_slab);
        assert_bit_identical(want, &every, &format!("{bc:?}, every slab"), everywhere);
        let got = gathered(t, bc, InterfacePlan::gather);
        assert_bit_identical(want, &got, &format!("{bc:?}, gathered"), swept);
        assert_unswept_cells_hold(&got, f64::NAN, &format!("{bc:?}, gathered"));
    }

    /// [`assert_gathers_match`] the oracle under both boundary
    /// conditions, and the whole-tree fill (on 1 and 4 workers) matches
    /// it on every cell the sweep reads, its fresh grids' edge and corner
    /// cells left `0.0`.
    fn assert_matches_oracle(t: &Octree) {
        for bc in [BoundaryCondition::Outflow, BoundaryCondition::Reflect] {
            let want = oracle(t, bc);
            assert_gathers_match(t, bc, &want);
            for threads in [1, 4] {
                let got = filled(t.clone(), bc, threads);
                let tag = format!("{bc:?}, {threads} threads");
                assert_bit_identical(&want, &got, &tag, swept);
                assert_unswept_cells_hold(&got, 0.0, &tag);
            }
        }
    }

    /// Every cell `on` picks, in `Rho` of every leaf, is `value` to
    /// within `tol`.
    fn assert_constant(t: &Octree, value: f64, tol: f64, on: fn(isize, isize, isize) -> bool) {
        for key in t.leaves() {
            let grid = grid(t, key);
            for (i, j, k) in grid.indexer().all().filter(|&(i, j, k)| on(i, j, k)) {
                let got = grid.at(Field::Rho, i, j, k);
                let at = (i, j, k);
                assert!((got - value).abs() < tol, "ghost at {key:?} {at:?} broke constancy: {got}");
            }
        }
    }

    #[test]
    fn constant_field_fills_all_ghosts_constant() {
        let t = tree_with_profile(|_, _, _| 2.5, 3);
        let every = gathered(&t, BoundaryCondition::Outflow, gather_every_slab);
        assert_constant(&every, 2.5, 1e-14, everywhere);
        let t = filled(t, BoundaryCondition::Outflow, 1);
        assert_constant(&t, 2.5, 1e-14, swept);
        assert_unswept_cells_hold(&t, 0.0, "filled");
    }

    #[test]
    fn same_level_ghosts_are_exact_copies() {
        let mut t = Octree::new(Domain::new(16.0));
        t.refine(MortonKey::root());
        let domain = t.domain();
        paint(&mut t, |x, y, z| x + 10.0 * y + 100.0 * z);
        let t = filled(t, BoundaryCondition::Outflow, 1);
        // Interior (non-domain-boundary) ghosts of a same-level interface
        // must reproduce the linear profile exactly.
        let key = MortonKey::new(1, 0, 0, 0);
        let grid = grid(&t, key);
        let dx = domain.cell_dx(1);
        for j in 0..8 {
            for k in 0..8 {
                let c = domain.cell_center(key, 8, j, k);
                let expect = c.x + 10.0 * c.y + 100.0 * c.z;
                let got = grid.at(Field::Rho, 8, j, k);
                assert!((got - expect).abs() < 1e-10 * (1.0 + expect.abs()), "dx={dx}: {got} vs {expect}");
            }
        }
    }

    #[test]
    fn outflow_ghosts_clamp_at_domain_boundary() {
        let t = filled(tree_with_profile(|x, _, _| x, 0), BoundaryCondition::Outflow, 1);
        let grid = grid(&t, MortonKey::root());
        // Ghost beyond -x boundary equals the first interior cell.
        assert_eq!(grid.at(Field::Rho, -1, 3, 3), grid.at(Field::Rho, 0, 3, 3));
        assert_eq!(grid.at(Field::Rho, -2, 3, 3), grid.at(Field::Rho, 0, 3, 3));
        assert_eq!(grid.at(Field::Rho, 9, 3, 3), grid.at(Field::Rho, 7, 3, 3));
    }

    #[test]
    fn reflect_ghosts_mirror_interior() {
        let t = filled(tree_with_profile(|x, _, _| x, 0), BoundaryCondition::Reflect, 1);
        let grid = grid(&t, MortonKey::root());
        assert_eq!(grid.at(Field::Rho, -1, 3, 3), grid.at(Field::Rho, 0, 3, 3));
        assert_eq!(grid.at(Field::Rho, -2, 3, 3), grid.at(Field::Rho, 1, 3, 3));
        assert_eq!(grid.at(Field::Rho, 8, 3, 3), grid.at(Field::Rho, 7, 3, 3));
        assert_eq!(grid.at(Field::Rho, 9, 3, 3), grid.at(Field::Rho, 6, 3, 3));
    }

    #[test]
    fn coarse_fine_interface_preserves_constant_and_averages_fine() {
        // Left half refined one extra level: the coarse right-half leaf
        // adjacent to the interface receives fine-cell averages; the
        // fine leaves receive coarse injections.
        let t = tree_with_profile(|_, _, _| 7.0, 2);
        t.check_invariants();
        assert!(t.max_level() >= 2);
        let every = gathered(&t, BoundaryCondition::Outflow, gather_every_slab);
        assert_constant(&every, 7.0, 1e-13, everywhere);
        let t = filled(t, BoundaryCondition::Outflow, 1);
        assert_constant(&t, 7.0, 1e-13, swept);
        assert_unswept_cells_hold(&t, 0.0, "filled");
    }

    #[test]
    fn parallel_halo_fill_is_bit_identical_to_serial() {
        use std::sync::Arc;
        let profile = |x: f64, y: f64, z: f64| (0.3 * x).sin() + 0.1 * y * z + 2.0;
        let mut serial = tree_with_profile(profile, 2);
        fill_all_halos(&mut serial, BoundaryCondition::Outflow);
        for threads in [1, 4] {
            let mut par = Arc::new(tree_with_profile(profile, 2));
            let rt = amt::Runtime::new(threads);
            fill_all_halos_parallel(&mut par, BoundaryCondition::Outflow, &rt);
            let tag = format!("{threads} threads");
            assert_bit_identical(&serial, &par, &tag, swept);
            assert_unswept_cells_hold(&par, 0.0, &tag);
        }
    }

    /// Mean of the 2×2×2 block of `g` at `(i, j, k)`, in the fill's
    /// summation order.
    fn mean8(g: &SubGrid, f: Field, (i, j, k): (isize, isize, isize)) -> f64 {
        let mut sum = 0.0;
        for (di, dj, dk) in util::CellIter::new(0, 2, 0, 2, 0, 2) {
            sum += g.at(f, i + di, j + dj, k + dk);
        }
        sum / 8.0
    }

    #[test]
    fn wall_edge_and_corner_ghosts_read_the_along_face_neighbor() {
        // Ghosts beyond a domain face *and* past the leaf's edge: the
        // wall folds only the out-of-domain axis, the rest of the
        // direction picks the neighbor along the face — same-level,
        // finer and coarser in turn. Hand-derived source cells.
        let profile = |x: f64, y: f64, z: f64| (0.7 * x).cos() + 0.3 * y - 0.01 * z * z;
        let t = corner_tree(profile);
        assert_matches_oracle(&t);
        let out = gathered(&t, BoundaryCondition::Outflow, gather_every_slab);
        let refl = gathered(&t, BoundaryCondition::Reflect, gather_every_slab);
        let a = MortonKey::new(1, 0, 1, 0); // level 1, on the -x and -z faces
        let b = MortonKey::new(2, 0, 1, 0); // level 2, same faces, child of (1; 0,0,0)
        for f in [Field::Rho, Field::Sy, Field::Atmosphere] {
            // Same level: +z of `a` along the -x face.
            let up = grid(&out, MortonKey::new(1, 0, 1, 1));
            assert_eq!(grid(&out, a).at(f, -1, 3, 9), up.at(f, 0, 3, 1));
            assert_eq!(grid(&refl, a).at(f, -2, 3, 9), up.at(f, 1, 3, 1));
            // Finer: -y of `a` along the -x face is the refined corner
            // block; ghost row y = -1, z = 5 lies in its child (0,1,1).
            let fine = grid(&out, MortonKey::new(2, 0, 1, 1));
            assert_eq!(grid(&out, a).at(f, -1, -1, 5), mean8(fine, f, (0, 6, 2)));
            assert_eq!(grid(&refl, a).at(f, -3, -1, 5), mean8(fine, f, (4, 6, 2)));
            // Coarser: +y of `b` along the -x face is `a`.
            let coarse = grid(&out, a);
            assert_eq!(grid(&out, b).at(f, -1, 9, 2), coarse.at(f, 0, 0, 1));
            assert_eq!(grid(&refl, b).at(f, -3, 9, 2), coarse.at(f, 1, 0, 1));
            // Corner with two axes outside (-x, -z) and one inside (-y).
            let below = grid(&out, MortonKey::new(2, 0, 0, 0));
            assert_eq!(grid(&out, b).at(f, -2, -1, -3), below.at(f, 0, 7, 0));
            assert_eq!(grid(&refl, b).at(f, -2, -1, -3), below.at(f, 1, 7, 2));
        }
    }

    #[test]
    fn coarse_face_is_tiled_by_four_fine_children() {
        let t = corner_tree(|x, y, z| 1.0 + (x * y).sin() + 0.2 * z);
        assert_matches_oracle(&t);
        let t = filled(t, BoundaryCondition::Outflow, 1);
        // -x of (1; 1,0,0) is the refined corner block: its four +x
        // children each fill one quadrant of the face.
        let coarse = grid(&t, MortonKey::new(1, 1, 0, 0));
        for f in [Field::Egas, Field::Lz] {
            for (layer, j, k) in util::CellIter::new(1, 4, 0, 8, 0, 8) {
                let child = grid(&t, MortonKey::new(2, 1, j as u32 / 4, k as u32 / 4));
                let block = (8 - 2 * layer, 2 * (j % 4), 2 * (k % 4));
                assert_eq!(coarse.at(f, -layer, j, k), mean8(child, f, block), "{f:?} ({j},{k})");
            }
        }
    }

    #[test]
    fn negative_zero_survives_copies_and_becomes_zero_through_the_average() {
        let mut t = corner_tree(|_, _, _| 0.0);
        for key in t.leaves() {
            let grid = t.node_mut(key).unwrap().grid.as_mut().unwrap();
            for f in ALL_FIELDS {
                grid.field_mut(f).fill(-0.0);
            }
        }
        assert_matches_oracle(&t);
        let t = filled(t, BoundaryCondition::Outflow, 1);
        let coarse = grid(&t, MortonKey::new(1, 1, 0, 0));
        for f in ALL_FIELDS {
            // Same-level copy keeps the sign bit ...
            assert_eq!(coarse.at(f, 9, 4, 4).to_bits(), (-0.0f64).to_bits());
            // ... the 8-cell average starts from +0.0 and loses it.
            assert_eq!(coarse.at(f, -1, 4, 4).to_bits(), 0.0f64.to_bits());
        }
    }

    /// Two leaves share a face, an edge or a corner (touching boxes,
    /// compared at the finer level; a leaf does not touch itself).
    fn touch(a: MortonKey, b: MortonKey) -> bool {
        let level = a.level.max(b.level);
        let span = |key: MortonKey| {
            let (x, y, z) = key.coords();
            let size = 1i64 << (level - key.level);
            [x, y, z].map(|c| (c as i64 * size, (c as i64 + 1) * size))
        };
        let (sa, sb) = (span(a), span(b));
        a != b && (0..3).all(|ax| sa[ax].0 <= sb[ax].1 && sb[ax].0 <= sa[ax].1)
    }

    fn half_refined() -> Octree {
        let mut t = Octree::new(Domain::new(16.0));
        t.refine_where(2, |d, k| d.node_origin(k).x < 0.0);
        t.check_invariants();
        t
    }

    /// A leaf's sources are exactly the leaves touching it — its
    /// 26-direction neighbor closure — sorted, unique, never the leaf
    /// itself, under either boundary condition.
    #[test]
    fn plan_sources_match_neighbor_closure() {
        let t = half_refined();
        let leaves = t.leaves();
        for bc in [BoundaryCondition::Outflow, BoundaryCondition::Reflect] {
            let plan = InterfacePlan::new(&t, bc);
            for &leaf in &leaves {
                let sources = plan.sources(leaf);
                assert!(!sources.contains(&leaf));
                // Sorted and unique.
                for pair in sources.windows(2) {
                    assert!(pair[0] < pair[1]);
                }
                // Every source is itself a leaf, and every leaf touching
                // this one is a source.
                for s in &sources {
                    assert!(leaves.contains(s), "{s:?} is not a leaf");
                }
                let mut touching: Vec<MortonKey> =
                    leaves.iter().copied().filter(|&other| touch(leaf, other)).collect();
                touching.sort();
                assert_eq!(sources, touching, "{leaf:?} {bc:?}");
            }
        }
    }

    #[test]
    fn push_plan_covers_every_cross_shard_source() {
        let t = half_refined();
        let map = ShardMap::partition(&t, 4).unwrap();
        let plan = InterfacePlan::new(&t, BoundaryCondition::Outflow);
        let push = plan.push_plan(&map);
        assert_eq!(map.halo_push_plan(&t), push, "the map's projection is the plan's");
        // For every leaf, every cross-shard halo source appears in the
        // plan of the source's owner, addressed to the leaf's owner.
        for leaf in t.leaves() {
            let dst = map.owner(leaf).unwrap();
            for source in plan.sources(leaf) {
                let src = map.owner(source).unwrap();
                if src != dst {
                    let scheduled = push[src as usize]
                        .get(&dst)
                        .map(|keys| keys.contains(&source))
                        .unwrap_or(false);
                    assert!(scheduled, "{source:?} (shard {src}) missing for {leaf:?} (shard {dst})");
                }
            }
        }
        // And the plan never ships a leaf to its own shard.
        for (src, by_dst) in push.iter().enumerate() {
            for (&dst, keys) in by_dst {
                assert_ne!(src as u32, dst);
                for key in keys {
                    assert_eq!(map.owner(*key).unwrap(), src as u32);
                }
            }
        }
    }

    /// The plan is stored compactly: a slab is a key, a flag and a
    /// byte-sized box map.
    #[test]
    fn a_slab_fits_in_48_bytes() {
        assert!(std::mem::size_of::<HaloSlab>() <= 48, "{}", std::mem::size_of::<HaloSlab>());
    }

    /// A random 2:1 tree: `picks` choose leaves to refine, below level 4.
    fn random_tree(picks: Vec<u64>) -> Octree {
        let mut t = Octree::new(Domain::new(16.0));
        for pick in picks {
            let leaves = t.leaves();
            let leaf = leaves[(pick % leaves.len() as u64) as usize];
            if leaf.level < 4 {
                t.refine(leaf); // keeps 2:1 balance
            }
        }
        t.check_invariants();
        t
    }

    /// Does leaf `of` have a slab reading `source` (at `finer`)?
    fn reads(plan: &InterfacePlan, of: MortonKey, source: MortonKey, finer: bool) -> bool {
        plan.slabs(of).0.iter().any(|slab| slab.source == source && slab.finer == finer)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Every interface is seen from both sides — a same-level slab
        /// A←B has a B←A, a finer slab A←c a coarse one c←A and a coarse
        /// slab c←A a finer one A←c — and each leaf's slab boxes tile
        /// its 2 232 ghost cells exactly once, never an interior cell,
        /// the face slabs leading the run and tiling the face cells.
        #[test]
        fn plan_is_symmetric_and_tiles_every_ghost_cell_once(
            picks in proptest::collection::vec(any::<u64>(), 0..12),
        ) {
            let t = random_tree(picks);
            for bc in [BoundaryCondition::Outflow, BoundaryCondition::Reflect] {
                let plan = InterfacePlan::new(&t, bc);
                for leaf in t.leaves() {
                    let indexer = SubGrid::ghosted().indexer();
                    let mut hits = vec![0u8; indexer.len()];
                    let (slabs, faces) = plan.slabs(leaf);
                    for (n, slab) in slabs.iter().enumerate() {
                        let other = slab.source;
                        if slab.finer {
                            prop_assert_eq!(other.level, leaf.level + 1);
                            prop_assert!(reads(&plan, other, leaf, false), "{:?}←{:?}", other, leaf);
                        } else if other.level < leaf.level {
                            prop_assert_eq!(other.level + 1, leaf.level);
                            prop_assert!(reads(&plan, other, leaf, true), "{:?}←{:?}", other, leaf);
                        } else if other != leaf {
                            prop_assert_eq!(other.level, leaf.level);
                            prop_assert!(reads(&plan, other, leaf, false), "{:?}←{:?}", other, leaf);
                        }
                        for (i, j, k) in slab.map.cells() {
                            prop_assert!(!indexer.is_interior(i, j, k), "{:?} writes its interior", leaf);
                            let face = n < faces;
                            prop_assert_eq!(swept(i, j, k), face, "{:?} slab {}", leaf, n);
                            hits[indexer.idx(i, j, k)] += 1;
                        }
                    }
                    let ghosts = indexer.len() - indexer.interior_len();
                    prop_assert_eq!(ghosts, 2232);
                    prop_assert_eq!(hits.iter().filter(|&&n| n == 1).count(), ghosts, "{:?}", leaf);
                    prop_assert!(hits.iter().all(|&n| n <= 1), "{:?} has a cell written twice", leaf);
                }
            }
        }
    }

    proptest! {
        // Debug-build budget: the oracle walks the tree 31 248 times per
        // leaf, so tree size and case count are bounded to keep this
        // under ~10 s unoptimised.
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn slab_fill_matches_the_per_cell_oracle_on_random_trees(
            picks in proptest::collection::vec(any::<u64>(), 0..5),
            phase in 0.0f64..6.0,
        ) {
            let mut t = Octree::new(Domain::new(16.0));
            for pick in picks {
                let leaves = t.leaves();
                let leaf = leaves[(pick % leaves.len() as u64) as usize];
                if leaf.level < 3 {
                    t.refine(leaf); // keeps 2:1 balance
                }
            }
            t.check_invariants();
            paint(&mut t, |x, y, z| (0.4 * x + phase).sin() + 0.05 * y * z + 2.0);
            for bc in [BoundaryCondition::Outflow, BoundaryCondition::Reflect] {
                assert_gathers_match(&t, bc, &oracle(&t, bc));
            }
        }
    }
}
