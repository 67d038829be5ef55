//! Ghost-layer (halo) filling, by slab.
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
//! [`ShardMap::halo_sources`](crate::ShardMap::halo_sources) is the
//! source set of the same resolution, so the push plan cannot drift
//! from what a fill reads.
//!
//! Ghosts do not live in the tree: a leaf's grid is its interior alone
//! ([`SubGrid::new`]). [`gather_ghosts`] builds one leaf's
//! [`SubGrid::ghosted`] grid — its own interior plus the 26 boxes — in
//! a caller's buffer; it is pure and reads interiors only. The driver's
//! per-leaf RHS task runs it into a scratch grid of its worker thread
//! right before the flux sweep, so no step phase fills, stores or waits
//! for ghosts. The distributed driver still ships whole leaf grids into
//! each peer's mirror tree; slab payloads on the wire belong to
//! ROADMAP's "Stop mirroring the world" item.
//! [`fill_all_halos_parallel`] gives every leaf of a tree a ghosted
//! grid, for callers that want ghosts there.

use crate::subgrid::{ghost_span, BoxMap, SubGrid, N_GHOST, N_SUB};
use crate::tree::{Octree, DIRECTIONS};
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
pub(crate) struct HaloSlab {
    pub source: MortonKey,
    /// `source` is one level finer: `map` addresses the 2×2×2 blocks to
    /// average, not cells to copy.
    pub finer: bool,
    pub map: BoxMap,
}

/// Resolve the ghost box of leaf `key` in direction `dir` into the slabs
/// that fill it: one, or one per adjacent child when the neighbor is
/// finer. Relies on 2:1 balance (`Octree::check_invariants`).
pub(crate) fn resolve(
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

/// Build leaf `key`'s grid with every ghost cell filled in `out`, a
/// [`SubGrid::ghosted`] grid: the interior copied, each ghost box moved
/// from its source. Pure — reads interiors only, of grids in either
/// layout — and every cell of `out` is overwritten, so one buffer
/// serves any number of leaves in turn. The sources are
/// [`ShardMap::halo_sources`](crate::ShardMap::halo_sources).
pub fn gather_ghosts(tree: &Octree, key: MortonKey, bc: BoundaryCondition, out: &mut SubGrid) {
    debug_assert_eq!(out.indexer().ghost, N_GHOST, "ghosts gather into a ghosted grid");
    let Some(own) = leaf_grid(tree, key) else {
        debug_assert!(false, "{key:?} is not a leaf with a grid");
        return;
    };
    out.copy_box(&BoxMap::same_level((0, 0, 0)), own);
    for dir in DIRECTIONS {
        resolve(tree, key, dir, bc, |HaloSlab { source, finer, map }| {
            match leaf_grid(tree, source) {
                Some(grid) if finer => out.average_box(&map, grid),
                Some(grid) => out.copy_box(&map, grid),
                None => debug_assert!(false, "2:1 balance: {source:?} next to {key:?} is no leaf"),
            }
        });
    }
}

/// Give every leaf of the tree a [`SubGrid::ghosted`] grid, its ghost
/// layers filled. The reads are futurized — one [`gather_ghosts`] task
/// per leaf into a fresh ghosted grid, `when_all` in leaf order — and
/// the writes serial: each filled grid replaces its leaf's. Every read
/// happens before the first write, so the result does not depend on
/// the thread count. The tree grows by the ghost rings, 250 KB a leaf.
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
    let sched = Arc::clone(rt.scheduler());
    let futs = leaves
        .iter()
        .map(|&key| {
            let tree = Arc::clone(tree);
            rt.async_call(move || {
                let mut filled = SubGrid::ghosted();
                gather_ghosts(&tree, key, bc, &mut filled);
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

    /// Every cell of every field of every leaf agrees to the bit.
    fn assert_bit_identical(a: &Octree, b: &Octree, tag: &str) {
        assert_eq!(a.leaves(), b.leaves());
        for key in a.leaves() {
            let (ga, gb) = (grid(a, key), grid(b, key));
            for f in ALL_FIELDS {
                for (i, j, k) in ga.indexer().all() {
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

    /// Every leaf's grid as [`gather_ghosts`] builds it, through one
    /// scratch grid that starts as NaN and serves the leaves in turn, as
    /// a worker's scratch does.
    fn gathered(t: &Octree, bc: BoundaryCondition) -> Octree {
        let mut scratch = SubGrid::ghosted();
        for f in ALL_FIELDS {
            scratch.field_mut(f).fill(f64::NAN);
        }
        let mut out = t.clone();
        for key in t.leaves() {
            gather_ghosts(t, key, bc, &mut scratch);
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

    /// The per-leaf gather and the whole-tree fill (on 1 and 4 workers)
    /// of `t` equal the oracle's under both boundary conditions.
    fn assert_matches_oracle(t: &Octree) {
        for bc in [BoundaryCondition::Outflow, BoundaryCondition::Reflect] {
            let want = oracle(t, bc);
            assert_bit_identical(&want, &gathered(t, bc), &format!("{bc:?}, gathered"));
            for threads in [1, 4] {
                let got = filled(t.clone(), bc, threads);
                assert_bit_identical(&want, &got, &format!("{bc:?}, {threads} threads"));
            }
        }
    }

    #[test]
    fn constant_field_fills_all_ghosts_constant() {
        let t = filled(tree_with_profile(|_, _, _| 2.5, 3), BoundaryCondition::Outflow, 1);
        for key in t.leaves() {
            let grid = grid(&t, key);
            for (i, j, k) in grid.indexer().all() {
                assert!(
                    (grid.at(Field::Rho, i, j, k) - 2.5).abs() < 1e-14,
                    "ghost at {key:?} ({i},{j},{k}) broke constancy"
                );
            }
        }
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
        let t = filled(t, BoundaryCondition::Outflow, 1);
        for key in t.leaves() {
            let grid = grid(&t, key);
            for (i, j, k) in grid.indexer().all() {
                assert!(
                    (grid.at(Field::Rho, i, j, k) - 7.0).abs() < 1e-13,
                    "AMR interface ghost at {key:?} broke constancy"
                );
            }
        }
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
            for key in serial.leaves() {
                let a = serial.node(key).unwrap().grid.as_ref().unwrap();
                let b = par.node(key).unwrap().grid.as_ref().unwrap();
                for f in ALL_FIELDS {
                    for (i, j, k) in a.indexer().all() {
                        assert_eq!(
                            a.at(f, i, j, k).to_bits(),
                            b.at(f, i, j, k).to_bits(),
                            "halo mismatch at {key:?} ({i},{j},{k}) with {threads} threads"
                        );
                    }
                }
            }
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
        let out = filled(t.clone(), BoundaryCondition::Outflow, 1);
        let refl = filled(t, BoundaryCondition::Reflect, 1);
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
                assert_bit_identical(&oracle(&t, bc), &gathered(&t, bc), &format!("{bc:?}"));
            }
        }
    }
}
