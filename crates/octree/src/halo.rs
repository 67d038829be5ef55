//! Ghost-layer (halo) filling.
//!
//! Each octree node's solvers need a halo of neighbor data: "their input
//! data are the current node's sub-grid as well as all sub-grids of all
//! neighboring nodes as a halo (ghost layer)" (§4.3). With 2:1 balance a
//! ghost cell is filled from exactly one of:
//!
//! * a **same-level** neighbor leaf — direct copy,
//! * a **coarser** neighbor leaf — piecewise-constant injection (the
//!   coarse cell containing the ghost cell),
//! * a **finer** neighbor region — conservative average of the 8 child
//!   cells tiling the ghost cell,
//! * the **physical boundary** — outflow (nearest interior cell).
//!
//! Every driver fills ghosts through this module, cell by cell. The
//! distributed driver does not ship slabs: it pushes whole interiors
//! (`SubGrid::extract_interior`) into each peer's mirror tree and then
//! calls [`fill_halos_for_leaves`] on its shard. The slab primitives
//! `SubGrid::{extract_halo, apply_halo, halo_len}` are reached only from
//! `tests/distributed_halo.rs`; making them the in-memory and wire
//! format is ROADMAP's "Halo by slab" item.

use crate::subgrid::{SubGrid, ALL_FIELDS, N_SUB};
use crate::tree::Octree;
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
    f: crate::subgrid::Field,
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
    let grid = tree.node(key).expect("leaf exists").grid.as_ref().expect("grid");
    let indexer = grid.indexer();
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

/// Write `values` — one leaf's [`ghost_values`] — into the ghost cells
/// of `grid`, in the order they were computed: field-major, then
/// `indexer.all()` skipping the interior.
fn write_ghosts(grid: &mut SubGrid, values: Vec<f64>) {
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

/// Fill the ghost layers of every leaf in the tree.
pub fn fill_all_halos(tree: &mut Octree, bc: BoundaryCondition) {
    assert!(tree.has_grids(), "halo filling needs grid data");
    let leaves = tree.leaves();
    // Two-phase: read everything, then write, so sources are consistent.
    let ghosts: Vec<(MortonKey, Vec<f64>)> = leaves
        .iter()
        .map(|&k| (k, ghost_values(tree, k, bc)))
        .collect();
    for (key, values) in ghosts {
        let grid = tree.node_mut(key).expect("leaf exists").grid.as_mut().expect("grid");
        write_ghosts(grid, values);
    }
}

/// Fill the ghost layers of every leaf, with the read phase futurized:
/// one `amt` task per leaf computes its ghost values against the
/// immutable tree, then a serial write phase applies them in leaf order.
/// Bit-identical to [`fill_all_halos`] — the reads are pure and the
/// writes happen in the same deterministic order.
///
/// `tree` must be the only outstanding strong reference when the write
/// phase begins; the function waits for runtime quiescence after the
/// read barrier to guarantee task-held clones are gone.
pub fn fill_all_halos_parallel(
    tree: &mut std::sync::Arc<Octree>,
    bc: BoundaryCondition,
    rt: &std::sync::Arc<amt::Runtime>,
) {
    let leaves = tree.leaves();
    fill_halos_for_leaves(tree, &leaves, bc, rt);
}

/// Fill the ghost layers of a *subset* of leaves — the distributed
/// driver's per-shard ghost fill. Reads sample the interiors of
/// whatever leaves the subset's halos touch (which must be up to date);
/// writes touch only the ghost cells of `leaves`, in slice order.
/// Determinism discipline matches [`fill_all_halos_parallel`]: futurized
/// pure reads, `when_all` in input order, serial ordered writes.
pub fn fill_halos_for_leaves(
    tree: &mut std::sync::Arc<Octree>,
    leaves: &[MortonKey],
    bc: BoundaryCondition,
    rt: &std::sync::Arc<amt::Runtime>,
) {
    use std::sync::Arc;
    assert!(tree.has_grids(), "halo filling needs grid data");
    let leaves = leaves.to_vec();
    let mut futs = Vec::with_capacity(leaves.len());
    for &key in &leaves {
        let tree = Arc::clone(tree);
        futs.push(rt.async_call(move || ghost_values(&tree, key, bc)));
    }
    let sched = Arc::clone(rt.scheduler());
    // `when_all` yields results in input order = leaf order.
    let ghosts = amt::when_all(&sched, futs).get_help(&sched);
    rt.wait_quiescent();
    let tree = Arc::get_mut(tree).expect("no outstanding tree references after quiescence");
    for (key, values) in leaves.into_iter().zip(ghosts) {
        let grid = tree.node_mut(key).expect("leaf exists").grid.as_mut().expect("grid");
        write_ghosts(grid, values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Domain;
    use crate::subgrid::Field;

    fn tree_with_profile(f: impl Fn(f64, f64, f64) -> f64, refine_levels: u8) -> Octree {
        let mut t = Octree::new(Domain::new(16.0));
        // Refine the left half of the domain (boxes whose origin is left
        // of centre), giving same-level and coarse/fine interfaces.
        t.refine_where(refine_levels, |d, k| d.node_origin(k).x < 0.0);
        let leaves = t.leaves();
        let domain = t.domain();
        for key in leaves {
            let node = t.node_mut(key).unwrap();
            let grid = node.grid.as_mut().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                let c = domain.cell_center(key, i, j, k);
                grid.set(Field::Rho, i, j, k, f(c.x, c.y, c.z));
            }
        }
        t
    }

    #[test]
    fn constant_field_fills_all_ghosts_constant() {
        let mut t = tree_with_profile(|_, _, _| 2.5, 3);
        fill_all_halos(&mut t, BoundaryCondition::Outflow);
        for key in t.leaves() {
            let grid = t.node(key).unwrap().grid.as_ref().unwrap();
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
        for key in t.leaves() {
            let node = t.node_mut(key).unwrap();
            let grid = node.grid.as_mut().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                let c = domain.cell_center(key, i, j, k);
                grid.set(Field::Rho, i, j, k, c.x + 10.0 * c.y + 100.0 * c.z);
            }
        }
        fill_all_halos(&mut t, BoundaryCondition::Outflow);
        // Interior (non-domain-boundary) ghosts of a same-level interface
        // must reproduce the linear profile exactly.
        let key = MortonKey::new(1, 0, 0, 0);
        let grid = t.node(key).unwrap().grid.as_ref().unwrap();
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
        let mut t = tree_with_profile(|x, _, _| x, 0);
        fill_all_halos(&mut t, BoundaryCondition::Outflow);
        let key = MortonKey::root();
        let grid = t.node(key).unwrap().grid.as_ref().unwrap();
        // Ghost beyond -x boundary equals the first interior cell.
        assert_eq!(
            grid.at(Field::Rho, -1, 3, 3),
            grid.at(Field::Rho, 0, 3, 3)
        );
        assert_eq!(
            grid.at(Field::Rho, -2, 3, 3),
            grid.at(Field::Rho, 0, 3, 3)
        );
        assert_eq!(
            grid.at(Field::Rho, 9, 3, 3),
            grid.at(Field::Rho, 7, 3, 3)
        );
    }

    #[test]
    fn reflect_ghosts_mirror_interior() {
        let mut t = tree_with_profile(|x, _, _| x, 0);
        fill_all_halos(&mut t, BoundaryCondition::Reflect);
        let grid = t.node(MortonKey::root()).unwrap().grid.as_ref().unwrap();
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
        let mut t = tree_with_profile(|_, _, _| 7.0, 2);
        t.check_invariants();
        assert!(t.max_level() >= 2);
        fill_all_halos(&mut t, BoundaryCondition::Outflow);
        for key in t.leaves() {
            let grid = t.node(key).unwrap().grid.as_ref().unwrap();
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
}
