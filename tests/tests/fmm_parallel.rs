//! The futurized FMM invariant (PR tentpole): `solve_parallel` must
//! produce *bit-identical* gravity fields to the serial walk at any
//! thread count, reuse its scratch buffers in steady state, and keep
//! the driver's conservation properties intact when it powers
//! self-gravity.

use gravity::multipole::Multipole;
use gravity::solver::{FmmSolver, GravityField, NodeMoments};
use octotiger::diagnostics::{drift, totals};
use octotiger::scenario::Scenario;
use octotiger::Simulation;
use octree::geometry::Domain;
use octree::shard::ShardMap;
use octree::subgrid::Field;
use octree::tree::Octree;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use util::morton::MortonKey;
use util::vec3::Vec3;

fn blob(c: Vec3) -> f64 {
    let b1 = Vec3::new(-3.0, 0.5, 0.0);
    let b2 = Vec3::new(3.0, -1.0, 0.5);
    2.0 * (-(c - b1).norm2()).exp() + (-(c - b2).norm2() / 2.0).exp() + 1e-8
}

/// A two-level AMR tree: root refined, one child refined again, so the
/// solve exercises M2M, cross-level gathering, L2L, and the ledger
/// distribution — every branch of the walk.
fn amr_tree() -> Arc<Octree> {
    let mut t = Octree::new(Domain::new(16.0));
    t.refine(MortonKey::root());
    t.refine(MortonKey::new(1, 0, 0, 0));
    let domain = t.domain();
    for key in t.leaves() {
        let node = t.node_mut(key).unwrap();
        let grid = node.grid.as_mut().unwrap();
        for (i, j, k) in grid.indexer().interior() {
            let c = domain.cell_center(key, i, j, k);
            grid.set(Field::Rho, i, j, k, blob(c));
        }
    }
    Arc::new(t)
}

fn assert_bit_identical(
    tree: &Octree,
    a: &gravity::solver::GravityField,
    b: &gravity::solver::GravityField,
    what: &str,
) {
    assert_eq!(a.interactions, b.interactions, "{what}: interaction count");
    assert_eq!(a.pairs_evaluated, b.pairs_evaluated, "{what}: pairs evaluated");
    assert_eq!(a.pairs_full_body, b.pairs_full_body, "{what}: pairs through the full body");
    assert_cells_bit_identical(&tree.leaves(), a, b, what);
}

/// Every component of every cell of the leaves `keys`, bit for bit.
fn assert_cells_bit_identical(keys: &[MortonKey], a: &GravityField, b: &GravityField, what: &str) {
    for &key in keys {
        let ca = a.leaf(key).expect("leaf in serial field");
        let cb = b.leaf(key).expect("leaf in parallel field");
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(cb.iter()) {
            assert_eq!(x.phi.to_bits(), y.phi.to_bits(), "{what}: phi");
            for (u, v) in [(x.g, y.g), (x.force_density, y.force_density)] {
                assert_eq!(u.x.to_bits(), v.x.to_bits(), "{what}: x-component");
                assert_eq!(u.y.to_bits(), v.y.to_bits(), "{what}: y-component");
                assert_eq!(u.z.to_bits(), v.z.to_bits(), "{what}: z-component");
            }
        }
    }
}

/// The hydro-only analog: a uniformly refined level-1 tree (no AMR
/// jumps) with the blob density.
fn hydro_blob_tree() -> Arc<Octree> {
    let mut t = Octree::new(Domain::new(16.0));
    t.refine_where(1, |_d, _k| true);
    let domain = t.domain();
    for key in t.leaves() {
        let node = t.node_mut(key).unwrap();
        let grid = node.grid.as_mut().unwrap();
        for (i, j, k) in grid.indexer().interior() {
            let c = domain.cell_center(key, i, j, k);
            grid.set(Field::Rho, i, j, k, blob(c));
        }
    }
    Arc::new(t)
}

/// Serial references computed once and shared by the matrix tests (the
/// serial walk dominates their runtime).
fn serial_reference(star_amr: bool) -> &'static (Arc<Octree>, GravityField) {
    static BLOB: OnceLock<(Arc<Octree>, GravityField)> = OnceLock::new();
    static AMR: OnceLock<(Arc<Octree>, GravityField)> = OnceLock::new();
    let cell = if star_amr { &AMR } else { &BLOB };
    cell.get_or_init(|| {
        let tree = if star_amr { amr_tree() } else { hydro_blob_tree() };
        let serial = FmmSolver::new(0.5).solve(&tree);
        (tree, serial)
    })
}

/// One parallel solve on `workers` workers compared bit-for-bit against
/// the cached serial reference.
fn check_parallel(star_amr: bool, workers: usize) {
    let (tree, serial) = serial_reference(star_amr);
    let solver = Arc::new(FmmSolver::new(0.5));
    let rt = amt::Runtime::new(workers);
    let par = solver.solve_parallel(tree, &rt);
    let what = format!("star_amr={star_amr} workers={workers}");
    assert_eq!(
        par.interactions_same_level, serial.interactions_same_level,
        "{what}: same-level interaction count"
    );
    assert_eq!(
        par.interactions_near_field, serial.interactions_near_field,
        "{what}: near-field interaction count"
    );
    assert_bit_identical(tree, serial, &par, &what);
}

/// The worker matrix on the hydro-only scenario.
#[test]
fn worker_matrix_is_bit_identical_on_hydro_blob() {
    for workers in [1usize, 2, 4] {
        check_parallel(false, workers);
    }
}

/// The same matrix on the two-level AMR star analog, which exercises
/// cross-level gathering, the root's offset kernel, and L2L.
#[test]
fn worker_matrix_is_bit_identical_on_star_amr() {
    for workers in [1usize, 2, 4] {
        check_parallel(true, workers);
    }
}

#[test]
fn fmm_parallel_matches_serial() {
    let tree = amr_tree();
    let solver = Arc::new(FmmSolver::new(0.5));
    let serial = solver.solve(&tree);
    for threads in [1, 4] {
        let rt = amt::Runtime::new(threads);
        let par = solver.solve_parallel(&tree, &rt);
        assert_bit_identical(&tree, &serial, &par, &format!("{threads} threads"));
        assert_eq!(par.kernel_launches, serial.kernel_launches, "one item per node");
    }
}

#[test]
fn steady_state_solves_allocate_no_scratch() {
    let tree = amr_tree();
    let solver = Arc::new(FmmSolver::new(0.5));
    let rt = amt::Runtime::new(4);
    solver.solve_parallel(&tree, &rt); // cold start may allocate
    let misses = solver.scratch().misses();
    for _ in 0..3 {
        solver.solve_parallel(&tree, &rt);
    }
    assert_eq!(
        solver.scratch().misses(),
        misses,
        "steady-state solves must serve all scratch from the pool"
    );
    assert!(solver.scratch().hits() > 0);
    assert_eq!(rt.metrics().get("fmm/scratch_misses"), misses);
    assert_eq!(rt.metrics().get("fmm/scratch_hits"), solver.scratch().hits());
}

/// The restricted walk on the AMR tree: split into 1–4 contiguous SFC
/// shards — at three, a shard's leaves span both leaf levels — each
/// shard's solve gives its leaves the serial whole-tree solve's cells,
/// every component bit for bit.
#[test]
fn restricted_solves_of_amr_shards_match_the_serial_solve() {
    let tree = amr_tree();
    let solver = Arc::new(FmmSolver::new(0.5));
    let rt = amt::Runtime::new(2);
    let moments = Arc::new(solver.compute_moments_parallel(&tree, &rt));
    let full = solver.solve_with_moments(&tree, &moments);
    let mut spans_levels = false;
    for n in 1..=4 {
        let shards = ShardMap::partition(&tree, n).expect("partition");
        for shard in 0..n as u32 {
            let owned = shards.owned(shard);
            spans_levels |= owned.iter().any(|key| key.level != owned[0].level);
            let part = solver.solve_restricted_parallel(&tree, &moments, owned, &rt);
            assert_eq!(part.leaves().count(), owned.len());
            assert_cells_bit_identical(owned, &full, &part, &format!("{n} shards, shard {shard}"));
        }
    }
    assert!(spans_levels, "no shard's leaves span levels");
}

/// The pool's bound: a cold solve on a fresh solver leaves at most one
/// expansion buffer per refined node (held from its item to its
/// downward step) and two per item that can run at once (every worker
/// and the helping caller) in the pool, and the next solve takes every
/// buffer from it.
#[test]
fn the_pool_holds_a_buffer_per_refined_node_and_two_per_running_item() {
    let tree = amr_tree();
    let refined = (0..=tree.max_level())
        .flat_map(|level| tree.level_keys(level))
        .filter(|&key| !tree.is_leaf(key))
        .count();
    assert_eq!((refined, tree.leaves().len()), (2, 15));
    for workers in [1usize, 2, 4] {
        let solver = Arc::new(FmmSolver::new(0.5));
        let rt = amt::Runtime::new(workers);
        solver.solve_parallel(&tree, &rt);
        let pooled = solver.scratch().expansion_buffers();
        let bound = refined + 2 * (workers + 1);
        assert!(pooled <= bound, "{workers} workers: {pooled} buffers pooled, bound {bound}");
        let misses = solver.scratch().misses();
        solver.solve_parallel(&tree, &rt);
        assert_eq!(solver.scratch().misses(), misses, "{workers} workers: a warm solve allocated");
    }
}

#[test]
fn centered_star_conserves_with_parallel_gravity() {
    // The driver-level regression: a centered, compactly supported
    // density profile (a polytrope in near-vacuum) evolved with
    // self-gravity on, where solve_gravity runs the futurized FMM.
    // Momentum and angular momentum must stay at machine precision (the
    // FMM's conservation-grade force density and the driver's spin
    // deposit of its counter-torque); mass
    // drift is bounded by the floor-level ambient crossing the outflow
    // boundary.
    let mut sim = Simulation::new(Scenario::single_star(1));
    let start = totals(sim.tree(), None);
    sim.step(); // warm-up: the solver's scratch pool fills here
    let misses_after_warmup = sim.runtime().metrics().get("fmm/scratch_misses");
    for _ in 0..2 {
        sim.step();
    }
    let end = totals(sim.tree(), None);
    let mom_scale = start.mass;
    let d = drift(&start, &end, mom_scale, mom_scale);
    assert!(d.mass < 1e-9, "mass drift {}", d.mass);
    assert!(d.momentum < 1e-12, "momentum drift {}", d.momentum);
    assert!(d.angular < 1e-12, "angular momentum drift {}", d.angular);
    // Steady-state steps perform zero scratch heap allocations: the
    // miss counter must not move after the warm-up step.
    assert_eq!(
        sim.runtime().metrics().get("fmm/scratch_misses"),
        misses_after_warmup,
        "steady-state step() allocated FMM scratch buffers"
    );
    assert!(sim.runtime().metrics().get("fmm/scratch_hits") > 0);
}

/// The moment map keeps a leaf's 512 cell masses and nothing else, and
/// what its readers rebuild from them is what the moment pass stored
/// when it kept every multipole: on `v1309`'s tree (260 leaves on levels
/// 2–6 under 37 refined nodes), every leaf cell's multipole is
/// `Multipole::monopole(max(ρ, 0) V, cell centre)` and every refined
/// cell the M2M of those, bit for bit.
#[test]
fn the_moment_map_keeps_leaf_masses_and_rebuilds_the_stored_multipoles() {
    let tree = Scenario::v1309(6).tree;
    let (domain, n) = (tree.domain(), octree::subgrid::N_SUB as isize);
    let moments = FmmSolver::new(0.5).compute_moments(&tree);
    // The map as the moment pass stored it, built bottom-up.
    let mut stored: HashMap<MortonKey, Vec<Multipole>> = HashMap::new();
    let cells =
        || (0..n).flat_map(move |i| (0..n).flat_map(move |j| (0..n).map(move |k| (i, j, k))));
    for level in (0..=tree.max_level()).rev() {
        for key in tree.level_keys(level) {
            let multipoles = if let Some(grid) = &tree.node(key).unwrap().grid {
                let vol = domain.cell_volume(level);
                let m = |i, j, k| grid.at(Field::Rho, i, j, k).max(0.0) * vol;
                let p2m =
                    |(i, j, k)| Multipole::monopole(m(i, j, k), domain.cell_center(key, i, j, k));
                cells().map(p2m).collect()
            } else {
                let m2m = |(i, j, k): (isize, isize, isize)| {
                    let h = n / 2;
                    let octant = ((i / h) | ((j / h) << 1) | ((k / h) << 2)) as u8;
                    let child = &stored[&key.child(octant)];
                    let (bi, bj, bk) = (2 * (i % h), 2 * (j % h), 2 * (k % h));
                    let parts: Vec<Multipole> = (0..8)
                        .map(|d| (bi + (d & 1), bj + ((d >> 1) & 1), bk + ((d >> 2) & 1)))
                        .map(|(ci, cj, ck)| child[((ci * n + cj) * n + ck) as usize])
                        .collect();
                    Multipole::combine(&parts)
                };
                cells().map(m2m).collect()
            };
            stored.insert(key, multipoles);
        }
    }
    assert_eq!((tree.leaves().len(), moments.len()), (260, 297));
    assert_eq!(moments.len(), stored.len());
    for (key, node) in &moments {
        if tree.is_leaf(*key) {
            assert!(matches!(&**node, NodeMoments::Leaf(m) if m.len() == 512), "{key:?}: masses");
        } else {
            assert!(matches!(&**node, NodeMoments::Refined(_)), "{key:?}: multipoles");
        }
        let rebuilt = node.cells(&domain, *key);
        let bits = |c: Multipole| {
            let values = [c.m].into_iter().chain(c.com.to_array()).chain(c.q);
            values.map(f64::to_bits).collect::<Vec<u64>>()
        };
        for ((i, j, k), want) in cells().zip(&stored[key]) {
            assert_eq!(bits(rebuilt(i, j, k)), bits(*want), "{key:?} ({i},{j},{k})");
        }
    }
}
