//! The futurized FMM invariant (PR tentpole): `solve_parallel` must
//! produce *bit-identical* gravity fields to the serial walk at any
//! thread count, reuse its scratch buffers in steady state, and keep
//! the driver's conservation properties intact when it powers
//! self-gravity.

use gravity::gpu::GpuContext;
use gravity::solver::{FmmSolver, GravityField};
use gpusim::device::{Device, DeviceSpec};
use gpusim::launch_policy::QueuePolicy;
use octotiger::diagnostics::{drift, totals};
use octotiger::scenario::Scenario;
use octotiger::Simulation;
use octree::geometry::Domain;
use octree::subgrid::Field;
use octree::tree::Octree;
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
    t.restrict_all();
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
    for key in tree.leaves() {
        let ca = a.leaf(key).expect("leaf in serial field");
        let cb = b.leaf(key).expect("leaf in parallel field");
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(cb.iter()) {
            assert_eq!(x.phi.to_bits(), y.phi.to_bits(), "{what}: phi");
            for (u, v) in [
                (x.g, y.g),
                (x.force_density, y.force_density),
                (x.torque_density, y.torque_density),
            ] {
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
        assert_eq!(
            par.kernel_launches,
            par.kernel_launches_cpu + par.kernel_launches_gpu
        );
    }
}

#[test]
fn fmm_parallel_through_gpu_streams_matches_serial() {
    let tree = amr_tree();
    let serial = FmmSolver::new(0.5).solve(&tree);
    let dev = Device::new(DeviceSpec::p100(), 4);
    let solver = Arc::new(FmmSolver::with_gpu(
        0.5,
        GpuContext::new(&dev, 4, QueuePolicy::CpuFallback),
    ));
    let rt = amt::Runtime::new(4);
    let par = solver.solve_parallel(&tree, &rt);
    assert_bit_identical(&tree, &serial, &par, "gpu-routed");
    // The split is workload-dependent, but every launch lands somewhere
    // and the device saw the GPU-side ones.
    assert_eq!(
        par.kernel_launches,
        par.kernel_launches_cpu + par.kernel_launches_gpu
    );
    assert!(par.kernel_launches > 0);
    let stats = solver.gpu().unwrap().stats();
    assert_eq!(stats.gpu_launches(), par.kernel_launches_gpu);
    assert_eq!(stats.cpu_launches(), par.kernel_launches_cpu);
    assert_eq!(rt.metrics().get("fmm/kernels/gpu"), par.kernel_launches_gpu);
    assert_eq!(rt.metrics().get("fmm/kernels/cpu"), par.kernel_launches_cpu);
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

#[test]
fn centered_star_conserves_with_parallel_gravity() {
    // The driver-level regression: a centered, compactly supported
    // density profile (a polytrope in near-vacuum) evolved with
    // self-gravity on, where solve_gravity runs the futurized FMM.
    // Momentum and angular momentum must stay at machine precision (the
    // FMM's conservation-grade force density and torque ledger); mass
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
