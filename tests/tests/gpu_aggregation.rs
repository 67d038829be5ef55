//! The GPU work-aggregation invariant (ISSUE 7 tentpole): fusing FMM
//! kernel work items into batched launches must be *bit-transparent* —
//! any slot/window configuration, worker count, and stream budget
//! produces exactly the serial walk's field — while collapsing the
//! launch count, and degrading per item to the CPU when no stream
//! frees up.

use gravity::gpu::{AggregationConfig, GpuContext};
use gravity::solver::{FmmSolver, GravityField};
use gpusim::device::{Device, DeviceSpec};
use gpusim::launch_policy::QueuePolicy;
use octree::geometry::Domain;
use octree::subgrid::Field;
use octree::tree::Octree;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use util::morton::MortonKey;
use util::vec3::Vec3;

fn blob(c: Vec3) -> f64 {
    let b1 = Vec3::new(-3.0, 0.5, 0.0);
    let b2 = Vec3::new(3.0, -1.0, 0.5);
    2.0 * (-(c - b1).norm2()).exp() + (-(c - b2).norm2() / 2.0).exp() + 1e-8
}

/// Uniformly refined level-1 tree with the blob density (the hydro-blob
/// scenario shape).
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

/// Two-level AMR tree (root refined, one child refined again) — the
/// star_amr scenario shape, exercising every branch of the walk.
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

fn assert_bit_identical(tree: &Octree, a: &GravityField, b: &GravityField, what: &str) {
    assert_eq!(a.interactions, b.interactions, "{what}: interaction count");
    assert_eq!(a.pairs_evaluated, b.pairs_evaluated, "{what}: pairs evaluated");
    assert_eq!(a.pairs_full_body, b.pairs_full_body, "{what}: pairs through the full body");
    for key in tree.leaves() {
        let ca = a.leaf(key).expect("leaf in serial field");
        let cb = b.leaf(key).expect("leaf in batched field");
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

/// Serial references computed once and shared by the matrix tests and
/// the proptest (the serial walk dominates their runtime).
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

/// One batched parallel solve compared bit-for-bit against the cached
/// serial reference, plus the aggregation/launch accounting invariants.
fn check_aggregated(star_amr: bool, slots: usize, window: usize, workers: usize) {
    let (tree, serial) = serial_reference(star_amr);
    let dev = Device::new(DeviceSpec::p100(), 2 * workers);
    let solver = Arc::new(
        FmmSolver::with_gpu(0.5, GpuContext::new(&dev, workers, QueuePolicy::CpuFallback))
            .with_aggregation(slots, window),
    );
    let rt = amt::Runtime::new(workers);
    let par = solver.solve_parallel(tree, &rt);
    let what = format!("star_amr={star_amr} slots={slots} window={window} workers={workers}");
    assert_bit_identical(tree, serial, &par, &what);
    let ctx = solver.gpu().unwrap();
    // §6.1.2 stays a per-kernel observable: the launch ledger counts
    // items, never batches, and agrees with the solve's own split.
    let agg = ctx.agg_stats();
    assert_eq!(agg.items_gpu(), par.kernel_launches_gpu, "{what}");
    assert_eq!(agg.items_cpu(), par.kernel_launches_cpu, "{what}");
    assert_eq!(agg.items(), par.kernel_launches, "{what}");
    // Batching can only ever shrink the launch count.
    assert!(agg.batches() <= agg.items(), "{what}");
    // The main thread helps run fan tasks while it waits (`get_help`),
    // and those non-worker submits are counted against the explicit
    // overflow pool — never silently aliased onto worker 0's streams.
    assert!(ctx.overflow_submits() <= agg.items(), "{what}");
}

/// ISSUE 7 satellite: the aggregation-window × worker matrix on the
/// hydro-blob scenario. Window inputs of 1 (per-item launches), 4, and
/// 16 slots must all reproduce the serial bits.
#[test]
fn agg_matrix_is_bit_identical_on_hydro_blob() {
    for slots in [1usize, 4, 16] {
        for workers in [1usize, 2, 4] {
            check_aggregated(false, slots, 4 * slots, workers);
        }
    }
}

/// The same matrix on the two-level AMR star analog.
#[test]
fn agg_matrix_is_bit_identical_on_star_amr() {
    for slots in [1usize, 4, 16] {
        for workers in [1usize, 2, 4] {
            check_aggregated(true, slots, 4 * slots, workers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded sweep: any slot/window configuration (normalization
    /// included) and worker count is bit-transparent on both scenarios.
    #[test]
    fn random_agg_configs_never_change_bits(
        slots in 1usize..33,
        window in 1usize..65,
        workers in 1usize..5,
        scenario in 0usize..2,
    ) {
        check_aggregated(scenario == 1, slots, window, workers);
    }
}

/// The tentpole's launch-count collapse: with QueueOnBusy (so every
/// batch lands on a stream) and the default 8-slot window, the fused
/// launch count must be at most half the item count — the ≥2x collapse
/// the bench gate also enforces.
#[test]
fn batching_collapses_launches_at_least_twofold() {
    let (tree, serial) = serial_reference(true);
    let dev = Device::new(DeviceSpec::p100(), 8);
    let solver = Arc::new(
        FmmSolver::with_gpu(0.5, GpuContext::new(&dev, 2, QueuePolicy::QueueOnBusy))
            .with_aggregation(8, 64),
    );
    let rt = amt::Runtime::new(2);
    let par = solver.solve_parallel(tree, &rt);
    assert_bit_identical(tree, serial, &par, "queue-on-busy batched");
    let agg = solver.gpu().unwrap().agg_stats();
    assert_eq!(agg.items_cpu(), 0, "QueueOnBusy never degrades");
    assert_eq!(agg.items_gpu(), par.kernel_launches);
    assert!(
        2 * agg.batches_gpu() <= agg.items_gpu(),
        "batched solve must issue at most half the launches: {} batches for {} items",
        agg.batches_gpu(),
        agg.items_gpu()
    );
    // The device really executed one enqueue per batch, not per item.
    // (The executed counter bumps just after the stream goes idle, so
    // give it a bounded beat after synchronize.)
    solver.gpu().unwrap().synchronize();
    for _ in 0..10_000 {
        if dev.kernels_executed() == agg.batches_gpu() {
            break;
        }
        std::thread::yield_now();
    }
    assert_eq!(dev.kernels_executed(), agg.batches_gpu());
}

/// §5.1 degradation: a device with no streams sends every batch down
/// the CPU path, per item, and the bits still match the serial walk.
#[test]
fn no_streams_degrades_every_item_to_cpu() {
    let (tree, serial) = serial_reference(false);
    let dev = Device::new(DeviceSpec::p100(), 0);
    let solver = Arc::new(
        FmmSolver::with_gpu(0.5, GpuContext::new(&dev, 2, QueuePolicy::CpuFallback))
            .with_aggregation(8, 64),
    );
    let rt = amt::Runtime::new(2);
    let par = solver.solve_parallel(tree, &rt);
    assert_bit_identical(tree, serial, &par, "no-streams degraded");
    assert_eq!(par.kernel_launches_gpu, 0);
    assert_eq!(par.kernel_launches_cpu, par.kernel_launches);
    let agg = solver.gpu().unwrap().agg_stats();
    assert_eq!(agg.items_gpu(), 0);
    assert_eq!(agg.batches_cpu(), agg.batches());
}

/// The batching counters surface through the runtime's metrics facade
/// with the documented names.
#[test]
fn aggregation_counters_surface_through_metrics() {
    let (tree, _) = serial_reference(true);
    let dev = Device::new(DeviceSpec::p100(), 8);
    let solver = Arc::new(
        FmmSolver::with_gpu(0.5, GpuContext::new(&dev, 2, QueuePolicy::QueueOnBusy))
            .with_aggregation(AggregationConfig::default().slots, 64),
    );
    let rt = amt::Runtime::new(2);
    let par = solver.solve_parallel(tree, &rt);
    let agg = solver.gpu().unwrap().agg_stats();
    let c = rt.metrics();
    assert_eq!(c.get("fmm/kernels/batched"), agg.items_gpu());
    assert_eq!(c.get("fmm/agg/batches"), agg.batches());
    assert_eq!(
        c.get("fmm/agg/flush_full")
            + c.get("fmm/agg/flush_window")
            + c.get("fmm/agg/flush_idle"),
        agg.batches(),
        "every batch has exactly one flush trigger"
    );
    assert!(c.get("fmm/agg/occupancy_permille") > 0);
    assert_eq!(
        c.get("fmm/agg/overflow_submits"),
        solver.gpu().unwrap().overflow_submits()
    );
    // The per-kind histograms sum to the batch total.
    let mut hist_total = 0;
    for kind in ["monopole", "multipole"] {
        for label in ["1", "2", "le4", "le8", "le16", "gt16"] {
            hist_total += c.get(&format!("fmm/agg/hist/{kind}/{label}"));
        }
    }
    assert_eq!(hist_total, agg.batches());
    assert!(par.kernel_launches > 0);
}
