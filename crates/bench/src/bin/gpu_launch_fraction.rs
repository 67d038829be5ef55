//! Regenerate the **§6.1.2 launch-fraction numbers**: the percentage of
//! multipole FMM kernels launched on the GPU for the three measured
//! configurations, from the launch-policy simulation — then *measure*
//! the same quantity by running the real futurized solver with its
//! kernel launches routed through the simulated device (§5.1: idle
//! stream → GPU, busy → CPU fallback).
//!
//! The human-readable tables go to stderr; stdout carries one JSON
//! object (`model`, `measured`, `aggregation`). Exits non-zero if the
//! default 8-slot aggregation window stops fusing the solve's launches
//! at least twofold.
//!
//! ```sh
//! cargo run --release -p bench --bin gpu_launch_fraction > launch_fraction.json
//! ```

use amt::Runtime;
use gravity::gpu::GpuContext;
use gravity::solver::FmmSolver;
use gpusim::device::{Device, DeviceSpec};
use gpusim::launch_policy::QueuePolicy;
use octree::geometry::Domain;
use octree::subgrid::Field;
use octree::tree::Octree;
use perfmodel::machine::table2_platforms;
use perfmodel::node_level::{simulate_node, Workload};
use std::sync::Arc;
use util::vec3::Vec3;

/// A level-2 uniform tree with a two-blob density — the measured
/// workload: 73 nodes, two kernel launches per leaf pass.
fn measured_tree() -> Arc<Octree> {
    let mut t = Octree::new(Domain::new(16.0));
    t.refine_where(2, |_d, _k| true);
    let domain = t.domain();
    for key in t.leaves() {
        let node = t.node_mut(key).unwrap();
        let grid = node.grid.as_mut().unwrap();
        for (i, j, k) in grid.indexer().interior() {
            let c = domain.cell_center(key, i, j, k);
            let rho = 2.0 * (-(c - Vec3::new(-3.0, 0.0, 0.0)).norm2()).exp()
                + (-(c - Vec3::new(3.0, 1.0, 0.0)).norm2() / 2.0).exp()
                + 1e-8;
            grid.set(Field::Rho, i, j, k, rho);
        }
    }
    t.restrict_all();
    Arc::new(t)
}

/// One real solve under `policy`; prints the row and returns it as JSON.
fn measured_split(n_streams: usize, policy: QueuePolicy, label: &str) -> String {
    let tree = measured_tree();
    let dev = Device::new(DeviceSpec::p100(), n_streams);
    let solver = Arc::new(FmmSolver::with_gpu(0.5, GpuContext::new(&dev, 4, policy)));
    let rt = Runtime::new(4);
    let field = solver.solve_parallel(&tree, &rt);
    let fraction = solver.gpu().unwrap().stats().gpu_fraction();
    let (gpu, cpu) = (field.kernel_launches_gpu, field.kernel_launches_cpu);
    eprintln!("{label:<40} {gpu:>6} GPU {cpu:>6} CPU {:>10.2}%", 100.0 * fraction);
    format!(
        "    {{ \"configuration\": \"{label}\", \"gpu_launches\": {gpu}, \
         \"cpu_launches\": {cpu}, \"gpu_fraction\": {fraction:.6} }}"
    )
}

/// One batched solve over the measured tree with the given aggregation
/// thresholds (QueueOnBusy so every item lands on a stream and the
/// launch counts are deterministic). Returns `(items, fused launches)`.
fn aggregated_run(slots: usize, window: usize) -> (u64, u64) {
    let tree = measured_tree();
    let dev = Device::new(DeviceSpec::p100(), 8);
    let solver = Arc::new(
        FmmSolver::with_gpu(0.5, GpuContext::new(&dev, 4, QueuePolicy::QueueOnBusy))
            .with_aggregation(slots, window),
    );
    let rt = Runtime::new(4);
    let _ = solver.solve_parallel(&tree, &rt);
    let agg = solver.gpu().unwrap().agg_stats();
    (agg.items_gpu(), agg.batches_gpu())
}

/// The work-aggregation launch collapse (arXiv:2210.06438): the same
/// solve, per item vs batched, and what the per-launch overhead model
/// says that saves. Returns the `"aggregation"` JSON member.
fn aggregation_collapse() -> String {
    eprintln!();
    eprintln!("Work aggregation (arXiv:2210.06438): fused launches for the");
    eprintln!("same solve, slot sweep (window = 4 x slots, QueueOnBusy):");
    eprintln!("{}", "-".repeat(72));
    let overhead_us = DeviceSpec::p100().launch_overhead_us;
    eprintln!(
        "{:<10} {:>8} {:>10} {:>10} {:>14}",
        "slots", "items", "launches", "collapse", "overhead (µs)"
    );
    let mut sweep = Vec::new();
    let mut batched = (0u64, 0u64);
    for slots in [1usize, 2, 4, 8, 16, 32] {
        let (items, launches) = aggregated_run(slots, 4 * slots);
        eprintln!(
            "{:<10} {:>8} {:>10} {:>9.2}x {:>14.1}",
            slots,
            items,
            launches,
            items as f64 / launches as f64,
            launches as f64 * overhead_us
        );
        sweep.push(format!("\"{slots}\": {launches}"));
        if slots == 8 {
            batched = (items, launches);
        }
    }
    let (items, launches) = batched;
    let baseline = items; // per-item: one launch per kernel
    let collapse = baseline as f64 / launches as f64;
    let saved_us = (baseline - launches) as f64 * overhead_us;
    eprintln!("{}", "-".repeat(72));
    eprintln!(
        "default (8 slots): {baseline} -> {launches} launches ({collapse:.2}x), \
         modeled launch-overhead saving {saved_us:.0} µs/solve"
    );
    assert!(
        launches * 2 <= baseline,
        "batched solve issued {launches} launches (> half of {baseline}): aggregation stopped fusing"
    );
    format!(
        "  \"aggregation\": {{\n    \
         \"baseline_launches\": {baseline},\n    \
         \"batched_launches\": {launches},\n    \
         \"collapse_factor\": {collapse:.3},\n    \
         \"agg_slots\": 8,\n    \
         \"agg_window\": 32,\n    \
         \"launch_overhead_us\": {overhead_us:.1},\n    \
         \"modeled_overhead_saving_us\": {saved_us:.1},\n    \
         \"launches_by_slots\": {{ {} }}\n  }}",
        sweep.join(", ")
    )
}

fn main() {
    eprintln!("§6.1.2 — fraction of FMM kernels launched on the GPU");
    eprintln!("{}", "=".repeat(72));
    let rows: &[(&str, f64, f64)] = &[
        ("20 cores + 1x V100", 987.0, 97.4995),
        ("10 cores + 1x V100", 1722.0, 99.9997),
        ("Piz Daint node + 1x P100", 1435.0, 99.5207),
    ];
    eprintln!(
        "{:<32} {:>12} {:>12} {:>12}",
        "configuration", "model %", "paper %", "CPU kernels"
    );
    eprintln!("{}", "-".repeat(72));
    let platforms = table2_platforms();
    let mut model = Vec::new();
    for (pat, other_wall, paper_pct) in rows {
        let cfg = platforms.iter().find(|c| c.name.contains(pat)).unwrap();
        let w = Workload::v1309_level14(*other_wall);
        let r = simulate_node(cfg, &w);
        eprintln!(
            "{:<32} {:>11.4}% {:>11.4}% {:>12}",
            cfg.name,
            100.0 * r.gpu_fraction,
            paper_pct,
            r.cpu_kernels
        );
        model.push(format!(
            "    {{ \"configuration\": \"{}\", \"model_pct\": {:.4}, \"paper_pct\": {paper_pct} }}",
            cfg.name,
            100.0 * r.gpu_fraction
        ));
    }
    eprintln!("{}", "-".repeat(72));
    eprintln!("Also the §6.1.2 fix (QueueOnBusy): with kernels queued on busy");
    eprintln!("streams instead of falling back, 100% launch on the GPU — see");
    eprintln!("gpusim::launch_policy::QueuePolicy::QueueOnBusy and its tests.");
    eprintln!();
    eprintln!("Measured: real futurized FMM solve (level-2 tree, 4 workers),");
    eprintln!("launches routed per §5.1 through the simulated P100:");
    eprintln!("{}", "-".repeat(72));
    let measured = [
        measured_split(4, QueuePolicy::CpuFallback, "4 streams, CPU fallback"),
        measured_split(1, QueuePolicy::CpuFallback, "1 stream, CPU fallback (starved)"),
        measured_split(4, QueuePolicy::QueueOnBusy, "4 streams, queue on busy (the fix)"),
    ];
    let aggregation = aggregation_collapse();
    println!(
        "{{\n  \"model\": [\n{}\n  ],\n  \"measured\": [\n{}\n  ],\n{aggregation}\n}}",
        model.join(",\n"),
        measured.join(",\n")
    );
}
