//! The **§6.1.2 launch split** — the fraction of FMM kernels launched
//! on the GPU — of a real futurized solve: its work items, one per node,
//! replayed through the §5.1 policy (idle stream → GPU, busy → CPU
//! fallback) on the simulated device in virtual time, and the launch
//! collapse of work aggregation over the same items. The node model's
//! figures for the paper's three configurations are
//! `table2_node_level`'s.
//!
//! The human-readable tables go to stderr; stdout carries one JSON
//! object (`replayed`, `aggregation`), the same on every run. Exits
//! non-zero if the §6.1.2 fix (queue on busy) leaves any kernel on the
//! CPU, if the starved one-stream row does not read below the
//! four-stream row, or if the default 8-slot aggregation window stops
//! fusing the solve's launches at least twofold.
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
use std::sync::Arc;
use util::vec3::Vec3;

/// A level-2 uniform tree with a two-blob density — the replayed
/// workload: 73 nodes, one kernel work item each.
fn replayed_tree() -> Arc<Octree> {
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
    Arc::new(t)
}

/// Worker threads of every solve, and virtual workers of its replay.
const WORKERS: usize = 4;

/// One real solve, its items replayed per item under `policy`; prints
/// the row and returns it with its GPU fraction.
fn replayed_split(n_streams: usize, policy: QueuePolicy, label: &str) -> (String, f64) {
    let tree = replayed_tree();
    let dev = Device::new(DeviceSpec::p100(), n_streams);
    let solver = Arc::new(
        FmmSolver::with_gpu(0.5, GpuContext::new(&dev, WORKERS, policy)).with_aggregation(1, 1),
    );
    let rt = Runtime::new(WORKERS);
    let _ = solver.solve_parallel(&tree, &rt);
    let agg = solver.gpu().unwrap().agg_stats();
    let (gpu, cpu, fraction) = (agg.items_gpu(), agg.items_cpu(), agg.gpu_fraction());
    eprintln!("{label:<40} {gpu:>6} GPU {cpu:>6} CPU {:>10.2}%", 100.0 * fraction);
    let json = format!(
        "    {{ \"configuration\": \"{label}\", \"gpu_launches\": {gpu}, \
         \"cpu_launches\": {cpu}, \"gpu_fraction\": {fraction:.6} }}"
    );
    (json, fraction)
}

/// One solve over the replayed tree, its items batched with the given
/// aggregation thresholds (QueueOnBusy, so every batch lands on a
/// stream). Returns `(items, fused launches)`.
fn aggregated_run(slots: usize, window: usize) -> (u64, u64) {
    let tree = replayed_tree();
    let dev = Device::new(DeviceSpec::p100(), 8);
    let solver = Arc::new(
        FmmSolver::with_gpu(0.5, GpuContext::new(&dev, WORKERS, QueuePolicy::QueueOnBusy))
            .with_aggregation(slots, window),
    );
    let rt = Runtime::new(WORKERS);
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
    eprintln!("§6.1.2 — fraction of FMM kernels launched on the GPU: the items of");
    eprintln!("a real futurized FMM solve (level-2 tree, {WORKERS} workers) replayed per");
    eprintln!("§5.1 on the simulated P100 (the node model's figures for the paper's");
    eprintln!("configurations: table2_node_level)");
    eprintln!("{}", "-".repeat(72));
    let replayed = [
        replayed_split(4, QueuePolicy::CpuFallback, "4 streams, CPU fallback"),
        replayed_split(1, QueuePolicy::CpuFallback, "1 stream, CPU fallback (starved)"),
        replayed_split(4, QueuePolicy::QueueOnBusy, "4 streams, queue on busy (the fix)"),
    ];
    assert!(replayed[1].1 < replayed[0].1, "the starved row must launch less on the GPU");
    assert_eq!(replayed[2].1, 1.0, "queue on busy left kernels on the CPU");
    let replayed: Vec<String> = replayed.into_iter().map(|(json, _)| json).collect();
    let aggregation = aggregation_collapse();
    println!("{{\n  \"replayed\": [\n{}\n  ],\n{aggregation}\n}}", replayed.join(",\n"));
}
