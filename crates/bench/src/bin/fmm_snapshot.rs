//! Measured FMM throughput snapshot → `BENCH_fmm.json`.
//!
//! Times the real solver (not the performance model) on the
//! `single_star` scenario tree at level 2: the serial walk against
//! `solve_parallel` at 1, 2 and 4 workers, in processed sub-grids per
//! second (the paper's throughput metric). The full worker→throughput
//! curve is recorded (`speedup_vs_serial` per worker count — a single
//! "speedup at 4 threads" number hid the fact that *every* parallel
//! row used to lose to serial), plus per-category task-span maxima
//! from a traced solve (the chunking target: no monolithic
//! `fmm/same-level` task), the GPU/CPU kernel-launch split through the
//! §5.1 routing, and the scratch-pool hit rate.
//!
//! ```sh
//! cargo run --release -p bench --bin fmm_snapshot
//! ```
//!
//! The speedup rows only reflect parallel scaling when the host has
//! at least as many CPUs as workers; `host_cpus` is recorded so a
//! 1-CPU CI box's numbers aren't mistaken for a scaling regression.
//! Bit-identity of the parallel solve is asserted on every run.

use amt::trace::TraceSession;
use amt::Runtime;
use gravity::gpu::GpuContext;
use gravity::solver::FmmSolver;
use gpusim::device::{Device, DeviceSpec};
use gpusim::launch_policy::QueuePolicy;
use octotiger::scenario::Scenario;
use octree::tree::Octree;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

fn star_tree() -> Arc<Octree> {
    Arc::new(Scenario::single_star(2).tree)
}

/// Time `f` over `iters` runs after one warm-up; returns seconds/run.
fn time_per_run(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

fn main() {
    let iters: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1); // 0 iterations would divide to NaN in the JSON
    let tree = star_tree();
    let leaves = tree.leaf_count() as f64;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("FMM throughput snapshot (single_star level 2, {leaves} sub-grids/solve)");
    println!("host CPUs: {host_cpus}, {iters} timed iterations per row");
    println!("{}", "-".repeat(64));

    // Serial reference. The chunk size comes from `Config` (hence from
    // `FMM_CHUNK_CELLS`), as in the drivers — the §E13 sweep sets it.
    let solver = Arc::new(
        FmmSolver::new(0.5).with_chunk_cells(octotiger::Config::default().fmm_chunk_cells),
    );
    let chunk_cells = solver.chunk_cells();
    let serial_s = time_per_run(iters, || {
        let f = solver.solve(&tree);
        assert!(f.interactions > 0);
    });
    let serial_rate = leaves / serial_s;
    println!("{:<28} {:>12.1} sub-grids/s", "serial", serial_rate);

    // Parallel at 1, 2, 4 workers (reusing the same pooled solver).
    let reference = solver.solve(&tree);
    let mut thread_rates = Vec::new();
    let mut cpu_rt = None;
    for threads in [1usize, 2, 4] {
        let rt = Runtime::new(threads);
        let par_s = time_per_run(iters, || {
            let f = solver.solve_parallel(&tree, &rt);
            assert_eq!(f.interactions, reference.interactions);
        });
        let rate = leaves / par_s;
        println!(
            "{:<28} {:>12.1} sub-grids/s  ({:.2}x serial)",
            format!("parallel, {threads} threads"),
            rate,
            rate / serial_rate
        );
        thread_rates.push((threads, rate));
        cpu_rt = Some(rt);
    }
    let cpu_rt = cpu_rt.expect("thread loop ran");

    // Per-category task spans of one traced 4-worker solve: with the
    // same-level pass chunked, the longest `fmm/same-level` task must
    // be a slab, not a whole node.
    let session = TraceSession::begin();
    let traced = solver.solve_parallel(&tree, &cpu_rt);
    assert_eq!(traced.interactions, reference.interactions);
    let trace = session.end();
    let spans: Vec<_> = trace
        .summary()
        .into_iter()
        .filter(|s| s.count > 0 && s.cat.as_str().starts_with("fmm/"))
        .collect();
    println!("{}", "-".repeat(64));
    println!(
        "{:<22} {:>8} {:>12} {:>14}",
        "task spans (4 wk)", "count", "total ms", "max span µs"
    );
    for s in &spans {
        println!(
            "{:<22} {:>8} {:>12.3} {:>14.1}",
            s.cat.as_str(),
            s.count,
            s.total_ns as f64 / 1e6,
            s.max_ns as f64 / 1e3
        );
    }

    // Launch split through the simulated GPU (P100, 4 streams over 4
    // workers, CPU fallback when the worker's streams are busy).
    let dev = Device::new(DeviceSpec::p100(), 4);
    let gpu_solver = Arc::new(
        FmmSolver::with_gpu(0.5, GpuContext::new(&dev, 4, QueuePolicy::CpuFallback))
            .with_chunk_cells(chunk_cells),
    );
    let rt = Runtime::new(4);
    let routed = gpu_solver.solve_parallel(&tree, &rt);
    assert_eq!(routed.interactions, reference.interactions);
    let stats = gpu_solver.gpu().unwrap().stats();
    // The solver publishes its counters into the runtime's metrics
    // registry; bench bins read them back through `snapshot()` rather
    // than poking solver internals.
    let gpu_snap = rt.metrics().snapshot();
    let launches_gpu = gpu_snap.get("fmm/kernels/gpu").copied().unwrap_or(0);
    let launches_cpu = gpu_snap.get("fmm/kernels/cpu").copied().unwrap_or(0);
    println!("{}", "-".repeat(64));
    println!(
        "launch split (1 solve): {launches_gpu} GPU / {launches_cpu} CPU  ({:.1}% on GPU)",
        100.0 * stats.gpu_fraction()
    );

    let cpu_snap = cpu_rt.metrics().snapshot();
    let hits = cpu_snap.get("fmm/scratch_hits").copied().unwrap_or(0);
    let misses = cpu_snap.get("fmm/scratch_misses").copied().unwrap_or(0);
    let chunks = cpu_snap.get("fmm/chunks").copied().unwrap_or(0);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "scratch pool: {hits} hits / {misses} misses  ({:.1}% hit rate)",
        100.0 * hit_rate
    );
    println!("chunk size: {chunk_cells} cells ({chunks} chunk tasks over the timed solves)");

    // Hand-rolled JSON (no serde_json in the offline workspace).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"subgrids_per_solve\": {leaves},");
    let _ = writeln!(json, "  \"iterations\": {iters},");
    let _ = writeln!(json, "  \"chunk_cells\": {chunk_cells},");
    let _ = writeln!(json, "  \"serial_subgrids_per_sec\": {serial_rate:.2},");
    json.push_str("  \"parallel_subgrids_per_sec\": {");
    for (i, (threads, rate)) in thread_rates.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{threads}\": {rate:.2}");
    }
    json.push_str("},\n");
    json.push_str("  \"speedup_vs_serial\": {");
    for (i, (threads, rate)) in thread_rates.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{threads}\": {:.3}", rate / serial_rate);
    }
    json.push_str("},\n");
    json.push_str("  \"task_spans\": {\n");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{}\": {{ \"count\": {}, \"total_ms\": {:.3}, \"max_task_span_us\": {:.1} }}{comma}",
            s.cat.as_str(),
            s.count,
            s.total_ns as f64 / 1e6,
            s.max_ns as f64 / 1e3
        );
    }
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"chunk_tasks\": {chunks},");
    let _ = writeln!(json, "  \"kernel_launches_gpu\": {launches_gpu},");
    let _ = writeln!(json, "  \"kernel_launches_cpu\": {launches_cpu},");
    let _ = writeln!(
        json,
        "  \"gpu_launch_fraction\": {:.4},",
        stats.gpu_fraction()
    );
    let _ = writeln!(json, "  \"scratch_hits\": {hits},");
    let _ = writeln!(json, "  \"scratch_misses\": {misses},");
    let _ = writeln!(json, "  \"scratch_hit_rate\": {hit_rate:.4}");
    json.push_str("}\n");
    std::fs::write("BENCH_fmm.json", &json).expect("write BENCH_fmm.json");
    println!("{}", "-".repeat(64));
    println!("wrote BENCH_fmm.json");
}
