//! Trace-calibrated scale-out co-simulation — the data behind
//! REPRODUCTION.md's Figures 2 and 3.
//!
//! The paper's Figures 2 and 3 are measured on up to 5400 Piz Daint
//! nodes. It runs on one host (the JSON records its `host_cpus`), so
//! this bin reproduces the *shapes* of those figures by calibration +
//! co-simulation:
//!
//! 1. **Measure** — run the real distributed TVD-RK2 driver (star_amr,
//!    2 localities) under an [`amt::trace`] session and extract a
//!    [`Calibration`]: per-category kernel-duration histograms, parcel
//!    payload sizes from `parcel/send` span labels, the
//!    parcels-per-step amplification over the leaf-halo push plan,
//!    worker utilization, the GPU launch-aggregation collapse of an FMM
//!    solve's items replayed in virtual time, and a timed checkpoint
//!    encode/restore round-trip. No hand-entered kernel constants anywhere.
//! 2. **Co-simulate** — run the [`perfmodel::des`] step recurrence over the
//!    real level-14 V1309 octree decomposition at 1…5400 simulated
//!    localities × {MPI, libfabric}, producing Fig-2 throughput /
//!    efficiency curves and the Fig-3 transport ratio.
//! 3. **Sweep cadence** — replay the simulated step time through the
//!    failure/rewind Monte Carlo at several node MTBFs, using the
//!    *measured* checkpoint costs, and locate the Young–Daly optimum.
//!
//! The paper-shape properties are machine-checked (panic on violation):
//! the libfabric:MPI ratio dips below 1 at one locality and reaches at
//! least 1.05 at 5400 (Fig. 3), parallel efficiency rolls off toward
//! 5400 localities and lands inside (0.05, 0.85) there (Fig. 2, "too
//! little work per node"), and every cadence sweep has an interior
//! optimum. The human-readable tables go to
//! stderr; stdout carries one JSON object (calibration, both transport
//! curves, the crossover and the cadence sweep).
//!
//! ```sh
//! cargo run --release -p bench --bin fig23_scaleout [steps] > scaleout.json
//! ```

use amt::trace::TraceSession;
use amt::Runtime;
use gravity::gpu::GpuContext;
use gravity::solver::FmmSolver;
use gpusim::device::{Device, DeviceSpec};
use gpusim::launch_policy::QueuePolicy;
use octotiger::{DistributedDriver, Scenario};
use octree::shard::ShardMap;
use parcelport::cluster::Cluster;
use parcelport::netmodel::TransportKind;
use perfmodel::calibrate::{Calibration, CheckpointCost, Measurements};
use perfmodel::des::{simulate_scaleout, sweep_cadence, CommPattern, DesOpts};
use perfmodel::scaling::{efficiency, v1309_structure_tree};
use perfmodel::ScaleoutResult;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Simulated locality counts — Piz Daint's full 5400 nodes at the top.
const LOCALITIES: &[usize] = &[1, 2, 8, 64, 256, 1024, 2048, 4096, 5400];
/// V1309 refinement level fed to the co-simulation (the paper's
/// smallest Figure-2 level; 13560 sub-grids).
const LEVEL: u8 = 14;
/// Worker threads per *simulated* locality — the Piz Daint node's 12
/// cores (Table 3). A machine parameter, not a workload calibration.
const SIM_THREADS: usize = 12;

/// One solve over the measured tree, its items replayed with 8-slot
/// aggregation → (items, fused launches), the launch-collapse input of
/// the calibration (deterministic: a virtual-time replay).
fn measure_aggregation() -> (u64, u64) {
    let scenario = Scenario::star_amr();
    let tree = Arc::new(scenario.tree);
    let dev = Device::new(DeviceSpec::p100(), 8);
    let solver = Arc::new(
        FmmSolver::with_gpu(0.5, GpuContext::new(&dev, 4, QueuePolicy::QueueOnBusy))
            .with_aggregation(8, 32),
    );
    let rt = Runtime::new(4);
    let _ = solver.solve_parallel(&tree, &rt);
    let agg = solver.gpu().expect("gpu context").agg_stats();
    (agg.items_gpu(), agg.batches_gpu())
}

/// Everything the measurement phase produces.
struct Measured {
    calib: Calibration,
    measured_subgrids: usize,
    measured_steps: usize,
    plan_parcels_per_step: u64,
    checkpoint: CheckpointCost,
}

/// Run the real distributed driver traced, time a checkpoint
/// round-trip, and extract the calibration.
fn measure(steps: usize) -> Measured {
    const MEASURED_LOCALITIES: usize = 2;
    const MEASURED_THREADS: usize = 2;

    // The leaf-halo push plan of the measured topology — the
    // amplification denominator.
    let plan_tree = Scenario::star_amr().tree;
    let map = ShardMap::partition(&plan_tree, MEASURED_LOCALITIES).expect("shard map");
    let plan_parcels_per_step: u64 = map
        .halo_push_plan(&plan_tree)
        .iter()
        .flat_map(|by_dst| by_dst.values())
        .map(|keys| keys.len() as u64)
        .sum();

    let cluster = Arc::new(
        Cluster::builder()
            .localities(MEASURED_LOCALITIES)
            .threads_per(MEASURED_THREADS)
            .transport(TransportKind::Libfabric)
            .build(),
    );
    let mut driver =
        DistributedDriver::builder(Scenario::star_amr(), cluster).build().expect("driver");
    let session = TraceSession::begin();
    for _ in 0..steps {
        driver.step().expect("distributed step");
    }
    let trace = session.end();
    let metrics = driver.cluster().metrics().snapshot();

    // Measured checkpoint round-trip on the same state.
    let t0 = Instant::now();
    let blob = driver.checkpoint().expect("checkpoint");
    let encode_s = t0.elapsed().as_secs_f64();
    let fresh = Arc::new(
        Cluster::builder()
            .localities(MEASURED_LOCALITIES)
            .threads_per(MEASURED_THREADS)
            .transport(TransportKind::Libfabric)
            .build(),
    );
    let t0 = Instant::now();
    let restored = DistributedDriver::restore(Scenario::star_amr(), fresh, &blob).expect("restore");
    let restore_s = t0.elapsed().as_secs_f64();
    assert_eq!(restored.steps, driver.steps, "restore must resume at the same step");

    let measured_subgrids = map.n_leaves();
    let (agg_items, agg_batches) = measure_aggregation();
    let checkpoint =
        CheckpointCost { encode_s, restore_s, subgrids: measured_subgrids };
    let mut calib = Calibration::from_measurements(&Measurements {
        trace: &trace,
        metrics: &metrics,
        subgrids: measured_subgrids,
        steps,
        threads: MEASURED_THREADS,
        transport: TransportKind::Libfabric,
        plan_parcels_per_step,
        agg_items,
        agg_batches,
        launch_overhead_us: DeviceSpec::p100().launch_overhead_us,
        checkpoint,
    })
    .expect("calibration");
    // Simulated localities are Piz Daint nodes (12 workers, Table 3);
    // the thread count is machine configuration, not workload.
    calib.threads = SIM_THREADS;
    Measured {
        calib,
        measured_subgrids,
        measured_steps: steps,
        plan_parcels_per_step,
        checkpoint,
    }
}

struct SweptTransport {
    kind: TransportKind,
    results: Vec<ScaleoutResult>,
    /// Parallel efficiency of each point against this transport's
    /// 1-locality throughput.
    efficiencies: Vec<f64>,
}

fn sweep_transport(
    patterns: &[CommPattern],
    kind: TransportKind,
    calib: &Calibration,
) -> SweptTransport {
    let opts = DesOpts::default();
    let results: Vec<ScaleoutResult> = patterns
        .iter()
        .map(|p| simulate_scaleout(p, kind, calib, &opts).expect("co-simulation"))
        .collect();
    let reference = results[0].point.subgrids_per_second / results[0].point.nodes as f64;
    let efficiencies =
        results.iter().map(|r| efficiency(&r.point, reference)).collect();
    SweptTransport { kind, results, efficiencies }
}

struct CadenceSweep {
    mtbf_node_years: f64,
    best_cadence: u32,
    best_overhead: f64,
    young_daly_steps: f64,
    points: Vec<(u32, f64)>,
}

/// Sweep checkpoint cadence around the Young–Daly prediction for each
/// node MTBF, using the measured per-sub-grid checkpoint costs.
fn sweep_cadences(
    step_time_s: f64,
    localities: usize,
    subgrids: usize,
    calib: &Calibration,
) -> Vec<CadenceSweep> {
    const YEAR_S: f64 = 365.25 * 86_400.0;
    let mut out = Vec::new();
    for mtbf_node_years in [0.5, 1.0, 5.0] {
        let mtbf_node_s = mtbf_node_years * YEAR_S;
        let mtbf_global_s = mtbf_node_s / localities as f64;
        let ckpt_s = calib.checkpoint_encode_s_per_subgrid * subgrids as f64;
        // Young–Daly optimal checkpoint interval, in steps.
        let young_daly_steps =
            (2.0 * ckpt_s * mtbf_global_s).sqrt() / step_time_s;
        let c = young_daly_steps.round().max(1.0) as u32;
        let mut cadences: Vec<u32> =
            [c / 16, c / 4, c, c * 4, c * 16].iter().map(|&x| x.max(1)).collect();
        cadences.dedup();
        // Horizon long enough to see O(100) failures (capped for time).
        let horizon =
            ((200.0 * mtbf_global_s / step_time_s) as u64).clamp(50_000, 20_000_000);
        let pts = sweep_cadence(
            step_time_s,
            localities,
            subgrids,
            calib,
            mtbf_node_s,
            &cadences,
            horizon,
            0xFA_117,
        );
        let best = pts
            .iter()
            .min_by(|a, b| a.overhead.total_cmp(&b.overhead))
            .expect("non-empty sweep");
        let first = pts.first().expect("non-empty");
        let last = pts.last().expect("non-empty");
        assert!(
            best.overhead <= first.overhead && best.overhead <= last.overhead,
            "cadence optimum must be interior (mtbf {mtbf_node_years}y): \
             best c={} {:.4} vs ends {:.4}/{:.4}",
            best.cadence,
            best.overhead,
            first.overhead,
            last.overhead
        );
        out.push(CadenceSweep {
            mtbf_node_years,
            best_cadence: best.cadence,
            best_overhead: best.overhead,
            young_daly_steps,
            points: pts.iter().map(|p| (p.cadence, p.overhead)).collect(),
        });
    }
    // Rarer failures → sparser checkpoints.
    for w in out.windows(2) {
        assert!(
            w[1].best_cadence >= w[0].best_cadence,
            "optimal cadence must grow with MTBF: {} then {}",
            w[0].best_cadence,
            w[1].best_cadence
        );
    }
    out
}

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
        .max(1);
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    eprintln!("trace-calibrated scale-out co-simulation (level {LEVEL}, {host_cpus} host CPUs)");
    eprintln!("{}", "-".repeat(78));

    // ---- 1. Measure. ----
    let m = measure(steps);
    let calib = &m.calib;
    eprintln!(
        "calibration: {} kernel categories, {:.1} µs mean compute / sub-grid / step",
        calib.kernels.iter().filter(|k| k.hist.count() > 0).count(),
        calib.mean_compute_ns_per_subgrid() / 1e3
    );
    eprintln!(
        "  utilization {:.2}  parcel mean {:.0} B  amplification {:.1}x  \
         launch collapse {:.1}x",
        calib.utilization,
        calib.mean_parcel_bytes(),
        calib.parcel_amplification,
        calib.agg_collapse
    );
    eprintln!(
        "  checkpoint {:.3} ms encode / {:.3} ms restore per sub-grid (measured over {})",
        calib.checkpoint_encode_s_per_subgrid * 1e3,
        calib.checkpoint_restore_s_per_subgrid * 1e3,
        m.measured_subgrids
    );

    // ---- 2. Co-simulate the sweep. ----
    let tree = v1309_structure_tree(LEVEL);
    let t0 = Instant::now();
    let patterns: Vec<CommPattern> = LOCALITIES
        .iter()
        .map(|&n| CommPattern::from_tree(&tree, n).expect("pattern"))
        .collect();
    eprintln!(
        "decomposed level-{LEVEL} tree ({} sub-grids) for {} locality counts in {:.1} s",
        patterns[0].subgrids,
        patterns.len(),
        t0.elapsed().as_secs_f64()
    );
    let t0 = Instant::now();
    let mpi = sweep_transport(&patterns, TransportKind::Mpi, calib);
    let lf = sweep_transport(&patterns, TransportKind::Libfabric, calib);
    eprintln!("co-simulated {} points in {:.1} s", 2 * patterns.len(), t0.elapsed().as_secs_f64());
    eprintln!("{}", "-".repeat(78));
    eprintln!(
        "{:>10} {:>14} {:>9} {:>14} {:>9} {:>8}",
        "localities", "MPI sg/s", "eff", "libfabric sg/s", "eff", "lf:MPI"
    );
    let mut ratios = Vec::new();
    for i in 0..patterns.len() {
        let mp = &mpi.results[i].point;
        let lp = &lf.results[i].point;
        let ratio = lp.subgrids_per_second / mp.subgrids_per_second;
        ratios.push(ratio);
        eprintln!(
            "{:>10} {:>14.0} {:>9.3} {:>14.0} {:>9.3} {:>8.3}",
            mp.nodes, mp.subgrids_per_second, mpi.efficiencies[i],
            lp.subgrids_per_second, lf.efficiencies[i], ratio
        );
    }

    // ---- Machine-checked Fig-2/3 shape assertions. ----
    assert!(LOCALITIES.len() >= 5, "need at least 5 locality counts");
    assert!(
        ratios[0] <= 1.0,
        "Fig 3 left edge: libfabric must dip below parity at 1 locality, got {}",
        ratios[0]
    );
    let last = ratios.len() - 1;
    assert!(
        ratios[last] >= 1.05,
        "Fig 3: libfabric must be clearly ahead of MPI at 5400 localities, ratio {}",
        ratios[last]
    );
    let i64n = LOCALITIES.iter().position(|&n| n == 64).expect("64 in sweep");
    assert!(
        ratios[last] > ratios[0],
        "Fig 3: the transport ratio must grow with scale ({} -> {})",
        ratios[0],
        ratios[last]
    );
    let crossover = LOCALITIES
        .iter()
        .zip(&ratios)
        .find(|(_, &r)| r > 1.0)
        .map(|(&n, _)| n);
    eprintln!(
        "transport crossover at {} localities; ratio at 5400 = {:.2}",
        crossover.map_or("none".to_string(), |n| n.to_string()),
        ratios[last]
    );
    assert!(
        lf.efficiencies[last] > 0.05 && lf.efficiencies[last] < 0.85,
        "Fig 2: efficiency {} at 5400 localities outside (0.05, 0.85) — comm-bound, not collapsed",
        lf.efficiencies[last]
    );
    assert!(
        lf.efficiencies[last] < 0.9 * lf.efficiencies[i64n],
        "Fig 2: efficiency must roll off toward 5400 localities ({} vs {} at 64)",
        lf.efficiencies[last],
        lf.efficiencies[i64n]
    );

    // ---- 3. Checkpoint cadence vs MTBF. ----
    let step_5400 = lf.results[last].point.step_time_s;
    let cadences = sweep_cadences(step_5400, LOCALITIES[last], patterns[last].subgrids, calib);
    eprintln!("{}", "-".repeat(78));
    eprintln!("checkpoint cadence at 5400 localities (step {:.3} s, measured ckpt costs):", step_5400);
    for c in &cadences {
        eprintln!(
            "  node MTBF {:>4}y: best every {:>6} steps (Young-Daly {:>8.0}), overhead {:.4}",
            c.mtbf_node_years, c.best_cadence, c.young_daly_steps, c.best_overhead
        );
    }

    // ---- The JSON object on stdout. ----
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"level\": {LEVEL},");
    let _ = writeln!(s, "  \"subgrids\": {},", patterns[0].subgrids);
    let _ = writeln!(s, "  \"sim_threads\": {SIM_THREADS},");
    let _ = writeln!(s, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(s, "  \"calibration\": {{");
    let _ = writeln!(s, "    \"measured_scenario\": \"star_amr\",");
    let _ = writeln!(s, "    \"measured_localities\": 2,");
    let _ = writeln!(s, "    \"measured_subgrids\": {},", m.measured_subgrids);
    let _ = writeln!(s, "    \"measured_steps\": {},", m.measured_steps);
    let _ = writeln!(
        s,
        "    \"kernel_categories\": {},",
        calib.kernels.iter().filter(|k| k.hist.count() > 0).count()
    );
    let _ = writeln!(
        s,
        "    \"mean_compute_us_per_subgrid\": {:.2},",
        calib.mean_compute_ns_per_subgrid() / 1e3
    );
    let _ = writeln!(s, "    \"utilization\": {:.4},", calib.utilization);
    let _ = writeln!(s, "    \"parcel_mean_bytes\": {:.0},", calib.mean_parcel_bytes());
    let _ = writeln!(s, "    \"plan_parcels_per_step\": {},", m.plan_parcels_per_step);
    let _ = writeln!(s, "    \"parcel_amplification\": {:.2},", calib.parcel_amplification);
    let _ = writeln!(s, "    \"agg_collapse\": {:.2},", calib.agg_collapse);
    let _ = writeln!(s, "    \"launch_overhead_us\": {:.1},", calib.launch_overhead_us);
    let _ = writeln!(s, "    \"checkpoint_encode_ms\": {:.3},", m.checkpoint.encode_s * 1e3);
    let _ = writeln!(s, "    \"checkpoint_restore_ms\": {:.3}", m.checkpoint.restore_s * 1e3);
    let _ = writeln!(s, "  }},");
    for t in [&mpi, &lf] {
        let _ = writeln!(s, "  \"{}\": [", t.kind.as_str());
        for (i, r) in t.results.iter().enumerate() {
            let comma = if i + 1 == t.results.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{ \"localities\": {}, \"step_s\": {:.6}, \
                 \"subgrids_per_sec\": {:.1}, \"efficiency\": {:.4} }}{comma}",
                r.point.nodes, r.point.step_time_s, r.point.subgrids_per_second,
                t.efficiencies[i]
            );
        }
        let _ = writeln!(s, "  ],");
    }
    let _ = writeln!(
        s,
        "  \"crossover_localities\": {},",
        crossover.map_or("null".to_string(), |n| n.to_string())
    );
    let _ = writeln!(s, "  \"ratio_at_1\": {:.4},", ratios[0]);
    let _ = writeln!(s, "  \"ratio_at_5400\": {:.4},", ratios[last]);
    let _ = writeln!(s, "  \"efficiency_at_5400\": {:.4},", lf.efficiencies[last]);
    let _ = writeln!(s, "  \"cadence\": [");
    for (i, c) in cadences.iter().enumerate() {
        let comma = if i + 1 == cadences.len() { "" } else { "," };
        let mut pts = String::new();
        for (j, (cad, ov)) in c.points.iter().enumerate() {
            let pcomma = if j + 1 == c.points.len() { "" } else { ", " };
            let _ = write!(pts, "[{cad}, {ov:.4}]{pcomma}");
        }
        let _ = writeln!(
            s,
            "    {{ \"mtbf_node_years\": {}, \"best_cadence\": {}, \
             \"best_overhead\": {:.4}, \"young_daly_steps\": {:.0}, \
             \"points\": [{pts}] }}{comma}",
            c.mtbf_node_years, c.best_cadence, c.best_overhead, c.young_daly_steps
        );
    }
    s.push_str("  ]\n}");
    println!("{s}");
}
