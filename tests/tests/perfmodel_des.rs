//! End-to-end checks of the trace-calibrated scale-out co-simulation
//! (`perfmodel::calibrate` + `perfmodel::des`): a calibration extracted
//! from a *real* traced distributed run must drive the DES to sane
//! Figure-2/3 shapes, and the whole pipeline must be seed-deterministic
//! down to the f64 bits.
//!
//! Trace sessions are process-global and exclusive; like the other
//! integration tests, anything that begins one serializes on
//! `TraceSession::begin`.

use amt::trace::TraceSession;
use hydro::eos::IdealGas;
use integration_tests::{filled_uniform_tree, two_blob_profile};
use octotiger::{Config, DistributedDriver, Scenario};
use octree::shard::ShardMap;
use parcelport::cluster::Cluster;
use parcelport::netmodel::TransportKind;
use perfmodel::scaling::v1309_structure_tree;
use perfmodel::{
    simulate_scaleout, sweep_cadence, Calibration, CheckpointCost, CommPattern, DesOpts,
    Measurements,
};
use std::sync::Arc;

fn blob_scenario() -> Scenario {
    let eos = IdealGas::monatomic();
    let tree = filled_uniform_tree(8.0, 2, &eos, two_blob_profile);
    Scenario {
        name: "two_blob_gravity",
        tree,
        config: Config { eos, ..Config::self_gravitating() },
        binary: None,
    }
}

/// Same tree, same calibration, same opts → bit-identical results, on
/// every transport; a different seed must actually change the outcome.
#[test]
fn co_simulation_is_bit_deterministic() {
    let tree = v1309_structure_tree(10);
    let pattern = CommPattern::from_tree(&tree, 64).expect("pattern");
    let calib = Calibration::synthetic(400_000, 3.0, 12);
    for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
        let opts = DesOpts { steps: 3, seed: 0xDE5 };
        let a = simulate_scaleout(&pattern, kind, &calib, &opts).expect("run a");
        let b = simulate_scaleout(&pattern, kind, &calib, &opts).expect("run b");
        assert_eq!(
            a.point.step_time_s.to_bits(),
            b.point.step_time_s.to_bits(),
            "{kind:?}: same seed must reproduce the step time bit-for-bit"
        );
        let bits = |r: &perfmodel::ScaleoutResult| {
            r.step_times_s.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b), "{kind:?}: per-step times must match bit-for-bit");
        let c = simulate_scaleout(&pattern, kind, &calib, &DesOpts { steps: 3, seed: 0xDE6 })
            .expect("run c");
        assert_ne!(
            a.point.step_time_s.to_bits(),
            c.point.step_time_s.to_bits(),
            "{kind:?}: a different seed must perturb the sampled outcome"
        );
    }
}

/// Calibrate from a real traced 2-locality run, then drive the DES with
/// it: the round trip must preserve the measured facts and produce
/// finite, transport-sensitive scaling points.
#[test]
fn calibration_roundtrip_drives_the_des() {
    let plan_tree = blob_scenario().tree;
    let map = ShardMap::partition(&plan_tree, 2).expect("shard map");
    let plan_parcels_per_step: u64 = map
        .halo_push_plan(&plan_tree)
        .iter()
        .flat_map(|by_dst| by_dst.values())
        .map(|keys| keys.len() as u64)
        .sum();
    assert!(plan_parcels_per_step > 0, "2-shard plan must exchange halos");

    let cluster = Arc::new(
        Cluster::builder()
            .localities(2)
            .threads_per(2)
            .transport(TransportKind::Libfabric)
            .build(),
    );
    let mut driver = DistributedDriver::builder(blob_scenario(), cluster).build().expect("driver");
    let session = TraceSession::begin();
    for _ in 0..2 {
        driver.step().expect("distributed step");
    }
    let trace = session.end();
    let metrics = driver.cluster().metrics().snapshot();
    let subgrids = map.n_leaves();

    let calib = Calibration::from_measurements(&Measurements {
        trace: &trace,
        metrics: &metrics,
        subgrids,
        steps: 2,
        threads: 2,
        transport: TransportKind::Libfabric,
        plan_parcels_per_step,
        agg_items: 64,
        agg_batches: 8,
        launch_overhead_us: 5.0,
        checkpoint: CheckpointCost { encode_s: 1e-3, restore_s: 1e-2, subgrids },
    })
    .expect("calibration from measured run");

    // The measured facts must survive extraction.
    assert!(
        calib.kernels.iter().any(|k| k.hist.count() > 0),
        "a self-gravitating run must measure at least one kernel category"
    );
    assert!(calib.mean_compute_ns_per_subgrid() > 0.0);
    assert!(calib.utilization > 0.0 && calib.utilization <= 1.0);
    assert!(calib.parcel_bytes.count() > 0, "parcel sizes must be measured");
    assert!(calib.parcel_send_cpu.count() > 0, "send CPU must be measured");
    assert!(calib.parcel_recv_cpu.count() > 0, "recv CPU must be measured");
    assert!(calib.parcel_amplification >= 1.0);

    // And drive the DES to finite, scale-sensitive results.
    let tree = v1309_structure_tree(10);
    let opts = DesOpts::default();
    let mut prev = f64::INFINITY;
    for localities in [1usize, 4, 16] {
        let pattern = CommPattern::from_tree(&tree, localities).expect("pattern");
        let r = simulate_scaleout(&pattern, TransportKind::Libfabric, &calib, &opts)
            .expect("co-simulation");
        assert!(
            r.point.step_time_s.is_finite() && r.point.step_time_s > 0.0,
            "step time must be finite and positive at {localities} localities"
        );
        assert!(
            r.point.step_time_s < prev,
            "throughput must still scale at small locality counts"
        );
        prev = r.point.step_time_s;
    }
}

/// Fig 3 shape at small N: the libfabric:MPI throughput ratio must not
/// shrink as localities grow, and the cadence sweep must be reusable
/// from the same calibration.
#[test]
fn transport_ratio_grows_and_cadence_sweep_runs() {
    let tree = v1309_structure_tree(10);
    let mut calib = Calibration::synthetic(400_000, 3.0, 12);
    calib.parcel_amplification = 10.0;
    let opts = DesOpts::default();
    let mut ratios = Vec::new();
    for localities in [1usize, 16, 64] {
        let pattern = CommPattern::from_tree(&tree, localities).expect("pattern");
        let mpi = simulate_scaleout(&pattern, TransportKind::Mpi, &calib, &opts).expect("mpi");
        let lf = simulate_scaleout(&pattern, TransportKind::Libfabric, &calib, &opts)
            .expect("libfabric");
        ratios.push(lf.point.subgrids_per_second / mpi.point.subgrids_per_second);
    }
    // Nondecreasing up to sampling noise: once comm saturates, the
    // ratio plateaus at the per-message CPU ratio and jitters a little.
    assert!(
        ratios.windows(2).all(|w| w[1] >= w[0] * 0.95),
        "libfabric:MPI ratio must be nondecreasing in scale, got {ratios:?}"
    );
    assert!(
        ratios[ratios.len() - 1] > ratios[0],
        "communication pressure at 64 localities must favor libfabric, got {ratios:?}"
    );

    let points =
        sweep_cadence(0.5, 1024, 4096, &calib, 86_400.0, &[1, 3, 10, 30, 100], 2_000, 42);
    assert_eq!(points.len(), 5);
    assert!(points.iter().all(|p| p.overhead >= 1.0 && p.wall_s.is_finite()));
    let best = points
        .iter()
        .min_by(|a, b| a.overhead.total_cmp(&b.overhead))
        .expect("nonempty sweep");
    assert!(
        best.cadence != 1 && best.cadence != 100,
        "optimum cadence must be interior to the sweep, got {}",
        best.cadence
    );
}
