//! The rungs below the workload: per-layer numbers that do not depend
//! on which workload is running — kernel ns/interaction, task spawn
//! cost, raw transport and codec cost, the scale-out simulator, the
//! simulated GPU. Measured in every traced run so each run's report is
//! a complete ladder.

use crate::spans::Recorder;
use crate::workloads::THREADS;
use amt::{when_all, GlobalId, Runtime};
use bytes::Bytes;
use gpusim::device::{Device, DeviceSpec};
use gpusim::launch_policy::QueuePolicy;
use gravity::gpu::GpuContext;
use gravity::kernels::{gather_moments, monopole_kernel, multipole_kernel, MomentGrid, N_CELLS};
use gravity::multipole::Multipole;
use gravity::solver::FmmSolver;
use gravity::stencil::Stencil;
use octotiger::scenarios;
use octree::subgrid::FIELD_COUNT;
use parcelport::cluster::Transport;
use parcelport::libfabric_sim::LibfabricTransport;
use parcelport::mpi_sim::MpiTransport;
use parcelport::netmodel::TransportKind;
use parcelport::parcel::{ActionId, Parcel};
use parcelport::serialize::{from_bytes, to_bytes};
use perfmodel::calibrate::Calibration;
use perfmodel::des::{simulate_scaleout, CommPattern, DesOpts};
use perfmodel::scaling::{efficiency, v1309_structure_tree};
use std::hint::black_box;
use std::sync::Arc;
use util::vec3::Vec3;

/// Flops per interaction of the two §4.3 kernels (the paper's Table 2).
/// The GFLOP/s derived from them are modelled, not counted.
const MONOPOLE_FLOPS: f64 = 12.0;
const MULTIPOLE_FLOPS: f64 = 455.0;
/// Kernel timings are the best of this many launches.
const KERNEL_LAUNCHES: usize = 20;
/// Parcels per transport pump; a face halo (eager path) and a whole
/// sub-grid (rendezvous path) in bytes.
const PUMP_PARCELS: usize = 64;
const EAGER_BYTES: usize = 21_504;
const RENDEZVOUS_BYTES: usize = 230_496;
/// The scale-out point of the paper's Figure 2.
const SCALEOUT_LEVEL: u8 = 14;
const SCALEOUT_NODES: usize = 5400;

pub fn run(rec: &mut Recorder, seed: u64) {
    kernels(rec);
    amt_layer(rec);
    parcelport_layer(rec);
    perfmodel_layer(rec, seed);
    gpusim_layer(rec);
}

/// One gathered sub-grid per kernel, as in `crates/bench/benches/
/// fmm_kernels.rs`: 512 target cells × the Octo-Tiger stencil.
fn kernels(rec: &mut Recorder) {
    let stencil = Stencil::octotiger();
    let interactions = (N_CELLS * stencil.len()) as f64;
    let mono: MomentGrid = gather_moments(stencil.width(), |i, j, k| {
        Some(Multipole::monopole(
            1.0 + ((i * 3 + j * 5 + k * 7).rem_euclid(11)) as f64 * 0.1,
            Vec3::new(i as f64, j as f64, k as f64),
        ))
    });
    let multi: MomentGrid = gather_moments(stencil.width(), |i, j, k| {
        Some(Multipole {
            m: 1.0 + ((i + j + k).rem_euclid(5)) as f64 * 0.2,
            com: Vec3::new(i as f64 + 0.02, j as f64 - 0.01, k as f64),
            q: [
                0.01 * i.rem_euclid(3) as f64,
                0.01 * j.rem_euclid(3) as f64,
                0.02,
                0.003,
                -0.001,
                0.002,
            ],
        })
    });
    let ns =
        1e9 * rec.best_of("gravity.monopole_kernel", KERNEL_LAUNCHES, || {
            black_box(monopole_kernel(black_box(&mono), stencil.offsets()));
        }) / interactions;
    rec.set("gravity.monopole_ns_per_interaction", ns);
    rec.set("gravity.monopole_model_gflops", MONOPOLE_FLOPS / ns);
    let ns =
        1e9 * rec.best_of("gravity.multipole_kernel", KERNEL_LAUNCHES, || {
            black_box(multipole_kernel(black_box(&multi), stencil.offsets()));
        }) / interactions;
    rec.set("gravity.multipole_ns_per_interaction", ns);
    rec.set("gravity.multipole_model_gflops", MULTIPOLE_FLOPS / ns);
}

fn amt_layer(rec: &mut Recorder) {
    const TASKS: usize = 10_000;
    const FUTURES: usize = 1_000;
    let rt = Runtime::new(THREADS);
    let (s, _) = rec.sample("amt.spawn_10k", || {
        for _ in 0..TASKS {
            rt.spawn(|| {});
        }
        rt.wait_quiescent();
    });
    rec.set("amt.spawn_ns_per_task", s * 1e9 / TASKS as f64);
    let sched = Arc::clone(rt.scheduler());
    let (s, _) = rec.sample("amt.when_all_1k", || {
        let futures: Vec<_> = (0..FUTURES).map(|i| rt.async_call(move || i * 2)).collect();
        black_box(when_all(&sched, futures).get_help(&sched));
    });
    rec.set("amt.when_all_ns_per_future", s * 1e9 / FUTURES as f64);
}

/// Send `PUMP_PARCELS` parcels 0 → 1 and drain, as in
/// `benches/parcelport_throughput.rs`: the receiver polls, and for the
/// two-sided transport the sender must progress too (rendezvous).
fn pump(transport: &dyn Transport, payload: &Bytes) {
    for i in 0..PUMP_PARCELS {
        transport.send(
            0,
            Parcel {
                dest_locality: 1,
                dest_component: GlobalId(i as u64),
                action: ActionId(1),
                payload: payload.clone(),
            },
        );
    }
    while transport.in_flight() > 0 {
        transport.progress(1);
        transport.progress(0);
    }
}

fn parcelport_layer(rec: &mut Recorder) {
    let rows: [(&'static str, TransportKind, usize); 4] = [
        (
            "parcelport.lf_us_per_parcel",
            TransportKind::Libfabric,
            EAGER_BYTES,
        ),
        (
            "parcelport.mpi_us_per_parcel",
            TransportKind::Mpi,
            EAGER_BYTES,
        ),
        (
            "parcelport.lf_us_per_parcel_230k",
            TransportKind::Libfabric,
            RENDEZVOUS_BYTES,
        ),
        (
            "parcelport.mpi_us_per_parcel_230k",
            TransportKind::Mpi,
            RENDEZVOUS_BYTES,
        ),
    ];
    for (metric, kind, size) in rows {
        let transport: Box<dyn Transport> = match kind {
            TransportKind::Libfabric => Box::new(LibfabricTransport::new(2)),
            TransportKind::Mpi => Box::new(MpiTransport::new(2)),
        };
        transport.set_delivery(0, Arc::new(|_p| {}));
        transport.set_delivery(
            1,
            Arc::new(|p| {
                black_box(p.payload.len());
            }),
        );
        let payload = Bytes::from(vec![0xABu8; size]);
        let (s, _) = rec.sample(metric, || pump(transport.as_ref(), &payload));
        rec.set(metric, s * 1e6 / PUMP_PARCELS as f64);
    }

    // The codec on what a halo parcel carries: one sub-grid interior.
    let interior: Vec<f64> = (0..FIELD_COUNT * N_CELLS).map(|i| i as f64 * 0.5).collect();
    let mut round_trips = Vec::new();
    let (s, _) = rec.sample("parcelport.codec", || {
        round_trips.push(to_bytes(&interior).and_then(|b| from_bytes::<Vec<f64>>(&b)));
    });
    if round_trips
        .iter()
        .any(|r| r.as_ref().ok() != Some(&interior))
    {
        rec.fail("codec round trip of a sub-grid interior changed it".into());
    }
    rec.set(
        "parcelport.codec_mb_per_s",
        (interior.len() * 8) as f64 / 1e6 / s,
    );
}

/// The co-simulator at the paper's largest point, on a synthetic
/// calibration: host time is what a simulator speed-up moves, the
/// simulated values are what it must leave bit-equal.
fn perfmodel_layer(rec: &mut Recorder, seed: u64) {
    let tree = v1309_structure_tree(SCALEOUT_LEVEL);
    let mut patterns = Vec::new();
    rec.sample_ms("perfmodel.pattern_build_ms", || {
        patterns.push(CommPattern::from_tree(&tree, SCALEOUT_NODES));
    });
    let calib = Calibration::synthetic(2_000_000, 40.0, 12);
    let opts = DesOpts { steps: 8, seed };
    let kind = TransportKind::Libfabric;
    let (Some(Ok(pattern)), Ok(single)) = (patterns.pop(), CommPattern::from_tree(&tree, 1)) else {
        return rec.fail("perfmodel: no communication pattern for the structure tree".into());
    };
    let Ok(reference) = simulate_scaleout(&single, kind, &calib, &opts) else {
        return rec.fail("perfmodel: single-node co-simulation failed".into());
    };

    let mut runs = Vec::new();
    let host_ms = rec.sample_ms("perfmodel.des_host_ms", || {
        runs.push(simulate_scaleout(&pattern, kind, &calib, &opts));
    });
    let mut first: Option<(u64, f64)> = None;
    for run in runs {
        let Ok(run) = run else {
            return rec.fail("perfmodel: scale-out co-simulation failed".into());
        };
        let now = (run.stats.events, run.point.step_time_s);
        match first {
            None => {
                rec.set("perfmodel.des_events", now.0 as f64);
                rec.set(
                    "perfmodel.des_host_ns_per_event",
                    host_ms * 1e6 / now.0 as f64,
                );
                rec.set("perfmodel.des_sim_step_s", now.1);
                let eff = efficiency(&run.point, reference.point.subgrids_per_second);
                rec.set("perfmodel.des_sim_efficiency_5400", eff);
                first = Some(now);
            }
            Some(f) => {
                rec.expect_equal("perfmodel.des_events", f.0, now.0);
                rec.expect_equal(
                    "perfmodel.des_sim_step_s bits",
                    f.1.to_bits(),
                    now.1.to_bits(),
                );
            }
        }
    }
}

/// One solve of the `mini_binary` tree with kernel launches routed
/// through the simulated P100 and fused by the aggregation region.
/// Neither driver builds a GPU context today; this is the baseline for
/// the change that wires one in.
fn gpusim_layer(rec: &mut Recorder) {
    const STREAMS: usize = 4;
    let scenario = (scenarios::spec("mini_binary").expect("registered").build)();
    let tree = Arc::new(scenario.tree);
    let device = Device::new(DeviceSpec::p100(), STREAMS);
    let ctx = GpuContext::new(&device, THREADS, QueuePolicy::CpuFallback);
    let solver = Arc::new(FmmSolver::with_gpu(scenario.config.theta, ctx).with_aggregation(8, 32));
    let rt = Runtime::new(THREADS);
    rec.call("gpusim.solve", || {
        black_box(solver.solve_parallel(&tree, &rt))
    });
    let gpu = solver.gpu().expect("built with a GPU context");
    rec.set("gpusim.gpu_launch_fraction", gpu.stats().gpu_fraction());
    let agg = gpu.agg_stats();
    rec.set(
        "gpusim.agg_collapse",
        agg.items() as f64 / agg.batches().max(1) as f64,
    );
}
