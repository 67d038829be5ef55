//! GPU co-processor integration: real FMM kernels executed through the
//! simulated CUDA streams must produce bit-identical results to direct
//! CPU execution (§5.1: "the stencil-based computation ... is done the
//! same way as on the CPU"), and the event futures must chain into the
//! AMT task graph.

use amt::Runtime;
use gpusim::device::{Device, DeviceSpec};
use gpusim::launch_policy::{LaunchOutcome, QueuePolicy, StreamPool};
use gravity::kernels::{gather_moments, monopole_kernel, MomentGrid};
use gravity::multipole::Multipole;
use gravity::stencil::Stencil;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use util::vec3::Vec3;

fn test_grid(width: i32) -> MomentGrid {
    gather_moments(width, |i, j, k| {
        Some(Multipole::monopole(
            1.0 + ((i * 13 + j * 5 + k).rem_euclid(9)) as f64 * 0.25,
            Vec3::new(i as f64, j as f64, k as f64),
        ))
    })
}

#[test]
fn gpu_execution_is_bit_identical_to_cpu() {
    let stencil = Arc::new(Stencil::octotiger());
    let cpu_result = monopole_kernel(&test_grid(stencil.width()), stencil.offsets());

    let device = Device::new(DeviceSpec::p100(), 4);
    let streams = device.streams();
    let result: Arc<Mutex<Option<Vec<f64>>>> = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&result);
    let st = Arc::clone(&stencil);
    streams[0].enqueue(move || {
        let r = monopole_kernel(&test_grid(st.width()), st.offsets());
        *sink.lock().unwrap() = Some(r.expansions.iter().map(|e| e.phi).collect());
    });
    streams[0].synchronize();
    let gpu_phis = result.lock().unwrap().take().expect("kernel ran");
    assert_eq!(gpu_phis.len(), cpu_result.expansions.len());
    for (g, c) in gpu_phis.iter().zip(cpu_result.expansions.iter()) {
        assert_eq!(g.to_bits(), c.phi.to_bits(), "GPU result differs from CPU");
    }
    device.shutdown();
}

#[test]
fn launch_policy_drives_many_kernels_through_the_runtime() {
    // The §5.1 pattern end to end: AMT tasks launching FMM kernels via
    // the stream pool, falling back to the CPU under pressure, with
    // event futures synchronizing completion.
    let rt = Runtime::new(4);
    let device = Device::new(DeviceSpec::v100(), 8);
    let pools: Vec<Arc<StreamPool>> =
        StreamPool::partition(device.streams(), 4, QueuePolicy::CpuFallback)
            .into_iter()
            .map(Arc::new)
            .collect();
    let stencil = Arc::new(Stencil::octotiger());
    // Each kernel counts where it really ran: (all runs, device runs).
    let ran = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));

    let n = 32;
    let futures: Vec<_> = (0..n)
        .map(|i| {
            let pool = Arc::clone(&pools[i % pools.len()]);
            let st = Arc::clone(&stencil);
            let ran = Arc::clone(&ran);
            rt.async_call(move || {
                let grid = test_grid(st.width());
                let offsets: Vec<_> = st.offsets().to_vec();
                match pool.launch(vec![Box::new(move |on_gpu| {
                    let r = monopole_kernel(&grid, &offsets);
                    assert!(r.interactions > 0);
                    ran.0.fetch_add(1, Ordering::SeqCst);
                    ran.1.fetch_add(on_gpu as u64, Ordering::SeqCst);
                })]) {
                    LaunchOutcome::Gpu(ev) => {
                        ev.get();
                        1u32
                    }
                    LaunchOutcome::CpuFallback(items) => {
                        for item in items {
                            item(false);
                        }
                        0u32
                    }
                }
            })
        })
        .collect();
    let mut gpu_count = 0;
    for f in futures {
        gpu_count += rt.get(f);
    }
    assert_eq!(ran.0.load(Ordering::SeqCst), n as u64, "every kernel must run once");
    assert_eq!(ran.1.load(Ordering::SeqCst), gpu_count as u64, "the device ran the GPU launches");
    assert!(gpu_count > 0, "at least some kernels must reach the GPU");
    device.shutdown();
}

#[test]
fn queue_on_busy_reaches_full_gpu_fraction() {
    // The §6.1.2 proposed fix as an ablation: queueing on busy streams
    // puts 100% of kernels on the GPU even under pressure.
    let device = Device::new(DeviceSpec::p100(), 2);
    let pools = StreamPool::partition(device.streams(), 1, QueuePolicy::QueueOnBusy);
    let on_gpu = Arc::new(AtomicU64::new(0));
    let mut last = None;
    for _ in 0..64 {
        let g = Arc::clone(&on_gpu);
        match pools[0].launch(vec![Box::new(move |gpu| {
            std::thread::sleep(std::time::Duration::from_micros(50));
            g.fetch_add(gpu as u64, Ordering::SeqCst);
        })]) {
            LaunchOutcome::Gpu(ev) => last = Some(ev),
            LaunchOutcome::CpuFallback(_) => panic!("QueueOnBusy must never fall back"),
        }
    }
    // The two streams run in order, so once every stream has drained
    // all 64 kernels ran, every one on the device.
    last.unwrap().get();
    pools[0].synchronize();
    assert_eq!(on_gpu.load(Ordering::SeqCst), 64);
    device.shutdown();
}
