//! GPU co-processor offload demo (§5.1): FMM kernels launched onto
//! simulated CUDA streams with futures for completion, CPU fallback
//! when all streams are busy, and the launch fraction of §6.1.2. Each
//! kernel is a one-item launch; `gravity::gpu::GpuContext` batches
//! them.
//!
//! ```sh
//! cargo run --release -p examples --bin gpu_offload
//! ```

use amt::Runtime;
use gpusim::device::{Device, DeviceSpec};
use gpusim::launch_policy::{LaunchOutcome, QueuePolicy, StreamPool};
use gravity::kernels::{gather_moments, monopole_kernel, MomentGrid};
use gravity::multipole::Multipole;
use gravity::stencil::Stencil;
use std::sync::Arc;
use util::vec3::Vec3;

fn sample_grid(width: i32) -> MomentGrid {
    gather_moments(width, |i, j, k| {
        Some(Multipole::monopole(
            1.0 + ((i * 3 + j * 5 + k * 7) % 11) as f64 * 0.1,
            Vec3::new(i as f64, j as f64, k as f64),
        ))
    })
}

fn main() {
    println!("GPU offload demo: many small FMM kernels on CUDA streams\n");
    let rt = Runtime::new(4);
    let device = Device::new(DeviceSpec::p100(), 16);
    println!(
        "device: {} ({} SMs, {} streams)",
        device.spec().name,
        device.spec().sm_count,
        16
    );

    let pools = StreamPool::partition(device.streams(), 4, QueuePolicy::CpuFallback);
    let pools: Vec<Arc<StreamPool>> = pools.into_iter().map(Arc::new).collect();
    let stencil = Arc::new(Stencil::octotiger());

    // Launch 64 FMM kernel tasks from 4 "worker threads" (AMT tasks),
    // each following the §5.1 policy.
    let n_kernels = 64;
    let mut events = Vec::new();
    for n in 0..n_kernels {
        let pool = Arc::clone(&pools[n % pools.len()]);
        let stencil = Arc::clone(&stencil);
        events.push(rt.async_call(move || {
            let grid = sample_grid(stencil.width());
            let offsets: Vec<_> = stencil.offsets().to_vec();
            match pool.launch(vec![Box::new(move |_on_gpu| {
                let result = monopole_kernel(&grid, &offsets);
                assert!(result.interactions > 0);
            })]) {
                LaunchOutcome::Gpu(ev) => {
                    // The §5.1 future: wait via the runtime, not a spin.
                    ev.get();
                    "gpu"
                }
                LaunchOutcome::CpuFallback(items) => {
                    for item in items {
                        item(false);
                    }
                    "cpu"
                }
            }
        }));
    }
    let mut gpu = 0;
    let mut cpu = 0;
    for ev in events {
        match rt.get(ev) {
            "gpu" => gpu += 1,
            _ => cpu += 1,
        }
    }
    println!("\nkernels executed: {} on GPU, {} on CPU fallback", gpu, cpu);
    println!(
        "launch fraction: {:.4}% GPU (paper §6.1.2: 97.4995%-99.9997%",
        100.0 * gpu as f64 / n_kernels as f64
    );
    println!("depending on the worker:stream ratio)");
    println!("device kernel count: {}", device.kernels_executed());
    device.shutdown();
    println!("\nStream events integrate into the task graph exactly like HPX");
    println!("CUDA futures: dependent work schedules when the GPU finishes.");
}
