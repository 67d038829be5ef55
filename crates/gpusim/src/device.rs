//! Simulated devices and their hardware models.
//!
//! [`DeviceSpec`] carries the characteristics of the accelerators and
//! CPUs evaluated in Table 2 of the paper; [`Device`] is a live simulated
//! co-processor executing stream work on a dedicated host thread.

use crate::stream::{CudaStream, StreamShared};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Hardware model of a compute device (GPU or CPU used as a kernel
/// execution target). Peak numbers are double precision.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    pub name: &'static str,
    /// Streaming multiprocessors (GPU) or cores (CPU).
    pub sm_count: u32,
    /// Theoretical double-precision peak of the whole device, GFLOP/s.
    pub dp_peak_gflops: f64,
    /// Kernel launch overhead, microseconds.
    pub launch_overhead_us: f64,
}

impl DeviceSpec {
    /// NVIDIA Tesla P100 (Piz Daint's accelerator, Table 3): 56 SMs,
    /// 4.7 TFLOP/s double precision.
    pub fn p100() -> DeviceSpec {
        DeviceSpec {
            name: "NVIDIA Tesla P100",
            sm_count: 56,
            dp_peak_gflops: 4700.0,
            launch_overhead_us: 5.0,
        }
    }

    /// NVIDIA Tesla V100 (PCIe): 80 SMs, 7.0 TFLOP/s double precision.
    pub fn v100() -> DeviceSpec {
        DeviceSpec {
            name: "NVIDIA Tesla V100",
            sm_count: 80,
            dp_peak_gflops: 7000.0,
            launch_overhead_us: 5.0,
        }
    }

    /// Intel Xeon E5-2660 v3, 10 cores @ 2.4 GHz. Peak = cores × clock ×
    /// 16 DP flops/cycle (AVX2 FMA on 2 ports) = 384 GFLOP/s; the paper's
    /// fractions of peak are consistent with ~416 GFLOP/s for 10 cores
    /// (125/0.30), i.e. they include the all-core turbo; we use the
    /// nominal number the paper states it used (base clock).
    pub fn xeon_e5_2660v3(cores: u32) -> DeviceSpec {
        DeviceSpec {
            name: "Intel Xeon E5-2660 v3",
            sm_count: cores,
            dp_peak_gflops: cores as f64 * 2.4 * 16.0,
            launch_overhead_us: 0.0,
        }
    }

    /// Intel Xeon E5-2690 v3, 12 cores @ 2.6 GHz (the Piz Daint host CPU
    /// of Table 3).
    pub fn xeon_e5_2690v3() -> DeviceSpec {
        DeviceSpec {
            name: "Intel Xeon E5-2690 v3",
            sm_count: 12,
            dp_peak_gflops: 12.0 * 2.6 * 16.0,
            launch_overhead_us: 0.0,
        }
    }

    /// Intel Xeon Phi 7210 (Knights Landing), 64 cores @ 1.3 GHz, AVX-512
    /// (32 DP flops/cycle): 2662 GFLOP/s at base clock, as the paper
    /// assumes for its fraction-of-peak numbers.
    pub fn xeon_phi_7210() -> DeviceSpec {
        DeviceSpec {
            name: "Intel Xeon Phi 7210",
            sm_count: 64,
            dp_peak_gflops: 64.0 * 1.3 * 32.0,
            launch_overhead_us: 0.0,
        }
    }

    /// Time to execute a kernel of `flops` floating point operations
    /// that occupies `blocks` SMs, at `efficiency` of per-SM peak, in
    /// microseconds. This is the cost model used by the Table 2 and
    /// §6.1.2 simulations.
    pub fn kernel_time_us(&self, flops: f64, blocks: u32, efficiency: f64) -> f64 {
        assert!(efficiency > 0.0 && efficiency <= 1.0, "efficiency in (0,1]");
        let blocks = blocks.min(self.sm_count);
        let per_sm = self.dp_peak_gflops / self.sm_count as f64; // GFLOP/s per SM
        let rate = per_sm * blocks as f64 * efficiency; // GFLOP/s
        self.launch_overhead_us + flops / (rate * 1e3)
    }
}

/// A live simulated device: a host thread draining work from attached
/// streams in round-robin order, modelling the GPU as a co-processor.
/// Results are bit-identical to CPU execution (the same closures run).
pub struct Device {
    spec: DeviceSpec,
    shared: Arc<DeviceShared>,
    executor: Mutex<Option<JoinHandle<()>>>,
}

pub(crate) struct DeviceShared {
    pub(crate) streams: Mutex<Vec<Arc<StreamShared>>>,
    pub(crate) work_signal: Condvar,
    pub(crate) signal_lock: Mutex<()>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) kernels_executed: AtomicU64,
}

impl Device {
    /// Bring up a device with `n_streams` streams.
    pub fn new(spec: DeviceSpec, n_streams: usize) -> Arc<Device> {
        let shared = Arc::new(DeviceShared {
            streams: Mutex::new(Vec::new()),
            work_signal: Condvar::new(),
            signal_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            kernels_executed: AtomicU64::new(0),
        });
        let dev = Arc::new(Device {
            spec,
            shared: Arc::clone(&shared),
            executor: Mutex::new(None),
        });
        {
            let mut streams = shared.streams.lock();
            for _ in 0..n_streams {
                streams.push(Arc::new(StreamShared::new()));
            }
        }
        let sh = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("gpusim-{}", dev.spec.name))
            .spawn(move || device_main(sh))
            .expect("failed to spawn device executor");
        *dev.executor.lock() = Some(handle);
        dev
    }

    /// The hardware model.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Handles to all streams of this device.
    pub fn streams(self: &Arc<Device>) -> Vec<CudaStream> {
        self.shared
            .streams
            .lock()
            .iter()
            .map(|s| CudaStream::from_shared(Arc::clone(s), Arc::clone(&self.shared)))
            .collect()
    }

    /// Total kernels executed by the device so far.
    pub fn kernels_executed(&self) -> u64 {
        self.shared.kernels_executed.load(Ordering::Relaxed)
    }

    /// Stop the executor thread and join it. Remaining queued work is
    /// drained before exit so no event future is left broken.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_signal.notify_all();
        if let Some(h) = self.executor.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Device {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn drain_streams(shared: &DeviceShared) -> bool {
    let mut did_work = false;
    let streams: Vec<Arc<StreamShared>> = shared.streams.lock().clone();
    for s in &streams {
        // In-order execution per stream: run everything queued.
        while let Some((op, is_kernel)) = s.pop() {
            op();
            if is_kernel {
                shared.kernels_executed.fetch_add(1, Ordering::Relaxed);
            }
            did_work = true;
        }
    }
    did_work
}

fn device_main(shared: Arc<DeviceShared>) {
    loop {
        if drain_streams(&shared) {
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Final drain: anything enqueued during the last sweep.
            if !drain_streams(&shared) {
                break;
            }
            continue;
        }
        let mut guard = shared.signal_lock.lock();
        shared
            .work_signal
            .wait_for(&mut guard, std::time::Duration::from_micros(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_have_sensible_peaks() {
        assert_eq!(DeviceSpec::p100().dp_peak_gflops, 4700.0);
        assert_eq!(DeviceSpec::v100().dp_peak_gflops, 7000.0);
        // KNL peak ~2.66 TFLOP/s DP at base clock.
        let knl = DeviceSpec::xeon_phi_7210();
        assert!((knl.dp_peak_gflops - 2662.4).abs() < 1.0);
        // 10-core Haswell at base clock: 384 GFLOP/s.
        let xeon = DeviceSpec::xeon_e5_2660v3(10);
        assert!((xeon.dp_peak_gflops - 384.0).abs() < 1.0);
    }

    #[test]
    fn kernel_time_scales_with_blocks_and_flops() {
        let p100 = DeviceSpec::p100();
        // The paper's multipole kernel: 455 flops x 549,888 interactions.
        let flops = 455.0 * 549_888.0;
        let t8 = p100.kernel_time_us(flops, 8, 0.5);
        let t4 = p100.kernel_time_us(flops, 4, 0.5);
        assert!(t4 > t8, "fewer blocks must be slower");
        let t_half = p100.kernel_time_us(flops / 2.0, 8, 0.5);
        assert!(t_half < t8);
        // Launch overhead bounds small kernels.
        let tiny = p100.kernel_time_us(1.0, 8, 0.5);
        assert!(tiny >= p100.launch_overhead_us);
    }

    #[test]
    fn blocks_clamped_to_sm_count() {
        let p100 = DeviceSpec::p100();
        let t56 = p100.kernel_time_us(1e9, 56, 1.0);
        let t999 = p100.kernel_time_us(1e9, 999, 1.0);
        assert_eq!(t56, t999);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn zero_efficiency_rejected() {
        let _ = DeviceSpec::p100().kernel_time_us(1.0, 8, 0.0);
    }

    #[test]
    fn device_executes_queued_work() {
        let dev = Device::new(DeviceSpec::p100(), 4);
        let streams = dev.streams();
        assert_eq!(streams.len(), 4);
        let counter = Arc::new(AtomicU64::new(0));
        for s in &streams {
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                s.enqueue(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        // Wait for all work via events on each stream.
        for s in &streams {
            s.synchronize();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 40);
        assert_eq!(dev.kernels_executed(), 40);
        dev.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let dev = Device::new(DeviceSpec::v100(), 2);
        let streams = dev.streams();
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            streams[0].enqueue(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        dev.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }
}
