//! Simulated devices and their hardware models.
//!
//! [`DeviceSpec`] carries the characteristics of the accelerators and
//! CPUs evaluated in Table 2 of the paper; [`Device`] is a simulated
//! co-processor in virtual time: a clock per stream and a heap of
//! kernel slots, advanced by the launches
//! [`crate::StreamPool::launch`] puts on it.

use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Blocks per kernel launch (§5.1: "launching kernels with 8 blocks"):
/// a device runs `sm_count / BLOCKS_PER_KERNEL` launches at once.
pub(crate) const BLOCKS_PER_KERNEL: u32 = 8;

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
    /// Fraction of peak the FMM kernels sustain (Table 2): on a CPU per
    /// core (≈0.30 on AVX2 Xeons, ≈0.17 on KNL), on a GPU the ceiling
    /// of one resident kernel mix before concurrency effects (§6.1:
    /// 21–37 % depending on configuration).
    pub fmm_efficiency: f64,
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
            fmm_efficiency: 0.21,
        }
    }

    /// NVIDIA Tesla V100 (PCIe): 80 SMs, 7.0 TFLOP/s double precision.
    pub fn v100() -> DeviceSpec {
        DeviceSpec {
            name: "NVIDIA Tesla V100",
            sm_count: 80,
            dp_peak_gflops: 7000.0,
            launch_overhead_us: 5.0,
            fmm_efficiency: 0.45,
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
            fmm_efficiency: 0.3255,
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
            fmm_efficiency: 0.3145,
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
            fmm_efficiency: 0.1724,
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

    /// Time one core of this CPU takes to run a kernel of `flops`
    /// floating point operations at [`DeviceSpec::fmm_efficiency`], in
    /// microseconds: what a worker blocks for when the §5.1 policy
    /// hands it the kernel.
    pub fn host_kernel_time_us(&self, flops: f64) -> f64 {
        let per_core_gflops = self.dp_peak_gflops / self.sm_count as f64;
        flops / (per_core_gflops * self.fmm_efficiency * 1e3)
    }
}

/// A simulated device in virtual time: when each of its streams is
/// next idle, and when each of its `sm_count / 8` kernel slots frees up.
/// A launch on a stream starts once the stream has finished its earlier
/// launches and a slot is free, then holds both until it ends.
pub struct Device {
    spec: DeviceSpec,
    clocks: Mutex<Clocks>,
}

/// A device's virtual clocks, µs.
struct Clocks {
    /// Per stream: the end of its last launch.
    busy_until_us: Vec<f64>,
    /// Per kernel slot: when it frees up, in whole µs, earliest first.
    slots: BinaryHeap<Reverse<u64>>,
}

impl Clocks {
    /// Every stream and slot idle at virtual time 0.
    fn idle(spec: &DeviceSpec, n_streams: usize) -> Clocks {
        let slots = (spec.sm_count / BLOCKS_PER_KERNEL).max(1);
        Clocks {
            busy_until_us: vec![0.0; n_streams],
            slots: (0..slots).map(|_| Reverse(0)).collect(),
        }
    }
}

impl Device {
    /// A device with `n_streams` streams, idle at virtual time 0.
    pub fn new(spec: DeviceSpec, n_streams: usize) -> Arc<Device> {
        let clocks = Mutex::new(Clocks::idle(&spec, n_streams));
        Arc::new(Device { spec, clocks })
    }

    /// The hardware model.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Number of streams.
    pub(crate) fn n_streams(&self) -> usize {
        self.clocks.lock().busy_until_us.len()
    }

    /// When `stream` has finished every launch put on it so far.
    pub(crate) fn busy_until_us(&self, stream: usize) -> f64 {
        self.clocks.lock().busy_until_us[stream]
    }

    /// Launch `flops` on `stream` at virtual time `now`: one launch of
    /// [`BLOCKS_PER_KERNEL`] blocks at the spec's FMM efficiency, paying
    /// the launch overhead once. Returns when it ends.
    pub(crate) fn run(&self, stream: usize, flops: f64, now: f64) -> f64 {
        let mut clocks = self.clocks.lock();
        let Reverse(slot_free) = clocks.slots.pop().expect("a device has a kernel slot");
        let start = now.max(clocks.busy_until_us[stream]).max(slot_free as f64);
        let time = self.spec.kernel_time_us(flops, BLOCKS_PER_KERNEL, self.spec.fmm_efficiency);
        let end = start + time;
        clocks.slots.push(Reverse(end.ceil() as u64));
        clocks.busy_until_us[stream] = end;
        end
    }

    /// Every stream and slot idle at virtual time 0 again.
    pub(crate) fn reset(&self) {
        let mut clocks = self.clocks.lock();
        *clocks = Clocks::idle(&self.spec, clocks.busy_until_us.len());
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
        // In order on a stream: ten launches queued at time 0 on each of
        // four streams run back to back, and the four streams side by
        // side (a P100 has seven slots; a slot frees up at the next
        // whole µs).
        let dev = Device::new(DeviceSpec::p100(), 4);
        let mut end = [0.0; 4];
        for _ in 0..10 {
            for (s, e) in end.iter_mut().enumerate() {
                *e = dev.run(s, 1e9, 0.0);
            }
        }
        let t = dev.spec().kernel_time_us(1e9, BLOCKS_PER_KERNEL, dev.spec().fmm_efficiency);
        let queued = (0..10).fold(0.0, |e, _| e + t);
        for (s, &e) in end.iter().enumerate() {
            assert!((e - queued).abs() <= 10.0, "stream {s} ends at {e}, not ~{queued}");
            assert_eq!(dev.busy_until_us(s), e);
        }
        // The slots bound the width: eight one-launch streams on seven
        // slots, and the eighth waits for the first slot to free up.
        let dev = Device::new(DeviceSpec::p100(), 8);
        let ends: Vec<f64> = (0..8).map(|s| dev.run(s, 1e9, 0.0)).collect();
        assert!(ends[..7].iter().all(|&e| e == t));
        assert_eq!(ends[7], t.ceil() + t);
        dev.reset();
        assert!((0..8).all(|s| dev.busy_until_us(s) == 0.0));
        assert_eq!(dev.run(7, 1e9, 0.0), t, "reset frees every slot");
    }
}
