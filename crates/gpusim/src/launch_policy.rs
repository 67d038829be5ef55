//! The many-small-kernels launch policy of §5.1 / §6.1.2.
//!
//! "Each CPU thread manages a certain number of CUDA streams. When
//! launching a kernel, a thread first checks whether all of the CUDA
//! streams it manages are busy. If not, the kernel will be launched on
//! the GPU using an idle stream. Otherwise, the kernel will be executed
//! on the CPU by the current CPU worker thread."
//!
//! [`StreamPool`] partitions the streams of a node's devices across CPU
//! worker threads and makes exactly that decision, once per launch, in
//! virtual time, in [`StreamPool::launch`]. A launch is a batch of work
//! items: the aggregation executors of arXiv:2210.06438 fuse same-kind
//! items into one launch, and a per-item launch is the one-item batch.
//! The split is counted per item by [`crate::AggregationStats`], whose
//! `gpu_fraction` is the §6.1.2 observable (97.4995% / 99.9997% /
//! 99.5207% of multipole kernels on the GPU for the three
//! configurations). The paper also names the
//! limitation — "there is no reason not to launch multiple FMM kernels
//! in one stream if there is no empty stream available" — which is
//! provided as the opt-in [`QueuePolicy::QueueOnBusy`] variant (the fix
//! promised for the next Octo-Tiger version, reproduced here as an
//! ablation).

use crate::aggregation::Item;
use crate::device::Device;
use std::sync::Arc;

/// What to do when every stream owned by the calling worker is busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Paper behaviour: fall back to executing on the CPU.
    CpuFallback,
    /// §6.1.2's proposed fix: queue on the stream that frees up first.
    QueueOnBusy,
}

/// Where a launch ended up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaunchOutcome {
    /// The whole batch went to a stream as one device launch, which
    /// ends at this virtual time (µs); the worker goes on at once.
    Gpu(f64),
    /// No stream takes the batch: the calling worker runs each item on
    /// its own core.
    CpuFallback,
}

/// The streams owned by one CPU worker thread, plus the launch decision.
pub struct StreamPool {
    /// `(device, stream)`, device by device, in stream order.
    streams: Vec<(Arc<Device>, usize)>,
    policy: QueuePolicy,
}

impl StreamPool {
    /// Partition the streams of `devices` (device by device, in stream
    /// order) across `n_workers` pools: pool `worker` receives every
    /// `n_workers`-th stream. Mirrors the paper's static assignment of
    /// streams to CPU threads.
    pub fn partition(
        devices: &[Arc<Device>],
        n_workers: usize,
        policy: QueuePolicy,
    ) -> Vec<StreamPool> {
        assert!(n_workers > 0, "need at least one worker");
        let mut pools: Vec<StreamPool> =
            (0..n_workers).map(|_| StreamPool { streams: Vec::new(), policy }).collect();
        let streams =
            devices.iter().flat_map(|d| (0..d.n_streams()).map(move |s| (Arc::clone(d), s)));
        for (i, stream) in streams.enumerate() {
            pools[i % n_workers].streams.push(stream);
        }
        pools
    }

    /// Number of streams this pool owns.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether this pool owns no streams (always CPU fallback then).
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Launch `batch` as one device launch at virtual time `now`,
    /// following §5.1: the first of this worker's streams that is idle
    /// by `now` takes the batch; with none idle, the queue policy
    /// decides. A pool with no streams has nothing to queue on, so both
    /// policies fall back.
    pub fn launch(&self, batch: &[Item], now: f64) -> LaunchOutcome {
        let busy = |(device, s): &(Arc<Device>, usize)| device.busy_until_us(*s);
        let idle = self.streams.iter().find(|s| busy(s) <= now);
        let stream = match self.policy {
            QueuePolicy::CpuFallback => idle,
            QueuePolicy::QueueOnBusy => {
                idle.or_else(|| self.streams.iter().min_by(|a, b| busy(a).total_cmp(&busy(b))))
            }
        };
        let Some((device, s)) = stream else {
            return LaunchOutcome::CpuFallback;
        };
        LaunchOutcome::Gpu(device.run(*s, batch.iter().map(|item| item.flops).sum(), now))
    }

    /// When the last launch on this pool's streams ends.
    pub(crate) fn busy_until_us(&self) -> f64 {
        self.streams.iter().fold(0.0, |end, (device, s)| end.max(device.busy_until_us(*s)))
    }

    /// Every device this pool launches on idle at virtual time 0 again.
    pub(crate) fn reset(&self) {
        for (device, _) in &self.streams {
            device.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    /// A one-item batch of `flops`.
    fn item(flops: f64) -> [Item; 1] {
        [Item { kind: 0, flops }]
    }

    #[test]
    fn partition_splits_streams_evenly() {
        let dev = Device::new(DeviceSpec::p100(), 128);
        let pools = StreamPool::partition(&[dev], 12, QueuePolicy::CpuFallback);
        assert_eq!(pools.len(), 12);
        let total: usize = pools.iter().map(|p| p.len()).sum();
        assert_eq!(total, 128);
        // 128 streams over 12 workers: sizes 10 or 11.
        assert!(pools.iter().all(|p| p.len() == 10 || p.len() == 11));
        // Two devices: their streams are dealt on in one sequence.
        let two = [Device::new(DeviceSpec::v100(), 3), Device::new(DeviceSpec::v100(), 3)];
        let pools = StreamPool::partition(&two, 4, QueuePolicy::CpuFallback);
        assert_eq!(pools.iter().map(StreamPool::len).collect::<Vec<_>>(), [2, 2, 1, 1]);
    }

    #[test]
    fn idle_stream_is_used() {
        let dev = Device::new(DeviceSpec::p100(), 4);
        let pools = StreamPool::partition(&[Arc::clone(&dev)], 1, QueuePolicy::CpuFallback);
        let t = dev.spec().kernel_time_us(1e9, 8, dev.spec().fmm_efficiency);
        assert_eq!(pools[0].launch(&item(1e9), 0.0), LaunchOutcome::Gpu(t));
        assert_eq!(dev.busy_until_us(0), t, "the first idle stream took it");
        assert_eq!(pools[0].launch(&item(1e9), 0.0), LaunchOutcome::Gpu(t));
        assert_eq!(dev.busy_until_us(1), t, "stream 0 was busy, stream 1 idle");
    }

    #[test]
    fn busy_streams_trigger_cpu_fallback() {
        let dev = Device::new(DeviceSpec::p100(), 2);
        let pools = StreamPool::partition(&[Arc::clone(&dev)], 1, QueuePolicy::CpuFallback);
        let pool = &pools[0];
        // Occupy both streams.
        for _ in 0..2 {
            assert!(matches!(pool.launch(&item(1e9), 0.0), LaunchOutcome::Gpu(_)));
        }
        // Every stream is busy now: the batch falls back and no clock moves.
        let busy = pool.busy_until_us();
        assert_eq!(pool.launch(&item(1e9), 1.0), LaunchOutcome::CpuFallback);
        assert_eq!(pool.busy_until_us(), busy);
        // Once a stream has drained, it takes work again.
        assert!(matches!(pool.launch(&item(1e9), busy), LaunchOutcome::Gpu(_)));
    }

    #[test]
    fn queue_on_busy_never_falls_back() {
        let dev = Device::new(DeviceSpec::p100(), 1);
        let pools = StreamPool::partition(&[Arc::clone(&dev)], 1, QueuePolicy::QueueOnBusy);
        let t = dev.spec().kernel_time_us(1e9, 8, dev.spec().fmm_efficiency);
        let mut end = 0.0;
        for _ in 0..50 {
            let LaunchOutcome::Gpu(e) = pools[0].launch(&item(1e9), 0.0) else {
                panic!("QueueOnBusy must queue");
            };
            assert_eq!(e, end + t, "in order on the one stream");
            end = e;
        }
    }

    #[test]
    fn a_pool_without_streams_falls_back_under_either_policy() {
        for policy in [QueuePolicy::CpuFallback, QueuePolicy::QueueOnBusy] {
            let dev = Device::new(DeviceSpec::p100(), 0);
            let pools = StreamPool::partition(&[dev], 1, policy);
            assert!(pools[0].is_empty());
            assert_eq!(pools[0].launch(&item(1e9), 0.0), LaunchOutcome::CpuFallback, "{policy:?}");
        }
    }
}
