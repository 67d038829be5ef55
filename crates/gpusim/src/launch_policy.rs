//! The many-small-kernels launch policy of §5.1 / §6.1.2.
//!
//! "Each CPU thread manages a certain number of CUDA streams. When
//! launching a kernel, a thread first checks whether all of the CUDA
//! streams it manages are busy. If not, the kernel will be launched on
//! the GPU using an idle stream. Otherwise, the kernel will be executed
//! on the CPU by the current CPU worker thread."
//!
//! [`StreamPool`] partitions a device's streams across CPU worker
//! threads and makes exactly that decision, once per launch, in
//! [`StreamPool::launch`]. A launch is a batch of work items run in
//! submission order: the aggregation executors of arXiv:2210.06438 fuse
//! same-kind items into one launch, and a per-item launch is the
//! one-item batch. The split is counted per item by
//! [`crate::AggregationStats`], whose `gpu_fraction` is the §6.1.2
//! observable (97.4995% / 99.9997% / 99.5207% of multipole kernels on
//! the GPU for the three configurations). The paper also names the
//! limitation — "there is no reason not to launch multiple FMM kernels
//! in one stream if there is no empty stream available" — which is
//! provided as the opt-in [`QueuePolicy::QueueOnBusy`] variant (the fix
//! promised for the next Octo-Tiger version, reproduced here as an
//! ablation).

use crate::aggregation::AggItem;
use crate::stream::CudaStream;
use amt::Future;

/// What to do when every stream owned by the calling worker is busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Paper behaviour: fall back to executing on the CPU.
    CpuFallback,
    /// §6.1.2's proposed fix: enqueue on the least-loaded stream anyway.
    QueueOnBusy,
}

/// Where a launch ended up.
pub enum LaunchOutcome {
    /// The whole batch was enqueued as one device launch; the future
    /// fires when the batch completes.
    Gpu(Future<()>),
    /// No stream takes the batch; the items are handed back and the
    /// caller must run each on the CPU.
    CpuFallback(Vec<AggItem>),
}

/// The streams owned by one CPU worker thread, plus the launch decision.
pub struct StreamPool {
    streams: Vec<CudaStream>,
    policy: QueuePolicy,
}

impl StreamPool {
    /// Partition `streams` of a device across `n_workers` pools; pool
    /// `worker` receives every `n_workers`-th stream. Mirrors the paper's
    /// static assignment of streams to CPU threads.
    pub fn partition(
        streams: Vec<CudaStream>,
        n_workers: usize,
        policy: QueuePolicy,
    ) -> Vec<StreamPool> {
        assert!(n_workers > 0, "need at least one worker");
        let mut pools: Vec<Vec<CudaStream>> = (0..n_workers).map(|_| Vec::new()).collect();
        for (i, s) in streams.into_iter().enumerate() {
            pools[i % n_workers].push(s);
        }
        pools.into_iter().map(|streams| StreamPool { streams, policy }).collect()
    }

    /// Number of streams this pool owns.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether this pool owns no streams (always CPU fallback then).
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Launch `items` as one device launch, following §5.1: an idle
    /// stream among the ones this worker manages takes the batch, which
    /// runs every item in submission order; with none idle, the queue
    /// policy decides. On CPU fallback the items are handed back
    /// untouched so the caller degrades per item. A pool with no
    /// streams has nothing to queue on, so both policies fall back.
    pub fn launch(&self, items: Vec<AggItem>) -> LaunchOutcome {
        let idle = self.streams.iter().find(|s| s.is_idle());
        let stream = match self.policy {
            QueuePolicy::CpuFallback => idle,
            QueuePolicy::QueueOnBusy => {
                idle.or_else(|| self.streams.iter().min_by_key(|s| s.backlog()))
            }
        };
        let Some(s) = stream else {
            return LaunchOutcome::CpuFallback(items);
        };
        s.enqueue(move || {
            for item in items {
                item(true);
            }
        });
        LaunchOutcome::Gpu(s.record_event())
    }

    /// Block until every stream of this pool has drained.
    pub fn synchronize(&self) {
        for s in &self.streams {
            s.synchronize();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A one-item batch that counts its runs and, separately, the runs
    /// that happened on the device.
    fn counted(hits: &Arc<AtomicUsize>, gpu_hits: &Arc<AtomicUsize>) -> Vec<AggItem> {
        let (h, g) = (Arc::clone(hits), Arc::clone(gpu_hits));
        vec![Box::new(move |on_gpu| {
            h.fetch_add(1, Ordering::SeqCst);
            if on_gpu {
                g.fetch_add(1, Ordering::SeqCst);
            }
        })]
    }

    /// A one-item batch that spins until `gate` opens.
    fn blocker(gate: &Arc<AtomicUsize>) -> Vec<AggItem> {
        let g = Arc::clone(gate);
        vec![Box::new(move |_| {
            while g.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
        })]
    }

    #[test]
    fn partition_splits_streams_evenly() {
        let dev = Device::new(DeviceSpec::p100(), 128);
        let pools = StreamPool::partition(dev.streams(), 12, QueuePolicy::CpuFallback);
        assert_eq!(pools.len(), 12);
        let total: usize = pools.iter().map(|p| p.len()).sum();
        assert_eq!(total, 128);
        // 128 streams over 12 workers: sizes 10 or 11.
        assert!(pools.iter().all(|p| p.len() == 10 || p.len() == 11));
    }

    #[test]
    fn idle_stream_is_used() {
        let dev = Device::new(DeviceSpec::p100(), 4);
        let pools = StreamPool::partition(dev.streams(), 1, QueuePolicy::CpuFallback);
        let hits = Arc::new(AtomicUsize::new(0));
        let gpu_hits = Arc::new(AtomicUsize::new(0));
        match pools[0].launch(counted(&hits, &gpu_hits)) {
            LaunchOutcome::Gpu(ev) => ev.get(),
            LaunchOutcome::CpuFallback(_) => panic!("idle stream must be used"),
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(gpu_hits.load(Ordering::SeqCst), 1, "the item ran on the device");
    }

    #[test]
    fn busy_streams_trigger_cpu_fallback() {
        let dev = Device::new(DeviceSpec::p100(), 2);
        let pools = StreamPool::partition(dev.streams(), 1, QueuePolicy::CpuFallback);
        let pool = &pools[0];
        // Block both streams.
        let gate = Arc::new(AtomicUsize::new(0));
        let mut events = Vec::new();
        for _ in 0..2 {
            match pool.launch(blocker(&gate)) {
                LaunchOutcome::Gpu(ev) => events.push(ev),
                LaunchOutcome::CpuFallback(_) => panic!("streams were idle"),
            }
        }
        // Now every stream is busy: the batch must fall back.
        let hits = Arc::new(AtomicUsize::new(0));
        let gpu_hits = Arc::new(AtomicUsize::new(0));
        match pool.launch(counted(&hits, &gpu_hits)) {
            LaunchOutcome::Gpu(_) => panic!("no stream can be idle"),
            LaunchOutcome::CpuFallback(items) => {
                // Caller runs each item itself, as Octo-Tiger does.
                assert_eq!(items.len(), 1, "the batch comes back whole");
                for item in items {
                    item(false);
                }
            }
        }
        gate.store(1, Ordering::SeqCst);
        for ev in events {
            ev.get();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(gpu_hits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn queue_on_busy_never_falls_back() {
        let dev = Device::new(DeviceSpec::p100(), 1);
        let pools = StreamPool::partition(dev.streams(), 1, QueuePolicy::QueueOnBusy);
        let pool = &pools[0];
        let hits = Arc::new(AtomicUsize::new(0));
        let gpu_hits = Arc::new(AtomicUsize::new(0));
        let mut last = None;
        for _ in 0..50 {
            match pool.launch(counted(&hits, &gpu_hits)) {
                LaunchOutcome::Gpu(ev) => last = Some(ev),
                LaunchOutcome::CpuFallback(_) => panic!("QueueOnBusy must queue"),
            }
        }
        last.unwrap().get();
        // In-order stream: by the time the last event fires all 50 ran,
        // every one on the device.
        assert_eq!(hits.load(Ordering::SeqCst), 50);
        assert_eq!(gpu_hits.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn a_pool_without_streams_falls_back_under_either_policy() {
        for policy in [QueuePolicy::CpuFallback, QueuePolicy::QueueOnBusy] {
            let dev = Device::new(DeviceSpec::p100(), 0);
            let pools = StreamPool::partition(dev.streams(), 1, policy);
            assert!(pools[0].is_empty());
            let hits = Arc::new(AtomicUsize::new(0));
            let gpu_hits = Arc::new(AtomicUsize::new(0));
            let LaunchOutcome::CpuFallback(items) = pools[0].launch(counted(&hits, &gpu_hits))
            else {
                panic!("{policy:?}: nothing to queue on");
            };
            assert_eq!(items.len(), 1, "{policy:?}");
        }
    }
}
