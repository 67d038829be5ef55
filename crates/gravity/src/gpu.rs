//! Routing FMM kernel launches through the simulated GPU (§5.1), with
//! work aggregation (arXiv:2210.06438) batching them into fused
//! launches.
//!
//! "Each CPU thread manages a certain number of CUDA streams. When
//! launching a kernel, a thread first checks whether all of the CUDA
//! streams it manages are busy. If not, the kernel will be launched on
//! the GPU using an idle stream. Otherwise, the kernel will be executed
//! on the CPU by the current CPU worker thread."
//!
//! [`GpuContext`] owns the per-worker [`StreamPool`]s of one device,
//! plus one [`AggregationRegion`] per pool. Kernels are *typed work
//! items* — a [`KernelKind`], the node whose sub-grid the item computes,
//! and the compute closure — submitted through [`GpuContext::submit`],
//! which buffers them in the caller's region. When a slot window fills
//! (or [`GpuContext::flush`] declares the producer idle) the batch goes
//! out as *one* launch on an idle stream of the caller's pool; when
//! every stream is busy, the §5.1 fallback runs each item per-item on
//! the CPU, exactly as an unaggregated launch would have. The kernel
//! closure is identical on both paths, so where — and how batched — a
//! launch lands never changes the numbers, only the `fmm/kernels/gpu`
//! vs `fmm/kernels/cpu` split (the §6.1.2 observable, still counted per
//! item) and the batching counters.
//!
//! Non-worker threads (the main thread helping the scheduler, like in
//! HPX) submit through a dedicated *overflow* pool + region instead of
//! silently contending with worker 0's streams; such submissions are
//! counted in [`GpuContext::overflow_submits`].

use amt::trace::{self, TraceCategory};
use amt::{Future, Promise};
use gpusim::aggregation::{AggItem, AggregationRegion};
use gpusim::device::Device;
use gpusim::launch_policy::{LaunchStats, QueuePolicy, StreamPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use util::morton::MortonKey;

pub use gpusim::aggregation::{
    AggregationConfig, AggregationStats, DEFAULT_AGG_SLOTS, DEFAULT_AGG_WINDOW, HIST_LABELS,
};

/// Where one kernel launch was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchSite {
    Gpu,
    Cpu,
}

/// The kernel kinds the FMM solver submits — §4.3's two kernels, one
/// work item per sub-grid, the kind chosen by the node. Items of one
/// kind aggregate together (a fused launch runs one kernel body over
/// many sub-grids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// A leaf's item: the monopole (`HESS = false`) same-level kernel,
    /// then the near field.
    Monopole,
    /// A refined node's item: the multipole (`HESS = true`) same-level
    /// kernel.
    Multipole,
}

impl KernelKind {
    /// Every kind, in lane order.
    pub const ALL: [KernelKind; 2] = [KernelKind::Monopole, KernelKind::Multipole];

    /// The aggregation-lane index of this kind.
    pub fn index(self) -> usize {
        match self {
            KernelKind::Monopole => 0,
            KernelKind::Multipole => 1,
        }
    }

    /// Stable name for counters and labels.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Monopole => "monopole",
            KernelKind::Multipole => "multipole",
        }
    }
}

/// Per-worker stream pools + aggregation regions plus the shared launch
/// statistics for one simulated device.
pub struct GpuContext {
    /// `n_workers + 1` pools: index `w` belongs to worker `w`, the last
    /// one is the overflow pool for non-worker threads.
    pools: Vec<StreamPool>,
    /// One region per pool (same indexing).
    regions: Vec<AggregationRegion>,
    stats: Arc<LaunchStats>,
    agg_stats: Arc<AggregationStats>,
    overflow_submits: AtomicU64,
    n_workers: usize,
}

impl GpuContext {
    /// Partition `device`'s streams across `n_workers` CPU workers (the
    /// paper's static stream-to-thread assignment) plus one overflow
    /// pool for non-worker threads. Aggregation thresholds start at
    /// [`AggregationConfig::default`]; `FmmSolver::with_aggregation`
    /// applies the configured ones.
    pub fn new(device: &Arc<Device>, n_workers: usize, policy: QueuePolicy) -> GpuContext {
        Self::with_aggregation(device, n_workers, policy, AggregationConfig::default())
    }

    /// [`GpuContext::new`] with explicit aggregation thresholds.
    pub fn with_aggregation(
        device: &Arc<Device>,
        n_workers: usize,
        policy: QueuePolicy,
        cfg: AggregationConfig,
    ) -> GpuContext {
        assert!(n_workers > 0, "need at least one worker");
        let stats = Arc::new(LaunchStats::new());
        let pools =
            StreamPool::partition(device.streams(), n_workers + 1, policy, Arc::clone(&stats));
        let agg_stats = Arc::new(AggregationStats::new(KernelKind::ALL.len()));
        let regions = pools
            .iter()
            .map(|_| AggregationRegion::new(KernelKind::ALL.len(), cfg, Arc::clone(&agg_stats)))
            .collect();
        GpuContext {
            pools,
            regions,
            stats,
            agg_stats,
            overflow_submits: AtomicU64::new(0),
            n_workers,
        }
    }

    /// The cumulative GPU/CPU launch split (per kernel item).
    pub fn stats(&self) -> &Arc<LaunchStats> {
        &self.stats
    }

    /// The cumulative aggregation counters (batches, histogram,
    /// flush-trigger breakdown).
    pub fn agg_stats(&self) -> &Arc<AggregationStats> {
        &self.agg_stats
    }

    /// Retune the aggregation thresholds of every region.
    pub fn set_aggregation(&self, cfg: AggregationConfig) {
        for r in &self.regions {
            r.set_config(cfg);
        }
    }

    /// The current aggregation thresholds.
    pub fn agg_config(&self) -> AggregationConfig {
        self.regions[0].config()
    }

    /// Submissions that arrived from non-worker threads (routed to the
    /// overflow pool).
    pub fn overflow_submits(&self) -> u64 {
        self.overflow_submits.load(Ordering::Relaxed)
    }

    /// Streams owned by the overflow pool (may be zero on small
    /// devices — its submissions then always degrade to the CPU).
    pub fn overflow_pool_len(&self) -> usize {
        self.pools[self.pools.len() - 1].len()
    }

    /// The pool/region index of `worker` (`None` = a non-worker thread
    /// → the overflow slot).
    fn lane(&self, worker: Option<usize>) -> usize {
        match worker {
            Some(w) => w % self.n_workers,
            None => self.pools.len() - 1,
        }
    }

    /// Submit one typed work item, the `kind` kernel on `node`'s
    /// sub-grid: buffer `f` on the calling worker's aggregation region,
    /// to be executed inside a fused launch on an idle stream of that
    /// worker's pool — or per-item on the CPU when no stream frees up
    /// (§5.1). The returned future fires with `f`'s result and where it
    /// ran; a submit may execute batches inline (CPU degradation) before
    /// returning. Flush after the last submit of a burst, or buffered
    /// items wait for another producer to trip a threshold.
    pub fn submit<T: Send + 'static>(
        &self,
        worker: Option<usize>,
        kind: KernelKind,
        node: MortonKey,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Future<(T, LaunchSite)> {
        let lane = self.lane(worker);
        if worker.is_none() {
            self.overflow_submits.fetch_add(1, Ordering::Relaxed);
        }
        let (promise, fut) = Promise::new();
        let item: AggItem = Box::new(move |on_gpu| {
            let value = if on_gpu {
                let _span = trace::span_labeled(TraceCategory::GpuLaunch, || {
                    format!("{}:{node:?}", kind.as_str())
                });
                f()
            } else {
                f()
            };
            let site = if on_gpu { LaunchSite::Gpu } else { LaunchSite::Cpu };
            promise.set_value((value, site));
        });
        self.regions[lane].submit(&self.pools[lane], kind.index(), item);
        fut
    }

    /// Producer-idle flush of the calling worker's region: every
    /// buffered batch goes out now (fused on an idle stream, or
    /// per-item on the CPU).
    pub fn flush(&self, worker: Option<usize>) {
        let lane = self.lane(worker);
        self.regions[lane].flush(&self.pools[lane]);
    }

    /// Flush every region: the solver calls it once every refined node
    /// has submitted its item, and the last target leaf to submit calls
    /// it again.
    pub fn flush_all(&self) {
        for (region, pool) in self.regions.iter().zip(&self.pools) {
            region.flush(pool);
        }
    }

    /// Block until every stream of every pool has drained (tests and
    /// benches that inspect device-side counters).
    pub fn synchronize(&self) {
        for pool in &self.pools {
            pool.synchronize();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::device::DeviceSpec;

    #[test]
    fn submit_flush_executes_on_gpu_when_idle() {
        let dev = Device::new(DeviceSpec::p100(), 6);
        let ctx = GpuContext::new(&dev, 2, QueuePolicy::CpuFallback);
        let fut = ctx.submit(Some(0), KernelKind::Monopole, MortonKey::root(), || 41 + 1);
        ctx.flush(Some(0));
        let (value, site) = fut.get();
        assert_eq!(value, 42);
        assert_eq!(site, LaunchSite::Gpu);
        assert_eq!(ctx.stats().gpu_launches(), 1);
        assert_eq!(ctx.agg_stats().batches_gpu(), 1);
    }

    #[test]
    fn full_slot_window_fuses_one_launch() {
        let dev = Device::new(DeviceSpec::p100(), 6);
        let ctx = GpuContext::with_aggregation(
            &dev,
            2,
            QueuePolicy::CpuFallback,
            AggregationConfig::new(4, 64),
        );
        let futs: Vec<_> = (0..4)
            .map(|i| ctx.submit(Some(0), KernelKind::Monopole, MortonKey::root(), move || i))
            .collect();
        // The 4th submit tripped the slot threshold — no flush needed.
        for (i, f) in futs.into_iter().enumerate() {
            let (value, site) = f.get();
            assert_eq!(value, i);
            assert_eq!(site, LaunchSite::Gpu);
        }
        assert_eq!(ctx.agg_stats().batches_gpu(), 1, "one fused launch");
        assert_eq!(ctx.agg_stats().items_gpu(), 4);
        assert_eq!(ctx.stats().gpu_launches(), 4, "items counted per kernel");
    }

    #[test]
    fn submit_falls_back_per_item_with_no_streams() {
        // 1 stream over 2 workers + overflow: worker 1's pool is empty
        // → every batch from it degrades to per-item CPU execution.
        let dev = Device::new(DeviceSpec::p100(), 1);
        let ctx = GpuContext::new(&dev, 2, QueuePolicy::CpuFallback);
        let fut = ctx.submit(Some(1), KernelKind::Multipole, MortonKey::root(), || 7);
        ctx.flush(Some(1));
        let (value, site) = fut.get();
        assert_eq!(value, 7);
        assert_eq!(site, LaunchSite::Cpu);
        assert_eq!(ctx.stats().cpu_launches(), 1);
        assert_eq!(ctx.agg_stats().items_cpu(), 1);
    }

    #[test]
    fn non_worker_threads_use_the_overflow_pool() {
        // 6 streams over 2 workers + overflow: 2 each — the overflow
        // pool has its own streams, so a helper-thread submission runs
        // on the GPU without touching worker 0's pool.
        let dev = Device::new(DeviceSpec::p100(), 6);
        let ctx = GpuContext::new(&dev, 2, QueuePolicy::CpuFallback);
        assert_eq!(ctx.overflow_pool_len(), 2);
        let fut = ctx.submit(None, KernelKind::Monopole, MortonKey::root(), || 1);
        ctx.flush(None);
        let (_, site) = fut.get();
        assert_eq!(site, LaunchSite::Gpu);
        assert_eq!(ctx.overflow_submits(), 1);
        // Worker pools were never involved.
        assert_eq!(ctx.stats().gpu_launches(), 1);
    }

    #[test]
    fn kinds_aggregate_in_separate_lanes() {
        let dev = Device::new(DeviceSpec::p100(), 6);
        let ctx = GpuContext::with_aggregation(
            &dev,
            1,
            QueuePolicy::CpuFallback,
            AggregationConfig::new(2, 64),
        );
        let a = ctx.submit(Some(0), KernelKind::Monopole, MortonKey::root(), || 0);
        let b = ctx.submit(Some(0), KernelKind::Multipole, MortonKey::root(), || 0);
        // Neither lane is full; an idle flush drains both as separate
        // (same-kind) batches.
        ctx.flush(Some(0));
        a.get();
        b.get();
        assert_eq!(ctx.agg_stats().batches_gpu(), 2);
        assert_eq!(ctx.agg_stats().flush_idle(), 2);
    }
}
