//! Pricing an FMM solve's kernel launches on the simulated GPU (§5.1),
//! with work aggregation (arXiv:2210.06438) batching them into fused
//! launches. Only the benchmark, the `gpu_launch_fraction` bin and the
//! tests build a [`GpuContext`]; the simulation driver's solvers are
//! CPU-only.
//!
//! "Each CPU thread manages a certain number of CUDA streams. When
//! launching a kernel, a thread first checks whether all of the CUDA
//! streams it manages are busy. If not, the kernel will be launched on
//! the GPU using an idle stream. Otherwise, the kernel will be executed
//! on the CPU by the current CPU worker thread."
//!
//! [`GpuContext`] owns the per-worker [`StreamPool`]s of one device and
//! the launch ledger. A solver built with one (`FmmSolver::with_gpu`)
//! computes its field on the CPU graph exactly as a CPU-only solver
//! does, then hands the solve's work items to [`GpuContext::replay`]:
//! one item per node whose kernel the solve ran — refined nodes as
//! [`KernelKind::Multipole`], then target leaves as
//! [`KernelKind::Monopole`]. `gpusim`'s engine plays them on the
//! context's workers in virtual time, at Table 3's node: one core of
//! the Xeon E5-2690 v3 host for a CPU fallback, the device's spec for a
//! launch, the paper's per-kernel flops for every item. Where an item
//! lands, and how items batch, is a deterministic function of the
//! solve's node counts, the stream budget, the policy and the
//! aggregation thresholds, and never touches the field; the §6.1.2
//! split accumulates in [`GpuContext::agg_stats`], counted per item.

use crate::{INTERACTIONS_PER_LAUNCH, MULTI_FLOPS};
use gpusim::aggregation::Item;
use gpusim::device::{Device, DeviceSpec};
use gpusim::launch_policy::{QueuePolicy, StreamPool};
use std::sync::Arc;

pub use gpusim::aggregation::{
    AggregationConfig, AggregationStats, DEFAULT_AGG_SLOTS, DEFAULT_AGG_WINDOW, HIST_LABELS,
};

/// The kernel kinds the FMM solver launches — §4.3's two kernels, one
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

    /// One work item of this kind, at the paper's per-kernel flops
    /// (§4.3, Table 2: 455 flops × 549 888 interactions).
    fn item(self) -> Item {
        Item { kind: self.index(), flops: (MULTI_FLOPS * INTERACTIONS_PER_LAUNCH) as f64 }
    }
}

/// Per-worker stream pools of one simulated device, the aggregation
/// thresholds and the launch ledger.
pub struct GpuContext {
    /// One pool per worker.
    pools: Vec<StreamPool>,
    agg: AggregationConfig,
    agg_stats: Arc<AggregationStats>,
}

impl GpuContext {
    /// Partition `device`'s streams across `n_workers` CPU workers (the
    /// paper's static stream-to-thread assignment). Aggregation
    /// thresholds start at [`AggregationConfig::default`];
    /// `FmmSolver::with_aggregation` applies other ones.
    pub fn new(device: &Arc<Device>, n_workers: usize, policy: QueuePolicy) -> GpuContext {
        GpuContext {
            pools: StreamPool::partition(std::slice::from_ref(device), n_workers, policy),
            agg: AggregationConfig::default(),
            agg_stats: Arc::new(AggregationStats::new(KernelKind::ALL.len())),
        }
    }

    /// The launch ledger: the GPU/CPU split per kernel item (the §6.1.2
    /// observable, [`AggregationStats::gpu_fraction`]), batches, the
    /// batch-size histogram and the flush-trigger breakdown, summed over
    /// every replay.
    pub fn agg_stats(&self) -> &Arc<AggregationStats> {
        &self.agg_stats
    }

    /// Alias of [`GpuContext::agg_stats`], kept for the benchmark's
    /// `gpusim` rung, which reads `stats().gpu_fraction()`.
    pub fn stats(&self) -> &Arc<AggregationStats> {
        &self.agg_stats
    }

    /// Retune the aggregation thresholds (each replay's regions
    /// normalize them).
    pub fn set_aggregation(&mut self, cfg: AggregationConfig) {
        self.agg = cfg;
    }

    /// The current aggregation thresholds.
    pub fn agg_config(&self) -> AggregationConfig {
        self.agg
    }

    /// Replay one solve's work items — `refined` multipole items, then
    /// `leaves` monopole items — through the §5.1 policy on this
    /// context's workers, from an idle device at virtual time 0, and add
    /// where they ran to the ledger. Returns when the replay ends, µs.
    pub fn replay(&self, refined: usize, leaves: usize) -> f64 {
        let items: Vec<Item> = std::iter::repeat_n(KernelKind::Multipole.item(), refined)
            .chain(std::iter::repeat_n(KernelKind::Monopole.item(), leaves))
            .collect();
        let host = DeviceSpec::xeon_e5_2690v3();
        gpusim::engine::run(&self.pools, &host, self.agg, &self.agg_stats, &items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_flush_executes_on_gpu_when_idle() {
        let dev = Device::new(DeviceSpec::p100(), 6);
        let ctx = GpuContext::new(&dev, 2, QueuePolicy::CpuFallback);
        let end = ctx.replay(0, 1);
        assert_eq!(ctx.agg_stats().items_gpu(), 1);
        assert_eq!(ctx.agg_stats().batches_gpu(), 1);
        let p100 = DeviceSpec::p100();
        let flops = KernelKind::Monopole.item().flops;
        let launch = p100.kernel_time_us(flops, 8, p100.fmm_efficiency);
        assert_eq!(end, launch.max(gpusim::engine::TRAVERSAL_GAP_US));
    }

    #[test]
    fn full_slot_window_fuses_one_launch() {
        let dev = Device::new(DeviceSpec::p100(), 6);
        let mut ctx = GpuContext::new(&dev, 1, QueuePolicy::CpuFallback);
        ctx.set_aggregation(AggregationConfig::new(4, 64));
        ctx.replay(0, 4);
        // The 4th item tripped the slot threshold: one fused launch.
        assert_eq!(ctx.agg_stats().batches_gpu(), 1, "one fused launch");
        assert_eq!(ctx.agg_stats().flush_full(), 1);
        assert_eq!(ctx.agg_stats().items_gpu(), 4, "items counted per kernel");
        assert_eq!(ctx.stats().gpu_fraction(), 1.0, "the alias reads the same ledger");
    }

    #[test]
    fn submit_falls_back_per_item_with_no_streams() {
        // 1 stream over 2 workers: worker 1's pool is empty, so its item
        // degrades to the CPU while worker 0's goes to the device.
        let dev = Device::new(DeviceSpec::p100(), 1);
        let ctx = GpuContext::new(&dev, 2, QueuePolicy::CpuFallback);
        ctx.replay(1, 1);
        assert_eq!(ctx.agg_stats().items_gpu(), 1);
        assert_eq!(ctx.agg_stats().items_cpu(), 1);
        assert_eq!(ctx.agg_stats().batches_cpu(), 1);
    }

    #[test]
    fn kinds_aggregate_in_separate_lanes() {
        let dev = Device::new(DeviceSpec::p100(), 6);
        let mut ctx = GpuContext::new(&dev, 1, QueuePolicy::CpuFallback);
        ctx.set_aggregation(AggregationConfig::new(2, 64));
        ctx.replay(1, 1);
        // Neither lane fills; the worker's idle flush drains both as
        // separate (same-kind) batches.
        assert_eq!(ctx.agg_stats().batches_gpu(), 2);
        assert_eq!(ctx.agg_stats().flush_idle(), 2);
        assert_eq!(ctx.agg_stats().hist(KernelKind::Multipole.index(), 0), 1);
        assert_eq!(ctx.agg_stats().hist(KernelKind::Monopole.index(), 0), 1);
    }
}
