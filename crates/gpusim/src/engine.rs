//! The virtual-time engine: n CPU workers driving a node's streams
//! through the §5.1 launch policy, over a stream of work items.
//!
//! One virtual worker per [`StreamPool`], each with its own clock and
//! its own [`AggregationRegion`]. Items are dealt out in stream order:
//! the worker with the earliest clock (lowest index on a tie) that still
//! has items left in its share takes the next one, submits it to its
//! region at its clock, and then pays the traversal gap
//! ([`TRAVERSAL_GAP_US`]) before its next attempt. A batch a flush puts
//! on a stream runs asynchronously — the worker goes on at once — while
//! a batch the policy hands back to the CPU blocks the worker for the
//! host kernel time of its items. A worker that has submitted its whole
//! share flushes its region (the producer-idle flush).
//!
//! With per-item launches ([`AggregationConfig::per_item`]) this is the
//! node model behind Table 2 and the §6.1.2 launch fractions: the
//! starvation effect (20 cores + 1 V100 launching a smaller fraction on
//! the GPU than 10 cores + 1 V100) emerges from workers racing their
//! streams.

use crate::aggregation::{AggregationConfig, AggregationRegion, AggregationStats, Item};
use crate::device::DeviceSpec;
use crate::launch_policy::StreamPool;
use std::sync::Arc;

/// Virtual time a worker spends between launch attempts, µs (tree
/// traversal and bookkeeping): 1.1 ms, set by the launch-limited regime
/// of Table 2's 10-core + 1 V100 row (614k kernels / 10 workers in
/// 68 s).
pub const TRAVERSAL_GAP_US: f64 = 1100.0;

/// Run one virtual worker per pool of `pools` over `items`, each
/// worker's fallbacks priced on one core of `host`, batching by `cfg`
/// and counting into `stats`. Every device the pools launch on starts
/// idle at virtual time 0; worker `w` of `n` takes `items.len() / n`
/// items, plus one while `w < items.len() % n`. Returns when the last
/// worker and the last launch are done, µs.
pub fn run(
    pools: &[StreamPool],
    host: &DeviceSpec,
    cfg: AggregationConfig,
    stats: &Arc<AggregationStats>,
    items: &[Item],
) -> f64 {
    let n = pools.len();
    assert!(n > 0, "need at least one worker");
    for pool in pools {
        pool.reset();
    }
    let mut regions: Vec<AggregationRegion> =
        (0..n).map(|_| AggregationRegion::new(stats.kinds(), cfg, Arc::clone(stats))).collect();
    let share = |w: usize| items.len() / n + usize::from(w < items.len() % n);
    let mut left: Vec<usize> = (0..n).map(share).collect();
    let mut clock = vec![0.0f64; n];
    for &item in items {
        let w = (0..n)
            .filter(|&w| left[w] > 0)
            .min_by(|&a, &b| clock[a].total_cmp(&clock[b]))
            .expect("the shares cover every item");
        left[w] -= 1;
        let t = clock[w];
        let mut cpu_flops = regions[w].submit(&pools[w], item, t);
        if left[w] == 0 {
            cpu_flops += regions[w].flush(&pools[w], t);
        }
        clock[w] = t + host.host_kernel_time_us(cpu_flops) + TRAVERSAL_GAP_US;
    }
    let workers_end = clock.iter().copied().fold(0.0, f64::max);
    pools.iter().map(StreamPool::busy_until_us).fold(workers_end, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::launch_policy::QueuePolicy;

    const FLOPS: f64 = 455.0 * 549_888.0;

    fn items(n: usize) -> Vec<Item> {
        vec![Item { kind: 0, flops: FLOPS }; n]
    }

    /// Replay `n` one-kind items on `workers` workers sharing `streams`
    /// streams of a P100, priced on the Piz Daint host.
    fn replay(
        streams: usize,
        workers: usize,
        policy: QueuePolicy,
        cfg: AggregationConfig,
        n: usize,
    ) -> (Arc<AggregationStats>, f64) {
        let device = Device::new(DeviceSpec::p100(), streams);
        let pools = StreamPool::partition(&[device], workers, policy);
        let stats = Arc::new(AggregationStats::new(1));
        let end = run(&pools, &DeviceSpec::xeon_e5_2690v3(), cfg, &stats, &items(n));
        (stats, end)
    }

    #[test]
    fn one_worker_alternates_when_its_stream_outlasts_the_gap() {
        // A P100 item (~1.8 ms) outlasts the 1.1 ms gap, so the one
        // stream is still busy at the next attempt: GPU, CPU, GPU, …
        let (stats, end) = replay(1, 1, QueuePolicy::CpuFallback, AggregationConfig::per_item(), 4);
        assert_eq!((stats.items_gpu(), stats.items_cpu()), (2, 2));
        let host = DeviceSpec::xeon_e5_2690v3().host_kernel_time_us(FLOPS);
        let expected = 4.0 * TRAVERSAL_GAP_US + 2.0 * host;
        assert!((end - expected).abs() < 1e-6 * expected, "end {end} vs {expected}");
    }

    #[test]
    fn shares_cover_every_item_and_replays_repeat() {
        for workers in 1..6 {
            let cfg = AggregationConfig::new(3, 5);
            let (a, end_a) = replay(2, workers, QueuePolicy::CpuFallback, cfg, 17);
            let (b, end_b) = replay(2, workers, QueuePolicy::CpuFallback, cfg, 17);
            assert_eq!(a.items(), 17, "{workers} workers");
            assert_eq!((a.items_gpu(), a.batches(), end_a), (b.items_gpu(), b.batches(), end_b));
        }
    }

    #[test]
    fn a_pool_replayed_twice_starts_idle_each_time() {
        let device = Device::new(DeviceSpec::p100(), 4);
        let pools = StreamPool::partition(&[device], 4, QueuePolicy::CpuFallback);
        let stats = Arc::new(AggregationStats::new(1));
        let host = DeviceSpec::xeon_e5_2690v3();
        let first = run(&pools, &host, AggregationConfig::per_item(), &stats, &items(40));
        let gpu = stats.items_gpu();
        let second = run(&pools, &host, AggregationConfig::per_item(), &stats, &items(40));
        assert_eq!(first, second);
        assert_eq!(stats.items_gpu(), 2 * gpu, "the ledger accumulates");
    }
}
