//! Work aggregation: fuse many small kernels into batched launches.
//!
//! The paper launches one simulated-GPU kernel per FMM work item, and
//! its follow-up ("From Task-Based GPU Work Aggregation to Stellar
//! Mergers", arXiv:2210.06438, the CPPuddle aggregation executors)
//! shows the fix: collect same-kind kernel work items that arrive close
//! together in time, and launch them as *one* fused kernel, paying the
//! per-launch overhead once per batch instead of once per item.
//!
//! An [`AggregationRegion`] reproduces that executor shape:
//!
//! - one *lane* per kernel kind buffers incoming [`AggItem`]s;
//! - a lane reaching its **slot** capacity flushes itself
//!   ([`FlushTrigger::Full`] — the CPPuddle "aggregation executor is
//!   full" path);
//! - the total buffered across all lanes reaching the **window** bound
//!   flushes the whole region ([`FlushTrigger::Window`] — bounded
//!   latency even when no single lane fills);
//! - the producer calls [`AggregationRegion::flush`] when it runs out
//!   of work to submit ([`FlushTrigger::Idle`] — the "no more tasks
//!   arriving" path), so no item is ever stranded.
//!
//! A flush hands the batch to [`StreamPool::launch_fused`]: one idle
//! stream runs every item of the batch in submission order (one device
//! launch, *n* items), and when the §5.1 policy says the CPU must take
//! the work instead, the region degrades to running each item inline,
//! per item, exactly as an unaggregated launch would have. Items are
//! opaque closures that receive only "did this run on the device", so
//! where a batch lands — and how items were grouped into batches —
//! can never change the numbers, only the counters.

use crate::launch_policy::{FusedOutcome, StreamPool};
use amt::trace::{self, TraceCategory};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One unit of kernel work buffered by a region. The argument is
/// whether the item executed on the simulated device (`true`) or inline
/// on a CPU thread (`false`) — the item's results must not depend on it.
pub type AggItem = Box<dyn FnOnce(bool) + Send + 'static>;

/// Default per-kind slot capacity (flush-on-full threshold).
pub const DEFAULT_AGG_SLOTS: usize = 8;

/// Default region-wide buffered-item bound (flush-on-window threshold).
pub const DEFAULT_AGG_WINDOW: usize = 32;

/// Aggregation tuning of one region: `slots` items of one kind fuse
/// into one launch; `window` items buffered across all kinds force a
/// region-wide flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationConfig {
    /// Per-kind lane capacity; reaching it flushes that lane. `1`
    /// degenerates to per-item launches (the pre-aggregation behaviour).
    pub slots: usize,
    /// Total buffered items (all lanes) that force a full flush.
    pub window: usize,
}

impl AggregationConfig {
    /// Build a normalized config: `slots >= 1`, `window >= slots` (a
    /// window smaller than one batch could never be reached).
    pub fn new(slots: usize, window: usize) -> AggregationConfig {
        let slots = slots.max(1);
        AggregationConfig { slots, window: window.max(slots) }
    }

    /// Per-item launches: every submit flushes immediately.
    pub fn per_item() -> AggregationConfig {
        AggregationConfig::new(1, 1)
    }
}

impl Default for AggregationConfig {
    fn default() -> AggregationConfig {
        AggregationConfig::new(DEFAULT_AGG_SLOTS, DEFAULT_AGG_WINDOW)
    }
}

/// Why a batch was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The lane reached its slot capacity.
    Full,
    /// The region-wide buffered total reached the window bound.
    Window,
    /// The producer declared itself idle (explicit flush).
    Idle,
}

impl FlushTrigger {
    fn as_str(self) -> &'static str {
        match self {
            FlushTrigger::Full => "full",
            FlushTrigger::Window => "window",
            FlushTrigger::Idle => "idle",
        }
    }
}

/// Batch-size histogram buckets: exact 1, exact 2, then ≤4, ≤8, ≤16,
/// and >16.
pub const HIST_BUCKETS: usize = 6;

/// Stable labels of the histogram buckets, for counter names.
pub const HIST_LABELS: [&str; HIST_BUCKETS] = ["1", "2", "le4", "le8", "le16", "gt16"];

fn bucket(n: usize) -> usize {
    match n {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

/// Cumulative aggregation counters, shared by every region of one
/// context: batch/item split per execution site, flush-trigger
/// breakdown, and a per-kind batch-size histogram.
pub struct AggregationStats {
    batches_gpu: AtomicU64,
    items_gpu: AtomicU64,
    batches_cpu: AtomicU64,
    items_cpu: AtomicU64,
    flush_full: AtomicU64,
    flush_window: AtomicU64,
    flush_idle: AtomicU64,
    /// `hist[kind][bucket]` — batch sizes per kernel kind.
    hist: Vec<[AtomicU64; HIST_BUCKETS]>,
}

impl AggregationStats {
    /// Counters for `n_kinds` kernel kinds.
    pub fn new(n_kinds: usize) -> AggregationStats {
        AggregationStats {
            batches_gpu: AtomicU64::new(0),
            items_gpu: AtomicU64::new(0),
            batches_cpu: AtomicU64::new(0),
            items_cpu: AtomicU64::new(0),
            flush_full: AtomicU64::new(0),
            flush_window: AtomicU64::new(0),
            flush_idle: AtomicU64::new(0),
            hist: (0..n_kinds).map(|_| Default::default()).collect(),
        }
    }

    fn record(&self, kind: usize, n: usize, trigger: FlushTrigger, on_gpu: bool) {
        if on_gpu {
            self.batches_gpu.fetch_add(1, Ordering::Relaxed);
            self.items_gpu.fetch_add(n as u64, Ordering::Relaxed);
        } else {
            self.batches_cpu.fetch_add(1, Ordering::Relaxed);
            self.items_cpu.fetch_add(n as u64, Ordering::Relaxed);
        }
        match trigger {
            FlushTrigger::Full => self.flush_full.fetch_add(1, Ordering::Relaxed),
            FlushTrigger::Window => self.flush_window.fetch_add(1, Ordering::Relaxed),
            FlushTrigger::Idle => self.flush_idle.fetch_add(1, Ordering::Relaxed),
        };
        self.hist[kind][bucket(n)].fetch_add(1, Ordering::Relaxed);
    }

    /// Fused launches enqueued on a device stream.
    pub fn batches_gpu(&self) -> u64 {
        self.batches_gpu.load(Ordering::Relaxed)
    }

    /// Items that executed inside a fused device launch.
    pub fn items_gpu(&self) -> u64 {
        self.items_gpu.load(Ordering::Relaxed)
    }

    /// Batches that degraded to per-item CPU execution.
    pub fn batches_cpu(&self) -> u64 {
        self.batches_cpu.load(Ordering::Relaxed)
    }

    /// Items that ran inline on the CPU (per item, as unaggregated).
    pub fn items_cpu(&self) -> u64 {
        self.items_cpu.load(Ordering::Relaxed)
    }

    /// Flushes caused by a full lane.
    pub fn flush_full(&self) -> u64 {
        self.flush_full.load(Ordering::Relaxed)
    }

    /// Flushes caused by the region-wide window bound.
    pub fn flush_window(&self) -> u64 {
        self.flush_window.load(Ordering::Relaxed)
    }

    /// Flushes caused by an explicit producer-idle flush.
    pub fn flush_idle(&self) -> u64 {
        self.flush_idle.load(Ordering::Relaxed)
    }

    /// Total flushed batches across both sites.
    pub fn batches(&self) -> u64 {
        self.batches_gpu() + self.batches_cpu()
    }

    /// Total flushed items across both sites.
    pub fn items(&self) -> u64 {
        self.items_gpu() + self.items_cpu()
    }

    /// One batch-size histogram bucket of one kind.
    pub fn hist(&self, kind: usize, bucket: usize) -> u64 {
        self.hist[kind][bucket].load(Ordering::Relaxed)
    }

    /// Mean slot-window occupancy in permille: `1000 · items /
    /// (batches · slots)`. 1000 means every flushed batch was full.
    pub fn occupancy_permille(&self, slots: usize) -> u64 {
        let batches = self.batches();
        if batches == 0 {
            return 0;
        }
        1000 * self.items() / (batches * slots.max(1) as u64)
    }
}

/// A work-aggregation region: per-kind lanes buffering [`AggItem`]s
/// until a flush trigger fires, then fusing each batch into one
/// [`StreamPool::launch_fused`] call.
///
/// Thread safety: lanes are mutex-guarded, so a region may be shared
/// (the overflow region of a context is hit by arbitrary helper
/// threads); the intended shape is one region per worker, matching the
/// per-worker stream pools of §5.1. Slot/window settings are atomics so
/// a context can retune a live region.
pub struct AggregationRegion {
    lanes: Vec<Mutex<Vec<AggItem>>>,
    buffered: AtomicUsize,
    slots: AtomicUsize,
    window: AtomicUsize,
    stats: Arc<AggregationStats>,
}

impl AggregationRegion {
    /// A region with one lane per kernel kind, recording into `stats`
    /// (shared across the regions of one context).
    pub fn new(n_kinds: usize, cfg: AggregationConfig, stats: Arc<AggregationStats>) -> Self {
        let cfg = AggregationConfig::new(cfg.slots, cfg.window);
        AggregationRegion {
            lanes: (0..n_kinds).map(|_| Mutex::new(Vec::new())).collect(),
            buffered: AtomicUsize::new(0),
            slots: AtomicUsize::new(cfg.slots),
            window: AtomicUsize::new(cfg.window),
            stats,
        }
    }

    /// Retune the flush thresholds (normalized).
    pub fn set_config(&self, cfg: AggregationConfig) {
        let cfg = AggregationConfig::new(cfg.slots, cfg.window);
        self.slots.store(cfg.slots, Ordering::Relaxed);
        self.window.store(cfg.window, Ordering::Relaxed);
    }

    /// The current flush thresholds.
    pub fn config(&self) -> AggregationConfig {
        AggregationConfig {
            slots: self.slots.load(Ordering::Relaxed),
            window: self.window.load(Ordering::Relaxed),
        }
    }

    /// The shared counters.
    pub fn stats(&self) -> &Arc<AggregationStats> {
        &self.stats
    }

    /// Items currently buffered across all lanes.
    pub fn buffered(&self) -> usize {
        self.buffered.load(Ordering::Relaxed)
    }

    /// Buffer `item` on `kind`'s lane, flushing through `pool` when a
    /// slot or window threshold is reached. A flush may run CPU-degraded
    /// items inline on the calling thread before returning.
    pub fn submit(&self, pool: &StreamPool, kind: usize, item: AggItem) {
        let slots = self.slots.load(Ordering::Relaxed);
        let full = {
            let mut lane = self.lanes[kind].lock();
            lane.push(item);
            lane.len() >= slots
        };
        self.buffered.fetch_add(1, Ordering::Relaxed);
        if full {
            self.flush_lane(pool, kind, FlushTrigger::Full);
            return;
        }
        if self.buffered.load(Ordering::Relaxed) >= self.window.load(Ordering::Relaxed) {
            self.flush_all(pool, FlushTrigger::Window);
        }
    }

    /// Producer-idle flush: drain every lane (no-op when empty).
    pub fn flush(&self, pool: &StreamPool) {
        self.flush_all(pool, FlushTrigger::Idle);
    }

    fn flush_all(&self, pool: &StreamPool, trigger: FlushTrigger) {
        for kind in 0..self.lanes.len() {
            self.flush_lane(pool, kind, trigger);
        }
    }

    fn flush_lane(&self, pool: &StreamPool, kind: usize, trigger: FlushTrigger) {
        let items = std::mem::take(&mut *self.lanes[kind].lock());
        if items.is_empty() {
            return;
        }
        let n = items.len();
        self.buffered.fetch_sub(n, Ordering::Relaxed);
        let _span = trace::span_labeled(TraceCategory::AggFlush, || {
            format!("kind{kind} n={n} {}", trigger.as_str())
        });
        match pool.launch_fused(items) {
            FusedOutcome::Gpu(_event) => {
                // Completion is observed through the items' own
                // promises, not the stream event.
                self.stats.record(kind, n, trigger, true);
            }
            FusedOutcome::CpuFallback(items) => {
                self.stats.record(kind, n, trigger, false);
                for item in items {
                    item(false);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceSpec};
    use crate::launch_policy::{LaunchStats, QueuePolicy};
    use std::sync::atomic::AtomicU64 as TestCounter;

    // The device must outlive the pool: dropping the `Arc<Device>`
    // shuts the executor down, and ops enqueued after that never run.
    fn pool(n_streams: usize, policy: QueuePolicy) -> (Arc<Device>, StreamPool) {
        let dev = Device::new(DeviceSpec::p100(), n_streams);
        let pool = StreamPool::partition(dev.streams(), 1, policy, Arc::new(LaunchStats::new()))
            .into_iter()
            .next()
            .unwrap();
        (dev, pool)
    }

    fn counting_item(hits: &Arc<TestCounter>, gpu_hits: &Arc<TestCounter>) -> AggItem {
        let h = Arc::clone(hits);
        let g = Arc::clone(gpu_hits);
        Box::new(move |on_gpu| {
            h.fetch_add(1, Ordering::SeqCst);
            if on_gpu {
                g.fetch_add(1, Ordering::SeqCst);
            }
        })
    }

    #[test]
    fn full_lane_flushes_one_fused_launch() {
        let (_dev, pool) = pool(2, QueuePolicy::CpuFallback);
        let stats = Arc::new(AggregationStats::new(1));
        let region = AggregationRegion::new(1, AggregationConfig::new(4, 64), Arc::clone(&stats));
        let hits = Arc::new(TestCounter::new(0));
        let gpu_hits = Arc::new(TestCounter::new(0));
        for _ in 0..4 {
            region.submit(&pool, 0, counting_item(&hits, &gpu_hits));
        }
        // Slot capacity reached → one fused launch with all 4 items.
        pool.synchronize();
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert_eq!(gpu_hits.load(Ordering::SeqCst), 4);
        assert_eq!(stats.batches_gpu(), 1);
        assert_eq!(stats.items_gpu(), 4);
        assert_eq!(stats.flush_full(), 1);
        assert_eq!(region.buffered(), 0);
        assert_eq!(pool.stats().gpu_launches(), 4, "per-item launch stats");
    }

    #[test]
    fn idle_flush_drains_partial_batches() {
        let (_dev, pool) = pool(2, QueuePolicy::CpuFallback);
        let stats = Arc::new(AggregationStats::new(2));
        let region = AggregationRegion::new(2, AggregationConfig::new(8, 64), Arc::clone(&stats));
        let hits = Arc::new(TestCounter::new(0));
        let gpu_hits = Arc::new(TestCounter::new(0));
        region.submit(&pool, 0, counting_item(&hits, &gpu_hits));
        region.submit(&pool, 1, counting_item(&hits, &gpu_hits));
        region.submit(&pool, 1, counting_item(&hits, &gpu_hits));
        assert_eq!(region.buffered(), 3);
        region.flush(&pool);
        pool.synchronize();
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        assert_eq!(stats.batches_gpu(), 2, "one batch per non-empty lane");
        assert_eq!(stats.flush_idle(), 2);
        assert_eq!(stats.hist(0, 0), 1, "size-1 batch on lane 0");
        assert_eq!(stats.hist(1, 1), 1, "size-2 batch on lane 1");
        assert_eq!(region.buffered(), 0);
    }

    #[test]
    fn window_bound_flushes_every_lane() {
        let (_dev, pool) = pool(2, QueuePolicy::CpuFallback);
        let stats = Arc::new(AggregationStats::new(2));
        // No lane ever reaches its 3 slots (2 items each), but 4 total
        // buffered items hit the window bound and flush the region.
        let region = AggregationRegion::new(2, AggregationConfig::new(3, 4), Arc::clone(&stats));
        let hits = Arc::new(TestCounter::new(0));
        let gpu_hits = Arc::new(TestCounter::new(0));
        for kind in [0usize, 1, 0, 1] {
            region.submit(&pool, kind, counting_item(&hits, &gpu_hits));
        }
        pool.synchronize();
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert_eq!(region.buffered(), 0);
        assert_eq!(stats.flush_window(), 2);
    }

    #[test]
    fn no_idle_stream_degrades_per_item_on_cpu() {
        // Zero streams: §5.1 CPU fallback for every batch, run inline
        // per item on the submitting thread.
        let (_dev, pool) = pool(1, QueuePolicy::CpuFallback);
        // Occupy the only stream so nothing is idle.
        let gate = Arc::new(TestCounter::new(0));
        let g = Arc::clone(&gate);
        let block: AggItem = Box::new(move |_| {
            while g.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
        });
        let FusedOutcome::Gpu(ev) = pool.launch_fused(vec![block]) else {
            panic!("idle stream must take the blocker");
        };
        let stats = Arc::new(AggregationStats::new(1));
        let region = AggregationRegion::new(1, AggregationConfig::new(2, 64), Arc::clone(&stats));
        let hits = Arc::new(TestCounter::new(0));
        let gpu_hits = Arc::new(TestCounter::new(0));
        region.submit(&pool, 0, counting_item(&hits, &gpu_hits));
        region.submit(&pool, 0, counting_item(&hits, &gpu_hits));
        // The fallback batch ran inline before submit returned.
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(gpu_hits.load(Ordering::SeqCst), 0, "fallback items run on CPU");
        assert_eq!(stats.batches_cpu(), 1);
        assert_eq!(stats.items_cpu(), 2);
        assert_eq!(pool.stats().cpu_launches(), 2, "per-item fallback stats");
        gate.store(1, Ordering::SeqCst);
        ev.get();
    }

    #[test]
    fn config_normalizes() {
        let c = AggregationConfig::new(0, 0);
        assert_eq!(c.slots, 1);
        assert_eq!(c.window, 1);
        let c = AggregationConfig::new(16, 4);
        assert_eq!(c.window, 16, "window clamps up to slots");
        assert_eq!(AggregationConfig::per_item(), AggregationConfig::new(1, 1));
    }

    #[test]
    fn occupancy_and_histogram_buckets() {
        let s = AggregationStats::new(1);
        s.record(0, 8, FlushTrigger::Full, true);
        s.record(0, 4, FlushTrigger::Idle, true);
        assert_eq!(s.occupancy_permille(8), 1000 * 12 / (2 * 8));
        assert_eq!(s.hist(0, 3), 1); // le8
        assert_eq!(s.hist(0, 2), 1); // le4
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(16), 4);
        assert_eq!(bucket(17), 5);
    }
}
