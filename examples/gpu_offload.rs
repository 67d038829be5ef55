//! GPU offload demo (§5.1), in virtual time: a handful of FMM kernel
//! items replayed by four CPU workers that share a simulated P100's
//! streams. A worker launches on an idle stream it owns, or runs the
//! kernel on its own core when all of them are busy; the split is the
//! §6.1.2 launch fraction. The same items then run under the §6.1.2 fix
//! (queue on a busy stream) and batched four to a launch
//! (arXiv:2210.06438).
//!
//! ```sh
//! cargo run --release -p examples --bin gpu_offload
//! ```

use gpusim::aggregation::{AggregationConfig, AggregationStats, Item};
use gpusim::device::{Device, DeviceSpec};
use gpusim::launch_policy::{QueuePolicy, StreamPool};
use std::sync::Arc;

const WORKERS: usize = 4;
const ITEMS: usize = 16;

/// Replay `ITEMS` multipole kernels on `streams` streams and print the
/// split.
fn replay(streams: usize, policy: QueuePolicy, cfg: AggregationConfig, label: &str) {
    let pools = StreamPool::partition(&[Device::new(DeviceSpec::p100(), streams)], WORKERS, policy);
    let stats = Arc::new(AggregationStats::new(1));
    let flops = (gravity::MULTI_FLOPS * gravity::INTERACTIONS_PER_LAUNCH) as f64;
    let items = vec![Item { kind: 0, flops }; ITEMS];
    let host = DeviceSpec::xeon_e5_2690v3();
    let end_us = gpusim::engine::run(&pools, &host, cfg, &stats, &items);
    println!(
        "{label:<42} {:>3} GPU {:>3} CPU {:>3} launches {:>6.1}% GPU, done at {:>5.1} ms",
        stats.items_gpu(),
        stats.items_cpu(),
        stats.batches_gpu(),
        100.0 * stats.gpu_fraction(),
        end_us / 1e3
    );
}

fn main() {
    println!("GPU offload demo: {ITEMS} FMM kernels, {WORKERS} workers, a P100 in virtual time\n");
    let per_item = AggregationConfig::per_item();
    replay(4, QueuePolicy::CpuFallback, per_item, "4 streams, CPU fallback");
    replay(1, QueuePolicy::CpuFallback, per_item, "1 stream, CPU fallback (starved)");
    replay(4, QueuePolicy::QueueOnBusy, per_item, "4 streams, queue on busy (the fix)");
    let batched = AggregationConfig::new(4, 16);
    replay(4, QueuePolicy::QueueOnBusy, batched, "4 streams, queue on busy, 4 to a launch");
    println!("\npaper §6.1.2: 97.4995%-99.9997% of kernels on the GPU, depending on");
    println!("the worker:stream ratio (table2_node_level models those nodes)");
}
