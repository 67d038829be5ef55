//! GPU co-processor integration: the work items of a real futurized FMM
//! solve, replayed through the §5.1 launch policy on the simulated
//! device, land in the launch ledger once each, and the §6.1.2 fix puts
//! all of them on the GPU.

use amt::Runtime;
use gpusim::aggregation::{AggregationConfig, AggregationStats, Item};
use gpusim::device::{Device, DeviceSpec};
use gpusim::launch_policy::{QueuePolicy, StreamPool};
use gravity::gpu::GpuContext;
use gravity::solver::FmmSolver;
use hydro::eos::IdealGas;
use integration_tests::{filled_uniform_tree, two_blob_profile};
use std::sync::Arc;

#[test]
fn launch_policy_drives_many_kernels_through_the_runtime() {
    // The §5.1 pattern end to end: a solve on the AMT runtime, its
    // items replayed on a worker per stream pool, falling back to the
    // CPU under pressure. The ledger holds every node's item once.
    let tree = Arc::new(filled_uniform_tree(16.0, 2, &IdealGas::monatomic(), two_blob_profile));
    let device = Device::new(DeviceSpec::p100(), 4);
    let solver = Arc::new(
        FmmSolver::with_gpu(0.5, GpuContext::new(&device, 4, QueuePolicy::CpuFallback))
            .with_aggregation(1, 1),
    );
    let rt = Runtime::new(4);
    let field = solver.solve_parallel(&tree, &rt);
    let agg = solver.gpu().unwrap().agg_stats();
    assert_eq!(agg.items(), tree.len() as u64, "one ledger item per node");
    assert_eq!(agg.items(), field.kernel_launches);
    assert_eq!(agg.batches(), agg.items(), "per-item launches");
    assert!(agg.items_gpu() > 0, "at least some kernels must reach the GPU");
    assert!(agg.items_cpu() > 0, "a stream per worker cannot keep up with a 1.1 ms gap");
}

#[test]
fn queue_on_busy_reaches_full_gpu_fraction() {
    // The §6.1.2 proposed fix as an ablation: queueing on busy streams
    // puts 100% of kernels on the GPU even under pressure.
    let device = Device::new(DeviceSpec::p100(), 2);
    let pools = StreamPool::partition(&[device], 1, QueuePolicy::QueueOnBusy);
    let stats = Arc::new(AggregationStats::new(1));
    let items = vec![Item { kind: 0, flops: 455.0 * 549_888.0 }; 64];
    let host = DeviceSpec::xeon_e5_2690v3();
    gpusim::engine::run(&pools, &host, AggregationConfig::per_item(), &stats, &items);
    assert_eq!(stats.items_gpu(), 64);
    assert_eq!(stats.gpu_fraction(), 1.0);
}
