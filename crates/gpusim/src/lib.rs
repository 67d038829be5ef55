//! A simulated GPU co-processor in virtual time, and the one model of
//! the paper's §5.1 launch policy. Two readers drive it:
//! `perfmodel::node_level` prices Table 2 and the §6.1.2 launch
//! fractions with it, and `gravity::gpu::GpuContext` replays the work
//! items of a real FMM solve through it (the benchmark's `gpusim` rung,
//! the `gpu_launch_fraction` bin and the tests build one; the
//! simulation driver does not).
//!
//! The paper's GPU integration has three ingredients, all modelled
//! here:
//!
//! 1. **Streams**: each device exposes (usually 128) in-order work
//!    queues. A [`Device`] keeps, per stream, the virtual time it is
//!    busy until, and a heap of `sm_count / 8` kernel slots (§5.1
//!    launches 8 blocks a kernel), so batches on different streams run
//!    concurrently up to the device's width ([`device`]).
//! 2. **The launch policy**: "when launching a kernel, a thread first
//!    checks whether all of the CUDA streams it manages are busy. If
//!    not, the kernel will be launched on the GPU using an idle stream.
//!    Otherwise, the kernel will be executed on the CPU by the current
//!    CPU worker thread" ([`launch_policy::StreamPool::launch`], the one
//!    place that decision is made).
//! 3. **The workers**: [`engine::run`] runs one virtual worker per
//!    stream pool over an item stream. The worker with the earliest
//!    clock takes the next item, submits it, and pays the traversal gap
//!    before its next one; a CPU fallback blocks it for the host kernel
//!    time, while a device launch lets it go on at once.
//!
//! A fourth ingredient comes from the follow-up paper on task-based
//! GPU work aggregation (arXiv:2210.06438): [`aggregation`] collects
//! same-kind work items into slot windows and fuses each batch into one
//! stream launch, paying the launch overhead once, while the §5.1 CPU
//! fallback still degrades per item. A per-item launch is the one-item
//! batch, and [`AggregationStats`] is the one ledger of where items ran.
//!
//! Items are descriptors — a kind and a flop count — not code: nothing
//! here computes a result, so where an item lands can only change the
//! counters and the clocks, and a replay is a deterministic function of
//! its inputs. [`device::DeviceSpec`] carries the hardware (SM count,
//! double-precision peak, launch overhead, the FMM kernels' fraction of
//! peak) that prices an item on a device or a host core.

pub mod aggregation;
pub mod device;
pub mod engine;
pub mod launch_policy;

pub use aggregation::{AggregationConfig, AggregationRegion, AggregationStats, Item};
pub use device::{Device, DeviceSpec};
pub use launch_policy::{LaunchOutcome, StreamPool};
