//! A simulated GPU co-processor with CUDA-style streams and HPX-style
//! stream-event futures (paper §5.1). The device is a bench-only model:
//! no run path builds one. The benchmark's `gpusim` rung, the
//! `gpu_launch_fraction` bin and the tests route real FMM solves
//! through it (`gravity::gpu::GpuContext`); the simulation driver does
//! not.
//!
//! The paper's GPU integration has three ingredients, all reproduced
//! here:
//!
//! 1. **Streams**: each device exposes (usually 128) in-order work
//!    queues. Kernels enqueued on a stream run in order; different
//!    streams run concurrently on the device ([`stream`]).
//! 2. **Stream events as futures**: "for any CUDA stream event we create
//!    an HPX future that becomes ready once operations in the stream (up
//!    to the point of the event's creation) are finished" — see
//!    [`stream::CudaStream::record_event`], implemented with the same
//!    callback mechanism.
//! 3. **The launch policy**: "when launching a kernel, a thread first
//!    checks whether all of the CUDA streams it manages are busy. If
//!    not, the kernel will be launched on the GPU using an idle stream.
//!    Otherwise, the kernel will be executed on the CPU by the current
//!    CPU worker thread" ([`launch_policy::StreamPool::launch`], the one
//!    place that decision is made).
//!
//! A fourth ingredient comes from the follow-up paper on task-based
//! GPU work aggregation (arXiv:2210.06438): [`aggregation`] collects
//! same-kind kernel work items into slot windows and fuses each batch
//! into one stream launch, collapsing the per-launch overhead while the
//! §5.1 CPU fallback still degrades per item. A per-item launch is the
//! one-item batch, and [`AggregationStats`] is the one ledger of where
//! items ran.
//!
//! Because no physical GPU exists in this reproduction, one executor
//! thread per [`Device`] runs the enqueued closures for real — the same
//! closures a CPU fallback runs, so results are bit-identical — and
//! nothing here keeps modelled time. [`device::DeviceSpec`] carries the
//! hardware characteristics (SM count, double-precision peak, launch
//! overhead) that `perfmodel::node_level` prices in virtual time to
//! regenerate Table 2 and the §6.1.2 launch fractions.

pub mod aggregation;
pub mod device;
pub mod launch_policy;
pub mod stream;

pub use aggregation::{AggItem, AggregationConfig, AggregationRegion, AggregationStats};
pub use device::{Device, DeviceSpec};
pub use launch_policy::{LaunchOutcome, StreamPool};
pub use stream::CudaStream;
