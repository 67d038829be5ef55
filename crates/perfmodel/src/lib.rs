//! Discrete-event performance models — the stand-in for the paper's
//! hardware (repro band: no P100/V100 GPUs, no Cray Aries, no 5400-node
//! Piz Daint available).
//!
//! * [`machine`] — the hardware tables: the Table 2 evaluation
//!   platforms (the last is Table 3's Piz Daint node) and their
//!   efficiency factors.
//! * [`node_level`] — an event-driven simulation of C worker threads
//!   driving S CUDA streams with the §5.1 launch policy. It regenerates
//!   **Table 2** (total/FMM runtime, GFLOP/s, fraction of peak per
//!   platform) and the **§6.1.2** GPU-launch fractions, including the
//!   starvation effect (20 cores + 1 V100 slower than 10 cores +
//!   1 V100).
//! * [`calibrate`] — extraction of every workload constant the scale-out
//!   model needs from *measured* data: [`amt::trace`] span histograms,
//!   parcelport counters, GPU-aggregation statistics, and a timed
//!   checkpoint round-trip.
//! * [`des`] — the trace-calibrated discrete-event co-simulation behind
//!   the reproduced **Figures 2 and 3** (REPRODUCTION.md): per-locality
//!   core/NIC/stream [`des::Component`]s cycling over a shared event
//!   queue, running the real octree decomposition at up to 5400
//!   simulated localities on the two [`parcelport::NetParams`] transport
//!   models, plus the checkpoint-cadence sweep.
//! * [`scaling`] — the Figure 2/3 output type ([`ScalingPoint`],
//!   [`efficiency`]) and the V1309 structure-tree builder the scaling
//!   experiments decompose.

#![warn(missing_docs)]

pub mod calibrate;
pub mod des;
pub mod machine;
pub mod node_level;
pub mod scaling;

pub use calibrate::{Calibration, CheckpointCost, Measurements};
pub use des::{simulate_scaleout, sweep_cadence, CommPattern, DesOpts, ScaleoutResult};
pub use machine::NodeConfig;
pub use node_level::{simulate_node, NodeLevelResult};
pub use scaling::{efficiency, ScalingPoint};
