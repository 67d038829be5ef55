//! Trace-calibrated discrete-event co-simulation of the full machine —
//! the scale-out model behind the reproduced Figures 2 and 3 (see
//! REPRODUCTION.md).
//!
//! This module *runs* the machine: every simulated locality is a trio of
//! [`Component`] objects (a worker-pool core, a NIC, a CUDA-stream set)
//! cycling over a shared [`SimContext`] event queue. The workload is the
//! real octree decomposition — [`CommPattern::from_tree`] partitions the
//! actual V1309 structure tree with the SFC sharder and extracts the
//! leaf-halo push plan — and every cost constant comes from a measured
//! [`Calibration`] (kernel-duration histograms, parcel-size
//! distributions, launch-aggregation collapse), not from hand-entered
//! numbers. The only engineering estimate left is the Aries wire model
//! ([`NetParams`]), which this repro-band host cannot measure.
//!
//! # Per-step event flow
//!
//! 1. The barrier releases all localities at a common time `T`
//!    ([`Payload::StepStart`] to every component).
//! 2. Each **core** samples its per-pass compute wall time from the
//!    calibrated histograms: pass wall = max(pass work ÷ effective
//!    threads, longest sampled span) — the critical-path floor that
//!    produces the paper's "too little work per node" roll-off.
//! 3. Each **stream set** charges `ceil(items / collapse) ×
//!    launch_overhead` for the aggregated GPU launches, overlapped with
//!    compute.
//! 4. Each **NIC** serializes its outbound channels: per-message send
//!    CPU is drawn from the *measured* `parcel/send` span-duration
//!    histogram (same host clock as the kernel histograms, so compute
//!    and communication stay in one unit system) and scaled by the
//!    NetParams ratio between the simulated and the measured transport
//!    — the wire model supplies only *relative* transport cost. The
//!    channel's sampled bytes go on the wire; the destination NIC
//!    serializes receive processing (measured `parcel/recv` durations,
//!    same scaling) and reports halo completion.
//! 5. A locality arrives at the barrier when compute ∧ streams ∧ halos
//!    are done; the barrier release adds a `2⌈log₂N⌉·latency` allreduce
//!    (the dt reduction).
//!
//! The barrier component is the model of that dt reduction as a tree
//! allreduce, the form a real machine runs. The in-process
//! `core::distributed` driver has no barrier: its dt reduce is one
//! all-to-all exchange round of per-locality minima, n(n−1) parcels,
//! which is fine at the ≤ 4 localities the tests run and is not what
//! this model prices at 5400.
//!
//! Determinism: the event queue is totally ordered by (time bits,
//! sequence number) and every component owns its own splitmix64 stream
//! seeded from `(seed, component id)`, so a `(pattern, calibration,
//! seed)` triple always yields bit-identical [`ScalingPoint`]s.
//!
//! # Example
//!
//! ```
//! use parcelport::netmodel::TransportKind;
//! use perfmodel::calibrate::Calibration;
//! use perfmodel::des::{simulate_scaleout, CommPattern, DesOpts};
//! use perfmodel::scaling::v1309_structure_tree;
//!
//! let tree = v1309_structure_tree(8);
//! let pattern = CommPattern::from_tree(&tree, 4).unwrap();
//! // Synthetic calibration: 3 spans of 200 µs per sub-grid per step on
//! // 12 threads. The real bench extracts this from a traced solve.
//! let calib = Calibration::synthetic(200_000, 3.0, 12);
//! let opts = DesOpts { steps: 2, seed: 42 };
//! let r = simulate_scaleout(&pattern, TransportKind::Libfabric, &calib, &opts).unwrap();
//! assert_eq!(r.point.nodes, 4);
//! assert!(r.point.step_time_s > 0.0);
//! assert_eq!(r.step_times_s.len(), 2);
//! ```

use crate::calibrate::{Calibration, KernelCal};
use crate::scaling::ScalingPoint;
use amt::trace::DurationHistogram;
use octree::shard::ShardMap;
use octree::tree::Octree;
use parcelport::netmodel::{NetParams, TransportKind};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use util::error::{Error, Result};

/// A tiny deterministic splitmix64 stream; every component owns one so
/// simulation results are independent of event-dispatch details.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seed a new stream.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------
// Communication pattern: the real tree decomposition, reduced to what
// the DES needs (per-locality sub-grid counts and the channel census).
// ---------------------------------------------------------------------

/// One static src → dst halo channel and its leaf-halo messages per step.
#[derive(Debug, Clone, Copy)]
pub struct ChannelSpec {
    /// Sending locality.
    pub src: u32,
    /// Receiving locality.
    pub dst: u32,
    /// Leaf-halo messages this channel carries per step (before the
    /// measured amplification factor is applied).
    pub msgs: u64,
}

/// The simulated topology: the SFC partition of a real structure tree
/// and its halo-exchange channel census.
#[derive(Debug, Clone)]
pub struct CommPattern {
    /// Refinement level of the decomposed tree.
    pub level: u8,
    /// Simulated locality count.
    pub localities: usize,
    /// Total sub-grids (tree leaves).
    pub subgrids: usize,
    /// Sub-grids owned by each locality.
    pub owned: Vec<u32>,
    /// All src → dst halo channels.
    pub channels: Vec<ChannelSpec>,
    /// Inbound channel count per locality.
    pub inbound: Vec<u32>,
    /// Outbound channel indices (into [`CommPattern::channels`]) per
    /// locality.
    pub outbound: Vec<Vec<u32>>,
}

impl CommPattern {
    /// Partition `tree` over `localities` shards with the real SFC
    /// sharder and extract the halo push plan as a channel census.
    pub fn from_tree(tree: &Octree, localities: usize) -> Result<CommPattern> {
        if localities == 0 {
            return Err(Error::Model("scale-out needs at least one locality".into()));
        }
        let map = ShardMap::partition(tree, localities)?;
        let plan = map.halo_push_plan(tree);
        let mut owned = Vec::with_capacity(localities);
        for shard in 0..localities {
            owned.push(map.owned(shard as u32).len() as u32);
        }
        let mut channels = Vec::new();
        let mut inbound = vec![0u32; localities];
        let mut outbound = vec![Vec::new(); localities];
        for (src, by_dst) in plan.iter().enumerate() {
            for (&dst, keys) in by_dst {
                outbound[src].push(channels.len() as u32);
                inbound[dst as usize] += 1;
                channels.push(ChannelSpec { src: src as u32, dst, msgs: keys.len() as u64 });
            }
        }
        Ok(CommPattern {
            level: tree.max_level(),
            localities,
            subgrids: map.n_leaves(),
            owned,
            channels,
            inbound,
            outbound,
        })
    }
}

// ---------------------------------------------------------------------
// Event queue and shared context.
// ---------------------------------------------------------------------

/// An event payload delivered to a [`Component`].
#[derive(Debug, Clone, Copy)]
pub enum Payload {
    /// The barrier released a new step; every component resets.
    StepStart,
    /// A core finished its sampled compute for the step.
    ComputeDone,
    /// A stream set drained its aggregated launch queue (sent to the
    /// owning core).
    StreamsDone,
    /// A NIC finished receiving and processing every inbound channel
    /// (sent to the owning core).
    HaloDone,
    /// A channel's payload arrived at the destination NIC; processing
    /// it costs `recv_cpu_us` of serialized NIC time.
    Deliver {
        /// Receive-side CPU microseconds for the whole channel.
        recv_cpu_us: f64,
    },
    /// A locality completed compute ∧ streams ∧ halos (sent to the
    /// barrier).
    Arrive,
}

struct Event {
    time_us: f64,
    seq: u64,
    target: usize,
    payload: Payload,
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.time_us.to_bits() == other.time_us.to_bits() && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops
    // first and ties resolve by insertion order — fully deterministic.
    fn cmp(&self, other: &Event) -> Ordering {
        other
            .time_us
            .total_cmp(&self.time_us)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Aggregate cost accounting over a whole run (microseconds summed over
/// all localities and steps) — the breakdown REPRODUCTION.md reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesStats {
    /// Events dispatched.
    pub events: u64,
    /// Worker-pool compute wall time.
    pub compute_us: f64,
    /// GPU launch-overhead wall time.
    pub launch_us: f64,
    /// Send-side per-message CPU time.
    pub send_cpu_us: f64,
    /// Receive-side per-message CPU time.
    pub recv_cpu_us: f64,
    /// Wire (latency + bandwidth + copy) time.
    pub wire_us: f64,
}

/// The shared simulation context every [`Component`] cycles over: the
/// clock, the totally-ordered event queue, and run statistics.
pub struct SimContext {
    now_us: f64,
    seq: u64,
    queue: BinaryHeap<Event>,
    step_ends_us: Vec<f64>,
    /// Aggregate cost accounting, updated by components as they run.
    pub stats: DesStats,
}

impl SimContext {
    fn new() -> SimContext {
        SimContext {
            now_us: 0.0,
            seq: 0,
            queue: BinaryHeap::new(),
            step_ends_us: Vec::new(),
            stats: DesStats::default(),
        }
    }

    /// The current simulated time, microseconds.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Schedule `payload` for component `target` at absolute time
    /// `at_us` (clamped to now — events cannot fire in the past).
    pub fn send(&mut self, target: usize, at_us: f64, payload: Payload) {
        let time_us = if at_us < self.now_us { self.now_us } else { at_us };
        self.queue.push(Event { time_us, seq: self.seq, target, payload });
        self.seq += 1;
    }
}

/// Static per-run parameters shared (immutably) by all components.
pub struct SimSpec {
    /// The wire/CPU cost model of the simulated transport.
    pub net: NetParams,
    /// Worker threads per locality.
    pub threads: f64,
    /// Measured worker utilization (divides effective thread count).
    pub utilization: f64,
    /// Calibrated kernel categories with at least one measured span.
    pub kernels: Vec<KernelCal>,
    /// Measured parcel payload size distribution, bytes.
    pub parcel_bytes: DurationHistogram,
    /// Measured per-parcel send CPU distribution, ns (host clock).
    pub parcel_send_cpu: DurationHistogram,
    /// Measured per-parcel receive CPU distribution, ns (host clock).
    pub parcel_recv_cpu: DurationHistogram,
    /// Simulated ÷ measured transport send-CPU ratio (NetParams): the
    /// measured per-parcel cost is the baseline, the wire model only
    /// supplies the *relative* cost of the other transport.
    pub send_scale: f64,
    /// Simulated ÷ measured transport receive-CPU ratio.
    pub recv_scale: f64,
    /// GPU work items per sub-grid per step.
    pub launch_items_per_subgrid: f64,
    /// Items per fused launch (measured aggregation collapse).
    pub agg_collapse: f64,
    /// Per-launch overhead, µs.
    pub launch_overhead_us: f64,
    /// Tree-allreduce cost of the dt reduction the barrier models, µs.
    pub allreduce_us: f64,
    /// Steps to simulate.
    pub steps: u32,
}

/// A simulated hardware object — a locality's worker-pool core, its
/// NIC, its CUDA-stream set, or the global barrier. The engine pops
/// events off the shared queue and hands each to its target component.
pub trait Component {
    /// React to `payload` at `ctx.now_us()`: update internal state and
    /// schedule follow-up events via [`SimContext::send`].
    fn handle(&mut self, payload: Payload, spec: &SimSpec, ctx: &mut SimContext);
}

// ---------------------------------------------------------------------
// The three per-locality components plus the barrier.
// ---------------------------------------------------------------------

const PARTS_PER_LOCALITY: u8 = 3; // compute + streams + halo

struct CoreComp {
    self_id: usize,
    barrier: usize,
    owned: u32,
    rng: SplitMix64,
    parts_pending: u8,
}

impl Component for CoreComp {
    fn handle(&mut self, payload: Payload, spec: &SimSpec, ctx: &mut SimContext) {
        match payload {
            Payload::StepStart => {
                self.parts_pending = PARTS_PER_LOCALITY;
                // Sample this step's compute: each calibrated pass runs
                // its drawn total work over the effective thread pool,
                // floored by the longest sampled span (critical path).
                let eff_threads = (spec.threads * spec.utilization).max(1e-9);
                let mut wall_ns = 0.0;
                for k in &spec.kernels {
                    let n = (k.events_per_subgrid_step * self.owned as f64).ceil() as u64;
                    if n == 0 {
                        continue;
                    }
                    let work_ns = k.hist.sample_sum(n, || self.rng.next_u64());
                    let mut span_max = 0.0f64;
                    for _ in 0..n.min(4) {
                        span_max = span_max.max(k.hist.sample(self.rng.next_u64()));
                    }
                    wall_ns += (work_ns / eff_threads).max(span_max);
                }
                let wall_us = wall_ns / 1e3 * (1.0 + spec.net.polling_tax);
                ctx.stats.compute_us += wall_us;
                ctx.send(self.self_id, ctx.now_us() + wall_us, Payload::ComputeDone);
            }
            Payload::ComputeDone | Payload::StreamsDone | Payload::HaloDone => {
                self.parts_pending -= 1;
                if self.parts_pending == 0 {
                    ctx.send(self.barrier, ctx.now_us(), Payload::Arrive);
                }
            }
            _ => {}
        }
    }
}

struct StreamComp {
    core: usize,
    owned: u32,
}

impl Component for StreamComp {
    fn handle(&mut self, payload: Payload, spec: &SimSpec, ctx: &mut SimContext) {
        if let Payload::StepStart = payload {
            let items = spec.launch_items_per_subgrid * self.owned as f64;
            let batches = (items / spec.agg_collapse.max(1.0)).ceil();
            let t = batches * spec.launch_overhead_us;
            ctx.stats.launch_us += t;
            ctx.send(self.core, ctx.now_us() + t, Payload::StreamsDone);
        }
    }
}

struct NicComp {
    core: usize,
    /// (destination NIC component id, amplified messages per step).
    outbound: Vec<(usize, u64)>,
    inbound_total: u32,
    pending: u32,
    busy_until_us: f64,
    rng: SplitMix64,
}

impl Component for NicComp {
    fn handle(&mut self, payload: Payload, spec: &SimSpec, ctx: &mut SimContext) {
        match payload {
            Payload::StepStart => {
                self.pending = self.inbound_total;
                // Serialize sends through the progress engine; each
                // channel's payload bytes are drawn from the measured
                // parcel-size distribution.
                let mut t = ctx.now_us();
                for i in 0..self.outbound.len() {
                    let (dst, msgs) = self.outbound[i];
                    let send_cpu = if spec.parcel_send_cpu.count() > 0 {
                        spec.parcel_send_cpu.sample_sum(msgs, || self.rng.next_u64()) / 1e3
                            * spec.send_scale
                    } else {
                        msgs as f64 * spec.net.send_cpu_us(spec.threads as usize)
                    };
                    t += send_cpu;
                    let bytes = spec.parcel_bytes.sample_sum(msgs, || self.rng.next_u64());
                    let mean = if msgs > 0 { bytes / msgs as f64 } else { 0.0 };
                    let mut wire = spec.net.latency_us
                        + bytes / (spec.net.bandwidth_gb_s * 1e3)
                        + spec.net.payload_copies as f64 * bytes
                            / (spec.net.copy_bandwidth_gb_s * 1e3);
                    if mean > spec.net.rendezvous_threshold as f64 {
                        wire += spec.net.rendezvous_trips as f64 * spec.net.latency_us;
                    }
                    ctx.stats.send_cpu_us += send_cpu;
                    ctx.stats.wire_us += wire;
                    let recv_cpu_us = if spec.parcel_recv_cpu.count() > 0 {
                        spec.parcel_recv_cpu.sample_sum(msgs, || self.rng.next_u64()) / 1e3
                            * spec.recv_scale
                    } else {
                        msgs as f64 * spec.net.recv_cpu_us(spec.threads as usize)
                    };
                    ctx.send(dst, t + wire, Payload::Deliver { recv_cpu_us });
                }
                self.busy_until_us = t;
                if self.inbound_total == 0 {
                    ctx.send(self.core, ctx.now_us(), Payload::HaloDone);
                }
            }
            Payload::Deliver { recv_cpu_us } => {
                self.busy_until_us = self.busy_until_us.max(ctx.now_us()) + recv_cpu_us;
                ctx.stats.recv_cpu_us += recv_cpu_us;
                self.pending -= 1;
                if self.pending == 0 {
                    ctx.send(self.core, self.busy_until_us, Payload::HaloDone);
                }
            }
            _ => {}
        }
    }
}

struct BarrierComp {
    n: usize,
    arrived: usize,
    step: u32,
}

impl Component for BarrierComp {
    fn handle(&mut self, payload: Payload, spec: &SimSpec, ctx: &mut SimContext) {
        if let Payload::Arrive = payload {
            self.arrived += 1;
            if self.arrived == self.n {
                self.arrived = 0;
                self.step += 1;
                let release = ctx.now_us() + spec.allreduce_us;
                ctx.step_ends_us.push(release);
                if self.step < spec.steps {
                    for target in 0..3 * self.n {
                        ctx.send(target, release, Payload::StepStart);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------

/// Run options for [`simulate_scaleout`].
#[derive(Debug, Clone, Copy)]
pub struct DesOpts {
    /// Steps to simulate (all steps count; the run is deterministic, so
    /// no warm-up discard is needed).
    pub steps: u32,
    /// Seed for every component's splitmix64 stream.
    pub seed: u64,
}

impl Default for DesOpts {
    fn default() -> DesOpts {
        DesOpts { steps: 4, seed: 0x0c70_717e_5007 }
    }
}

/// The outcome of one `(pattern, transport)` co-simulation.
#[derive(Debug, Clone)]
pub struct ScaleoutResult {
    /// The Figure-2/3 data point (same shape as the closed-form model's
    /// output, so downstream plotting/gating code is shared).
    pub point: ScalingPoint,
    /// Per-step wall times, seconds.
    pub step_times_s: Vec<f64>,
    /// Aggregate cost breakdown over the whole run.
    pub stats: DesStats,
}

/// Run the discrete-event co-simulation of `pattern` on transport
/// `kind`, with every workload constant taken from `calib`.
///
/// Returns [`Error::Model`] if the pattern is empty or the calibration
/// has no measured kernels.
pub fn simulate_scaleout(
    pattern: &CommPattern,
    kind: TransportKind,
    calib: &Calibration,
    opts: &DesOpts,
) -> Result<ScaleoutResult> {
    let n = pattern.localities;
    if n == 0 || pattern.subgrids == 0 {
        return Err(Error::Model("empty communication pattern".into()));
    }
    let kernels: Vec<KernelCal> =
        calib.kernels.iter().filter(|k| k.hist.count() > 0).cloned().collect();
    if kernels.is_empty() {
        return Err(Error::Model("calibration has no measured kernels".into()));
    }
    if opts.steps == 0 {
        return Err(Error::Model("need at least one simulated step".into()));
    }
    let net = NetParams::for_kind(kind);
    let measured_net = NetParams::for_kind(calib.measured_transport);
    let threads = calib.threads;
    let send_scale = net.send_cpu_us(threads) / measured_net.send_cpu_us(threads);
    let recv_scale = net.recv_cpu_us(threads) / measured_net.recv_cpu_us(threads);
    let allreduce_us = 2.0 * (n as f64).log2().ceil().max(0.0) * net.latency_us;
    let spec = SimSpec {
        net,
        threads: calib.threads as f64,
        utilization: calib.utilization,
        kernels,
        parcel_bytes: calib.parcel_bytes.clone(),
        parcel_send_cpu: calib.parcel_send_cpu.clone(),
        parcel_recv_cpu: calib.parcel_recv_cpu.clone(),
        send_scale,
        recv_scale,
        launch_items_per_subgrid: calib.launch_items_per_subgrid_step,
        agg_collapse: calib.agg_collapse,
        launch_overhead_us: calib.launch_overhead_us,
        allreduce_us,
        steps: opts.steps,
    };

    // Component ids: locality i → core 3i, NIC 3i+1, streams 3i+2;
    // barrier is 3n.
    let mut components: Vec<Box<dyn Component>> = Vec::with_capacity(3 * n + 1);
    for i in 0..n {
        components.push(Box::new(CoreComp {
            self_id: 3 * i,
            barrier: 3 * n,
            owned: pattern.owned[i],
            rng: SplitMix64::new(opts.seed ^ (3 * i as u64).wrapping_mul(0x9E37_79B9)),
            parts_pending: 0,
        }));
        let outbound = pattern.outbound[i]
            .iter()
            .map(|&ci| {
                let ch = pattern.channels[ci as usize];
                let msgs =
                    ((ch.msgs as f64 * calib.parcel_amplification).ceil() as u64).max(1);
                (3 * ch.dst as usize + 1, msgs)
            })
            .collect();
        components.push(Box::new(NicComp {
            core: 3 * i,
            outbound,
            inbound_total: pattern.inbound[i],
            pending: 0,
            busy_until_us: 0.0,
            rng: SplitMix64::new(opts.seed ^ (3 * i as u64 + 1).wrapping_mul(0x9E37_79B9)),
        }));
        components.push(Box::new(StreamComp { core: 3 * i, owned: pattern.owned[i] }));
    }
    components.push(Box::new(BarrierComp { n, arrived: 0, step: 0 }));

    let mut ctx = SimContext::new();
    for target in 0..3 * n {
        ctx.send(target, 0.0, Payload::StepStart);
    }
    while let Some(ev) = ctx.queue.pop() {
        ctx.now_us = ev.time_us;
        ctx.stats.events += 1;
        components[ev.target].handle(ev.payload, &spec, &mut ctx);
    }

    let mut step_times_s = Vec::with_capacity(ctx.step_ends_us.len());
    let mut prev = 0.0;
    for &end in &ctx.step_ends_us {
        step_times_s.push((end - prev) / 1e6);
        prev = end;
    }
    let step_time_s = step_times_s.iter().sum::<f64>() / step_times_s.len().max(1) as f64;
    Ok(ScaleoutResult {
        point: ScalingPoint {
            level: pattern.level,
            nodes: n,
            kind,
            subgrids: pattern.subgrids,
            step_time_s,
            subgrids_per_second: pattern.subgrids as f64 / step_time_s,
        },
        step_times_s,
        stats: ctx.stats,
    })
}

// ---------------------------------------------------------------------
// Checkpoint-cadence sweep (the fault-plan co-simulation).
// ---------------------------------------------------------------------

/// One point of the checkpoint-cadence sweep.
#[derive(Debug, Clone, Copy)]
pub struct CadencePoint {
    /// Steps between checkpoints.
    pub cadence: u32,
    /// Wall time ÷ failure-free, checkpoint-free wall time — 1.0 is
    /// ideal; the minimum over cadences is the Young–Daly optimum.
    pub overhead: f64,
    /// Total simulated wall seconds for the horizon.
    pub wall_s: f64,
}

/// Sweep checkpoint cadences against a node-level MTBF, replaying the
/// DES step time through a seeded failure/rewind Monte Carlo.
///
/// Checkpoint and restore costs scale the *measured* per-sub-grid costs
/// in `calib` (from a timed `DistributedDriver` round-trip) up to the
/// simulated sub-grid count. Failures arrive as a Poisson process with
/// rate `localities / mtbf_node_s`; a failure rewinds to the last
/// checkpoint and pays the restore cost. The same seed (hence the same
/// failure-gap sequence) is used for every cadence so the comparison is
/// common-random-number fair.
pub fn sweep_cadence(
    step_time_s: f64,
    localities: usize,
    subgrids: usize,
    calib: &Calibration,
    mtbf_node_s: f64,
    cadences: &[u32],
    horizon_steps: u64,
    seed: u64,
) -> Vec<CadencePoint> {
    let rate = localities as f64 / mtbf_node_s.max(1e-9);
    let ckpt_s = calib.checkpoint_encode_s_per_subgrid * subgrids as f64;
    let restore_s = calib.checkpoint_restore_s_per_subgrid * subgrids as f64;
    let mut out = Vec::with_capacity(cadences.len());
    for &cadence in cadences {
        let c = cadence.max(1) as u64;
        let mut rng = SplitMix64::new(seed);
        let exp_gap = |rng: &mut SplitMix64| -(1.0 - rng.next_f64()).ln() / rate;
        let mut wall = 0.0f64;
        let mut useful = 0u64;
        let mut since_ckpt = 0u64;
        let mut next_fail = exp_gap(&mut rng);
        let mut guard = 0u64;
        while useful < horizon_steps && guard < horizon_steps.saturating_mul(64) {
            guard += 1;
            let will_ckpt = (since_ckpt + 1) % c == 0;
            let t = step_time_s + if will_ckpt { ckpt_s } else { 0.0 };
            if wall + t > next_fail {
                // Failure mid-step: everything since the last checkpoint
                // is lost; pay the restore and resume from there.
                useful -= since_ckpt;
                since_ckpt = 0;
                wall = next_fail + restore_s;
                next_fail = wall + exp_gap(&mut rng);
            } else {
                wall += t;
                useful += 1;
                since_ckpt += 1;
                if will_ckpt {
                    since_ckpt = 0;
                }
            }
        }
        let ideal = horizon_steps as f64 * step_time_s;
        out.push(CadencePoint { cadence, overhead: wall / ideal, wall_s: wall });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::v1309_structure_tree;

    fn pattern(level: u8, n: usize) -> CommPattern {
        CommPattern::from_tree(&v1309_structure_tree(level), n).unwrap()
    }

    #[test]
    fn pattern_census_is_consistent() {
        let p = pattern(10, 8);
        assert_eq!(p.localities, 8);
        assert_eq!(p.owned.iter().map(|&o| o as usize).sum::<usize>(), p.subgrids);
        let inbound_from_channels: u32 = p.inbound.iter().sum();
        assert_eq!(inbound_from_channels as usize, p.channels.len());
        for (src, outs) in p.outbound.iter().enumerate() {
            for &ci in outs {
                assert_eq!(p.channels[ci as usize].src as usize, src);
            }
        }
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let p = pattern(10, 16);
        let calib = Calibration::synthetic(150_000, 3.0, 12);
        let opts = DesOpts { steps: 3, seed: 7 };
        let a = simulate_scaleout(&p, TransportKind::Mpi, &calib, &opts).unwrap();
        let b = simulate_scaleout(&p, TransportKind::Mpi, &calib, &opts).unwrap();
        assert_eq!(a.point.step_time_s.to_bits(), b.point.step_time_s.to_bits());
        for (x, y) in a.step_times_s.iter().zip(&b.step_times_s) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // A different seed perturbs the sampled draws.
        let c = simulate_scaleout(
            &p,
            TransportKind::Mpi,
            &calib,
            &DesOpts { steps: 3, seed: 8 },
        )
        .unwrap();
        assert_ne!(a.point.step_time_s.to_bits(), c.point.step_time_s.to_bits());
    }

    #[test]
    fn throughput_grows_then_efficiency_collapses() {
        let tree = v1309_structure_tree(10);
        let calib = Calibration::synthetic(200_000, 3.0, 12);
        let opts = DesOpts::default();
        let t = |n: usize| {
            let p = CommPattern::from_tree(&tree, n).unwrap();
            simulate_scaleout(&p, TransportKind::Libfabric, &calib, &opts)
                .unwrap()
                .point
                .step_time_s
        };
        let t1 = t(1);
        let t4 = t(4);
        assert!(t4 < t1, "4 localities ({t4}s) must beat 1 ({t1}s)");
        // Strong scaling tails off ("too little work per node", §6.2):
        // 256 localities still beat one in absolute throughput, but the
        // per-locality efficiency has collapsed.
        let t256 = t(256);
        assert!(t256 < t1, "256 localities ({t256}s) must still beat 1 ({t1}s)");
        let eff = t1 / (256.0 * t256);
        assert!(eff < 0.6, "efficiency at 256 localities should collapse, got {eff}");
    }

    #[test]
    fn transport_crossover_shape() {
        let tree = v1309_structure_tree(10);
        let mut calib = Calibration::synthetic(200_000, 3.0, 12);
        // Realistic traffic amplification (per-level FMM exchanges on
        // top of leaf halos) — the measured value in the real bench.
        calib.parcel_amplification = 10.0;
        let opts = DesOpts::default();
        let ratio = |calib: &Calibration, n: usize| {
            let p = CommPattern::from_tree(&tree, n).unwrap();
            let m = simulate_scaleout(&p, TransportKind::Mpi, calib, &opts).unwrap();
            let l = simulate_scaleout(&p, TransportKind::Libfabric, calib, &opts).unwrap();
            l.point.subgrids_per_second / m.point.subgrids_per_second
        };
        // One locality: no remote channels; libfabric pays the polling
        // tax and dips below parity (the Fig. 3 left edge).
        let r1 = ratio(&calib, 1);
        assert!(r1 <= 1.0, "1-locality ratio {r1} must not exceed 1");
        assert!(r1 > 0.9, "the dip is slight: {r1}");
        // Communication-bound: libfabric's cheaper per-message CPU wins.
        let r32 = ratio(&calib, 32);
        assert!(r32 > r1, "ratio must grow with scale: {r1} -> {r32}");
        assert!(r32 > 1.0, "libfabric must win once comm-bound: {r32}");
        // The §6.3 startup/regrid regime — a storm of small control
        // messages with next to no compute behind it: libfabric is an
        // order of magnitude faster.
        calib.kernels[0].hist = DurationHistogram::from_values([1_000u64].into_iter());
        calib.parcel_bytes = DurationHistogram::from_values([256u64].into_iter());
        calib.parcel_amplification = 40.0;
        let storm = ratio(&calib, 32);
        assert!(storm >= 8.0, "regrid-storm speedup must be order-of-magnitude, got {storm:.1}");
    }

    #[test]
    fn cadence_sweep_has_interior_optimum() {
        let calib = Calibration::synthetic(200_000, 3.0, 12);
        // step 1 s, 1024 localities, 4096 sub-grids, 1-day node MTBF →
        // failures every ~84 s: Young–Daly lands between the extremes.
        let pts = sweep_cadence(1.0, 1024, 4096, &calib, 86_400.0, &[1, 3, 10, 30, 100], 2_000, 11);
        assert_eq!(pts.len(), 5);
        let best = pts
            .iter()
            .min_by(|a, b| a.overhead.total_cmp(&b.overhead))
            .unwrap();
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(
            best.overhead < first.overhead && best.overhead < last.overhead,
            "interior optimum expected: best c={} {:.3} vs c=1 {:.3}, c=100 {:.3}",
            best.cadence,
            best.overhead,
            first.overhead,
            last.overhead
        );
        for p in &pts {
            assert!(p.overhead >= 1.0, "overhead below ideal: {}", p.overhead);
        }
    }

    #[test]
    fn cadence_sweep_is_deterministic() {
        let calib = Calibration::synthetic(200_000, 3.0, 12);
        let a = sweep_cadence(0.5, 256, 1024, &calib, 86_400.0, &[1, 10, 100], 500, 3);
        let b = sweep_cadence(0.5, 256, 1024, &calib, 86_400.0, &[1, 10, 100], 500, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.overhead.to_bits(), y.overhead.to_bits());
        }
    }
}
