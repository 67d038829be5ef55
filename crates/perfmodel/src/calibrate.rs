//! Calibration extraction: measured traces and counters → the inputs of
//! the scale-out co-simulation ([`crate::des`]).
//!
//! The original Figure 2/3 model ([`crate::scaling`]) ran on
//! hand-entered constants (`t_subgrid_us = 4600`, `msg_amplification =
//! 350`, ...). The repo now *measures* everything that model guessed:
//!
//! | input                         | measured source                                      |
//! |-------------------------------|------------------------------------------------------|
//! | per-category kernel durations | [`amt::trace`] span histograms of a real traced solve |
//! | events per sub-grid per step  | span counts ÷ (sub-grids × steps) of the same trace   |
//! | worker utilization            | `1 − trace/idle_rate` of the same trace               |
//! | parcel payload sizes          | `parcel/send` span labels (`<kind>:<bytes>B`)         |
//! | per-parcel send/recv CPU      | `parcel/send` / `parcel/recv` span durations          |
//! | parcel amplification          | `parcelport/<kind>/parcels_tx` ÷ halo-plan parcels    |
//! | GPU launch collapse           | `gpusim` aggregation stats (items ÷ batched launches) |
//! | checkpoint encode/restore     | a timed [`DistributedDriver`] checkpoint round-trip   |
//!
//! [`Calibration::from_measurements`] performs that extraction; the
//! result is the *only* workload input the DES takes, so there are no
//! hand-entered kernel constants anywhere on the simulated hot path.
//! The network cost model ([`parcelport::netmodel::NetParams`]) remains
//! the documented Aries engineering estimate — the one quantity this
//! repro-band host cannot measure.
//!
//! [`DistributedDriver`]: ../../octotiger/struct.DistributedDriver.html
//!
//! # Example
//!
//! ```
//! use amt::trace::{Trace, TraceCategory, TraceEvent};
//! use perfmodel::calibrate::{Calibration, CheckpointCost, Measurements};
//!
//! // A synthetic one-thread trace: 4 same-level kernels over 2
//! // sub-grids × 1 step, plus one 1500-byte parcel send.
//! let mk = |cat, dur_ns| TraceEvent { tid: 1, cat, label: None, t0_ns: 0, dur_ns };
//! let mut events: Vec<_> = (0..4)
//!     .map(|i| mk(TraceCategory::FmmSameLevel, 40_000 + i * 1000))
//!     .collect();
//! events.push(TraceEvent {
//!     tid: 1,
//!     cat: TraceCategory::ParcelSend,
//!     label: Some("libfabric:1500B".into()),
//!     t0_ns: 0,
//!     dur_ns: 10,
//! });
//! let trace = Trace { start_ns: 0, end_ns: 1, dropped: 0, threads: vec![], events };
//!
//! let calib = Calibration::from_measurements(&Measurements {
//!     trace: &trace,
//!     metrics: &Default::default(),
//!     subgrids: 2,
//!     steps: 1,
//!     threads: 4,
//!     transport: parcelport::netmodel::TransportKind::Libfabric,
//!     plan_parcels_per_step: 1,
//!     agg_items: 8,
//!     agg_batches: 1,
//!     launch_overhead_us: 5.0,
//!     checkpoint: CheckpointCost::default(),
//! })
//! .unwrap();
//! // 4 same-level events over 2 sub-grid-steps -> rate 2 per sub-grid.
//! let sl = calib.kernel(TraceCategory::FmmSameLevel).unwrap();
//! assert!((sl.events_per_subgrid_step - 2.0).abs() < 1e-12);
//! assert_eq!(sl.hist.count(), 4);
//! assert!((calib.parcel_bytes.mean() - 1500.0).abs() < 1e-9);
//! assert!((calib.agg_collapse - 8.0).abs() < 1e-12);
//! ```

use amt::trace::{DurationHistogram, Trace, TraceCategory};
use parcelport::netmodel::TransportKind;
use std::collections::BTreeMap;
use util::error::{Error, Result};

/// The trace categories charged as per-sub-grid *compute* in the DES —
/// the FMM passes and the hydro kernels, i.e. everything a locality's
/// worker pool grinds through between halo exchanges.
pub const COMPUTE_CATEGORIES: &[TraceCategory] = &[
    TraceCategory::FmmP2M,
    TraceCategory::FmmM2M,
    TraceCategory::FmmGather,
    TraceCategory::FmmSameLevel,
    TraceCategory::FmmNearField,
    TraceCategory::FmmL2L,
    TraceCategory::FmmLeafAssembly,
    TraceCategory::HydroRhs,
    TraceCategory::HydroApply,
];

/// One compute category's measured behaviour: its duration distribution
/// and how many such spans one sub-grid produces per step.
#[derive(Debug, Clone)]
pub struct KernelCal {
    /// Which span category this calibrates.
    pub cat: TraceCategory,
    /// Measured duration distribution (nanoseconds).
    pub hist: DurationHistogram,
    /// Spans of this category per sub-grid per step.
    pub events_per_subgrid_step: f64,
}

/// Measured checkpoint cost, from one timed encode/restore round-trip
/// of the real distributed driver.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointCost {
    /// Wall seconds to encode the whole cluster's state.
    pub encode_s: f64,
    /// Wall seconds to restore it.
    pub restore_s: f64,
    /// Sub-grids in the measured state (for per-sub-grid scaling).
    pub subgrids: usize,
}

impl Default for CheckpointCost {
    /// A neutral placeholder (1 ms / 10 ms over 64 sub-grids) for
    /// callers that do not sweep checkpoint cadence; the `fig23_scaleout`
    /// bench always measures the real thing.
    fn default() -> CheckpointCost {
        CheckpointCost { encode_s: 1e-3, restore_s: 1e-2, subgrids: 64 }
    }
}

/// Raw measured inputs to [`Calibration::from_measurements`].
pub struct Measurements<'a> {
    /// A drained trace of a real (preferably distributed) run.
    pub trace: &'a Trace,
    /// A metrics snapshot of the same run, keyed by full counter name
    /// (`Cluster::metrics().snapshot()`); the parcel count is read from
    /// `parcelport/<transport>/parcels_tx`.
    pub metrics: &'a BTreeMap<String, u64>,
    /// Sub-grids resident in the measured run.
    pub subgrids: usize,
    /// Time steps the trace covers.
    pub steps: usize,
    /// Worker threads per locality in the measured run.
    pub threads: usize,
    /// Transport the measured run used — the baseline against which the
    /// DES scales the other transport's per-message CPU costs.
    pub transport: TransportKind,
    /// Parcels per step predicted by the leaf-halo push plan for the
    /// measured topology — the denominator of the amplification factor
    /// that stands in for moment broadcasts and per-level FMM traffic.
    pub plan_parcels_per_step: u64,
    /// Kernel work items submitted through the aggregation region.
    pub agg_items: u64,
    /// Fused launches those items collapsed into.
    pub agg_batches: u64,
    /// Per-launch overhead of the modeled device, µs
    /// ([`gpusim::device::DeviceSpec::launch_overhead_us`]).
    pub launch_overhead_us: f64,
    /// Measured checkpoint round-trip cost.
    pub checkpoint: CheckpointCost,
}

/// Everything the scale-out DES needs to know about the *workload*,
/// extracted from measurements (see the module docs for the full
/// input-to-source table).
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Per-category kernel cost distributions, in
    /// [`COMPUTE_CATEGORIES`] order (zero-count entries kept so lookups
    /// are total).
    pub kernels: Vec<KernelCal>,
    /// Worker threads per simulated locality.
    pub threads: usize,
    /// Fraction of worker time spent on tasks in the measured run
    /// (`1 − idle_rate`); divides effective thread throughput.
    pub utilization: f64,
    /// Measured parcel payload size distribution, bytes.
    pub parcel_bytes: DurationHistogram,
    /// Measured per-parcel *send* CPU (serialize + inject), ns — the
    /// `parcel/send` span durations. Shares the host clock with the
    /// kernel histograms, so compute and communication stay in the same
    /// units; the DES scales it by the NetParams ratio between the
    /// simulated and the measured transport.
    pub parcel_send_cpu: DurationHistogram,
    /// Measured per-parcel *receive* CPU (dispatch + deliver), ns — the
    /// `parcel/recv` span durations.
    pub parcel_recv_cpu: DurationHistogram,
    /// Transport of the measured run (the per-message baseline).
    pub measured_transport: TransportKind,
    /// Measured parcels per step ÷ leaf-halo-plan parcels per step:
    /// scales the plan's message census up to the real traffic (moment
    /// broadcasts, per-level FMM exchanges, dt reduce).
    pub parcel_amplification: f64,
    /// GPU work items per sub-grid per step (the aggregatable
    /// same-level/near-field kernel launches).
    pub launch_items_per_subgrid_step: f64,
    /// Measured aggregation collapse factor (items per fused launch).
    pub agg_collapse: f64,
    /// Per-launch overhead, µs.
    pub launch_overhead_us: f64,
    /// Checkpoint encode seconds per sub-grid (measured encode ÷
    /// measured sub-grids).
    pub checkpoint_encode_s_per_subgrid: f64,
    /// Restore seconds per sub-grid.
    pub checkpoint_restore_s_per_subgrid: f64,
}

impl Calibration {
    /// Extract a calibration from measured data. Fails if the trace
    /// contains no compute spans at all (nothing to calibrate from) or
    /// if `subgrids`/`steps`/`threads` are zero.
    pub fn from_measurements(m: &Measurements<'_>) -> Result<Calibration> {
        if m.subgrids == 0 || m.steps == 0 || m.threads == 0 {
            return Err(Error::Model(
                "calibration needs non-zero subgrids, steps and threads".into(),
            ));
        }
        let subgrid_steps = (m.subgrids * m.steps) as f64;
        let mut kernels = Vec::with_capacity(COMPUTE_CATEGORIES.len());
        let mut any = false;
        for &cat in COMPUTE_CATEGORIES {
            let hist = m.trace.histogram(cat);
            any |= hist.count() > 0;
            kernels.push(KernelCal {
                cat,
                events_per_subgrid_step: hist.count() as f64 / subgrid_steps,
                hist,
            });
        }
        if !any {
            return Err(Error::Model(
                "trace has no compute spans; run a traced solve first".into(),
            ));
        }

        // Parcel sizes from the `parcel/send` span labels the parcelport
        // records (`<kind>:<bytes>B`).
        let parcel_bytes = DurationHistogram::from_values(
            m.trace
                .events
                .iter()
                .filter(|e| e.cat == TraceCategory::ParcelSend)
                .filter_map(|e| parse_parcel_bytes(e.label.as_deref()?)),
        );

        let parcel_send_cpu = m.trace.histogram(TraceCategory::ParcelSend);
        let parcel_recv_cpu = m.trace.histogram(TraceCategory::ParcelRecv);

        // Amplification: measured parcels per step over the leaf-halo
        // plan's prediction for the same topology. The transport's
        // `parcels_tx` counts every wire parcel — halos, moments, regrid
        // votes and dt minima; the plan covers leaf halos only, so the
        // ratio is exactly the traffic the plan undercounts. A run with
        // no remote parcel never mounts the counter: it sent none.
        let sent_key = format!("parcelport/{}/parcels_tx", m.transport.as_str());
        let sent = m.metrics.get(&sent_key).copied().unwrap_or(0);
        let parcel_amplification = if m.plan_parcels_per_step == 0 {
            1.0
        } else {
            (sent as f64 / m.steps as f64 / m.plan_parcels_per_step as f64).max(1.0)
        };

        let utilization = {
            let idle = m.trace.idle_rate_permille() as f64 / 1000.0;
            (1.0 - idle).clamp(0.05, 1.0)
        };

        let launch_items_per_subgrid_step = m.agg_items as f64 / subgrid_steps;
        let agg_collapse = if m.agg_batches == 0 {
            1.0
        } else {
            (m.agg_items as f64 / m.agg_batches as f64).max(1.0)
        };

        let ck = m.checkpoint;
        let ck_subgrids = ck.subgrids.max(1) as f64;
        Ok(Calibration {
            kernels,
            threads: m.threads,
            utilization,
            parcel_bytes,
            parcel_send_cpu,
            parcel_recv_cpu,
            measured_transport: m.transport,
            parcel_amplification,
            launch_items_per_subgrid_step,
            agg_collapse,
            launch_overhead_us: m.launch_overhead_us,
            checkpoint_encode_s_per_subgrid: ck.encode_s / ck_subgrids,
            checkpoint_restore_s_per_subgrid: ck.restore_s / ck_subgrids,
        })
    }

    /// A small, hand-built calibration for examples and unit tests:
    /// one kernel category (`FmmSameLevel`) spread ±10% around
    /// `span_ns`, ~4 KiB parcels costing ~20/30 µs to send/receive, no
    /// amplification, and placeholder checkpoint costs. The scale-out
    /// bench never uses this — it always extracts the real thing via
    /// [`Calibration::from_measurements`].
    pub fn synthetic(span_ns: u64, events_per_subgrid_step: f64, threads: usize) -> Calibration {
        let spread = |v: u64| [v - v / 10, v, v + v / 10].into_iter();
        Calibration {
            kernels: vec![KernelCal {
                cat: TraceCategory::FmmSameLevel,
                hist: DurationHistogram::from_values(spread(span_ns)),
                events_per_subgrid_step,
            }],
            threads,
            utilization: 1.0,
            parcel_bytes: DurationHistogram::from_values(spread(4096)),
            parcel_send_cpu: DurationHistogram::from_values(spread(20_000)),
            parcel_recv_cpu: DurationHistogram::from_values(spread(30_000)),
            measured_transport: TransportKind::Libfabric,
            parcel_amplification: 1.0,
            launch_items_per_subgrid_step: 1.0,
            agg_collapse: 8.0,
            launch_overhead_us: 5.0,
            checkpoint_encode_s_per_subgrid: 1e-5,
            checkpoint_restore_s_per_subgrid: 1e-4,
        }
    }

    /// The calibration entry for `cat`, if it is a compute category.
    pub fn kernel(&self, cat: TraceCategory) -> Option<&KernelCal> {
        self.kernels.iter().find(|k| k.cat == cat)
    }

    /// Mean compute nanoseconds one sub-grid costs per step, across all
    /// calibrated categories (the deterministic expectation the sampled
    /// per-step draws fluctuate around).
    pub fn mean_compute_ns_per_subgrid(&self) -> f64 {
        self.kernels
            .iter()
            .map(|k| k.events_per_subgrid_step * k.hist.mean())
            .sum()
    }

    /// Mean parcel payload bytes (falls back to 0 with no measured
    /// parcels — a single-locality calibration run).
    pub fn mean_parcel_bytes(&self) -> f64 {
        self.parcel_bytes.mean()
    }
}

/// Parse the byte count out of a `parcel/send` label (`mpi:1500B`).
fn parse_parcel_bytes(label: &str) -> Option<u64> {
    label.rsplit(':').next()?.strip_suffix('B')?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt::trace::TraceEvent;

    fn span(cat: TraceCategory, dur_ns: u64) -> TraceEvent {
        TraceEvent { tid: 1, cat, label: None, t0_ns: 0, dur_ns }
    }

    fn synthetic_trace() -> Trace {
        let mut events = Vec::new();
        // 8 sub-grids × 2 steps. Per sub-grid-step: 1 p2m @ 10 µs,
        // 3 same-level @ 40 µs, 1 rhs @ 20 µs.
        for _ in 0..16 {
            events.push(span(TraceCategory::FmmP2M, 10_000));
            for _ in 0..3 {
                events.push(span(TraceCategory::FmmSameLevel, 40_000));
            }
            events.push(span(TraceCategory::HydroRhs, 20_000));
        }
        for bytes in [1000u64, 2000, 3000] {
            events.push(TraceEvent {
                tid: 1,
                cat: TraceCategory::ParcelSend,
                label: Some(format!("mpi:{bytes}B")),
                t0_ns: 0,
                dur_ns: 5,
            });
        }
        Trace { start_ns: 0, end_ns: 1, dropped: 0, threads: vec![], events }
    }

    fn measure(trace: &Trace) -> Calibration {
        Calibration::from_measurements(&Measurements {
            trace,
            metrics: &BTreeMap::new(),
            subgrids: 8,
            steps: 2,
            threads: 4,
            transport: TransportKind::Libfabric,
            plan_parcels_per_step: 1,
            agg_items: 64,
            agg_batches: 8,
            launch_overhead_us: 5.0,
            checkpoint: CheckpointCost { encode_s: 0.064, restore_s: 0.128, subgrids: 64 },
        })
        .unwrap()
    }

    #[test]
    fn round_trip_recovers_known_distribution() {
        let trace = synthetic_trace();
        let calib = measure(&trace);
        let p2m = calib.kernel(TraceCategory::FmmP2M).unwrap();
        assert!((p2m.events_per_subgrid_step - 1.0).abs() < 1e-12);
        assert_eq!(p2m.hist.count(), 16);
        assert_eq!(p2m.hist.min(), 10_000);
        assert_eq!(p2m.hist.max(), 10_000);
        let sl = calib.kernel(TraceCategory::FmmSameLevel).unwrap();
        assert!((sl.events_per_subgrid_step - 3.0).abs() < 1e-12);
        assert!((sl.hist.mean() - 40_000.0).abs() < 1e-9);
        // Expected per-sub-grid compute: 10 + 3×40 + 20 = 150 µs.
        assert!((calib.mean_compute_ns_per_subgrid() - 150_000.0).abs() < 1e-6);
        // Parcel bytes: mean of 1000/2000/3000.
        assert!((calib.mean_parcel_bytes() - 2000.0).abs() < 1e-9);
        // Aggregation: 64 items / 8 batches.
        assert!((calib.agg_collapse - 8.0).abs() < 1e-12);
        assert!((calib.checkpoint_encode_s_per_subgrid - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn parcel_label_parsing() {
        assert_eq!(parse_parcel_bytes("mpi:128B"), Some(128));
        assert_eq!(parse_parcel_bytes("libfabric:57344B"), Some(57344));
        assert_eq!(parse_parcel_bytes("garbage"), None);
        assert_eq!(parse_parcel_bytes("mpi:128"), None);
    }

    #[test]
    fn empty_trace_is_rejected() {
        let trace = Trace { start_ns: 0, end_ns: 1, dropped: 0, threads: vec![], events: vec![] };
        let err = Calibration::from_measurements(&Measurements {
            trace: &trace,
            metrics: &BTreeMap::new(),
            subgrids: 8,
            steps: 1,
            threads: 4,
            transport: TransportKind::Libfabric,
            plan_parcels_per_step: 1,
            agg_items: 0,
            agg_batches: 0,
            launch_overhead_us: 5.0,
            checkpoint: CheckpointCost::default(),
        });
        assert!(err.is_err());
    }

    #[test]
    fn amplification_from_metrics() {
        // The trace holds three `parcel/send` spans, as one that dropped
        // events would undercount; the transport's counter, under its
        // full name in `Cluster::metrics().snapshot()`, is what was sent.
        let trace = synthetic_trace();
        assert_eq!(trace.histogram(TraceCategory::ParcelSend).count(), 3);
        let mut metrics = BTreeMap::new();
        metrics.insert("parcelport/libfabric/parcels_tx".to_string(), 40u64);
        metrics.insert("parcelport/libfabric/bytes_tx".to_string(), 40_000u64);
        let calib = Calibration::from_measurements(&Measurements {
            trace: &trace,
            metrics: &metrics,
            subgrids: 8,
            steps: 2,
            threads: 4,
            transport: TransportKind::Libfabric,
            plan_parcels_per_step: 5,
            agg_items: 64,
            agg_batches: 8,
            launch_overhead_us: 5.0,
            checkpoint: CheckpointCost::default(),
        })
        .unwrap();
        // 40 parcels / 2 steps / 5 plan parcels = 4x amplification.
        assert!((calib.parcel_amplification - 4.0).abs() < 1e-12);
    }
}
