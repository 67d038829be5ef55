//! A simulated multi-locality cluster.
//!
//! The paper runs Octo-Tiger on up to 5400 Piz Daint nodes; here a
//! [`Cluster`] wires `L` in-process [`amt::Runtime`] localities together
//! through one of the two transports ([`crate::mpi_sim`],
//! [`crate::libfabric_sim`]). Each locality's scheduler gets a background
//! poller that drives network progress — for the libfabric backend this
//! is literally the paper's "polling for network progress/completions
//! integrated into the HPX task scheduling loop".
//!
//! On top of raw parcels, the cluster provides typed fire-and-forget
//! actions ([`Cluster::register_action`] / [`Locality::send_action`]).
//! A parcel runs on the locality it names and nowhere else: there is no
//! address registry and no forwarding. Keeping channels working "even
//! when a grid cell is migrated from one node to another" (§5.2) is the
//! sender's job — the distributed driver routes by its shard map and
//! stamps every parcel with the partition epoch, so traffic routed by a
//! superseded map is dropped, not re-sent. That is the whole messaging
//! surface: an answer is one more action sent back, and a round that
//! needs every answer waits for quiescence, as the distributed driver's
//! exchange rounds do.
//!
//! When a trace session is active (see [`amt::trace`]), every remote
//! send and every network delivery records a `parcel/send` / `parcel/recv`
//! span labelled with the transport kind and wire byte count.
//!
//! # Example
//!
//! ```
//! use parcelport::{ActionId, Cluster, TransportKind};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let cluster = Cluster::builder()
//!     .localities(2)
//!     .threads_per(2)
//!     .transport(TransportKind::Libfabric)
//!     .build();
//! let sum = Arc::new(AtomicU64::new(0));
//! let s = Arc::clone(&sum);
//! let add = cluster.register_action(ActionId(7), move |_rt, _id, x: u64| {
//!     s.fetch_add(x, Ordering::SeqCst);
//! });
//! cluster.locality(0).send_action(add, 1, amt::GlobalId(0), &9).unwrap();
//! cluster.wait_quiescent();
//! assert_eq!(sum.load(Ordering::SeqCst), 9);
//! ```

use crate::fault::{FaultPlan, FaultyTransport};
use crate::netmodel::{NetParams, TransportKind};
use crate::parcel::{ActionHandle, ActionId, ActionRegistry, Parcel};
use crate::reliable::{ReliablePolicy, ReliableTransport};
use crate::serialize::from_bytes;
use amt::trace::{self, TraceCategory};
use amt::{CounterRegistry, GlobalId, Metrics, Runtime};
use bytes::Bytes;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use util::{Error, Result};

/// A live transport connecting the localities of a cluster.
pub trait Transport: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> TransportKind;
    /// Inject a parcel from locality `from`. Never blocks.
    fn send(&self, from: u32, parcel: Parcel);
    /// Drive progress for `locality`: deliver pending messages addressed
    /// to it (and, for two-sided backends, answer handshakes). Returns
    /// `true` if any progress was made.
    fn progress(&self, locality: u32) -> bool;
    /// Install the delivery callback for `locality`.
    fn set_delivery(&self, locality: u32, delivery: DeliveryFn);
    /// Number of messages still in flight anywhere in the fabric.
    fn in_flight(&self) -> usize;
    /// The network-wide counter registry (parcels, bytes, copies, ...).
    fn counters(&self) -> &Arc<CounterRegistry>;
    /// Localities known to have failed (crashed, or declared dead by a
    /// reliability layer after its retry budget ran out). The raw
    /// simulated fabrics never fail anyone; decorators override this.
    fn failed_localities(&self) -> Vec<u32> {
        Vec::new()
    }
}

/// Callback invoked when a parcel arrives at a locality.
pub type DeliveryFn = Arc<dyn Fn(Parcel) + Send + Sync>;

/// One simulated compute node: an AMT runtime plus its action
/// registry.
pub struct Locality {
    rt: Arc<Runtime>,
    actions: ActionRegistry,
    index: u32,
    n_localities: usize,
    transport: Arc<dyn Transport>,
    /// Errors raised inside action handlers (decode failures, sends
    /// that failed). Handlers run detached on scheduler threads,
    /// so there is no caller to return them to; they are parked here
    /// and counted under the transport's `handler_errors` counter.
    failures: Mutex<Vec<Error>>,
}

impl Locality {
    /// This locality's index in the cluster.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The hosted runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// This locality's action registry.
    pub fn actions(&self) -> &ActionRegistry {
        &self.actions
    }

    /// Fire-and-forget: send `parcel` (local destinations dispatch
    /// without touching the network, as in HPX). Returns
    /// [`Error::BadLocality`] instead of letting an out-of-range
    /// destination panic inside the transport.
    pub fn try_send(&self, parcel: Parcel) -> Result<()> {
        if (parcel.dest_locality as usize) >= self.n_localities {
            return Err(Error::BadLocality {
                index: parcel.dest_locality,
                count: self.n_localities,
            });
        }
        if parcel.dest_locality == self.index {
            self.actions.dispatch(&self.rt, parcel);
        } else {
            let c = self.transport.counters();
            let wire = parcel.wire_size() as u64;
            let _span = trace::span_labeled(TraceCategory::ParcelSend, || {
                format!("{}:{}B", self.transport.kind().as_str(), wire)
            });
            // Mounted by the metrics facade as
            // `parcelport/<kind>/parcels_tx` and `.../bytes_tx`.
            c.increment("parcels_tx");
            c.add("bytes_tx", wire);
            self.transport.send(self.index, parcel);
        }
        Ok(())
    }

    /// Typed fire-and-forget through an [`ActionHandle`]: encode `req`
    /// and send it to `action`'s handler on `dest_locality`.
    pub fn send_action<Req: Serialize>(
        &self,
        action: ActionHandle<Req>,
        dest_locality: u32,
        dest_component: GlobalId,
        req: &Req,
    ) -> Result<()> {
        self.send_encoded(action, dest_locality, dest_component, action.encode(req)?)
    }

    /// Like [`Locality::send_action`] with a pre-encoded payload.
    /// Broadcast-style senders encode once with [`ActionHandle::encode`]
    /// and fan the same (cheaply cloned) buffer out to every
    /// destination.
    pub fn send_encoded<Req>(
        &self,
        action: ActionHandle<Req>,
        dest_locality: u32,
        dest_component: GlobalId,
        payload: Bytes,
    ) -> Result<()> {
        self.try_send(Parcel {
            dest_locality,
            dest_component,
            action: action.id(),
            payload,
        })
    }

    /// Park a handler-side error (see the `failures` field docs).
    pub fn record_failure(&self, e: Error) {
        self.transport.counters().increment("handler_errors");
        self.failures.lock().push(e);
    }

    /// Drain the errors recorded by action handlers on this locality.
    pub fn take_failures(&self) -> Vec<Error> {
        std::mem::take(&mut *self.failures.lock())
    }
}

/// The simulated cluster.
pub struct Cluster {
    localities: Vec<Arc<Locality>>,
    transport: Arc<dyn Transport>,
    metrics: Arc<Metrics>,
    fault: Option<Arc<FaultyTransport>>,
    reliable: Option<Arc<ReliableTransport>>,
}

/// Fluent construction of a [`Cluster`]:
///
/// ```
/// use parcelport::{Cluster, TransportKind};
///
/// let cluster = Cluster::builder()
///     .localities(4)
///     .threads_per(2)
///     .transport(TransportKind::Libfabric)
///     .build();
/// assert_eq!(cluster.len(), 4);
/// assert_eq!(cluster.transport().kind(), TransportKind::Libfabric);
/// ```
///
/// Defaults: 1 locality, 1 scheduler thread, MPI transport, the
/// transport's Piz-Daint-calibrated [`NetParams`] latency model.
pub struct ClusterBuilder {
    localities: usize,
    threads_per: usize,
    kind: TransportKind,
    fault_plan: Option<FaultPlan>,
    reliable: Option<ReliablePolicy>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            localities: 1,
            threads_per: 1,
            kind: TransportKind::Mpi,
            fault_plan: None,
            reliable: None,
        }
    }
}

impl ClusterBuilder {
    /// Number of simulated localities (compute nodes).
    pub fn localities(mut self, n: usize) -> Self {
        self.localities = n;
        self
    }

    /// Scheduler threads per locality.
    pub fn threads_per(mut self, n: usize) -> Self {
        self.threads_per = n;
        self
    }

    /// Which transport backend to instantiate.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.kind = kind;
        self
    }

    /// Inject faults according to `plan` (see [`FaultPlan`]). A plan
    /// that can perturb parcels implicitly enables the reliable
    /// delivery layer with the default [`ReliablePolicy`] — without
    /// retransmission a single dropped parcel would hang quiescence
    /// forever.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enable the reliable delivery layer ([`ReliableTransport`]) with
    /// an explicit policy, independent of fault injection. Benches use
    /// this to measure the fault-free overhead of the protocol.
    pub fn reliable(mut self, policy: ReliablePolicy) -> Self {
        self.reliable = Some(policy);
        self
    }

    /// Validate and build.
    pub fn try_build(self) -> Result<Cluster> {
        if self.localities == 0 {
            return Err(Error::Driver("cluster needs at least one locality".into()));
        }
        if self.threads_per == 0 {
            return Err(Error::Driver("each locality needs at least one scheduler thread".into()));
        }
        let raw: Arc<dyn Transport> = match self.kind {
            TransportKind::Mpi => Arc::new(crate::mpi_sim::MpiTransport::new(self.localities)),
            TransportKind::Libfabric => {
                Arc::new(crate::libfabric_sim::LibfabricTransport::new(self.localities))
            }
        };
        // Decorator stack (bottom up): raw fabric, then fault
        // injection, then reliable delivery. The default build keeps
        // the raw fabric bare — zero added overhead.
        let mut transport = raw;
        let fault = self.fault_plan.map(|plan| {
            let f = Arc::new(FaultyTransport::new(transport.clone(), plan, self.localities));
            transport = f.clone() as Arc<dyn Transport>;
            f
        });
        let reliable_policy = match (&fault, self.reliable) {
            (_, Some(p)) => Some(p),
            (Some(f), None) if f.plan().is_active() => Some(ReliablePolicy::default()),
            _ => None,
        };
        let reliable = reliable_policy.map(|policy| {
            let r = Arc::new(ReliableTransport::new(transport.clone(), policy));
            transport = r.clone() as Arc<dyn Transport>;
            r
        });
        let mut localities = Vec::with_capacity(self.localities);
        for i in 0..self.localities {
            let rt = Runtime::with_locality(self.threads_per, i as u32);
            let loc = Arc::new(Locality {
                rt,
                actions: ActionRegistry::new(),
                index: i as u32,
                n_localities: self.localities,
                transport: Arc::clone(&transport),
                failures: Mutex::new(Vec::new()),
            });
            localities.push(loc);
        }
        // Wire delivery callbacks and progress pollers.
        for loc in &localities {
            let l = Arc::clone(loc);
            let kind = transport.kind();
            transport.set_delivery(
                loc.index,
                Arc::new(move |parcel| {
                    let _span = trace::span_labeled(TraceCategory::ParcelRecv, || {
                        format!("{}:{}B", kind.as_str(), parcel.wire_size())
                    });
                    l.actions.dispatch(&l.rt, parcel)
                }),
            );
            let t = Arc::clone(&transport);
            let idx = loc.index;
            loc.rt.scheduler().register_poller(move || t.progress(idx));
        }
        // One namespaced metrics view over the whole cluster: the
        // transport's counters under `parcelport/<kind>`, each
        // locality's runtime counters under `locality/<i>`.
        let metrics = Arc::new(Metrics::new());
        metrics.mount(
            &format!("parcelport/{}", transport.kind().as_str()),
            Arc::clone(transport.counters()),
        );
        // Decorator counters: reliability at `parcelport` (so
        // `parcelport/retries`, `parcelport/dup_dropped`,
        // `parcelport/acks` resolve by longest-prefix), fault events at
        // `parcelport/faults`.
        if let Some(r) = &reliable {
            metrics.mount("parcelport", Arc::clone(r.reliability_counters()));
        }
        if let Some(f) = &fault {
            metrics.mount("parcelport/faults", Arc::clone(f.fault_counters()));
        }
        for loc in &localities {
            metrics.mount(
                &format!("locality/{}", loc.index),
                Arc::clone(loc.rt.metrics().registry()),
            );
        }
        Ok(Cluster {
            localities,
            transport,
            metrics,
            fault,
            reliable,
        })
    }

    /// Infallible [`ClusterBuilder::try_build`]; panics on an invalid
    /// configuration.
    pub fn build(self) -> Cluster {
        self.try_build().expect("invalid cluster configuration")
    }
}

impl Cluster {
    /// Start building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// The cluster-wide namespaced metrics view.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The Piz-Daint-calibrated network cost model of this cluster's
    /// transport.
    pub fn net_params(&self) -> NetParams {
        NetParams::for_kind(self.transport.kind())
    }

    /// Number of localities.
    pub fn len(&self) -> usize {
        self.localities.len()
    }

    /// Whether the cluster has no localities (never true post-`new`).
    pub fn is_empty(&self) -> bool {
        self.localities.is_empty()
    }

    /// Access locality `i`.
    pub fn locality(&self, i: usize) -> &Arc<Locality> {
        &self.localities[i]
    }

    /// All localities.
    pub fn localities(&self) -> &[Arc<Locality>] {
        &self.localities
    }

    /// The transport (for counters and kind). This is the *outermost*
    /// layer of the decorator stack; its `counters()` always resolve to
    /// the raw fabric's registry.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The fault-injection layer, if the cluster was built with a
    /// [`ClusterBuilder::fault_plan`]. Tests use it to probe send
    /// counts and to trigger crashes at a chosen point.
    pub fn fault_layer(&self) -> Option<&Arc<FaultyTransport>> {
        self.fault.as_ref()
    }

    /// The reliable-delivery layer, if enabled (explicitly via
    /// [`ClusterBuilder::reliable`] or implied by a fault plan).
    pub fn reliable_layer(&self) -> Option<&Arc<ReliableTransport>> {
        self.reliable.as_ref()
    }

    /// Localities known to have failed — crashed by fault injection or
    /// declared dead by the reliability layer. Empty on a healthy
    /// cluster.
    pub fn failed_localities(&self) -> Vec<u32> {
        self.transport.failed_localities()
    }

    /// Register the same typed fire-and-forget action on every
    /// locality; the payload is decoded to `Req` before the handler
    /// runs. The returned [`ActionHandle`] is the key for send sites
    /// ([`Locality::send_action`] / [`Locality::send_encoded`]), tying
    /// the request type they encode to the one registered here. Decode
    /// failures are parked via [`Locality::record_failure`] instead of
    /// panicking a scheduler thread.
    pub fn register_action<Req>(
        &self,
        id: ActionId,
        handler: impl Fn(&Arc<Runtime>, GlobalId, Req) + Send + Sync + Clone + 'static,
    ) -> ActionHandle<Req>
    where
        Req: for<'de> Deserialize<'de>,
    {
        for loc in &self.localities {
            let handler = handler.clone();
            let loc_weak = Arc::downgrade(loc);
            loc.actions.register(id, move |rt, component, payload| {
                match from_bytes::<Req>(&payload) {
                    Ok(req) => handler(rt, component, req),
                    Err(e) => {
                        if let Some(loc) = loc_weak.upgrade() {
                            loc.record_failure(e.into());
                        }
                    }
                }
            });
        }
        ActionHandle::new(id)
    }

    /// Register a byte-level fire-and-forget action on every locality
    /// (no decoding; the handler sees the raw payload). For handlers
    /// that do their own framing; typed code should prefer
    /// [`Cluster::register_action`].
    pub fn register_raw_action(
        &self,
        id: ActionId,
        handler: impl Fn(&Arc<Runtime>, GlobalId, Bytes) + Send + Sync + Clone + 'static,
    ) {
        for loc in &self.localities {
            loc.actions.register(id, handler.clone());
        }
    }

    /// Wait until every runtime is quiescent and the fabric is drained.
    pub fn wait_quiescent(&self) {
        let _ = self.quiesce(false);
    }

    /// Crash-aware [`Cluster::wait_quiescent`]: returns
    /// [`Error::LocalityCrashed`] as soon as a locality is reported
    /// failed, instead of waiting for a drain that may never come (the
    /// failed peer's unacked traffic only clears once the reliability
    /// layer buries it).
    pub fn try_wait_quiescent(&self) -> Result<()> {
        self.quiesce(true)
    }

    fn quiesce(&self, fail_fast: bool) -> Result<()> {
        loop {
            if fail_fast {
                if let Some(&loc) = self.transport.failed_localities().first() {
                    return Err(Error::LocalityCrashed(loc));
                }
            }
            for loc in &self.localities {
                loc.rt.wait_quiescent();
            }
            // Drive any remaining network progress from this thread too.
            let mut progressed = false;
            for loc in &self.localities {
                progressed |= self.transport.progress(loc.index);
            }
            let busy = self.transport.in_flight() > 0
                || self
                    .localities
                    .iter()
                    .any(|l| l.rt.scheduler().in_flight() > 0);
            if !busy && !progressed {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ping_cluster(kind: TransportKind) {
        let cluster = Cluster::builder().localities(3).threads_per(2).transport(kind).build();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        cluster.register_raw_action(ActionId(1), move |_rt, _id, payload| {
            assert_eq!(&payload[..], b"ping");
            h.fetch_add(1, Ordering::SeqCst);
        });
        for dest in 0..3u32 {
            cluster
                .locality(0)
                .try_send(Parcel {
                    dest_locality: dest,
                    dest_component: GlobalId(1),
                    action: ActionId(1),
                    payload: Bytes::from_static(b"ping"),
                })
                .unwrap();
        }
        cluster.wait_quiescent();
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn ping_over_mpi() {
        ping_cluster(TransportKind::Mpi);
    }

    #[test]
    fn ping_over_libfabric() {
        ping_cluster(TransportKind::Libfabric);
    }

    /// A request and its answer as two fire-and-forget actions:
    /// locality 0 sends each `x` to locality 1 as action `id`, whose
    /// handler sends `x²` back as action `id | 0x100`, whose handler
    /// records it. Returns the answers, sorted.
    fn square_round_trip(cluster: &Arc<Cluster>, id: u32, xs: &[u64]) -> Vec<u64> {
        let answers = Arc::new(Mutex::new(Vec::new()));
        let a = Arc::clone(&answers);
        let answer = cluster.register_action(ActionId(id | 0x100), move |_rt, _id, y: u64| {
            a.lock().push(y);
        });
        let weak = Arc::downgrade(cluster);
        let square = cluster.register_action(ActionId(id), move |rt, _id, (from, x): (u32, u64)| {
            let cluster = weak.upgrade().expect("a handler runs inside its cluster");
            let loc = cluster.locality(rt.locality() as usize);
            if let Err(e) = loc.send_action(answer, from, GlobalId(0), &(x * x)) {
                loc.record_failure(e);
            }
        });
        for &x in xs {
            cluster.locality(0).send_action(square, 1, GlobalId(0), &(0u32, x)).unwrap();
        }
        cluster.wait_quiescent();
        let mut got = std::mem::take(&mut *answers.lock());
        got.sort_unstable();
        got
    }

    fn call_cluster(kind: TransportKind) {
        let cluster =
            Arc::new(Cluster::builder().localities(2).threads_per(2).transport(kind).build());
        let xs: Vec<u64> = (0..20).collect();
        let squares: Vec<u64> = xs.iter().map(|x| x * x).collect();
        assert_eq!(square_round_trip(&cluster, 5, &xs), squares);
        assert!(cluster.locality(1).take_failures().is_empty());
    }

    #[test]
    fn request_response_over_mpi() {
        call_cluster(TransportKind::Mpi);
    }

    #[test]
    fn request_response_over_libfabric() {
        call_cluster(TransportKind::Libfabric);
    }

    #[test]
    fn loopback_send_skips_network() {
        let cluster =
            Cluster::builder().localities(2).transport(TransportKind::Libfabric).build();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        cluster.register_raw_action(ActionId(2), move |_rt, _id, _p| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        cluster
            .locality(1)
            .try_send(Parcel {
                dest_locality: 1,
                dest_component: GlobalId(9),
                action: ActionId(2),
                payload: Bytes::new(),
            })
            .unwrap();
        cluster.wait_quiescent();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(cluster.transport().counters().get("parcels_tx"), 0);
        assert_eq!(cluster.transport().counters().get("bytes_tx"), 0);
    }

    #[test]
    fn many_parcels_all_delivered() {
        for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
            let cluster =
                Cluster::builder().localities(4).threads_per(2).transport(kind).build();
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            cluster.register_raw_action(ActionId(4), move |_rt, _id, _p| {
                h.fetch_add(1, Ordering::SeqCst);
            });
            let n = 500;
            for i in 0..n {
                let from = i % 4;
                let to = (i + 1) % 4;
                cluster
                    .locality(from)
                    .try_send(Parcel {
                        dest_locality: to as u32,
                        dest_component: GlobalId(1),
                        action: ActionId(4),
                        payload: Bytes::from(vec![0u8; (i * 97) % 4096]),
                    })
                    .unwrap();
            }
            cluster.wait_quiescent();
            assert_eq!(hits.load(Ordering::SeqCst), n, "{kind}");
        }
    }

    #[test]
    fn zero_copy_vs_copies_counters() {
        // The structural difference the paper attributes the gains to:
        // MPI copies payloads, libfabric does not.
        let payload = Bytes::from(vec![7u8; 64 * 1024]);
        for (kind, expect_copies) in
            [(TransportKind::Mpi, true), (TransportKind::Libfabric, false)]
        {
            let cluster = Cluster::builder().localities(2).transport(kind).build();
            cluster.register_raw_action(ActionId(6), |_rt, _id, _p| {});
            cluster
                .locality(0)
                .try_send(Parcel {
                    dest_locality: 1,
                    dest_component: GlobalId(1),
                    action: ActionId(6),
                    payload: payload.clone(),
                })
                .unwrap();
            cluster.wait_quiescent();
            let copies = cluster.transport().counters().get("parcels/payload_copies");
            if expect_copies {
                assert!(copies > 0, "MPI backend must copy");
            } else {
                assert_eq!(copies, 0, "libfabric backend must be zero-copy");
            }
        }
    }

    #[test]
    fn builder_rejects_degenerate_configurations() {
        assert!(matches!(
            Cluster::builder().localities(0).try_build(),
            Err(Error::Driver(_))
        ));
        assert!(matches!(
            Cluster::builder().threads_per(0).try_build(),
            Err(Error::Driver(_))
        ));
    }

    #[test]
    fn builder_defaults_and_latency_model() {
        let cluster = Cluster::builder().build();
        assert_eq!(cluster.len(), 1);
        assert_eq!(cluster.transport().kind(), TransportKind::Mpi);
        assert_eq!(cluster.net_params(), NetParams::mpi_aries());
        // The latency model follows the transport.
        let cluster = Cluster::builder().transport(TransportKind::Libfabric).build();
        assert_eq!(cluster.net_params(), NetParams::libfabric_aries());
    }

    #[test]
    fn try_send_reports_bad_destination() {
        let cluster = Cluster::builder().localities(2).build();
        let err = cluster
            .locality(0)
            .try_send(Parcel {
                dest_locality: 7,
                dest_component: GlobalId(1),
                action: ActionId(1),
                payload: Bytes::new(),
            })
            .unwrap_err();
        assert_eq!(err, Error::BadLocality { index: 7, count: 2 });
    }

    #[test]
    fn cluster_metrics_namespace_transport_and_localities() {
        let cluster = Cluster::builder()
            .localities(2)
            .transport(TransportKind::Libfabric)
            .build();
        cluster.register_raw_action(ActionId(8), |_rt, _id, _p| {});
        cluster
            .locality(0)
            .try_send(Parcel {
                dest_locality: 1,
                dest_component: GlobalId(1),
                action: ActionId(8),
                payload: Bytes::from(vec![0u8; 256]),
            })
            .unwrap();
        cluster.wait_quiescent();
        let m = cluster.metrics();
        assert_eq!(m.get("parcelport/libfabric/parcels_tx"), 1);
        assert!(m.get("parcelport/libfabric/bytes_tx") >= 256);
        let snap = m.snapshot();
        assert_eq!(snap["parcelport/libfabric/parcels_tx"], 1);
        assert!(
            snap.keys().any(|k| k.starts_with("locality/0/")),
            "scheduler counters must appear under locality/<i>"
        );
    }

    #[test]
    fn typed_action_handle_roundtrip() {
        let cluster = Cluster::builder().localities(2).threads_per(2).build();
        let sum = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&sum);
        let add = cluster.register_action(ActionId(10), move |_rt, _id, x: u64| {
            s.fetch_add(x as usize, Ordering::SeqCst);
        });
        let loc0 = cluster.locality(0);
        loc0.send_action(add, 1, GlobalId(0), &5u64).unwrap();
        // Encode once, fan out the shared buffer.
        let payload = add.encode(&7u64).unwrap();
        loc0.send_encoded(add, 0, GlobalId(0), payload.clone()).unwrap();
        loc0.send_encoded(add, 1, GlobalId(0), payload).unwrap();
        cluster.wait_quiescent();
        assert_eq!(sum.load(Ordering::SeqCst), 5 + 7 + 7);
    }

    /// One typed action, encoded once and sent to every locality, runs
    /// once on each of them with the payload intact, on both transports.
    #[test]
    fn one_encoded_action_reaches_every_locality() {
        for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
            let cluster = Cluster::builder().localities(3).threads_per(2).transport(kind).build();
            let seen = Arc::new(Mutex::new(Vec::new()));
            let s = Arc::clone(&seen);
            let h = cluster.register_action(ActionId(0xB0), move |rt, _id, v: Vec<f64>| {
                assert_eq!(v, vec![1.5, 2.5]);
                s.lock().push(rt.locality());
            });
            let payload = h.encode(&vec![1.5, 2.5]).unwrap();
            for dest in 0..3u32 {
                cluster.locality(0).send_encoded(h, dest, GlobalId(0), payload.clone()).unwrap();
            }
            cluster.wait_quiescent();
            let mut seen = seen.lock().clone();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2], "{kind}");
        }
    }

    #[test]
    fn handler_decode_failure_is_recorded_not_panicked() {
        let cluster = Cluster::builder().localities(2).threads_per(2).build();
        let _h = cluster.register_action(ActionId(11), |_rt, _id, _x: u64| {
            panic!("handler must not run on a corrupt payload");
        });
        // A 3-byte payload cannot decode as u64.
        cluster
            .locality(0)
            .try_send(Parcel {
                dest_locality: 1,
                dest_component: GlobalId(0),
                action: ActionId(11),
                payload: Bytes::from_static(&[1, 2, 3]),
            })
            .unwrap();
        cluster.wait_quiescent();
        let failures = cluster.locality(1).take_failures();
        assert_eq!(failures.len(), 1);
        assert!(matches!(failures[0], Error::Codec(_)));
        assert_eq!(cluster.transport().counters().get("handler_errors"), 1);
        // Drained: a second take sees nothing.
        assert!(cluster.locality(1).take_failures().is_empty());
    }

    fn lossy_cluster_delivers_effectively_once(kind: TransportKind) {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::seeded(0xBEEF)
            .drop(0.10)
            .duplicate(0.10)
            .delay(0.10, 24)
            .reorder(0.10);
        let cluster = Cluster::builder()
            .localities(3)
            .threads_per(2)
            .transport(kind)
            .fault_plan(plan)
            .reliable(crate::reliable::ReliablePolicy {
                initial_backoff_ticks: 64,
                max_backoff_ticks: 1024,
                max_retries: 64,
            })
            .build();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let bump = cluster.register_action(ActionId(12), move |_rt, _id, _x: u64| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        let n = 300;
        for i in 0..n {
            let from = (i % 3) as usize;
            let to = ((i + 1) % 3) as u32;
            cluster
                .locality(from)
                .send_action(bump, to, GlobalId(0), &(i as u64))
                .unwrap();
        }
        cluster.wait_quiescent();
        // Despite drops, duplicates, delays and reordering every action
        // ran exactly once.
        assert_eq!(hits.load(Ordering::SeqCst), n, "{kind}");
        let m = cluster.metrics();
        let faults = &cluster.fault_layer().unwrap();
        let injected = faults.fault_counters().get("dropped")
            + faults.fault_counters().get("duplicated");
        assert!(injected > 0, "plan must actually have perturbed something");
        if faults.fault_counters().get("dropped") > 0 {
            assert!(m.get("parcelport/retries") > 0, "drops must cause retries");
        }
        assert!(m.get("parcelport/acks") > 0);
        assert_eq!(cluster.failed_localities(), Vec::<u32>::new());
    }

    #[test]
    fn lossy_mpi_delivers_effectively_once() {
        lossy_cluster_delivers_effectively_once(TransportKind::Mpi);
    }

    #[test]
    fn lossy_libfabric_delivers_effectively_once() {
        lossy_cluster_delivers_effectively_once(TransportKind::Libfabric);
    }

    #[test]
    fn duplicates_are_suppressed_and_counted() {
        use crate::fault::FaultPlan;
        // Only duplication: no retransmits needed, every dup must be
        // filtered by the sequence-number watermark.
        let cluster = Cluster::builder()
            .localities(2)
            .threads_per(2)
            .fault_plan(FaultPlan::seeded(7).duplicate(1.0))
            .build();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let bump = cluster.register_action(ActionId(13), move |_rt, _id, _x: u8| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        for i in 0..50u8 {
            cluster.locality(0).send_action(bump, 1, GlobalId(0), &i).unwrap();
        }
        cluster.wait_quiescent();
        assert_eq!(hits.load(Ordering::SeqCst), 50);
        assert!(cluster.metrics().get("parcelport/dup_dropped") >= 50);
    }

    fn crash_is_detected(kind: TransportKind) {
        use crate::fault::FaultPlan;
        let cluster = Cluster::builder()
            .localities(2)
            .threads_per(2)
            .transport(kind)
            .fault_plan(FaultPlan::seeded(3).crash(1, 5))
            .reliable(crate::reliable::ReliablePolicy {
                initial_backoff_ticks: 16,
                max_backoff_ticks: 64,
                max_retries: 4,
            })
            .build();
        let bump = cluster.register_action(ActionId(14), |_rt, _id, _x: u64| {});
        // Locality 1 crashes after its 5th outbound parcel (that
        // includes the acks it sends for these); keep sending until the
        // fault layer reports it dead.
        for i in 0..50u64 {
            cluster.locality(0).send_action(bump, 1, GlobalId(0), &i).unwrap();
            if !cluster.failed_localities().is_empty() {
                break;
            }
            cluster.wait_quiescent();
        }
        cluster.wait_quiescent();
        assert_eq!(cluster.failed_localities(), vec![1], "{kind}");
        let err = cluster.try_wait_quiescent().unwrap_err();
        assert_eq!(err, Error::LocalityCrashed(1));
        // The healthy part of the cluster still drains: wait_quiescent
        // terminated above rather than hanging on the dead peer.
    }

    #[test]
    fn crash_is_detected_over_mpi() {
        crash_is_detected(TransportKind::Mpi);
    }

    #[test]
    fn crash_is_detected_over_libfabric() {
        crash_is_detected(TransportKind::Libfabric);
    }

    #[test]
    fn stalled_locality_recovers() {
        use crate::fault::FaultPlan;
        let cluster = Cluster::builder()
            .localities(2)
            .threads_per(2)
            .fault_plan(FaultPlan::seeded(9).stall(1, 3, 200))
            .build();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let bump = cluster.register_action(ActionId(15), move |_rt, _id, _x: u64| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        for i in 0..20u64 {
            cluster.locality(0).send_action(bump, 1, GlobalId(0), &i).unwrap();
            cluster.locality(1).send_action(bump, 0, GlobalId(0), &i).unwrap();
        }
        cluster.wait_quiescent();
        assert_eq!(hits.load(Ordering::SeqCst), 40);
        assert!(cluster.fault_layer().unwrap().fault_counters().get("stalls") >= 1);
        assert!(cluster.failed_localities().is_empty());
    }

    #[test]
    fn reliable_layer_without_faults_is_transparent() {
        let cluster = Arc::new(
            Cluster::builder()
                .localities(2)
                .threads_per(2)
                .reliable(crate::reliable::ReliablePolicy::default())
                .build(),
        );
        assert_eq!(square_round_trip(&cluster, 16, &[12]), [144]);
        let m = cluster.metrics();
        assert_eq!(m.get("parcelport/retries"), 0);
        assert!(m.get("parcelport/acks") > 0);
        assert!(cluster.reliable_layer().is_some());
        assert!(cluster.fault_layer().is_none());
    }
}
