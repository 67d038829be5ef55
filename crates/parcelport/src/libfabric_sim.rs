//! The one-sided libfabric parcelport stand-in.
//!
//! "All user/packed data buffers larger than the eager message size
//! threshold are encoded as pointers and exchanged between nodes using
//! one-sided RMA put/get operations" and "any task scheduling thread may
//! poll for completions in libfabric and set futures to received data
//! without any intervening layer" (§5.2). The mechanisms reproduced:
//!
//! * **Zero copy**: the payload [`bytes::Bytes`] handle itself is the
//!   registered memory region; delivery shares the buffer by reference
//!   count, never copying bytes.
//! * **Completion queues any worker may poll**: one per locality, a
//!   `Mutex<VecDeque>` held for one completion at a time, so concurrent
//!   pollers interleave instead of serializing behind a progress lock.
//!   The real fabric's queue is lock-free; that is what
//!   [`crate::netmodel::NetParams`] prices, not what this simulation runs.
//! * **No tag matching**: completions map one-to-one onto ready futures.
//!
//! Memory registration is modelled by [`RmaRegion`]: payloads are
//! "pinned" on send and unpinned when the receive side drops its handle,
//! with a counter tracking outstanding registrations (the future
//! user-controlled RMA buffer work of §7 would amortize these).

use crate::cluster::{DeliveryFn, Transport};
use crate::netmodel::TransportKind;
use crate::parcel::Parcel;
use amt::{Counter, Metrics};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A registered ("pinned") memory region holding a payload. Dropping the
/// region unregisters it.
pub struct RmaRegion {
    bytes: Bytes,
    registrations: Arc<AtomicUsize>,
}

impl RmaRegion {
    fn pin(bytes: Bytes, registrations: &Arc<AtomicUsize>) -> RmaRegion {
        registrations.fetch_add(1, Ordering::SeqCst);
        RmaRegion { bytes, registrations: Arc::clone(registrations) }
    }

    /// Read access to the pinned payload (zero-copy).
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }
}

impl Drop for RmaRegion {
    fn drop(&mut self) {
        self.registrations.fetch_sub(1, Ordering::SeqCst);
    }
}

struct Completion {
    parcel_meta: Parcel, // payload field empty; real payload in the region
    region: RmaRegion,
}

struct PerLocality {
    cq: Mutex<VecDeque<Completion>>,
    delivery: Mutex<Option<DeliveryFn>>,
}

/// The one-sided transport.
pub struct LibfabricTransport {
    locs: Vec<PerLocality>,
    in_flight: AtomicUsize,
    registrations: Arc<AtomicUsize>,
    rma_puts: Counter,
    received: Counter,
    parcels_tx: Counter,
    bytes_tx: Counter,
}

impl LibfabricTransport {
    /// A fabric of `n_localities` endpoints counting into a fresh map.
    pub fn new(n_localities: usize) -> LibfabricTransport {
        Self::with_metrics(n_localities, &Metrics::new())
    }

    /// A fabric counting `libfabric/rma_puts`, `parcels/received` and
    /// what it was handed to send, `{parcels, bytes}_tx`, into `metrics`.
    pub(crate) fn with_metrics(n_localities: usize, metrics: &Metrics) -> LibfabricTransport {
        LibfabricTransport {
            locs: (0..n_localities)
                .map(|_| PerLocality {
                    cq: Mutex::new(VecDeque::new()),
                    delivery: Mutex::new(None),
                })
                .collect(),
            in_flight: AtomicUsize::new(0),
            registrations: Arc::new(AtomicUsize::new(0)),
            rma_puts: metrics.counter("libfabric/rma_puts"),
            received: metrics.counter("parcels/received"),
            parcels_tx: metrics.counter("parcels_tx"),
            bytes_tx: metrics.counter("bytes_tx"),
        }
    }

    /// Number of currently pinned memory regions.
    pub fn pinned_regions(&self) -> usize {
        self.registrations.load(Ordering::SeqCst)
    }
}

impl Transport for LibfabricTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Libfabric
    }

    fn send(&self, _from: u32, parcel: Parcel) {
        assert!((parcel.dest_locality as usize) < self.locs.len(), "bad destination");
        self.parcels_tx.increment();
        self.bytes_tx.add(parcel.wire_size() as u64);
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        // Pin the payload; ship only the descriptor. Delivery performs
        // the RMA "get" by taking the refcounted handle.
        let region = RmaRegion::pin(parcel.payload.clone(), &self.registrations);
        let meta = Parcel { payload: Bytes::new(), ..parcel };
        self.rma_puts.increment();
        self.locs[meta.dest_locality as usize]
            .cq
            .lock()
            .push_back(Completion { parcel_meta: meta, region });
    }

    fn progress(&self, locality: u32) -> bool {
        // Any number of workers may poll concurrently: each holds the
        // queue's lock for one pop, never across a delivery.
        let loc = &self.locs[locality as usize];
        let mut progressed = false;
        for _ in 0..64 {
            let Some(completion) = loc.cq.lock().pop_front() else { break };
            progressed = true;
            self.received.increment();
            // Zero-copy: hand the pinned bytes straight to the parcel.
            let payload = completion.region.bytes().clone();
            let mut parcel = completion.parcel_meta;
            parcel.payload = payload;
            drop(completion.region); // unregister
            let delivery = loc
                .delivery
                .lock()
                .clone()
                .expect("delivery callback not installed");
            delivery(parcel);
            // Decrement only after delivery has handed the parcel to the
            // destination runtime: a quiescence check must never observe
            // both this counter and the scheduler's at zero while the
            // parcel sits in a poller's hands.
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        progressed
    }

    fn set_delivery(&self, locality: u32, delivery: DeliveryFn) {
        *self.locs[locality as usize].delivery.lock() = Some(delivery);
    }

    fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parcel::ActionId;
    use amt::GlobalId;
    use parking_lot::Mutex as PMutex;

    fn parcel(to: u32, payload: Bytes) -> Parcel {
        Parcel {
            dest_locality: to,
            dest_component: GlobalId(1),
            action: ActionId(1),
            payload,
        }
    }

    #[test]
    fn delivery_is_zero_copy() {
        let metrics = Metrics::new();
        let t = LibfabricTransport::with_metrics(2, &metrics);
        let payload = Bytes::from(vec![1u8; 1 << 20]);
        let src_ptr = payload.as_ptr();
        let got: Arc<PMutex<Vec<Parcel>>> = Arc::new(PMutex::new(Vec::new()));
        let g = Arc::clone(&got);
        t.set_delivery(1, Arc::new(move |p| g.lock().push(p)));
        t.send(0, parcel(1, payload));
        assert!(t.progress(1));
        let got = got.lock();
        assert_eq!(got.len(), 1);
        // Same backing allocation: the pointer must be identical.
        assert_eq!(got[0].payload.as_ptr(), src_ptr);
        assert_eq!(metrics.get("parcels/payload_copies"), 0);
        assert_eq!(metrics.get("parcels/received"), 1);
    }

    #[test]
    fn regions_are_unpinned_after_delivery() {
        let t = LibfabricTransport::new(2);
        t.set_delivery(1, Arc::new(|_p| {}));
        for _ in 0..10 {
            t.send(0, parcel(1, Bytes::from(vec![0u8; 128])));
        }
        assert_eq!(t.pinned_regions(), 10);
        while t.in_flight() > 0 {
            t.progress(1);
        }
        assert_eq!(t.pinned_regions(), 0);
    }

    #[test]
    fn concurrent_polling_is_safe() {
        let t = Arc::new(LibfabricTransport::new(2));
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        t.set_delivery(
            1,
            Arc::new(move |_p| {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let n = 10_000;
        for _ in 0..n {
            t.send(0, parcel(1, Bytes::from_static(&[9; 16])));
        }
        let pollers: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || while t.progress(1) {})
            })
            .collect();
        for p in pollers {
            p.join().unwrap();
        }
        // A final single-threaded sweep in case a poller exited early.
        while t.progress(1) {}
        assert_eq!(count.load(Ordering::SeqCst), n);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn progress_on_empty_queue_is_false() {
        let t = LibfabricTransport::new(1);
        t.set_delivery(0, Arc::new(|_p| {}));
        assert!(!t.progress(0));
    }
}
