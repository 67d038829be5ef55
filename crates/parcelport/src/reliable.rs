//! Reliable, effectively-once parcel delivery.
//!
//! [`ReliableTransport`] decorates any [`Transport`] with the classic
//! ack/retransmit protocol HPX's resilience work assumes underneath it:
//!
//! * every data parcel is framed with the sender index and a per
//!   `(sender, receiver)` **sequence number**;
//! * the receiver **acks** every data frame (acks ride the same fabric
//!   and are themselves unreliable — a lost ack simply provokes a
//!   retransmit, which the receiver's duplicate filter re-acks and
//!   drops);
//! * unacked frames are **retransmitted** with exponential backoff,
//!   measured in progress *ticks* (one tick per [`Transport::progress`]
//!   call made while the fabric below carries nothing: a frame or ack
//!   still in flight may yet arrive) so the protocol stays
//!   deterministic and wall-clock free, and a fault-free fabric never
//!   resends;
//! * a per-`(sender, receiver)` **watermark + above-watermark set**
//!   suppresses duplicates, so every action dispatches *effectively
//!   once* even under duplication and retransmission;
//! * a peer whose retry budget runs out is **declared dead**: its
//!   unacked frames become dead letters, new sends to it are swallowed,
//!   and it is reported through [`Transport::failed_localities`] so the
//!   driver can abort the step and restore from a checkpoint.
//!
//! Framing adds 13 bytes and one send-side copy per parcel; the
//! receive-side strip is zero-copy ([`bytes::Bytes::slice`] shares the
//! backing buffer), keeping the libfabric backend's zero-copy story
//! intact.
//!
//! The layer counts its work in the metrics view it is built with, the
//! cluster's `parcelport`: `parcelport/retries`,
//! `parcelport/dup_dropped`, `parcelport/acks`, plus `acked`,
//! `dead_letter` and `peers_declared_dead`. Every retransmission also
//! records a `parcel/retry` trace span when a trace session is active.

use crate::cluster::{DeliveryFn, Transport};
use crate::netmodel::TransportKind;
use crate::parcel::{ActionId, Parcel};
use amt::trace::{self, TraceCategory};
use amt::{Counter, GlobalId, Metrics};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Reserved action id of ack frames. Acks are consumed by the
/// reliability layer and never dispatched to an action registry.
pub const ACK_ACTION: ActionId = ActionId(u32::MAX);

/// Bytes of framing prepended to every data parcel: a tag byte, the
/// sender index (`u32` LE) and the sequence number (`u64` LE).
pub const FRAME_BYTES: usize = 1 + 4 + 8;

const TAG_DATA: u8 = 0;
const TAG_ACK: u8 = 1;

/// Tunables of the ack/retransmit state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliablePolicy {
    /// Ticks before the first retransmission of an unacked frame.
    pub initial_backoff_ticks: u64,
    /// Backoff ceiling (the backoff doubles per retry up to this).
    pub max_backoff_ticks: u64,
    /// Retransmissions allowed per frame before the peer is declared
    /// dead.
    pub max_retries: u32,
}

impl Default for ReliablePolicy {
    fn default() -> Self {
        ReliablePolicy {
            initial_backoff_ticks: 1024,
            max_backoff_ticks: 32 * 1024,
            max_retries: 16,
        }
    }
}

/// A frame awaiting its ack.
struct Pending {
    parcel: Parcel,
    retries: u32,
    backoff: u64,
    next_due: u64,
}

/// Sender-side state for one `(sender, receiver)` direction.
#[derive(Default)]
struct PeerSend {
    next_seq: u64,
    unacked: BTreeMap<u64, Pending>,
}

/// Receiver-side duplicate filter for one `(receiver, sender)`
/// direction: everything `<= watermark` was delivered, plus the sparse
/// set of delivered sequence numbers above it.
#[derive(Default)]
struct PeerRecv {
    watermark: u64,
    seen: BTreeSet<u64>,
}

impl PeerRecv {
    /// Record `seq`; returns `false` if it was already delivered.
    fn admit(&mut self, seq: u64) -> bool {
        if seq <= self.watermark || !self.seen.insert(seq) {
            return false;
        }
        while self.seen.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
        true
    }
}

#[derive(Default)]
struct ReliableState {
    senders: HashMap<(u32, u32), PeerSend>,
    receivers: HashMap<(u32, u32), PeerRecv>,
    /// Peers declared dead after exhausting a retry budget.
    dead: BTreeSet<u32>,
}

/// The reliable-delivery transport decorator. See the module docs.
pub struct ReliableTransport {
    inner: Arc<dyn Transport>,
    policy: ReliablePolicy,
    /// Logical clock: one tick per `progress` call, fabric-wide, made
    /// while the layer below has nothing in flight.
    ticks: AtomicU64,
    state: Arc<Mutex<ReliableState>>,
    /// Cheap mirror of the total unacked-frame count (feeds
    /// `in_flight` without taking the state lock).
    unacked_total: Arc<AtomicUsize>,
    counts: ReliableCounts,
}

/// The layer's counters, one handle each (see the module docs).
#[derive(Clone)]
struct ReliableCounts {
    retries: Counter,
    acks: Counter,
    acked: Counter,
    dup_dropped: Counter,
    dead_letter: Counter,
    peers_declared_dead: Counter,
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn frame(tag: u8, loc: u32, seq: u64, payload: &[u8]) -> Bytes {
    let mut v = Vec::with_capacity(FRAME_BYTES + payload.len());
    v.push(tag);
    v.extend_from_slice(&loc.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(payload);
    Bytes::from(v)
}

impl ReliableTransport {
    /// Wrap `inner` with `policy`, counting into `metrics`.
    pub fn new(
        inner: Arc<dyn Transport>,
        policy: ReliablePolicy,
        metrics: &Metrics,
    ) -> ReliableTransport {
        ReliableTransport {
            inner,
            policy,
            ticks: AtomicU64::new(1),
            state: Arc::new(Mutex::new(ReliableState::default())),
            unacked_total: Arc::new(AtomicUsize::new(0)),
            counts: ReliableCounts {
                retries: metrics.counter("retries"),
                acks: metrics.counter("acks"),
                acked: metrics.counter("acked"),
                dup_dropped: metrics.counter("dup_dropped"),
                dead_letter: metrics.counter("dead_letter"),
                peers_declared_dead: metrics.counter("peers_declared_dead"),
            },
        }
    }

    /// Purge all unacked frames addressed to `peer` (it is dead; they
    /// can never be acked) and remember it as dead.
    fn bury(state: &mut ReliableState, unacked_total: &AtomicUsize, counts: &ReliableCounts, peer: u32) {
        if !state.dead.insert(peer) {
            return;
        }
        counts.peers_declared_dead.increment();
        for ((_, dst), ps) in state.senders.iter_mut() {
            if *dst == peer {
                let n = ps.unacked.len();
                ps.unacked.clear();
                unacked_total.fetch_sub(n, Ordering::SeqCst);
                counts.dead_letter.add(n as u64);
            }
        }
    }
}

impl Transport for ReliableTransport {
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn send(&self, from: u32, parcel: Parcel) {
        let dest = parcel.dest_locality;
        let mut st = self.state.lock();
        if st.dead.contains(&dest) {
            self.counts.dead_letter.increment();
            return;
        }
        let peer = st.senders.entry((from, dest)).or_default();
        peer.next_seq += 1;
        let seq = peer.next_seq;
        let wrapped = Parcel {
            payload: frame(TAG_DATA, from, seq, &parcel.payload),
            ..parcel
        };
        let now = self.ticks.load(Ordering::SeqCst);
        peer.unacked.insert(
            seq,
            Pending {
                parcel: wrapped.clone(),
                retries: 0,
                backoff: self.policy.initial_backoff_ticks,
                next_due: now + self.policy.initial_backoff_ticks,
            },
        );
        self.unacked_total.fetch_add(1, Ordering::SeqCst);
        drop(st);
        self.inner.send(from, wrapped);
    }

    fn progress(&self, locality: u32) -> bool {
        // The retransmit clock runs only while nothing below is in
        // flight: a frame or ack still queued may yet be delivered, so
        // polls meanwhile (an idle peer's, say, while the ack waits
        // behind a busy locality) must not age it into a resend.
        let now = if self.inner.in_flight() == 0 {
            self.ticks.fetch_add(1, Ordering::SeqCst)
        } else {
            self.ticks.load(Ordering::SeqCst)
        };
        let mut progressed = self.inner.progress(locality);
        // Retransmit sweep. try_lock: under contention another poller
        // thread is already sweeping, skip rather than serialize.
        if let Some(mut st) = self.state.try_lock() {
            // A layer below may know peers are gone (fault injection):
            // their frames can never be acked, bury them now instead of
            // burning through the whole retry budget.
            for peer in self.inner.failed_localities() {
                Self::bury(&mut st, &self.unacked_total, &self.counts, peer);
            }
            let mut resend: Vec<(u32, Parcel)> = Vec::new();
            let mut exhausted: Vec<u32> = Vec::new();
            for (&(from, dst), ps) in st.senders.iter_mut() {
                for p in ps.unacked.values_mut() {
                    if p.next_due > now {
                        continue;
                    }
                    if p.retries >= self.policy.max_retries {
                        exhausted.push(dst);
                        continue;
                    }
                    p.retries += 1;
                    p.backoff = (p.backoff * 2).min(self.policy.max_backoff_ticks);
                    p.next_due = now + p.backoff;
                    resend.push((from, p.parcel.clone()));
                }
            }
            for peer in exhausted {
                Self::bury(&mut st, &self.unacked_total, &self.counts, peer);
            }
            drop(st);
            for (from, parcel) in resend {
                let _span = trace::span_labeled(TraceCategory::ParcelRetry, || {
                    format!("to{}:{}B", parcel.dest_locality, parcel.wire_size())
                });
                self.counts.retries.increment();
                self.inner.send(from, parcel);
                progressed = true;
            }
        }
        progressed
    }

    fn set_delivery(&self, locality: u32, delivery: DeliveryFn) {
        let state = Arc::clone(&self.state);
        let unacked_total = Arc::clone(&self.unacked_total);
        let counts = self.counts.clone();
        // The inner layer holds this callback, so it holds the inner
        // layer weakly (a strong handle would be a cycle).
        let inner = Arc::downgrade(&self.inner);
        self.inner.set_delivery(
            locality,
            Arc::new(move |parcel: Parcel| {
                let payload = &parcel.payload;
                if payload.len() < FRAME_BYTES {
                    // Not a reliable frame (cannot happen when every
                    // send goes through this layer); pass through.
                    delivery(parcel);
                    return;
                }
                let tag = payload[0];
                let who = read_u32(&payload[1..5]);
                let seq = read_u64(&payload[5..13]);
                match tag {
                    TAG_ACK => {
                        // `who` acked our frame `seq`.
                        let mut st = state.lock();
                        if let Some(ps) = st.senders.get_mut(&(locality, who)) {
                            if ps.unacked.remove(&seq).is_some() {
                                unacked_total.fetch_sub(1, Ordering::SeqCst);
                                counts.acked.increment();
                            }
                        }
                    }
                    TAG_DATA => {
                        // Ack unconditionally — duplicates usually mean
                        // our previous ack was lost.
                        counts.acks.increment();
                        // Live: the inner layer is the one delivering.
                        let Some(inner) = inner.upgrade() else { return };
                        inner.send(
                            locality,
                            Parcel {
                                dest_locality: who,
                                dest_component: GlobalId(0),
                                action: ACK_ACTION,
                                payload: frame(TAG_ACK, locality, seq, &[]),
                            },
                        );
                        let fresh = state
                            .lock()
                            .receivers
                            .entry((locality, who))
                            .or_default()
                            .admit(seq);
                        if !fresh {
                            counts.dup_dropped.increment();
                            return;
                        }
                        let inner_payload = payload.slice(FRAME_BYTES..);
                        delivery(Parcel {
                            payload: inner_payload,
                            ..parcel
                        });
                    }
                    _ => delivery(parcel),
                }
            }),
        );
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight() + self.unacked_total.load(Ordering::SeqCst)
    }

    fn failed_localities(&self) -> Vec<u32> {
        let mut out = self.inner.failed_localities();
        for d in self.state.lock().dead.iter() {
            if !out.contains(d) {
                out.push(*d);
            }
        }
        out.sort_unstable();
        out
    }
}
