//! Deterministic fault injection for the simulated parcelports.
//!
//! A real libfabric parcelport on 5400 Piz Daint nodes lives in a world
//! where packets are dropped, duplicated, reordered, and delayed, and
//! where whole nodes stall or die mid-run. The clean simulated
//! transports assume all of that away; [`FaultyTransport`] puts it
//! back. It decorates any [`Transport`] (either sim backend) and
//! consults a seeded [`FaultPlan`] on every send and progress call:
//!
//! * **parcel faults** — drop, duplicate, delay (release after a number
//!   of progress ticks), and reorder (swap with the next parcel to the
//!   same destination);
//! * **locality faults** — *stall* (the locality stops making progress
//!   for a window of ticks, then recovers) and *crash* (the locality
//!   goes dark forever: inbound parcels are delivered to a dead sink,
//!   outbound sends are swallowed, and the locality is reported through
//!   [`Transport::failed_localities`]).
//!
//! Decisions are pure functions of the plan seed and a global send
//! index (splitmix64), so a plan is reproducible. Parcel faults require
//! the reliable-delivery layer above this one
//! ([`crate::reliable::ReliableTransport`]) — without retransmission a
//! dropped parcel would hang quiescence forever; the cluster builder
//! enforces that pairing.
//!
//! Everything the layer does is counted in the metrics view it is built
//! with (the cluster's `parcelport/faults`): `dropped`, `duplicated`,
//! `delayed`, `reordered`, `dead_dropped`, `dead_delivered`, `crashes`,
//! `stalls`.

use crate::cluster::{DeliveryFn, Transport};
use crate::netmodel::TransportKind;
use crate::parcel::Parcel;
use amt::{Counter, Metrics};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Mix a seed and a counter into a pseudo-random `u64` (splitmix64).
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a `u64` onto `[0, 1)`.
fn unit(r: u64) -> f64 {
    (r >> 11) as f64 / (1u64 << 53) as f64
}

/// A whole-locality failure scheduled by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// After `locality` has issued `after_sends` parcels, it goes dark
    /// forever: no progress, inbound traffic dead-sinked, outbound
    /// swallowed.
    Crash {
        /// The locality that dies.
        locality: u32,
        /// Outbound parcel count that triggers the crash.
        after_sends: u64,
    },
    /// After `locality` has issued `after_sends` parcels, it makes no
    /// progress for `ticks` progress calls, then recovers.
    Stall {
        /// The locality that hangs.
        locality: u32,
        /// Outbound parcel count that triggers the stall.
        after_sends: u64,
        /// Length of the stall in progress ticks.
        ticks: u64,
    },
}

/// A seeded, deterministic description of the faults to inject.
///
/// ```
/// use parcelport::fault::FaultPlan;
///
/// let plan = FaultPlan::seeded(42).drop(0.05).duplicate(0.05).delay(0.1, 32);
/// assert!(!plan.has_crash());
/// let lossy = plan.crash(1, 200);
/// assert!(lossy.has_crash());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    max_delay_ticks: u64,
    reorder_p: f64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan that injects nothing until probabilities or events are
    /// added. `seed` fixes every probabilistic decision.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            max_delay_ticks: 16,
            reorder_p: 0.0,
            events: Vec::new(),
        }
    }

    /// Drop each parcel with probability `p`.
    pub fn drop(mut self, p: f64) -> FaultPlan {
        self.drop_p = p;
        self
    }

    /// Duplicate each parcel with probability `p`.
    pub fn duplicate(mut self, p: f64) -> FaultPlan {
        self.dup_p = p;
        self
    }

    /// Delay each parcel with probability `p` by 1..=`max_ticks`
    /// progress ticks.
    pub fn delay(mut self, p: f64, max_ticks: u64) -> FaultPlan {
        self.delay_p = p;
        self.max_delay_ticks = max_ticks.max(1);
        self
    }

    /// With probability `p`, hold a parcel and release it *after* the
    /// next parcel to the same destination (an adjacent swap).
    pub fn reorder(mut self, p: f64) -> FaultPlan {
        self.reorder_p = p;
        self
    }

    /// Schedule a [`FaultEvent::Crash`].
    pub fn crash(mut self, locality: u32, after_sends: u64) -> FaultPlan {
        self.events.push(FaultEvent::Crash { locality, after_sends });
        self
    }

    /// Schedule a [`FaultEvent::Stall`].
    pub fn stall(mut self, locality: u32, after_sends: u64, ticks: u64) -> FaultPlan {
        self.events.push(FaultEvent::Stall { locality, after_sends, ticks });
        self
    }

    /// Whether the plan contains a crash event (plans without one must
    /// be survivable without data loss).
    pub fn has_crash(&self) -> bool {
        self.events.iter().any(|e| matches!(e, FaultEvent::Crash { .. }))
    }

    /// Whether the plan can perturb parcels at all (used by the cluster
    /// builder to require the reliable layer).
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.delay_p > 0.0
            || self.reorder_p > 0.0
            || !self.events.is_empty()
    }
}

/// A parcel parked by the delay/reorder machinery.
struct Held {
    release_tick: u64,
    from: u32,
    parcel: Parcel,
}

/// The fault-injecting transport decorator.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    /// Global progress-tick clock (every `progress` call advances it).
    ticks: AtomicU64,
    /// Global send index: the RNG stream position.
    rolls: AtomicU64,
    /// Per-locality outbound parcel counts (event triggers).
    sends_by_loc: Vec<AtomicU64>,
    /// Shared per-locality crash flags (shared with the wrapped
    /// delivery closures, which dead-sink inbound traffic once set).
    crashed: Vec<Arc<AtomicBool>>,
    /// Tick until which each locality is stalled (0 = not stalled).
    stalled_until: Vec<AtomicU64>,
    /// Delayed parcels waiting for their release tick.
    held: Mutex<Vec<Held>>,
    /// Reorder holds: one parked parcel per destination, released
    /// (swapped) by the next send to that destination.
    swap_hold: Mutex<HashMap<u32, Held>>,
    counts: FaultCounts,
}

/// The fault events, one handle each (see the module docs).
struct FaultCounts {
    dropped: Counter,
    duplicated: Counter,
    delayed: Counter,
    reordered: Counter,
    dead_dropped: Counter,
    dead_delivered: Counter,
    crashes: Counter,
    stalls: Counter,
}

/// Ticks after which a reorder hold is force-flushed even if no second
/// parcel to the same destination ever arrives.
const SWAP_FLUSH_TICKS: u64 = 64;

impl FaultyTransport {
    /// Wrap `inner` with `plan`, counting fault events into `metrics`.
    pub fn new(
        inner: Arc<dyn Transport>,
        plan: FaultPlan,
        n_localities: usize,
        metrics: &Metrics,
    ) -> FaultyTransport {
        FaultyTransport {
            inner,
            plan,
            ticks: AtomicU64::new(1),
            rolls: AtomicU64::new(0),
            sends_by_loc: (0..n_localities).map(|_| AtomicU64::new(0)).collect(),
            crashed: (0..n_localities).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            stalled_until: (0..n_localities).map(|_| AtomicU64::new(0)).collect(),
            held: Mutex::new(Vec::new()),
            swap_hold: Mutex::new(HashMap::new()),
            counts: FaultCounts {
                dropped: metrics.counter("dropped"),
                duplicated: metrics.counter("duplicated"),
                delayed: metrics.counter("delayed"),
                reordered: metrics.counter("reordered"),
                dead_dropped: metrics.counter("dead_dropped"),
                dead_delivered: metrics.counter("dead_delivered"),
                crashes: metrics.counter("crashes"),
                stalls: metrics.counter("stalls"),
            },
        }
    }

    /// The plan this transport injects.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether `locality` has crashed.
    pub fn is_crashed(&self, locality: u32) -> bool {
        self.crashed[locality as usize].load(Ordering::SeqCst)
    }

    /// Crash `locality` right now (test/driver hook; the planned
    /// [`FaultEvent::Crash`] path routes through here too).
    pub fn crash_now(&self, locality: u32) {
        if !self.crashed[locality as usize].swap(true, Ordering::SeqCst) {
            self.counts.crashes.increment();
        }
    }

    /// Outbound parcels issued by `locality` so far (crash-point probes
    /// in tests use this to place a crash mid-step).
    pub fn sends_from(&self, locality: u32) -> u64 {
        self.sends_by_loc[locality as usize].load(Ordering::SeqCst)
    }

    fn now(&self) -> u64 {
        self.ticks.load(Ordering::SeqCst)
    }

    /// Apply any events triggered by `from` reaching `n` sends.
    fn trigger_events(&self, from: u32, n: u64) {
        for e in &self.plan.events {
            match *e {
                FaultEvent::Crash { locality, after_sends } if locality == from && after_sends == n => {
                    self.crash_now(locality);
                }
                FaultEvent::Stall { locality, after_sends, ticks } if locality == from && after_sends == n => {
                    self.stalled_until[locality as usize]
                        .store(self.now() + ticks, Ordering::SeqCst);
                    self.counts.stalls.increment();
                }
                _ => {}
            }
        }
    }

    /// Release every delayed parcel whose tick has come, and any
    /// overdue reorder holds.
    fn release_due(&self, now: u64) -> bool {
        let due: Vec<Held> = {
            let mut held = self.held.lock();
            let mut due = Vec::new();
            held.retain_mut(|h| {
                if h.release_tick <= now {
                    due.push(Held {
                        release_tick: h.release_tick,
                        from: h.from,
                        parcel: h.parcel.clone(),
                    });
                    false
                } else {
                    true
                }
            });
            due
        };
        let overdue: Vec<Held> = {
            let mut swap = self.swap_hold.lock();
            let keys: Vec<u32> = swap
                .iter()
                .filter(|(_, h)| h.release_tick + SWAP_FLUSH_TICKS <= now)
                .map(|(&k, _)| k)
                .collect();
            keys.into_iter().filter_map(|k| swap.remove(&k)).collect()
        };
        let progressed = !due.is_empty() || !overdue.is_empty();
        for h in due.into_iter().chain(overdue) {
            self.forward(h.from, h.parcel);
        }
        progressed
    }

    /// Hand a parcel to the inner transport unless its endpoints died.
    fn forward(&self, from: u32, parcel: Parcel) {
        if self.is_crashed(parcel.dest_locality) || self.is_crashed(from) {
            self.counts.dead_dropped.increment();
            return;
        }
        self.inner.send(from, parcel);
    }
}

impl Transport for FaultyTransport {
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn send(&self, from: u32, parcel: Parcel) {
        if self.is_crashed(from) || self.is_crashed(parcel.dest_locality) {
            self.counts.dead_dropped.increment();
            return;
        }
        let n = self.sends_by_loc[from as usize].fetch_add(1, Ordering::SeqCst) + 1;
        self.trigger_events(from, n);
        // The event may just have killed the sender: this send dies
        // with it (the node crashed while the parcel sat in its NIC).
        if self.is_crashed(from) {
            self.counts.dead_dropped.increment();
            return;
        }

        // A reorder hold for this destination is released *behind* the
        // current parcel: adjacent swap.
        let parked = self.swap_hold.lock().remove(&parcel.dest_locality);

        let r = mix(self.plan.seed, self.rolls.fetch_add(1, Ordering::SeqCst));
        let roll = unit(r);
        if roll < self.plan.drop_p {
            self.counts.dropped.increment();
        } else if roll < self.plan.drop_p + self.plan.dup_p {
            self.counts.duplicated.increment();
            self.forward(from, parcel.clone());
            self.forward(from, parcel);
        } else if roll < self.plan.drop_p + self.plan.dup_p + self.plan.delay_p {
            self.counts.delayed.increment();
            let d = 1 + mix(self.plan.seed ^ 0xD31A, r) % self.plan.max_delay_ticks;
            self.held.lock().push(Held {
                release_tick: self.now() + d,
                from,
                parcel,
            });
        } else if parked.is_none()
            && roll < self.plan.drop_p + self.plan.dup_p + self.plan.delay_p + self.plan.reorder_p
        {
            self.counts.reordered.increment();
            self.swap_hold.lock().insert(
                parcel.dest_locality,
                Held { release_tick: self.now(), from, parcel },
            );
        } else {
            self.forward(from, parcel);
        }
        if let Some(h) = parked {
            self.forward(h.from, h.parcel);
        }
    }

    fn progress(&self, locality: u32) -> bool {
        let now = self.ticks.fetch_add(1, Ordering::SeqCst);
        let mut progressed = self.release_due(now);
        if self.is_crashed(locality) {
            // Drain the dead locality's inbound queue into the dead
            // sink (the wrapped delivery callback below swallows), so
            // the fabric's in-flight accounting still reaches zero.
            self.inner.progress(locality);
            return progressed;
        }
        if self.stalled_until[locality as usize].load(Ordering::SeqCst) > now {
            return progressed;
        }
        progressed |= self.inner.progress(locality);
        progressed
    }

    fn set_delivery(&self, locality: u32, delivery: DeliveryFn) {
        let dead_delivered = self.counts.dead_delivered.clone();
        let flag = Arc::clone(&self.crashed[locality as usize]);
        self.inner.set_delivery(
            locality,
            Arc::new(move |parcel| {
                if flag.load(Ordering::SeqCst) {
                    dead_delivered.increment();
                    return;
                }
                delivery(parcel)
            }),
        );
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight() + self.held.lock().len() + self.swap_hold.lock().len()
    }

    fn failed_localities(&self) -> Vec<u32> {
        self.crashed
            .iter()
            .enumerate()
            .filter(|(_, c)| c.load(Ordering::SeqCst))
            .map(|(i, _)| i as u32)
            .collect()
    }
}
