//! Collectives over the cluster: broadcast and all-reduce.
//!
//! Octo-Tiger's timestep needs a global reduction every step (the CFL
//! dt is the minimum over all localities) and scenario setup broadcasts
//! configuration. HPX builds these from plain actions and futures; we
//! do the same: a reduction gathers per-locality contributions at a
//! root via request/response parcels and rebroadcasts the result.
//!
//! All collectives are crash-aware: on a cluster with fault injection,
//! a participant that dies mid-collective surfaces as
//! [`util::Error::LocalityCrashed`] instead of a hang, so the driver
//! can fall back to its latest checkpoint.

use crate::cluster::Cluster;
use crate::parcel::{ActionHandle, ActionId, CallHandle};
use amt::Future;
use bytes::Bytes;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use util::{Error, Result};

/// A registry of reduction state hosted on locality 0.
pub struct Collectives {
    /// Pending contributions per reduction id.
    pending: Arc<Mutex<HashMap<u64, Vec<f64>>>>,
    /// Typed handle of the reduce request handler.
    reduce: CallHandle<(u64, f64), (bool, f64)>,
}

/// Action ids reserved for collectives (registered by
/// [`Collectives::register`]).
pub const REDUCE_ACTION: ActionId = ActionId(0xC01);

impl Collectives {
    /// Install the collective handlers on the cluster. Call once before
    /// using [`allreduce_wire`] / [`allreduce_host`].
    pub fn register(cluster: &Cluster) -> Arc<Collectives> {
        let pending: Arc<Mutex<HashMap<u64, Vec<f64>>>> = Arc::new(Mutex::new(HashMap::new()));
        let p = Arc::clone(&pending);
        let n = cluster.len();
        let reduce = cluster.register_request_handler(
            REDUCE_ACTION,
            move |_rt, _id, (reduction_id, value): (u64, f64)| -> (bool, f64) {
                let mut p = p.lock();
                let entry = p.entry(reduction_id).or_default();
                entry.push(value);
                if entry.len() == n {
                    // All contributions in: the caller that completes the
                    // set gets `done = true` plus the gathered values'
                    // slot; others poll.
                    (true, 0.0)
                } else {
                    (false, 0.0)
                }
            },
        );
        Arc::new(Collectives { pending, reduce })
    }

    /// Gathered values for `reduction_id` once complete (root-side).
    fn take(&self, reduction_id: u64, expect: usize) -> Option<Vec<f64>> {
        let mut p = self.pending.lock();
        if p.get(&reduction_id).map(|v| v.len()) == Some(expect) {
            p.remove(&reduction_id)
        } else {
            None
        }
    }
}

/// All-reduce a per-locality `f64` with `op` (associative/commutative),
/// driving the cluster until every locality's contribution arrived at
/// locality 0. Returns the reduced value. This is a host-driven test
/// harness variant (contributions supplied directly); the wire variant
/// below exercises the parcel path.
pub fn allreduce_host(values: &[f64], op: impl Fn(f64, f64) -> f64) -> f64 {
    values
        .iter()
        .copied()
        .reduce(|a, b| op(a, b))
        .expect("at least one locality")
}

/// Drive `future` to completion from the calling thread, aborting with
/// [`Error::LocalityCrashed`] if a locality fails while we wait (its
/// contribution would never come and the future would never resolve).
fn get_crash_aware<T: Send + 'static>(cluster: &Cluster, future: Future<T>) -> Result<T> {
    let sched = Arc::clone(cluster.locality(0).runtime().scheduler());
    sched.help_until(|| future.is_ready() || !cluster.failed_localities().is_empty());
    match future.try_take() {
        Some(v) => Ok(v),
        None => {
            let loc = cluster.failed_localities().first().copied().unwrap_or(0);
            Err(Error::LocalityCrashed(loc))
        }
    }
}

/// All-reduce over the wire: every locality sends its value to locality
/// 0 via [`REDUCE_ACTION`]; the caller then reduces the gathered vector.
pub fn allreduce_wire(
    cluster: &Cluster,
    collectives: &Arc<Collectives>,
    reduction_id: u64,
    values: &[f64],
    op: impl Fn(f64, f64) -> f64,
) -> Result<f64> {
    if values.len() != cluster.len() {
        return Err(Error::Driver(format!(
            "allreduce needs one value per locality: got {} for {}",
            values.len(),
            cluster.len()
        )));
    }
    // Each locality calls the root with its contribution.
    let futures: Vec<Future<Result<(bool, f64)>>> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            cluster.locality(i).call_action(
                collectives.reduce,
                0,
                amt::GlobalId(0),
                &(reduction_id, v),
            )
        })
        .collect::<Result<_>>()?;
    for f in futures {
        get_crash_aware(cluster, f)??;
    }
    cluster.try_wait_quiescent()?;
    let gathered = collectives
        .take(reduction_id, cluster.len())
        .ok_or_else(|| Error::Driver(format!("reduction {reduction_id} incomplete")))?;
    Ok(allreduce_host(&gathered, op))
}

/// A quiescence barrier built from the reduction machinery: every
/// locality contributes `1.0` to a sum-reduce, so returning `Ok`
/// implies every locality reached the barrier *and* the fabric drained
/// (the reduce path ends in [`Cluster::try_wait_quiescent`]).
/// `barrier_id` must be fresh per use, like a `reduction_id`.
pub fn barrier(cluster: &Cluster, collectives: &Arc<Collectives>, barrier_id: u64) -> Result<()> {
    let ones = vec![1.0; cluster.len()];
    let total = allreduce_wire(cluster, collectives, barrier_id, &ones, |a, b| a + b)?;
    if total != cluster.len() as f64 {
        return Err(Error::Driver("barrier lost a contribution".into()));
    }
    Ok(())
}

/// Broadcast helper: serialize `value` once through the typed handle
/// and deliver the shared buffer to every locality.
pub fn broadcast<T: Serialize>(
    cluster: &Cluster,
    action: ActionHandle<T>,
    value: &T,
) -> Result<()> {
    let payload: Bytes = action.encode(value)?;
    for i in 0..cluster.len() {
        cluster
            .locality(0)
            .send_encoded(action, i as u32, amt::GlobalId(0), payload.clone())?;
    }
    cluster.try_wait_quiescent()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::netmodel::TransportKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn host_reduce_ops() {
        assert_eq!(allreduce_host(&[3.0, 1.0, 2.0], f64::min), 1.0);
        assert_eq!(allreduce_host(&[3.0, 1.0, 2.0], f64::max), 3.0);
        assert_eq!(allreduce_host(&[3.0, 1.0, 2.0], |a, b| a + b), 6.0);
    }

    #[test]
    fn wire_allreduce_min_over_both_transports() {
        for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
            let cluster =
                Cluster::builder().localities(4).threads_per(2).transport(kind).build();
            let coll = Collectives::register(&cluster);
            // The distributed CFL pattern: min over per-locality dts.
            let dts = [0.31, 0.12, 0.44, 0.27];
            let dt = allreduce_wire(&cluster, &coll, 1, &dts, f64::min).unwrap();
            assert_eq!(dt, 0.12, "{kind}");
            // A second, independent reduction reuses the machinery.
            let total = allreduce_wire(&cluster, &coll, 2, &dts, |a, b| a + b).unwrap();
            assert!((total - 1.14).abs() < 1e-12);
        }
    }

    #[test]
    fn wire_allreduce_rejects_bad_arity() {
        let cluster = Cluster::builder().localities(2).build();
        let coll = Collectives::register(&cluster);
        assert!(matches!(
            allreduce_wire(&cluster, &coll, 1, &[1.0], f64::min),
            Err(Error::Driver(_))
        ));
    }

    #[test]
    fn barrier_completes_on_both_transports() {
        for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
            let cluster =
                Cluster::builder().localities(3).threads_per(2).transport(kind).build();
            let coll = Collectives::register(&cluster);
            for id in 1..=3 {
                barrier(&cluster, &coll, id).unwrap();
            }
        }
    }

    #[test]
    fn broadcast_reaches_every_locality() {
        let cluster =
            Cluster::builder().localities(3).transport(TransportKind::Libfabric).build();
        let seen = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&seen);
        let h = cluster.register_action(ActionId(0xB0), move |_rt, _id, v: Vec<f64>| {
            assert_eq!(v, vec![1.5, 2.5]);
            s.fetch_add(1, Ordering::SeqCst);
        });
        broadcast(&cluster, h, &vec![1.5, 2.5]).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn allreduce_survives_a_lossy_fabric() {
        let cluster = Cluster::builder()
            .localities(3)
            .threads_per(2)
            .fault_plan(FaultPlan::seeded(11).drop(0.05).duplicate(0.05))
            .build();
        let coll = Collectives::register(&cluster);
        let dts = [0.9, 0.4, 0.7];
        for id in 1..=5 {
            let dt = allreduce_wire(&cluster, &coll, id, &dts, f64::min).unwrap();
            assert_eq!(dt, 0.4);
        }
    }

    #[test]
    fn allreduce_reports_crashed_participant() {
        let cluster = Cluster::builder()
            .localities(2)
            .threads_per(2)
            .fault_plan(FaultPlan::seeded(5).crash(1, 1))
            .reliable(crate::reliable::ReliablePolicy {
                initial_backoff_ticks: 16,
                max_backoff_ticks: 64,
                max_retries: 3,
            })
            .build();
        let coll = Collectives::register(&cluster);
        // Locality 1 dies after its first outbound parcel; sooner or
        // later a reduction must observe the crash.
        let mut saw_crash = false;
        for id in 1..=10 {
            match allreduce_wire(&cluster, &coll, id, &[1.0, 2.0], f64::min) {
                Err(Error::LocalityCrashed(1)) => {
                    saw_crash = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
                Ok(_) => {}
            }
        }
        assert!(saw_crash, "the crash of locality 1 must surface");
    }
}
