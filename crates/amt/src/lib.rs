//! An asynchronous many-task (AMT) runtime — the HPX stand-in.
//!
//! The paper builds Octo-Tiger on HPX (§4.1), whose essential components
//! are:
//!
//! * futures and other primitives for wait-free asynchronous programming
//!   ("futurization"),
//! * a work-stealing lightweight task scheduler,
//! * an Active Global Address Space (AGAS) supporting components and
//!   migration,
//! * channels layered over the send/receive abstraction, and
//! * APEX-style performance counters.
//!
//! This crate implements futures, the scheduler and the counters from
//! scratch. AGAS is not reproduced as a registry: a parcel names its
//! destination locality and an opaque [`GlobalId`], and the distributed
//! driver addresses leaves through its SFC shard map and
//! epoch-stamped parcels (`octotiger::distributed`), which is the only
//! record of where a leaf lives. The typed per-message-kind channels the
//! driver exchanges through are built on `parcelport` actions next to
//! that one user.
//!
//! * [`future`] — explicit-continuation futures ([`Future`], [`Promise`],
//!   [`when_all`]) whose continuations are scheduled as tasks when their
//!   dependencies are satisfied, exactly HPX's dataflow model. Joins are
//!   not tasks: each producer stores its value in the join's slot and the
//!   last one fulfils it. A blocked `get` *helps* run other tasks instead
//!   of idling, mirroring HPX task suspension.
//! * [`scheduler`] — a work-stealing pool over its own queues (one
//!   `Mutex<VecDeque>` each): per-worker LIFO deques that siblings
//!   steal from the front, a global FIFO injector, and parking.
//! * [`metrics`] — one namespace of named atomic counters, queried like
//!   HPX performance counters; a [`Metrics`] value is a view of it at a
//!   path prefix (a locality's runtime counts under `locality/<i>`).
//! * [`trace`] — APEX-style span tracing: per-worker timelines recorded
//!   into thread-local ring buffers, exported as chrome://tracing JSON
//!   (see DESIGN.md §4 "Observability").
//!
//! The whole distributed layer (`parcelport` crate) is built on these
//! primitives, as in the paper.

#![warn(missing_docs)]

pub mod future;
pub mod metrics;
pub mod scheduler;
pub mod trace;

pub use future::{make_ready_future, when_all, Future, Promise};
pub use metrics::{Counter, Metrics};
pub use scheduler::Scheduler;
pub use trace::{DurationHistogram, Trace, TraceCategory, TraceGuard, TraceSession};

use std::sync::Arc;

/// The component a parcel addresses on its destination locality: an
/// opaque 64-bit tag carried in the parcel header. Nothing resolves it;
/// where a piece of state lives is its owner's business (the driver's
/// shard map), not a runtime registry's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u64);

/// The composed runtime: scheduler + counters.
///
/// One `Runtime` corresponds to one HPX *locality*. The `parcelport` crate
/// wires several of these together into a simulated cluster.
pub struct Runtime {
    sched: Arc<Scheduler>,
    metrics: Metrics,
    locality: u32,
}

impl Runtime {
    /// Create a runtime with `n_threads` worker threads for locality 0,
    /// counting into a fresh counter map.
    pub fn new(n_threads: usize) -> Arc<Runtime> {
        Self::with_locality(n_threads, 0, Metrics::new())
    }

    /// Create a runtime for a given locality id that counts into
    /// `metrics` (the cluster passes its `locality/<i>` view).
    pub fn with_locality(n_threads: usize, locality: u32, metrics: Metrics) -> Arc<Runtime> {
        Arc::new(Runtime { sched: Scheduler::new(n_threads, &metrics), metrics, locality })
    }

    /// The locality id of this runtime.
    pub fn locality(&self) -> u32 {
        self.locality
    }

    /// The task scheduler.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// This locality's view of the counter namespace: the scheduler's
    /// `tasks/*` and whatever the solvers record (`fmm/*`), under their
    /// names without the `locality/<i>` prefix.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Spawn a fire-and-forget task.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.sched.spawn(f);
    }

    /// Spawn a task and get a future for its result — HPX `async`.
    pub fn async_call<R: Send + 'static>(
        &self,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> Future<R> {
        let (promise, fut) = Promise::new();
        self.sched.spawn(move || promise.set_value(f()));
        fut
    }

    /// Block until `fut` is ready, helping to run other tasks meanwhile.
    pub fn get<T: Send + 'static>(&self, fut: Future<T>) -> T {
        fut.get_help(&self.sched)
    }

    /// Run tasks until the scheduler is quiescent (no task in flight).
    pub fn wait_quiescent(&self) {
        self.sched.wait_quiescent();
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.sched.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn async_call_roundtrip() {
        let rt = Runtime::new(2);
        let f = rt.async_call(|| 21 * 2);
        assert_eq!(rt.get(f), 42);
    }

    /// A task may hold the last handle of its own runtime: dropping it
    /// there shuts the scheduler down without joining the worker that
    /// runs the drop.
    #[test]
    fn a_task_may_drop_the_last_handle_of_its_runtime() {
        let rt = Runtime::new(2);
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let last = Arc::clone(&rt);
        rt.spawn(move || {
            go_rx.recv().unwrap();
            drop(last);
            done_tx.send(()).unwrap();
        });
        drop(rt);
        go_tx.send(()).unwrap();
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the task dropping its runtime finished");
    }

    #[test]
    fn spawn_many_and_quiesce() {
        let rt = Runtime::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            rt.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_quiescent();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn nested_spawns_complete() {
        let rt = Runtime::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            let sched = Arc::clone(rt.scheduler());
            rt.spawn(move || {
                for _ in 0..10 {
                    let c2 = Arc::clone(&c);
                    sched.spawn(move || {
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        rt.wait_quiescent();
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn futurization_tree() {
        // A binary dependency tree of continuations, exercising the
        // dataflow style the paper uses for the FMM.
        let rt = Runtime::new(4);
        fn sum_tree(rt: &Arc<Runtime>, depth: usize) -> Future<u64> {
            if depth == 0 {
                return make_ready_future(1);
            }
            let l = sum_tree(rt, depth - 1);
            let r = sum_tree(rt, depth - 1);
            let sched = Arc::clone(rt.scheduler());
            when_all(&sched, vec![l, r]).then(&sched, |vals| vals.iter().sum::<u64>())
        }
        let f = sum_tree(&rt, 10);
        assert_eq!(rt.get(f), 1024);
    }
}
