//! Work-stealing lightweight task scheduler.
//!
//! HPX's scheduler (paper §4.1) gives each OS worker thread a local task
//! deque and lets idle workers steal from busy ones, which "enables
//! finer-grained parallelization and synchronization and automatic load
//! balancing across all local compute resources". We reproduce that
//! structure with one `Mutex<VecDeque>` per queue, owned here:
//!
//! * each worker owns a deque it pushes to and pops from at the back
//!   (LIFO); everyone else takes from the front,
//! * a global FIFO injector accepts tasks spawned from non-worker
//!   threads,
//! * idle workers look locally → injector (moving a batch into their
//!   own deque) → other workers' fronts,
//! * fully idle workers park on a condvar and are woken by new work.
//!
//! Two HPX behaviours matter for the paper's results and are reproduced
//! faithfully:
//!
//! 1. **Help-first blocking**: a task that waits on a future executes
//!    other tasks while waiting ([`Scheduler::help_until`]), so blocked
//!    CPU threads never idle — this is what keeps GPUs fed in §5.1.
//! 2. **Background polling hooks**: the scheduler loop invokes registered
//!    pollers between tasks (see [`Scheduler::register_poller`]); the
//!    libfabric parcelport integrates network-completion polling into the
//!    scheduling loop exactly this way (§6.3).
//!
//! When a [`crate::trace::TraceSession`] is active, workers additionally
//! record APEX-style span events: one `sched/task` span per executed
//! task, `sched/spawn`/`sched/steal` instants, and coalesced
//! `sched/idle` spans covering park/poll stretches — the raw material
//! for the per-worker timelines and idle-rate counters of DESIGN.md §4.
//!
//! # Example
//!
//! ```
//! use amt::{Metrics, Scheduler};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let metrics = Metrics::new();
//! let sched = Scheduler::new(2, &metrics);
//! let hits = Arc::new(AtomicUsize::new(0));
//! for _ in 0..8 {
//!     let hits = Arc::clone(&hits);
//!     sched.spawn(move || { hits.fetch_add(1, Ordering::Relaxed); });
//! }
//! sched.wait_quiescent();
//! assert_eq!(hits.load(Ordering::Relaxed), 8);
//! assert_eq!(metrics.get("tasks/executed"), 8);
//! ```

use crate::metrics::{Counter, Metrics};
use crate::trace::{self, TraceCategory};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// A network-progress hook run by idle workers (returns `true` if it made
/// progress, i.e. completed at least one event).
pub type Poller = Arc<dyn Fn() -> bool + Send + Sync + 'static>;

/// A task queue on cache lines of its own. Inline, the injector would
/// share a line with `in_flight` and the condvar, which every spawn and
/// every finished task write, and a worker's deque with its siblings'
/// (128 bytes: x86 fetches lines in pairs).
#[repr(align(128))]
#[derive(Default)]
struct Queue(Mutex<VecDeque<Task>>);

struct Shared {
    /// Tasks spawned from outside the pool, taken oldest first.
    injector: Queue,
    /// One deque per worker: its owner pushes and pops at the back,
    /// every other thread takes from the front.
    deques: Vec<Queue>,
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
    shutdown: AtomicBool,
    in_flight: AtomicUsize,
    /// Replaced whole on registration, so an idle worker polls a shared
    /// snapshot without copying the list.
    pollers: Mutex<Arc<Vec<Poller>>>,
    /// The `tasks/{spawned, executed, stolen}` and `workers/parks`
    /// handles, taken once.
    spawned: Counter,
    executed: Counter,
    stolen: Counter,
    parks: Counter,
    sched_id: u64,
    worker_trace_ids: Mutex<Vec<u32>>,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalCtx>> = const { RefCell::new(None) };
}

struct LocalCtx {
    sched_id: u64,
    worker_index: usize,
}

static NEXT_SCHED_ID: AtomicU64 = AtomicU64::new(1);

/// The work-stealing scheduler. One per locality.
pub struct Scheduler {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    n_threads: usize,
}

impl Scheduler {
    /// Spawn `n_threads` worker threads (at least one), counting into
    /// `metrics`.
    pub fn new(n_threads: usize, metrics: &Metrics) -> Arc<Scheduler> {
        let n_threads = n_threads.max(1);
        let sched_id = NEXT_SCHED_ID.fetch_add(1, Ordering::Relaxed);
        // Taking the handles registers the names, so they appear (as 0)
        // in snapshots taken before any task runs.
        let shared = Arc::new(Shared {
            injector: Queue::default(),
            deques: (0..n_threads).map(|_| Queue::default()).collect(),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            pollers: Mutex::new(Arc::new(Vec::new())),
            spawned: metrics.counter("tasks/spawned"),
            executed: metrics.counter("tasks/executed"),
            stolen: metrics.counter("tasks/stolen"),
            parks: metrics.counter("workers/parks"),
            sched_id,
            worker_trace_ids: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(n_threads);
        for index in 0..n_threads {
            let sh = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("amt-worker-{index}"))
                    .spawn(move || worker_main(sh, index))
                    .expect("failed to spawn worker thread"),
            );
        }
        Arc::new(Scheduler { shared, handles: Mutex::new(handles), n_threads })
    }

    /// Number of worker threads.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Index of the current worker thread within this scheduler, if the
    /// calling thread is one of its workers.
    pub fn current_worker(&self) -> Option<usize> {
        LOCAL.with(|l| {
            l.borrow()
                .as_ref()
                .filter(|ctx| ctx.sched_id == self.shared.sched_id)
                .map(|ctx| ctx.worker_index)
        })
    }

    /// Spawn a task. From a worker thread of this scheduler the task goes
    /// to the local deque (LIFO, cache-friendly); otherwise it is injected
    /// globally.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.spawn_boxed(Box::new(f));
    }

    /// Spawn an already boxed task.
    pub fn spawn_boxed(&self, task: Task) {
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let queue = match self.current_worker() {
            Some(index) => &self.shared.deques[index],
            None => &self.shared.injector,
        };
        queue.0.lock().push_back(task);
        trace::instant(TraceCategory::TaskSpawn);
        self.shared.spawned.increment();
        // Wake one parked worker; cheap if none are parked.
        self.shared.wakeup.notify_one();
    }

    /// Register a background poller invoked by idle workers (network
    /// progress, GPU completion queues, ...). Returns its registration id.
    pub fn register_poller(&self, p: impl Fn() -> bool + Send + Sync + 'static) -> usize {
        let mut ps = self.shared.pollers.lock();
        let mut next: Vec<Poller> = ps.iter().cloned().collect();
        next.push(Arc::new(p));
        *ps = Arc::new(next);
        ps.len() - 1
    }

    /// Run one pending task if available. Returns `true` if a task ran.
    /// Usable from any thread. A worker of this scheduler finds work as
    /// its own loop does (its deque newest first, then the injector
    /// with a batch, then its siblings); any other thread takes from
    /// the injector and the workers' fronts only.
    pub fn try_run_one(&self) -> bool {
        if let Some(task) = self.find_task() {
            self.run_task(task);
            true
        } else {
            false
        }
    }

    /// Help run tasks until `done()` returns true. This is the HPX
    /// "suspend the blocked task, run others" behaviour: callers never
    /// spin idle while work exists.
    pub fn help_until(&self, done: impl Fn() -> bool) {
        let mut idle_spins = 0u32;
        while !done() {
            if self.try_run_one() {
                idle_spins = 0;
                continue;
            }
            if self.poll_background() {
                idle_spins = 0;
                continue;
            }
            idle_spins += 1;
            if idle_spins < 64 {
                std::hint::spin_loop();
            } else {
                // Nothing to do: sleep briefly, re-check the predicate.
                let mut guard = self.shared.sleep_lock.lock();
                if done() {
                    return;
                }
                self.shared
                    .wakeup
                    .wait_for(&mut guard, Duration::from_micros(200));
            }
        }
    }

    /// Wait until no task is in flight (spawned but not finished),
    /// helping to run tasks meanwhile.
    pub fn wait_quiescent(&self) {
        self.help_until(|| self.shared.in_flight.load(Ordering::SeqCst) == 0);
    }

    /// Number of tasks spawned but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Trace ids ([`crate::trace::current_tid`]) of this scheduler's
    /// worker threads, in no particular order. A worker registers its
    /// id when its thread starts, so ids may still be missing in the
    /// first instants after [`Scheduler::new`]; after any task has run
    /// on every worker the list is complete. Used by trace consumers to
    /// attribute per-worker events to a specific scheduler.
    pub fn worker_trace_ids(&self) -> Vec<u32> {
        self.shared.worker_trace_ids.lock().clone()
    }

    /// Signal shutdown and join all worker threads but the calling one:
    /// a task may drop the last handle of its own scheduler, and that
    /// worker leaves its loop once its task returns. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wakeup.notify_all();
        let mut handles = self.handles.lock();
        let me = std::thread::current().id();
        for h in handles.drain(..).filter(|h| h.thread().id() != me) {
            let _ = h.join();
        }
    }

    fn find_task(&self) -> Option<Task> {
        find_task_impl(&self.shared, self.current_worker())
    }

    fn run_task(&self, task: Task) {
        run_task_impl(&self.shared, task);
    }

    fn poll_background(&self) -> bool {
        poll_background_impl(&self.shared)
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_task_impl(shared: &Shared, task: Task) {
    // Decrement in-flight even if the task panics (a leaked increment
    // would wedge every quiescence waiter forever).
    struct InFlightGuard<'a>(&'a Shared);
    impl Drop for InFlightGuard<'_> {
        fn drop(&mut self) {
            self.0.executed.increment();
            self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
            // A quiescence waiter may be sleeping on the condvar.
            self.0.wakeup.notify_all();
        }
    }
    let _guard = InFlightGuard(shared);
    let _span = trace::span(TraceCategory::TaskRun);
    task();
}

fn poll_background_impl(shared: &Shared) -> bool {
    // Share the current list without holding the lock during calls.
    let pollers = Arc::clone(&shared.pollers.lock());
    let mut progressed = false;
    for p in pollers.iter() {
        if p() {
            progressed = true;
        }
    }
    progressed
}

/// Most tasks moved from the injector into a worker's deque at once,
/// so one worker cannot drain a burst its siblings could share.
const MAX_BATCH: usize = 32;

fn find_task_impl(shared: &Shared, worker: Option<usize>) -> Option<Task> {
    // 1. The worker's own deque, newest first.
    if let Some(t) = worker.and_then(|i| shared.deques[i].0.lock().pop_back()) {
        return Some(t);
    }
    // 2. The injector, oldest first. A worker also moves half of what
    // remains (at most MAX_BATCH) into its own deque.
    {
        let mut injector = shared.injector.0.lock();
        if let Some(t) = injector.pop_front() {
            if let Some(i) = worker {
                let batch = (injector.len() / 2).min(MAX_BATCH);
                if batch > 0 {
                    shared.deques[i].0.lock().extend(injector.drain(..batch));
                }
            }
            return Some(t);
        }
    }
    // 3. Steal the oldest task of the first worker that has one. A
    // worker's own deque is empty here: only that worker pushes to it.
    let t = shared.deques.iter().find_map(|deque| deque.0.lock().pop_front())?;
    trace::instant(TraceCategory::TaskSteal);
    shared.stolen.increment();
    Some(t)
}

/// Longest single `sched/idle` span recorded before it is closed and a
/// fresh one opened: bounds how much idle time a still-open span can
/// hide from a session that ends mid-idle.
const IDLE_SPAN_FLUSH_NS: u64 = 25_000_000;

fn worker_main(shared: Arc<Shared>, index: usize) {
    LOCAL.with(|l| {
        *l.borrow_mut() = Some(LocalCtx { sched_id: shared.sched_id, worker_index: index });
    });
    let trace_tid =
        trace::register_thread(shared.sched_id as u32, &format!("worker-{index}"));
    shared.worker_trace_ids.lock().push(trace_tid);
    // Start of the current idle stretch (no runnable task found), if
    // tracing is on. Closed into one coalesced `sched/idle` span when
    // the next task arrives, so park/poll churn does not flood the ring.
    let mut idle_since: Option<u64> = None;
    loop {
        match find_task_impl(&shared, Some(index)) {
            Some(t) => {
                if let Some(t0) = idle_since.take() {
                    trace::record_raw(TraceCategory::Idle, None, t0, trace::now_ns() - t0);
                }
                run_task_impl(&shared, t)
            }
            None => {
                match idle_since {
                    None if trace::enabled() => idle_since = Some(trace::now_ns()),
                    Some(t0) if trace::now_ns() - t0 > IDLE_SPAN_FLUSH_NS => {
                        let now = trace::now_ns();
                        trace::record_raw(TraceCategory::Idle, None, t0, now - t0);
                        idle_since = if trace::enabled() { Some(now) } else { None };
                    }
                    _ => {}
                }
                if poll_background_impl(&shared) {
                    continue;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                shared.parks.increment();
                let mut guard = shared.sleep_lock.lock();
                // Re-check for work before sleeping to avoid a lost wakeup.
                if !shared.injector.0.lock().is_empty() || shared.shutdown.load(Ordering::SeqCst) {
                    continue;
                }
                shared.wakeup.wait_for(&mut guard, Duration::from_millis(1));
            }
        }
    }
    LOCAL.with(|l| {
        *l.borrow_mut() = None;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn new_sched(n: usize) -> Arc<Scheduler> {
        Scheduler::new(n, &Metrics::new())
    }

    #[test]
    fn runs_spawned_tasks() {
        let s = new_sched(2);
        let c = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&c);
            s.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        s.wait_quiescent();
        assert_eq!(c.load(Ordering::Relaxed), 100);
        s.shutdown();
    }

    #[test]
    fn single_thread_scheduler_works() {
        let s = new_sched(1);
        let c = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&c);
            s.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        s.wait_quiescent();
        assert_eq!(c.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let s = new_sched(0);
        assert_eq!(s.n_threads(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        s.spawn(move || {
            d.store(1, Ordering::SeqCst);
        });
        s.wait_quiescent();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn current_worker_identity() {
        let s = new_sched(2);
        assert_eq!(s.current_worker(), None);
        let s2 = Arc::clone(&s);
        let (tx, rx) = std::sync::mpsc::channel();
        s.spawn(move || {
            tx.send(s2.current_worker()).unwrap();
        });
        let idx = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(idx.is_some());
        assert!(idx.unwrap() < 2);
    }

    #[test]
    fn distinct_schedulers_do_not_share_locals() {
        let s1 = new_sched(1);
        let s2 = new_sched(1);
        let c = Arc::new(AtomicUsize::new(0));
        let (c1, c2) = (Arc::clone(&c), Arc::clone(&c));
        // A task on s1 spawning onto s2 must inject, not push local.
        let s2c = Arc::clone(&s2);
        s1.spawn(move || {
            s2c.spawn(move || {
                c1.fetch_add(1, Ordering::Relaxed);
            });
            c2.fetch_add(1, Ordering::Relaxed);
        });
        s1.wait_quiescent();
        s2.wait_quiescent();
        assert_eq!(c.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pollers_run_when_idle() {
        let s = new_sched(2);
        let polled = Arc::new(AtomicUsize::new(0));
        let p = Arc::clone(&polled);
        s.register_poller(move || {
            p.fetch_add(1, Ordering::Relaxed);
            false
        });
        // Give idle workers a moment to call the poller.
        std::thread::sleep(Duration::from_millis(20));
        assert!(polled.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn help_until_runs_tasks_from_non_worker() {
        // A single-worker scheduler with a batch of tasks: help_until on
        // this (non-worker) thread must participate in draining them and
        // return once the predicate holds. (An earlier version of this
        // test parked the worker behind a spin-gate task; help_until on
        // the main thread could steal the gate task itself and deadlock
        // — the very reason blocking tasks must never spin on state only
        // another help-eligible thread can set.)
        let s = new_sched(1);
        let c = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let c = Arc::clone(&c);
            s.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        let cc = Arc::clone(&c);
        s.help_until(move || cc.load(Ordering::Relaxed) == 64);
        s.wait_quiescent();
        assert_eq!(c.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let s = new_sched(2);
        s.shutdown();
        s.shutdown();
    }

    /// Wait for `s` to drain without running any task on this thread
    /// (a helper would take tasks itself and change the order).
    fn wait_without_helping(s: &Scheduler) {
        while s.in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Spawn `labels` from outside a 1-worker scheduler while its worker
    /// is held busy, then release it; returns the order they ran in.
    fn run_order_of_injected(labels: &[char]) -> Vec<char> {
        let s = new_sched(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        s.spawn(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        for &label in labels {
            let order = Arc::clone(&order);
            s.spawn(move || order.lock().push(label));
        }
        release_tx.send(()).unwrap();
        wait_without_helping(&s);
        let order = order.lock().clone();
        order
    }

    #[test]
    fn injected_tasks_run_fifo_with_a_batch_moved_to_the_local_deque() {
        // A is taken, B (half the rest) moves to the worker's deque, and
        // C stays in the injector.
        assert_eq!(run_order_of_injected(&['A', 'B', 'C']), ['A', 'B', 'C']);
        // With five, the batch is B and C, which the worker then pops
        // LIFO before it returns to the injector for D and E.
        assert_eq!(run_order_of_injected(&['A', 'B', 'C', 'D', 'E']), ['A', 'C', 'B', 'D', 'E']);
    }

    #[test]
    fn tasks_a_worker_spawns_run_lifo() {
        let s = new_sched(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (s2, o2) = (Arc::clone(&s), Arc::clone(&order));
        s.spawn(move || {
            for label in ['X', 'Y', 'Z'] {
                let order = Arc::clone(&o2);
                s2.spawn(move || order.lock().push(label));
            }
        });
        wait_without_helping(&s);
        assert_eq!(*order.lock(), ['Z', 'Y', 'X']);
    }

    #[test]
    fn only_sibling_steals_count_as_stolen() {
        let metrics = Metrics::new();
        let s = Scheduler::new(1, &metrics);
        // Injector takes, by the worker (with a batch) and by a helper
        // thread, are not steals.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        s.spawn(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        for _ in 0..6 {
            s.spawn(|| {});
        }
        assert!(s.try_run_one(), "the helper takes one injected task");
        release_tx.send(()).unwrap();
        wait_without_helping(&s);
        assert_eq!(metrics.get("tasks/stolen"), 0);

        // A helper popping from the worker's own deque is one steal.
        let (pushed_tx, pushed_rx) = std::sync::mpsc::channel();
        let (ran_tx, ran_rx) = std::sync::mpsc::channel::<()>();
        let s2 = Arc::clone(&s);
        s.spawn(move || {
            s2.spawn(move || ran_tx.send(()).unwrap());
            pushed_tx.send(()).unwrap();
            ran_rx.recv().unwrap();
        });
        pushed_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(s.try_run_one(), "the helper steals the worker's task");
        wait_without_helping(&s);
        assert_eq!(metrics.get("tasks/stolen"), 1);
        assert_eq!(metrics.get("tasks/executed"), 9);
    }

    /// A worker blocked in `get_help` finds work as that worker: its own
    /// deque newest first, so the task it waits on (the oldest) runs
    /// last, and nothing it runs counts as stolen.
    #[test]
    fn a_worker_waiting_in_get_help_pops_its_own_deque() {
        let metrics = Metrics::new();
        let s = Scheduler::new(1, &metrics);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (s2, o2) = (Arc::clone(&s), Arc::clone(&order));
        s.spawn(move || {
            let mut waits = Vec::new();
            for label in ['X', 'Y', 'Z'] {
                let (promise, future) = crate::Promise::new();
                let order = Arc::clone(&o2);
                s2.spawn(move || {
                    order.lock().push(label);
                    promise.set_value(());
                });
                waits.push(future);
            }
            waits.swap_remove(0).get_help(&s2);
        });
        wait_without_helping(&s);
        assert_eq!(*order.lock(), ['Z', 'Y', 'X']);
        assert_eq!(metrics.get("tasks/stolen"), 0);
    }

    #[test]
    fn heavy_fanout_load_balances() {
        let s = new_sched(4);
        let c = Arc::new(AtomicUsize::new(0));
        let n = 10_000;
        for _ in 0..n {
            let c = Arc::clone(&c);
            s.spawn(move || {
                // Tiny task; stresses queues rather than compute.
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        s.wait_quiescent();
        assert_eq!(c.load(Ordering::Relaxed), n);
    }
}
