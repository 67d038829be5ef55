//! Explicit-continuation futures — the heart of HPX futurization.
//!
//! "A powerful and composable primitive, the future object represents and
//! manages asynchronous execution and dataflow" (paper §4.1). The key
//! semantics reproduced here:
//!
//! * [`Promise::set_value`] makes the future ready and hands the value to
//!   whatever is attached, on the producer's thread — dependencies
//!   trigger dependents, nobody blocks.
//! * [`Future::then`] attaches a continuation and returns a future for
//!   its result, enabling arbitrarily deep dataflow trees. A continuation
//!   is a task: the producer spawns it.
//! * [`when_all`] joins a set of futures. A join is not a task: each
//!   producer stores its value in the join's slot, and the last to arrive
//!   fulfils the join, as HPX's `when_all` adds no task of its own.
//! * [`Future::get_help`] blocks, but *helps* execute other tasks while
//!   waiting, which is how HPX suspends a task without idling the worker.
//!   It is the only wait: no thread parks on a future.
//!
//! Futures are single-ownership (like `hpx::future`); dropping a promise
//! without setting a value is reported to waiters as a broken promise,
//! and breaks every continuation and join fed from it.

use crate::scheduler::Scheduler;
use parking_lot::Mutex;
use std::sync::Arc;

/// What a consumer attaches to a pending future: it takes the value on
/// the producer's thread, or is dropped unrun if the promise breaks.
type Callback<T> = Box<dyn FnOnce(T) + Send>;

enum State<T> {
    /// Not ready; optional callback to run on completion.
    Pending(Option<Callback<T>>),
    /// Value available, not yet consumed.
    Ready(Option<T>),
    /// The promise was dropped without producing a value.
    Broken,
}

/// The write end of an asynchronous value.
pub struct Promise<T> {
    state: Arc<Mutex<State<T>>>,
    /// Whether a value was delivered (to detect broken promises on drop).
    fulfilled: bool,
}

/// The read end of an asynchronous value.
pub struct Future<T> {
    state: Arc<Mutex<State<T>>>,
}

impl<T: Send + 'static> Promise<T> {
    /// Create a connected promise/future pair.
    pub fn new() -> (Promise<T>, Future<T>) {
        let state = Arc::new(Mutex::new(State::Pending(None)));
        (Promise { state: Arc::clone(&state), fulfilled: false }, Future { state })
    }

    /// Make the future ready. An attached callback runs here, on this
    /// thread, once the state lock is released: a [`Future::then`]
    /// spawns its continuation, a [`when_all`] stores the value.
    ///
    /// # Panics
    /// If the value was already set.
    pub fn set_value(mut self, value: T) {
        self.fulfilled = true;
        let mut state = self.state.lock();
        match std::mem::replace(&mut *state, State::Broken) {
            State::Pending(None) => *state = State::Ready(Some(value)),
            State::Pending(Some(callback)) => {
                // The value belongs to the callback; the state stays
                // Broken, which is unobservable because attaching
                // consumed the only Future handle.
                drop(state);
                callback(value);
            }
            old @ State::Ready(_) => {
                *state = old;
                panic!("promise value set twice");
            }
            State::Broken => unreachable!("promise still alive, state cannot be Broken"),
        }
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        if !self.fulfilled {
            // Unset, so still pending: an attached callback is dropped
            // unrun, outside the lock, and breaks what it feeds.
            let pending = std::mem::replace(&mut *self.state.lock(), State::Broken);
            drop(pending);
        }
    }
}

impl<T: Send + 'static> Future<T> {
    /// Consume the future without blocking: `callback` takes the value
    /// on the producer's thread (on this one if it is ready already), or
    /// is dropped unrun if the promise is broken.
    fn attach(self, callback: Callback<T>) {
        let mut state = self.state.lock();
        let value = match &mut *state {
            State::Pending(slot) => {
                *slot = Some(callback);
                return;
            }
            State::Ready(opt) => opt.take().expect("future value already consumed"),
            State::Broken => return,
        };
        *state = State::Broken;
        drop(state);
        callback(value);
    }

    /// Attach a continuation; returns a future for the continuation's
    /// result. The continuation runs as a scheduler task as soon as the
    /// value arrives (immediately if it is already ready), so a chain of
    /// any length never recurses. A broken input breaks the result.
    pub fn then<U: Send + 'static>(
        self,
        sched: &Arc<Scheduler>,
        f: impl FnOnce(T) -> U + Send + 'static,
    ) -> Future<U> {
        let (promise, fut) = Promise::new();
        let sched = Arc::clone(sched);
        self.attach(Box::new(move |v| sched.spawn(move || promise.set_value(f(v)))));
        fut
    }

    /// Block until ready, executing other scheduler tasks while waiting.
    pub fn get_help(self, sched: &Arc<Scheduler>) -> T {
        sched.help_until(|| !matches!(*self.state.lock(), State::Pending(_)));
        let mut state = self.state.lock();
        match &mut *state {
            State::Ready(opt) => opt.take().expect("future value already consumed"),
            State::Broken => panic!("broken promise: writer dropped without a value"),
            State::Pending(_) => unreachable!("help_until returned before readiness"),
        }
    }
}

/// A future that is ready immediately — HPX `make_ready_future`.
pub fn make_ready_future<T: Send + 'static>(value: T) -> Future<T> {
    Future { state: Arc::new(Mutex::new(State::Ready(Some(value)))) }
}

/// A join in flight: one preallocated slot per child, and the join's
/// promise. Every child's callback holds one reference, so the `Arc`'s
/// count is the countdown — one atomic decrement per child — and the
/// last child to arrive drops the last reference, which fulfils the join
/// from the slots (or breaks it, if a child's promise broke).
struct Join<T: Send + 'static> {
    slots: Vec<Mutex<Option<T>>>,
    promise: Option<Promise<Vec<T>>>,
}

impl<T: Send + 'static> Drop for Join<T> {
    fn drop(&mut self) {
        let values = self.slots.iter_mut().map(|slot| slot.get_mut().take()).collect();
        if let (Some(values), Some(promise)) = (values, self.promise.take()) {
            promise.set_value(values);
        }
    }
}

/// Join a set of futures into a future of all their values, in order —
/// HPX `when_all`. No task is spawned: each child's producer stores its
/// value in the child's slot, and the last one to arrive fulfils the
/// join on its own thread. A broken child breaks the join. An empty
/// input yields an immediately ready empty vec. `_sched` is unused.
pub fn when_all<T: Send + 'static>(
    _sched: &Arc<Scheduler>,
    futures: Vec<Future<T>>,
) -> Future<Vec<T>> {
    let (promise, fut) = Promise::new();
    let join = Arc::new(Join {
        slots: futures.iter().map(|_| Mutex::new(None)).collect(),
        promise: Some(promise),
    });
    for (i, f) in futures.into_iter().enumerate() {
        let join = Arc::clone(&join);
        f.attach(Box::new(move |v| *join.slots[i].lock() = Some(v)));
    }
    fut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metrics, Runtime};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn sched(n: usize) -> Arc<Scheduler> {
        Scheduler::new(n, &Metrics::new())
    }

    #[test]
    fn set_then_get() {
        let (p, f) = Promise::new();
        p.set_value(7);
        assert_eq!(f.get_help(&sched(1)), 7);
    }

    #[test]
    #[should_panic(expected = "broken promise")]
    fn broken_promise_panics_waiter() {
        let (p, f) = Promise::<u32>::new();
        drop(p);
        let _ = f.get_help(&sched(1));
    }

    #[test]
    fn then_runs_after_value() {
        let s = sched(2);
        let (p, f) = Promise::new();
        let g = f.then(&s, |v: i32| v * 2);
        p.set_value(21);
        assert_eq!(g.get_help(&s), 42);
    }

    #[test]
    fn then_on_ready_future_runs() {
        let s = sched(2);
        let f = make_ready_future(10).then(&s, |v| v + 5);
        assert_eq!(f.get_help(&s), 15);
    }

    #[test]
    fn chained_continuations() {
        let s = sched(2);
        let (p, f) = Promise::new();
        let f = f
            .then(&s, |v: u64| v + 1)
            .then(&s, |v| v * 10)
            .then(&s, |v| format!("{v}"));
        p.set_value(4);
        assert_eq!(f.get_help(&s), "50");
    }

    #[test]
    fn when_all_collects_in_order() {
        let s = sched(4);
        let mut promises = Vec::new();
        let mut futures = Vec::new();
        for i in 0..16 {
            // Every third child is ready before the join exists.
            if i % 3 == 0 {
                futures.push(make_ready_future(i));
                continue;
            }
            let (p, f) = Promise::new();
            promises.push((i, p));
            futures.push(f);
        }
        let joined = when_all(&s, futures);
        // Resolve in reverse order to check ordering is by index.
        for (i, p) in promises.into_iter().rev() {
            p.set_value(i);
        }
        let vals = joined.get_help(&s);
        assert_eq!(vals, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn when_all_empty_is_ready() {
        let s = sched(1);
        let joined: Future<Vec<u8>> = when_all(&s, Vec::new());
        assert_eq!(joined.get_help(&s), Vec::<u8>::new());
    }

    #[test]
    fn a_join_runs_no_task_of_its_own() {
        const N: u64 = 32;
        let rt = Runtime::new(2);
        let sched = Arc::clone(rt.scheduler());
        let executed = || rt.metrics().get("tasks/executed");
        let spawn_all = || (0..N).map(|i| rt.async_call(move || i)).collect::<Vec<_>>();

        let before = executed();
        let vals = when_all(&sched, spawn_all()).get_help(&sched);
        rt.wait_quiescent();
        assert_eq!(vals, (0..N).collect::<Vec<_>>());
        assert_eq!(executed() - before, N, "one task per child, none for the join");

        let before = executed();
        let sum = when_all(&sched, spawn_all()).then(&sched, |v| v.iter().sum::<u64>());
        assert_eq!(sum.get_help(&sched), N * (N - 1) / 2);
        rt.wait_quiescent();
        assert_eq!(executed() - before, N + 1, "plus one for the continuation");
    }

    #[test]
    #[should_panic(expected = "broken promise")]
    fn a_broken_child_breaks_the_join() {
        let s = sched(2);
        let (p0, f0) = Promise::new();
        let (p1, f1) = Promise::<u32>::new();
        let joined = when_all(&s, vec![f0, make_ready_future(5), f1]);
        drop(p1);
        p0.set_value(1);
        let _ = joined.get_help(&s);
    }

    #[test]
    fn continuations_do_not_recurse_on_stack() {
        // A chain of 100k continuations would overflow the stack if run
        // recursively inside set_value; they are scheduled as tasks.
        let s = sched(2);
        let (p, mut f) = Promise::new();
        for _ in 0..100_000 {
            f = f.then(&s, |v: u64| v + 1);
        }
        p.set_value(0);
        assert_eq!(f.get_help(&s), 100_000);
    }

    #[test]
    fn get_help_makes_progress_on_single_worker() {
        // With a single worker busy on the spawning task, get_help from
        // the main thread must execute the continuation itself.
        let s = sched(1);
        let (p, f) = Promise::new();
        let g = f.then(&s, |v: i32| v + 1);
        let s2 = Arc::clone(&s);
        s.spawn(move || {
            // Simulate some work before fulfilling.
            std::thread::sleep(Duration::from_millis(5));
            p.set_value(1);
            let _ = s2; // keep scheduler alive inside task
        });
        assert_eq!(g.get_help(&s), 2);
    }

    #[test]
    fn massive_when_all_fanin() {
        let s = sched(4);
        let count = Arc::new(AtomicUsize::new(0));
        let futures: Vec<Future<usize>> = (0..1000)
            .map(|i| {
                let (p, f) = Promise::new();
                let c = Arc::clone(&count);
                s.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                    p.set_value(i);
                });
                f
            })
            .collect();
        let all = when_all(&s, futures).get_help(&s);
        assert_eq!(all.len(), 1000);
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert!(all.iter().enumerate().all(|(i, &v)| i == v));
    }
}
