//! APEX-style performance counters.
//!
//! "HPX provides a performance counter and adaptive tuning framework that
//! allows users to access performance data, such as core utilization,
//! task overheads, and network throughput; these diagnostic tools were
//! instrumental in scaling Octo-Tiger to the full machine" (paper §4.1).
//!
//! [`CounterRegistry`] is a concurrent map of hierarchical counter names
//! (e.g. `"tasks/executed"`, `"parcels_tx"`, `"fmm/kernels/gpu"`) to
//! atomic values. All runtime subsystems report into it and the benchmark
//! harnesses read it to compute the quantities the paper reports (kernel
//! launch fractions, sub-grids per second, ...).

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A concurrent registry of named `u64` counters.
#[derive(Default)]
pub struct CounterRegistry {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (or create) the counter handle for `name`. Handles are cheap
    /// to clone and lock-free to update — hot paths should cache one.
    pub fn handle(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        let mut w = self.counters.write();
        Arc::clone(
            w.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Add 1 to `name`.
    pub fn increment(&self, name: &str) {
        self.add(name, 1);
    }

    /// Add `amount` to `name`.
    pub fn add(&self, name: &str, amount: u64) {
        self.handle(name).fetch_add(amount, Ordering::Relaxed);
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .read()
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .counters
            .read()
            .iter()
            .map(|(k, c)| (k.clone(), c.load(Ordering::Relaxed)))
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_increment() {
        let reg = CounterRegistry::new();
        assert_eq!(reg.get("a/b"), 0);
        reg.increment("a/b");
        reg.add("a/b", 4);
        assert_eq!(reg.get("a/b"), 5);
    }

    #[test]
    fn handles_are_shared() {
        let reg = CounterRegistry::new();
        let h1 = reg.handle("x");
        let h2 = reg.handle("x");
        h1.fetch_add(3, Ordering::Relaxed);
        assert_eq!(h2.load(Ordering::Relaxed), 3);
        assert_eq!(reg.get("x"), 3);
    }

    #[test]
    fn snapshot_is_sorted() {
        let reg = CounterRegistry::new();
        reg.add("tasks/executed", 2);
        reg.add("fmm/kernels/gpu", 7);
        reg.add("tasks/stolen", 1);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["fmm/kernels/gpu", "tasks/executed", "tasks/stolen"]);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let reg = Arc::new(CounterRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let h = reg.handle("hot");
                    for _ in 0..10_000 {
                        h.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.get("hot"), 80_000);
    }
}
