//! One counter namespace, seen through prefixed views.
//!
//! "HPX provides a performance counter and adaptive tuning framework that
//! allows users to access performance data, such as core utilization,
//! task overheads, and network throughput" (paper §4.1). HPX exposes
//! every counter under one hierarchical namespace, with the instance
//! part of the path naming where it lives
//! (`/threads{locality#0/total}/count/cumulative`, ...). Ours is one
//! shared, concurrent map from full counter names to atomic values, and
//! a [`Metrics`] value is a cheap, clonable view of that map at a path
//! prefix: the locality's `locality/0/` plays HPX's `locality#0`.
//!
//! Each component takes the view it needs when it is built and takes
//! [`Counter`] handles from it once; updates are then one atomic add. A
//! cluster hands its transport the view `parcelport/<kind>` and each
//! locality's runtime the view `locality/<i>`, so one snapshot of the
//! root shows `parcelport/libfabric/parcels_tx` and
//! `locality/0/tasks/executed` side by side in one sorted map, and a
//! locality's own snapshot shows `tasks/executed`.
//!
//! # Example
//!
//! ```
//! use amt::Metrics;
//!
//! let root = Metrics::new();
//! let transport = root.scoped("parcelport/mpi");
//!
//! let bytes = transport.counter("bytes_tx"); // taken once ...
//! bytes.add(128);                            // ... updated lock-free
//! root.counter("driver/steps").increment();
//!
//! assert_eq!(root.get("parcelport/mpi/bytes_tx"), 128);
//! assert_eq!(transport.snapshot()["bytes_tx"], 128);
//! let snapshot = root.snapshot();
//! assert_eq!(snapshot["parcelport/mpi/bytes_tx"], 128);
//! assert_eq!(snapshot["driver/steps"], 1);
//! ```

use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cheap, clonable handle to one counter. Hot paths should cache one
/// instead of re-resolving the name.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn increment(&self) {
        self.add(1);
    }

    /// Add `amount`.
    pub fn add(&self, amount: u64) {
        self.0.fetch_add(amount, Ordering::Relaxed);
    }

    /// Overwrite the value.
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A view of one shared counter map at a path prefix. Clones and
/// [`Metrics::scoped`] views share the map.
#[derive(Clone, Default)]
pub struct Metrics {
    map: Arc<RwLock<HashMap<String, Counter>>>,
    /// Empty at the root, else a path ending in `/`.
    prefix: String,
}

impl Metrics {
    /// The root view of a fresh, empty map.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The view of the same map at `path` under this view's prefix.
    pub fn scoped(&self, path: &str) -> Metrics {
        Metrics {
            map: Arc::clone(&self.map),
            prefix: format!("{}{}/", self.prefix, path.trim_matches('/')),
        }
    }

    /// Get (or create) the counter handle for `name` under this view.
    pub fn counter(&self, name: &str) -> Counter {
        let name = format!("{}{name}", self.prefix);
        if let Some(c) = self.map.read().get(&name) {
            return c.clone();
        }
        let mut map = self.map.write();
        map.entry(name).or_insert_with(|| Counter(Arc::default())).clone()
    }

    /// Current value of `name` under this view (0 if never taken).
    pub fn get(&self, name: &str) -> u64 {
        let name = format!("{}{name}", self.prefix);
        self.map.read().get(&name).map_or(0, Counter::get)
    }

    /// Every counter under this view, sorted, its name without the
    /// view's prefix.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.map
            .read()
            .iter()
            .filter_map(|(name, c)| Some((name.strip_prefix(&self.prefix)?.to_string(), c.get())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_names_hit_own_registry() {
        let m = Metrics::new();
        m.counter("fmm/kernels/gpu").add(3);
        m.counter("fmm/kernels/gpu").increment();
        assert_eq!(m.get("fmm/kernels/gpu"), 4);
        assert_eq!(m.snapshot().get("fmm/kernels/gpu"), Some(&4));
    }

    /// A clone is the same view of the same map, as a runtime's metrics
    /// and its scheduler's handles are.
    #[test]
    fn over_shares_the_registry() {
        let m = Metrics::new();
        let clone = m.clone();
        m.counter("tasks/executed").add(7);
        assert_eq!(clone.get("tasks/executed"), 7);
        clone.counter("tasks/executed").increment();
        assert_eq!(m.get("tasks/executed"), 8);
    }

    /// A transport counting into its `parcelport/libfabric` view is seen
    /// at the root under the prefix.
    #[test]
    fn mounted_registry_resolves_and_snapshots_with_prefix() {
        let m = Metrics::new();
        let transport = m.scoped("parcelport/libfabric");
        m.counter("parcelport/libfabric/bytes_tx").add(128);
        assert_eq!(transport.get("bytes_tx"), 128);
        assert_eq!(m.get("parcelport/libfabric/bytes_tx"), 128);
        m.counter("driver/steps").add(2);
        let snap = m.snapshot();
        assert_eq!(snap.get("parcelport/libfabric/bytes_tx"), Some(&128));
        assert_eq!(snap.get("driver/steps"), Some(&2));
    }

    #[test]
    fn create_and_increment() {
        let m = Metrics::new();
        assert_eq!(m.get("a/b"), 0);
        m.counter("a/b").increment();
        m.counter("a/b").add(4);
        assert_eq!(m.get("a/b"), 5);
    }

    #[test]
    fn handles_are_shared() {
        let m = Metrics::new();
        let (h1, h2) = (m.counter("x"), m.counter("x"));
        h1.add(3);
        assert_eq!(h2.get(), 3);
        assert_eq!(m.get("x"), 3);
    }

    #[test]
    fn snapshot_is_sorted() {
        let m = Metrics::new();
        m.counter("tasks/executed").add(2);
        m.counter("fmm/kernels/gpu").add(7);
        m.counter("tasks/stolen").add(1);
        let names: Vec<String> = m.snapshot().into_keys().collect();
        assert_eq!(names, ["fmm/kernels/gpu", "tasks/executed", "tasks/stolen"]);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let m = Metrics::new();
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    let h = m.counter("hot");
                    for _ in 0..10_000 {
                        h.increment();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(m.get("hot"), 80_000);
    }

    /// A handle taken from a view is the root's counter under the full
    /// name; the view's snapshot lists its own subtree without the
    /// prefix, and nested views compose their paths.
    #[test]
    fn a_view_and_its_root_see_the_same_counter() {
        let root = Metrics::new();
        let locality = root.scoped("locality/1");
        locality.counter("tasks/spawned").add(3);
        root.counter("locality/1/tasks/spawned").increment();
        root.counter("locality/10/tasks/spawned").add(9);
        assert_eq!(locality.get("tasks/spawned"), 4);
        assert_eq!(root.get("locality/1/tasks/spawned"), 4);
        let expect = BTreeMap::from([("tasks/spawned".to_string(), 4)]);
        assert_eq!(locality.snapshot(), expect);
        assert_eq!(root.scoped("locality").scoped("1/").snapshot(), expect);
    }
}
