//! The namespaced metrics facade over [`CounterRegistry`].
//!
//! HPX exposes every performance counter under one hierarchical
//! namespace (`/threads{locality#0/total}/count/cumulative`, ...); our
//! counters were historically scattered — the FMM solver wrote ad-hoc
//! `fmm/*` strings into its runtime's registry, each transport kept a
//! private registry, and bench bins reached into each through bespoke
//! accessors. [`Metrics`] unifies them: it owns (or wraps) one registry
//! for locally produced counters and *mounts* other registries under a
//! path prefix, so a cluster-level snapshot shows
//! `parcelport/libfabric/parcels/sent` and `locality/0/tasks/executed`
//! side by side in one sorted map.
//!
//! Resolution is longest-prefix: `metrics.counter("parcelport/mpi/x")`
//! writes the `x` counter of whatever registry is mounted at
//! `parcelport/mpi`, and plain names go to the facade's own registry.
//!
//! # Example
//!
//! ```
//! use amt::{CounterRegistry, Metrics};
//! use std::sync::Arc;
//!
//! let metrics = Metrics::new();
//! let transport = Arc::new(CounterRegistry::new());
//! metrics.mount("parcelport/mpi", Arc::clone(&transport));
//!
//! metrics.counter("parcelport/mpi/bytes_tx").add(128); // → transport's "bytes_tx"
//! metrics.increment("driver/steps");                   // → own registry
//!
//! assert_eq!(transport.get("bytes_tx"), 128);
//! let snapshot = metrics.snapshot();
//! assert_eq!(snapshot["parcelport/mpi/bytes_tx"], 128);
//! assert_eq!(snapshot["driver/steps"], 1);
//! ```

use crate::counters::CounterRegistry;
use parking_lot::RwLock;
use std::collections::BTreeMap;
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

/// A namespaced view over one owned registry plus any number of mounted
/// registries.
pub struct Metrics {
    own: Arc<CounterRegistry>,
    mounts: RwLock<Vec<(String, Arc<CounterRegistry>)>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A facade with a fresh private registry and no mounts.
    pub fn new() -> Metrics {
        Metrics::over(Arc::new(CounterRegistry::new()))
    }

    /// A facade whose un-prefixed names resolve into `registry`. Used by
    /// [`crate::Runtime`], whose scheduler writes the same registry.
    pub fn over(registry: Arc<CounterRegistry>) -> Metrics {
        Metrics { own: registry, mounts: RwLock::new(Vec::new()) }
    }

    /// The registry backing un-prefixed names.
    pub fn registry(&self) -> &Arc<CounterRegistry> {
        &self.own
    }

    /// Mount `registry` under `prefix`, so `"<prefix>/<name>"` resolves
    /// to `registry`'s `<name>` counter and `snapshot` lists its entries
    /// with the prefix attached. Longer prefixes win on overlap.
    pub fn mount(&self, prefix: &str, registry: Arc<CounterRegistry>) {
        let prefix = prefix.trim_end_matches('/').to_string();
        assert!(!prefix.is_empty(), "mount prefix must be non-empty");
        let mut mounts = self.mounts.write();
        mounts.retain(|(p, _)| *p != prefix);
        mounts.push((prefix, registry));
        // Longest prefix first, so resolution can take the first match.
        mounts.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));
    }

    /// Map a namespaced name onto (registry, local name).
    fn resolve(&self, name: &str) -> (Arc<CounterRegistry>, String) {
        for (prefix, reg) in self.mounts.read().iter() {
            if let Some(rest) = name.strip_prefix(prefix.as_str()) {
                if let Some(local) = rest.strip_prefix('/') {
                    if !local.is_empty() {
                        return (Arc::clone(reg), local.to_string());
                    }
                }
            }
        }
        (Arc::clone(&self.own), name.to_string())
    }

    /// Get (or create) the counter handle for a namespaced name.
    pub fn counter(&self, name: &str) -> Counter {
        let (reg, local) = self.resolve(name);
        Counter(reg.handle(&local))
    }

    /// Add 1 to `name`.
    pub fn increment(&self, name: &str) {
        self.counter(name).increment();
    }

    /// Add `amount` to `name`.
    pub fn add(&self, name: &str, amount: u64) {
        self.counter(name).add(amount);
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        let (reg, local) = self.resolve(name);
        reg.get(&local)
    }

    /// One sorted snapshot of every counter: the facade's own entries
    /// under their plain names, each mount's entries under its prefix.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (name, value) in self.own.snapshot() {
            out.insert(name, value);
        }
        for (prefix, reg) in self.mounts.read().iter() {
            for (name, value) in reg.snapshot() {
                out.insert(format!("{prefix}/{name}"), value);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_names_hit_own_registry() {
        let m = Metrics::new();
        m.counter("fmm/kernels/gpu").add(3);
        m.increment("fmm/kernels/gpu");
        assert_eq!(m.get("fmm/kernels/gpu"), 4);
        assert_eq!(m.registry().get("fmm/kernels/gpu"), 4);
    }

    #[test]
    fn over_shares_the_registry() {
        let reg = Arc::new(CounterRegistry::new());
        let m = Metrics::over(Arc::clone(&reg));
        reg.add("tasks/executed", 7);
        assert_eq!(m.get("tasks/executed"), 7);
        m.add("tasks/executed", 1);
        assert_eq!(reg.get("tasks/executed"), 8);
    }

    #[test]
    fn mounted_registry_resolves_and_snapshots_with_prefix() {
        let m = Metrics::new();
        let transport = Arc::new(CounterRegistry::new());
        m.mount("parcelport/libfabric", Arc::clone(&transport));
        m.counter("parcelport/libfabric/bytes_tx").add(128);
        assert_eq!(transport.get("bytes_tx"), 128);
        assert_eq!(m.get("parcelport/libfabric/bytes_tx"), 128);
        m.add("driver/steps", 2);
        let snap = m.snapshot();
        assert_eq!(snap.get("parcelport/libfabric/bytes_tx"), Some(&128));
        assert_eq!(snap.get("driver/steps"), Some(&2));
    }

    #[test]
    fn longest_prefix_wins() {
        let m = Metrics::new();
        let outer = Arc::new(CounterRegistry::new());
        let inner = Arc::new(CounterRegistry::new());
        m.mount("a", Arc::clone(&outer));
        m.mount("a/b", Arc::clone(&inner));
        m.increment("a/b/c");
        m.increment("a/x");
        assert_eq!(inner.get("c"), 1);
        assert_eq!(outer.get("x"), 1);
        assert_eq!(outer.get("b/c"), 0);
    }

    #[test]
    fn remounting_a_prefix_replaces_it() {
        let m = Metrics::new();
        let first = Arc::new(CounterRegistry::new());
        let second = Arc::new(CounterRegistry::new());
        m.mount("t", Arc::clone(&first));
        m.mount("t", Arc::clone(&second));
        m.increment("t/n");
        assert_eq!(first.get("n"), 0);
        assert_eq!(second.get("n"), 1);
    }

    #[test]
    fn name_equal_to_prefix_goes_to_own() {
        let m = Metrics::new();
        let sub = Arc::new(CounterRegistry::new());
        m.mount("p", sub);
        m.increment("p");
        assert_eq!(m.registry().get("p"), 1);
    }
}
