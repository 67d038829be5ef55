//! Scratch-buffer pooling for the FMM hot path.
//!
//! Every node's work item needs one extended [`MomentGrid`] (≈ 9 arrays
//! of `(8 + 2·width)³` doubles) and one or two `Vec<LocalExpansion>`
//! buffers: its output and, on a leaf, its near field. A leaf's item
//! gives both back when it ends; a refined node's output is held until
//! its downward step has summed it into the node's totals. So a solve
//! needs at most a grid per running item and an expansion buffer per
//! refined node plus two per running item — what the solver
//! [`ScratchPool::ensure`]s. Allocating those per node per solve
//! dominated the allocator profile; the pool recycles them so that a
//! steady-state solve performs **zero** heap allocations for scratch —
//! the reuse discipline Octo-Tiger applies to its kernel staging
//! buffers. Hits and misses are counted and published by the solver as
//! the `fmm/scratch_hits` / `fmm/scratch_misses` performance counters.

use crate::expansion::LocalExpansion;
use crate::kernels::MomentGrid;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A free-list pool of FMM scratch buffers, shared across worker tasks.
#[derive(Default)]
pub struct ScratchPool {
    grids: Mutex<Vec<MomentGrid>>,
    expansions: Mutex<Vec<Vec<LocalExpansion>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ScratchPool {
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// Take a moment grid of halo width `width`, reusing a pooled one
    /// when available (a width mismatch — only possible if the stencil
    /// changes — discards the pooled grid and counts a miss).
    pub fn take_grid(&self, width: i32) -> MomentGrid {
        let candidate = self.grids.lock().pop();
        match candidate {
            Some(g) if g.width() == width => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // The gather resets it; hand it back as-is.
                g
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                MomentGrid::new(width)
            }
        }
    }

    /// Return a grid to the pool.
    pub fn put_grid(&self, grid: MomentGrid) {
        self.grids.lock().push(grid);
    }

    /// Take an expansion buffer; the kernels reset it before use, so a
    /// recycled buffer's stale contents are harmless.
    pub fn take_expansions(&self) -> Vec<LocalExpansion> {
        match self.expansions.lock().pop() {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Return an expansion buffer to the pool.
    pub fn put_expansions(&self, buf: Vec<LocalExpansion>) {
        self.expansions.lock().push(buf);
    }

    /// Pre-populate the free lists so a solve of known shape never
    /// misses mid-flight: `n_grids` grids of halo width `width` and
    /// `n_expansions` expansion buffers, the most a solve holds at once
    /// (module docs). Top-ups count as misses, exactly like lazy
    /// allocation would; the lists never shrink.
    pub fn ensure(&self, n_grids: usize, width: i32, n_expansions: usize) {
        {
            let mut grids = self.grids.lock();
            grids.retain(|g| g.width() == width);
            while grids.len() < n_grids {
                self.misses.fetch_add(1, Ordering::Relaxed);
                grids.push(MomentGrid::new(width));
            }
        }
        let mut exps = self.expansions.lock();
        while exps.len() < n_expansions {
            self.misses.fetch_add(1, Ordering::Relaxed);
            exps.push(Vec::new());
        }
    }

    /// Expansion buffers in the pool now (between solves, all of them).
    pub fn expansion_buffers(&self) -> usize {
        self.expansions.lock().len()
    }

    /// Number of takes served from the pool.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of takes (or `ensure` top-ups) that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_roundtrip_hits_after_first_miss() {
        let p = ScratchPool::new();
        let g = p.take_grid(2);
        assert_eq!((p.hits(), p.misses()), (0, 1));
        p.put_grid(g);
        let g = p.take_grid(2);
        assert_eq!((p.hits(), p.misses()), (1, 1));
        p.put_grid(g);
    }

    #[test]
    fn width_mismatch_is_a_miss() {
        let p = ScratchPool::new();
        p.put_grid(MomentGrid::new(1));
        let g = p.take_grid(3);
        assert_eq!(g.width(), 3);
        assert_eq!(p.misses(), 1);
    }

    #[test]
    fn ensure_preallocates() {
        let p = ScratchPool::new();
        p.ensure(3, 2, 5);
        let before = p.misses();
        assert_eq!(before, 8);
        // Everything is now served from the pool.
        let g1 = p.take_grid(2);
        let g2 = p.take_grid(2);
        let e1 = p.take_expansions();
        assert_eq!(p.misses(), before);
        assert_eq!(p.hits(), 3);
        p.put_grid(g1);
        p.put_grid(g2);
        p.put_expansions(e1);
        // A second ensure with the same shape allocates nothing.
        p.ensure(3, 2, 5);
        assert_eq!(p.misses(), before);
    }
}
