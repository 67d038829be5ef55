//! Dynamic regridding.
//!
//! Octo-Tiger regrids as the binary evolves (the paper's §6.3 timings
//! explicitly exclude "regridding steps ... that also make heavy use of
//! communication"): leaves whose density exceeds a per-level threshold
//! refine (conservative prolongation), refined nodes whose children
//! have all dropped below it coarsen (conservative restriction), and
//! 2:1 balance is re-established by the tree machinery itself.

use octree::subgrid::Field;
use octree::tree::Octree;
use std::collections::BTreeSet;
use util::morton::MortonKey;

/// Density-threshold refinement control.
#[derive(Debug, Clone, Copy)]
pub struct RegridPolicy {
    /// Refine a leaf at level `l` when its peak density exceeds
    /// `rho_ref * ratio^(l - base_level)`.
    pub rho_ref: f64,
    /// Per-level threshold growth (> 1: deeper levels need denser gas).
    pub ratio: f64,
    /// Level at which `rho_ref` applies directly.
    pub base_level: u8,
    /// Hard refinement ceiling.
    pub max_level: u8,
    /// Coarsen when the parent's peak density falls below this fraction
    /// of the refine threshold (hysteresis to avoid flip-flopping).
    pub coarsen_fraction: f64,
}

impl RegridPolicy {
    /// Threshold at a given level.
    pub fn threshold(&self, level: u8) -> f64 {
        self.rho_ref * self.ratio.powi(level as i32 - self.base_level as i32)
    }
}

/// Outcome of one regrid pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegridStats {
    pub refined: usize,
    pub coarsened: usize,
}

/// A locality's refine/coarsen votes over a *subset* of the leaves —
/// the distributed regrid's unit of collective exchange. `refine` lists
/// leaves whose peak density exceeds their level threshold (and that
/// are below the ceiling); `cold` lists leaves below the coarsening
/// hysteresis threshold (a coarsen *vote*: the parent collapses only
/// when all eight children are cold everywhere, which only the merged
/// global view can decide).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegridProposal {
    /// Leaves to refine, sorted by key.
    pub refine: Vec<MortonKey>,
    /// Leaves voting to let their parent coarsen, sorted by key.
    pub cold: Vec<MortonKey>,
}

impl RegridProposal {
    /// Merge any number of (disjoint-domain) proposals into one global
    /// proposal, sorted and deduplicated — the collective's reduction.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a RegridProposal>) -> RegridProposal {
        let (mut refine, mut cold) = (BTreeSet::new(), BTreeSet::new());
        for p in parts {
            refine.extend(p.refine.iter().copied());
            cold.extend(p.cold.iter().copied());
        }
        RegridProposal {
            refine: refine.into_iter().collect(),
            cold: cold.into_iter().collect(),
        }
    }
}

/// The local half of the proposal/apply split: evaluate the policy's
/// refine and coarsen predicates over `leaves` only (a locality's owned
/// chunk). Pure — no tree mutation. The union of every locality's
/// proposal over a partition of the leaves sees exactly what a
/// single-locality [`regrid`] sweep's first iteration sees.
pub fn propose(tree: &Octree, policy: &RegridPolicy, leaves: &[MortonKey]) -> RegridProposal {
    let mut refine = Vec::new();
    let mut cold = Vec::new();
    for &key in leaves {
        let peak = peak_density(tree, key);
        if key.level < policy.max_level && peak > policy.threshold(key.level) {
            refine.push(key);
        }
        if peak < policy.threshold(key.level) * policy.coarsen_fraction {
            cold.push(key);
        }
    }
    refine.sort_unstable();
    cold.sort_unstable();
    RegridProposal { refine, cold }
}

/// Would `parent` collapse in a coarsen sweep where `is_cold` decides a
/// child's vote? Mirrors [`regrid`]'s coarsen pass exactly: the node is
/// refined, all eight children are cold leaves, and no neighbor's
/// refinement makes the collapse balance-unsafe.
fn coarsen_candidate_passes(
    tree: &Octree,
    parent: MortonKey,
    is_cold: &dyn Fn(MortonKey) -> bool,
) -> bool {
    let Some(node) = tree.node(parent) else { return false };
    if !node.refined {
        return false;
    }
    let all_cold_leaves = (0..8u8).all(|o| {
        let child = parent.child(o);
        tree.is_leaf(child) && is_cold(child)
    });
    if !all_cold_leaves {
        return false;
    }
    // Balance: coarsening must not put a level-(l) leaf next to
    // level-(l+2) leaves; Octree::coarsen asserts this, so probe
    // first via a conservative check on the neighbors.
    octree::tree::DIRECTIONS.iter().all(|&(dx, dy, dz)| match parent.neighbor(dx, dy, dz) {
        None => true,
        Some(nk) => match tree.node(nk) {
            None => true,
            Some(n) => !n.refined || (0..8u8).all(|o| tree.is_leaf(nk.child(o))),
        },
    })
}

/// Coarsen-sweep candidate parents in deterministic (sorted) order:
/// every parent of a current leaf, deduplicated.
fn coarsen_candidates(tree: &Octree) -> Vec<MortonKey> {
    tree.leaves()
        .into_iter()
        .filter_map(|k| k.parent())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Is the merged global proposal a no-op — i.e. would [`regrid`] on
/// this tree leave it untouched? True iff nothing refines and no
/// coarsen candidate passes on the *unmutated* tree (when nothing
/// collapses the sweep never mutates, so the unmutated probe is exact).
/// Topology-only plus the proposal's own votes: every full mirror of
/// the tree computes the same answer without touching leaf data, which
/// is what lets the distributed driver skip the regrid broadcast on
/// quiet steps.
pub fn proposal_is_trivial(tree: &Octree, merged: &RegridProposal) -> bool {
    if !merged.refine.is_empty() {
        return false;
    }
    let cold: BTreeSet<MortonKey> = merged.cold.iter().copied().collect();
    let is_cold = |k: MortonKey| cold.contains(&k);
    !coarsen_candidates(tree)
        .into_iter()
        .any(|parent| coarsen_candidate_passes(tree, parent, &is_cold))
}

/// Peak interior density of a leaf.
fn peak_density(tree: &Octree, key: MortonKey) -> f64 {
    let grid = tree.node(key).expect("leaf").grid.as_ref().expect("grid");
    let mut peak = 0.0f64;
    for (i, j, k) in grid.indexer().interior() {
        peak = peak.max(grid.at(Field::Rho, i, j, k));
    }
    peak
}

/// One regrid sweep: refine hot leaves, coarsen cold families.
/// Conservation: prolongation and restriction are the conservative
/// operators of `octree::prolong`, so every conserved total is
/// preserved to round-off across the pass (asserted by tests).
pub fn regrid(tree: &mut Octree, policy: &RegridPolicy) -> RegridStats {
    let mut stats = RegridStats::default();

    // Refinement pass (may cascade via 2:1 balance; iterate to fixed
    // point like Octree::refine_where but density-driven).
    loop {
        let to_refine: Vec<MortonKey> = tree
            .leaves()
            .into_iter()
            .filter(|k| k.level < policy.max_level)
            .filter(|k| peak_density(tree, *k) > policy.threshold(k.level))
            .collect();
        if to_refine.is_empty() {
            break;
        }
        for key in to_refine {
            if tree.is_leaf(key) {
                tree.refine(key);
                stats.refined += 1;
            }
        }
    }

    // Coarsening pass: a refined node whose children are all leaves and
    // all below the hysteresis threshold collapses. One sweep only —
    // deeper collapse happens over subsequent calls, keeping each pass
    // cheap and balance-safe.
    let is_cold = |tree: &Octree, child: MortonKey| {
        peak_density(tree, child) < policy.threshold(child.level) * policy.coarsen_fraction
    };
    for parent in coarsen_candidates(tree) {
        if coarsen_candidate_passes(tree, parent, &|child| is_cold(tree, child)) {
            tree.coarsen(parent);
            stats.coarsened += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use octree::geometry::Domain;

    fn policy() -> RegridPolicy {
        RegridPolicy {
            rho_ref: 1.0,
            ratio: 4.0,
            base_level: 1,
            max_level: 3,
            coarsen_fraction: 0.5,
        }
    }

    fn paint_blob(tree: &mut Octree, amplitude: f64) {
        let domain = tree.domain();
        for key in tree.leaves() {
            let node = tree.node_mut(key).unwrap();
            let grid = node.grid.as_mut().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                let c = domain.cell_center(key, i, j, k);
                grid.set(Field::Rho, i, j, k, amplitude * (-c.norm2()).exp() + 1e-6);
            }
        }
    }

    #[test]
    fn hot_blob_triggers_refinement() {
        let mut tree = Octree::new(Domain::new(16.0));
        tree.refine_where(1, |_d, _k| true);
        paint_blob(&mut tree, 100.0);
        let before = tree.leaf_count();
        let stats = regrid(&mut tree, &policy());
        assert!(stats.refined > 0, "blob must refine");
        assert!(tree.leaf_count() > before);
        tree.check_invariants();
        // The deepest leaves sit on the blob.
        let domain = tree.domain();
        for k in tree.leaves() {
            if k.level == 3 {
                assert!(domain.node_center(k).norm() < 8.0);
            }
        }
    }

    #[test]
    fn regrid_conserves_mass_exactly() {
        let mut tree = Octree::new(Domain::new(16.0));
        tree.refine_where(1, |_d, _k| true);
        paint_blob(&mut tree, 50.0);
        let mass = |t: &Octree| -> f64 {
            t.leaves()
                .iter()
                .map(|k| {
                    t.node(*k).unwrap().grid.as_ref().unwrap().interior_sum(Field::Rho)
                        * t.domain().cell_volume(k.level)
                })
                .sum()
        };
        let before = mass(&tree);
        regrid(&mut tree, &policy());
        let after = mass(&tree);
        assert!(
            (after - before).abs() < 1e-12 * before,
            "regrid broke conservation: {before} -> {after}"
        );
    }

    #[test]
    fn cooled_region_coarsens_back() {
        let mut tree = Octree::new(Domain::new(16.0));
        tree.refine_where(1, |_d, _k| true);
        paint_blob(&mut tree, 100.0);
        regrid(&mut tree, &policy());
        let refined_count = tree.leaf_count();
        // "Cool" the gas: densities drop far below all thresholds.
        paint_blob(&mut tree, 1e-4);
        // Several sweeps to collapse level by level.
        let mut total_coarsened = 0;
        for _ in 0..4 {
            total_coarsened += regrid(&mut tree, &policy()).coarsened;
        }
        assert!(total_coarsened > 0, "cold gas must coarsen");
        assert!(tree.leaf_count() < refined_count);
        tree.check_invariants();
    }

    #[test]
    fn thresholds_grow_with_level() {
        let p = policy();
        assert!(p.threshold(2) > p.threshold(1));
        assert_eq!(p.threshold(1), 1.0);
        assert_eq!(p.threshold(2), 4.0);
    }

    #[test]
    fn partitioned_proposals_merge_to_the_global_view() {
        let mut tree = Octree::new(Domain::new(16.0));
        tree.refine_where(1, |_d, _k| true);
        paint_blob(&mut tree, 100.0);
        let p = policy();
        let leaves = tree.leaves();
        let global = propose(&tree, &p, &leaves);
        assert!(!global.refine.is_empty(), "hot blob must vote to refine");
        // Split the leaves into three uneven chunks (a fake partition)
        // and merge the per-chunk proposals: must equal the global one.
        let third = leaves.len() / 3;
        let parts: Vec<RegridProposal> = [
            &leaves[..third],
            &leaves[third..2 * third],
            &leaves[2 * third..],
        ]
        .iter()
        .map(|chunk| propose(&tree, &p, chunk))
        .collect();
        assert_eq!(RegridProposal::merge(parts.iter()), global);
    }

    #[test]
    fn trivial_proposal_matches_regrid_no_op() {
        let mut tree = Octree::new(Domain::new(16.0));
        tree.refine_where(1, |_d, _k| true);
        paint_blob(&mut tree, 100.0);
        let p = policy();
        regrid(&mut tree, &p);
        // Stable tree: the merged proposal must read as trivial, and
        // regrid must indeed be a no-op.
        let proposal = propose(&tree, &p, &tree.leaves());
        assert!(proposal_is_trivial(&tree, &proposal));
        assert_eq!(regrid(&mut tree, &p), RegridStats::default());
        // Cool the gas: now the proposal is non-trivial (coarsening
        // pending) and regrid agrees by actually coarsening.
        paint_blob(&mut tree, 1e-4);
        let proposal = propose(&tree, &p, &tree.leaves());
        assert!(!proposal_is_trivial(&tree, &proposal));
        assert!(regrid(&mut tree, &p).coarsened > 0);
    }

    #[test]
    fn stable_configuration_is_a_fixed_point() {
        let mut tree = Octree::new(Domain::new(16.0));
        tree.refine_where(1, |_d, _k| true);
        paint_blob(&mut tree, 100.0);
        regrid(&mut tree, &policy());
        let leaves = tree.leaf_count();
        let stats = regrid(&mut tree, &policy());
        assert_eq!(stats, RegridStats::default(), "second pass must be a no-op");
        assert_eq!(tree.leaf_count(), leaves);
    }
}
