//! The shared Figure 2/3 output type and the V1309 structure-tree
//! builder.
//!
//! The scale-out numbers themselves come from the trace-calibrated
//! discrete-event co-simulation in [`crate::des`]; this module only
//! holds what its results are expressed in ([`ScalingPoint`],
//! [`efficiency`]) and the tree every scaling experiment decomposes
//! ([`v1309_structure_tree`]).

use octree::refine::BinaryRefine;
use octree::tree::Octree;
use parcelport::netmodel::TransportKind;

/// One point of the Figure 2/3 data (produced by the [`crate::des`]
/// co-simulation).
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Refinement level of the simulated tree.
    pub level: u8,
    /// Locality (node) count.
    pub nodes: usize,
    /// Simulated transport.
    pub kind: TransportKind,
    /// Total sub-grids in the decomposition.
    pub subgrids: usize,
    /// Modelled wall time per step, seconds.
    pub step_time_s: f64,
    /// Processed sub-grids per second — the paper's metric.
    pub subgrids_per_second: f64,
}

/// Build the structure tree for a given V1309 refinement level.
pub fn v1309_structure_tree(level: u8) -> Octree {
    let rule = BinaryRefine::v1309(level);
    let mut tree = Octree::structure_only(octree::geometry::Domain::v1309());
    tree.refine_where(level, |d, k| rule.should_refine(d, k));
    tree
}

/// Parallel efficiency of `point` against a reference throughput-per-
/// node (typically level 14 on 1 node).
///
/// ```
/// use parcelport::netmodel::TransportKind;
/// use perfmodel::scaling::{efficiency, ScalingPoint};
///
/// let p = ScalingPoint {
///     level: 14,
///     nodes: 4,
///     kind: TransportKind::Libfabric,
///     subgrids: 100,
///     step_time_s: 1.0,
///     subgrids_per_second: 100.0,
/// };
/// // 100 sg/s over 4 nodes against a 25 sg/s 1-node reference: ideal.
/// assert!((efficiency(&p, 25.0) - 1.0).abs() < 1e-12);
/// ```
pub fn efficiency(point: &ScalingPoint, reference_throughput_1node: f64) -> f64 {
    point.subgrids_per_second / (reference_throughput_1node * point.nodes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_helper() {
        let p = ScalingPoint {
            level: 14,
            nodes: 4,
            kind: TransportKind::Libfabric,
            subgrids: 100,
            step_time_s: 1.0,
            subgrids_per_second: 100.0,
        };
        assert!((efficiency(&p, 25.0) - 1.0).abs() < 1e-12);
        assert!((efficiency(&p, 50.0) - 0.5).abs() < 1e-12);
    }
}
