//! Domain geometry: the cubic simulation box and per-level metrics.
//!
//! "The simulation domain is a cubic grid with edges 1.02 × 10³ R⊙ long"
//! (§6), centred on the origin of the rotating frame. An octree node at
//! level `l` covers `edge / 2^l` per side and contains `N_SUB³` cells of
//! size `edge / (N_SUB · 2^l)`.

use crate::subgrid::N_SUB;
use util::morton::MortonKey;
use util::vec3::Vec3;

/// The cubic simulation domain, centred at the origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Domain {
    /// Edge length of the cube (code units).
    pub edge: f64,
}

serde::impl_codec_struct!(Domain { edge });

impl Domain {
    pub fn new(edge: f64) -> Domain {
        assert!(edge > 0.0 && edge.is_finite(), "edge must be positive");
        Domain { edge }
    }

    /// The V1309 domain of §6: 1.02e3 R⊙.
    pub fn v1309() -> Domain {
        Domain::new(util::units::v1309::DOMAIN_EDGE)
    }

    /// Extent of one octree node at `level` (one side).
    #[inline]
    pub fn node_extent(&self, level: u8) -> f64 {
        self.edge / (1u64 << level) as f64
    }

    /// Cell size at `level`.
    #[inline]
    pub fn cell_dx(&self, level: u8) -> f64 {
        self.node_extent(level) / N_SUB as f64
    }

    /// Cell volume at `level`.
    #[inline]
    pub fn cell_volume(&self, level: u8) -> f64 {
        let dx = self.cell_dx(level);
        dx * dx * dx
    }

    /// Lower corner of the node identified by `key`.
    pub fn node_origin(&self, key: MortonKey) -> Vec3 {
        let (x, y, z) = key.coords();
        let ext = self.node_extent(key.level);
        let half = self.edge / 2.0;
        Vec3::new(
            x as f64 * ext - half,
            y as f64 * ext - half,
            z as f64 * ext - half,
        )
    }

    /// Geometric centre of the node identified by `key`.
    pub fn node_center(&self, key: MortonKey) -> Vec3 {
        let ext = self.node_extent(key.level);
        self.node_origin(key) + Vec3::splat(ext / 2.0)
    }

    /// Centre of cell `(i, j, k)` (interior-relative; ghost coordinates
    /// work too) within node `key`.
    pub fn cell_center(&self, key: MortonKey, i: isize, j: isize, k: isize) -> Vec3 {
        self.cell_centers(key)(i, j, k)
    }

    /// [`Domain::cell_center`] of node `key` as a function of the cell,
    /// the node's origin and cell width computed once: for a reader that
    /// visits many cells of one node.
    pub fn cell_centers(&self, key: MortonKey) -> impl Fn(isize, isize, isize) -> Vec3 {
        let dx = self.cell_dx(key.level);
        let o = self.node_origin(key);
        move |i, j, k| {
            Vec3::new(
                o.x + (i as f64 + 0.5) * dx,
                o.y + (j as f64 + 0.5) * dx,
                o.z + (k as f64 + 0.5) * dx,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1309_cell_sizes_match_paper() {
        let d = Domain::v1309();
        // §6: 7.80e-3 R⊙ at level 14, 9.75e-4 R⊙ at level 17.
        let dx14 = d.cell_dx(14);
        assert!((dx14 - 7.80e-3).abs() / 7.80e-3 < 0.01, "dx14 = {dx14}");
        let dx17 = d.cell_dx(17);
        assert!((dx17 - 9.750e-4).abs() / 9.750e-4 < 0.01, "dx17 = {dx17}");
    }

    #[test]
    fn root_node_covers_domain() {
        let d = Domain::new(16.0);
        let root = MortonKey::root();
        assert_eq!(d.node_extent(0), 16.0);
        assert_eq!(d.node_origin(root), Vec3::new(-8.0, -8.0, -8.0));
        assert_eq!(d.node_center(root), Vec3::ZERO);
    }

    #[test]
    fn children_tile_the_parent() {
        let d = Domain::new(8.0);
        let parent = MortonKey::new(2, 1, 2, 3);
        let pc = d.node_center(parent);
        let ext = d.node_extent(3);
        let mut centers: Vec<Vec3> = (0..8).map(|o| d.node_center(parent.child(o))).collect();
        // Children centres are parent centre ± ext/2 in each axis.
        for c in &centers {
            assert!((c.x - pc.x).abs() - ext / 2.0 < 1e-12);
            assert!((c.y - pc.y).abs() - ext / 2.0 < 1e-12);
            assert!((c.z - pc.z).abs() - ext / 2.0 < 1e-12);
        }
        centers.dedup_by(|a, b| (*a - *b).norm() < 1e-12);
        assert_eq!(centers.len(), 8);
    }

    #[test]
    fn cell_centers_are_inside_node() {
        let d = Domain::new(4.0);
        let key = MortonKey::new(1, 0, 1, 0);
        let o = d.node_origin(key);
        let ext = d.node_extent(1);
        for i in 0..N_SUB as isize {
            let c = d.cell_center(key, i, 0, 0);
            assert!(c.x > o.x && c.x < o.x + ext);
        }
        // First and last cell centres are half a cell from the walls.
        let dx = d.cell_dx(1);
        assert!((d.cell_center(key, 0, 0, 0).x - (o.x + dx / 2.0)).abs() < 1e-12);
        let last = d.cell_center(key, (N_SUB - 1) as isize, 0, 0);
        assert!((last.x - (o.x + ext - dx / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn cell_volume_shrinks_8x_per_level() {
        let d = Domain::new(100.0);
        assert!((d.cell_volume(5) / d.cell_volume(6) - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "edge must be positive")]
    fn invalid_domain_rejected() {
        let _ = Domain::new(-1.0);
    }
}
