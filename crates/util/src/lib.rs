//! Shared math and utility types for the octotiger-rs workspace.
//!
//! This crate collects the small, dependency-free building blocks used by
//! every other crate in the reproduction of *"From Piz Daint to the Stars"*
//! (Daiß et al., SC '19): a 3-vector type, Morton (Z-order) space filling
//! curve codes used to distribute octree nodes over localities, and index
//! helpers for `N^3` sub-grids with ghost layers.

pub mod digest;
pub mod error;
pub mod indexing;
pub mod morton;
pub mod simd;
pub mod units;
pub mod vec3;

pub use digest::{fnv1a64, Fnv1a};
pub use error::{Error, Result};
pub use indexing::{CellIter, GridIndexer};
pub use morton::{morton_decode, morton_encode, MortonKey};
pub use vec3::Vec3;

/// Machine epsilon scale used in conservation assertions.
///
/// Conservation "to machine precision" in the paper means the relative
/// drift per step is a small multiple of `f64::EPSILON`; accumulating over
/// `k` cells/steps multiplies the bound by roughly `sqrt(k)`..`k`.
pub fn conservation_tolerance(n_ops: usize) -> f64 {
    f64::EPSILON * 32.0 * (n_ops.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_scales_with_ops() {
        assert!(conservation_tolerance(10) < conservation_tolerance(1000));
        assert!(conservation_tolerance(0) > 0.0);
    }
}
