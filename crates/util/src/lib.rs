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
