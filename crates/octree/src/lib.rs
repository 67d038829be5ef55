//! The AMR octree substrate of Octo-Tiger (paper §4.2).
//!
//! "Octo-Tiger's main datastructure is a rotating Cartesian grid with
//! adaptive mesh refinement (AMR). It is based on an adaptive octree
//! structure. Each node is an N³ sub-grid (with N = 8 for all runs in
//! this paper) containing the evolved variables, and can be further
//! refined into eight child nodes. ... These octree nodes are distributed
//! onto the compute nodes using a space filling curve."
//!
//! * [`subgrid`] — the 8³ sub-grid of evolved variables (struct-of-arrays
//!   storage, interior-only on a leaf and ghosted for the flux sweep,
//!   the all-fields box copy the halo fill moves ghost boxes with).
//! * [`geometry`] — the cubic domain, per-level cell sizes, cell centres.
//! * [`tree`] — the octree itself: proper nesting, 2:1 balance,
//!   refinement/coarsening with conservative prolongation/restriction,
//!   neighbor lookup.
//! * [`prolong`] — conservative interpolation between levels ("the
//!   restart file for level 13 was read and refined to higher levels of
//!   resolution through conservative interpolation of the evolved
//!   variables", §6.2).
//! * [`halo`] — ghost-layer filling from same-level, finer, and coarser
//!   neighbors, plus physical boundary conditions, all read from one
//!   interface plan per tree topology.
//! * [`shard`] — the shard map: the leaves in curve order, cut into one
//!   contiguous run per locality.
//! * [`sfc`] — space-filling-curve ordering of keys.
//! * [`refine`] — the refinement criteria, including the V1309 rule of
//!   §6 (stars to L−2, accretor core to L−1, donor core to L), used to
//!   regenerate Table 4.

pub mod geometry;
pub mod halo;
pub mod prolong;
pub mod refine;
pub mod sfc;
pub mod shard;
pub mod subgrid;
pub mod tree;

pub use geometry::Domain;
pub use shard::ShardMap;
pub use subgrid::{Field, SubGrid, FIELD_COUNT, N_SUB};
pub use tree::{Octree, TreeNode};

pub use util::morton::MortonKey;
