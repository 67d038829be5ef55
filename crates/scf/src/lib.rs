//! Initial stellar models — the stand-in for the paper's
//! Self-Consistent Field (SCF) module.
//!
//! "Octo-Tiger uses its Self-Consistent Field module to produce an
//! initial model for V1309 ... The stars are tidally synchronized, and
//! the stars have a common atmosphere" (paper §3); "we assemble the
//! initial scenario using the Self-Consistent Field technique alongside
//! the FMM solver" (§4.2).
//!
//! * [`lane_emden`] — the Lane–Emden equation and polytropic stellar
//!   structure (the paper's V1309 components have n = 3/2 cores).
//! * [`binary`] — the V1309 Scorpii initial model: two tidally
//!   truncated, synchronously rotating polytropes with helium cores, a
//!   common envelope, passive-scalar tagging, and the rotating-frame
//!   velocity field, painted onto an AMR octree. Each star is a
//!   Lane–Emden polytrope; no self-consistent-field iteration runs (the
//!   production code's SCF couples the full FMM — see DESIGN.md for the
//!   documented substitution).

pub mod binary;
pub mod lane_emden;

pub use binary::BinaryModel;
pub use lane_emden::{LaneEmden, Polytrope};
