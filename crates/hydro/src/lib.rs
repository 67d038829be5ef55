//! The finite-volume hydrodynamics solver of Octo-Tiger (paper §4.2).
//!
//! "Octo-Tiger uses the central advection scheme of [Kurganov & Tadmor
//! 2000]. The piece-wise parabolic method (PPM) is used to compute the
//! thermodynamic variables at cell faces. ... We use the dual-energy
//! formalism of \[Enzo\] ...: We evolve both the gas total energy as well
//! as the entropy. ... The angular momentum technique described by
//! [Després & Labourasse] is applied to the PPM reconstruction."
//!
//! Modules:
//!
//! * [`eos`] — ideal-gas (γ-law) equation of state and the entropy
//!   tracer τ used by the dual-energy formalism.
//! * [`prim`] — conserved ↔ primitive conversion with the dual-energy
//!   switch (entropy-based internal energy in high-Mach flow).
//! * [`ppm`] — 1-D piecewise parabolic reconstruction with monotonicity
//!   limiting (two ghost cells each side, matching `octree::N_GHOST`).
//! * [`flux`] — physical Euler fluxes and the Kurganov–Tadmor central
//!   numerical flux with local signal speeds.
//! * [`step`] — the per-sub-grid flux sweep producing `dU/dt`, the CFL
//!   time step, and TVD-RK2 integration over a whole octree level.
//! * [`angmom`] — the angular-momentum bookkeeping: face torques are
//!   accumulated into the evolved spin fields so that total (orbital +
//!   spin) angular momentum is conserved to machine precision.
//! * [`rotating`] — Coriolis and centrifugal source terms of the
//!   rotating frame ("the grid is rotating about the z-axis with a
//!   period of 1.42 days").
//! * [`analytic`] — exact Sod shock-tube and Sedov–Taylor solutions for
//!   the verification suite of §4.2.

pub mod analytic;
pub mod angmom;
pub mod eos;
pub mod flux;
pub mod ppm;
pub mod prim;
pub mod rotating;
pub mod step;

pub use eos::IdealGas;
pub use prim::Primitive;
pub use step::{cfl_dt, HydroStepper};

/// Bitwise equality with every NaN equal to every other: what the
/// lane-vs-oracle tests compare with (a NaN's payload is not part of the
/// bit-identity contract).
#[cfg(test)]
pub(crate) fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}
