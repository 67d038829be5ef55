//! The grid-based fast multipole method (FMM) gravity solver — the
//! computational hotspot of Octo-Tiger (paper §4.3).
//!
//! "Our FMM variant operates on the grid cells directly since each grid
//! cell has a density value which determines its mass. ... We further
//! differ from other (cell-based) FMM variants ... by conserving not
//! only linear momentum, but also angular momentum, down to machine
//! precision."
//!
//! The three FMM steps of §4.3 map onto:
//!
//! 1. **Bottom-up** ([`solver`]): multipole moments and centres of mass
//!    of every cell at every level (leaf cells are locally homogeneous —
//!    point masses; coarser cells aggregate 2×2×2 finer cells by M2M).
//! 2. **Same-level** ([`kernels`], [`stencil`]): each cell interacts
//!    with its stencil of close neighbors. Two compute kernels, exactly
//!    as in the paper — monopole–monopole (12 flops/interaction) and the
//!    combined multipole kernel (455 flops/interaction in the paper's
//!    model, 198 in ours) — and one pair arithmetic: both are `const`
//!    instantiations of the one body in [`expansion`], so a pair is
//!    rounded the same whichever kernel evaluates it. The stencil is
//!    generated from the two-level opening criterion; with θ = 0.5 it
//!    has 982 elements (the paper's geometric details give 1074 — same
//!    structure, slightly different counts; see DESIGN.md).
//! 3. **Top-down** ([`expansion`]): Taylor expansions pass from parent
//!    to child cells (L2L) and accumulate.
//!
//! **Conservation.** Linear momentum is conserved to machine precision
//! because every pair interaction is evaluated with exactly mirrored
//! arithmetic (odd derivative tensors negate exactly in IEEE floating
//! point); property tests assert it. Angular momentum is not this
//! crate's: the solve returns φ, g and the force density alone, and the
//! driver deposits the exact counter-torque `−r × f` of the force it
//! applies to each cell into that cell's evolved spin fields
//! (`hydro::angmom::body_force_spin`), as it does for the rotating-frame
//! sources. That keeps `Σ (r × s + l) V` unchanged by any body force,
//! whatever the solver's truncation error — where the paper's
//! Marcello-corrected kernels close the budget pair by pair, this is
//! one per-cell deposit for every force (DESIGN.md "Conservation
//! scope").

pub mod direct;
pub mod expansion;
pub mod gpu;
pub mod kernels;
pub mod multipole;
pub mod scratch;
pub mod solver;
pub mod stencil;
pub mod tensors;

pub use expansion::LocalExpansion;
pub use gpu::GpuContext;
pub use multipole::Multipole;
pub use scratch::ScratchPool;
pub use solver::{FmmSolver, GravityField};
pub use stencil::Stencil;

/// Floating point ops per multipole interaction in the paper's model
/// (§4.3, Table 2) — not this crate's body, which the `kernels` module
/// docs count.
pub const MULTI_FLOPS: u64 = 455;
/// Interactions per kernel launch: 512 cells × 1074 stencil elements
/// (paper §4.3). Used, with [`MULTI_FLOPS`], to price a kernel in the
/// node-level performance model and in [`GpuContext::replay`].
pub const INTERACTIONS_PER_LAUNCH: u64 = 549_888;
