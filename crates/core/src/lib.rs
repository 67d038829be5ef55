//! **octotiger** — the integration layer: Octo-Tiger in Rust.
//!
//! "Octo-Tiger simulates the evolution of mass density, momentum, and
//! energy of interacting binary stellar systems from the start of mass
//! transfer to merger. ... To simulate these fluids we need three core
//! components: (1) a hydrodynamics solver, (2) a gravity solver that
//! calculates the gravitational field produced by the fluid
//! distribution, and (3) a solver to generate an initial configuration
//! of the star system" (paper §4.2).
//!
//! This crate composes the substrate crates into the application:
//!
//! * [`config`] — run configuration (EOS, CFL, rotation, gravity).
//! * [`scenario`] — the verification scenarios of §4.2 (Sod,
//!   Sedov–Taylor, single star at rest / in motion) and the V1309
//!   production scenario of §3/§6.
//! * [`distributed`] — the timestep loop, written once: halo exchange →
//!   FMM gravity → TVD-RK2 hydro update with gravity/rotating-frame
//!   sources, the per-leaf work futurized over the `amt` scheduler (the
//!   "billions of HPX tasks" structure at laptop scale), sub-grids
//!   sharded along the space filling curve over a simulated cluster,
//!   halo/multipole exchange and the dt reduction as parcels over
//!   either parcelport — the result independent of the partition.
//! * [`driver`] — the per-leaf kernels that loop runs, and
//!   [`Simulation`]: the single-process entry point, the same driver on
//!   a one-locality loopback cluster.
//! * [`checkpoint`] — versioned, digest-protected snapshots of the
//!   distributed state; a run killed by a locality crash restores from
//!   its latest checkpoint bit-identically (HPX's `hpx::checkpoint`
//!   contract).
//! * [`diagnostics`] — the conserved-quantity monitors behind the
//!   paper's machine-precision conservation claims.
//! * [`regrid`] — dynamic density-driven refinement/coarsening with
//!   conservative data transfer.
//! * [`verification`] — §4.2's test suite as callable checks.
//! * [`scenarios`] — the golden-gated scenario verification registry:
//!   every end-to-end scenario (Sod, Sedov, rotating star, mini binary,
//!   V1309) pinned to conserved-quantity gates, analytic tolerances and
//!   an FNV-1a state digest, runnable at one locality and at many
//!   with bit-identity enforced between them.

pub mod checkpoint;
pub mod config;
pub mod diagnostics;
pub mod distributed;
pub mod driver;
pub mod regrid;
pub mod scenario;
pub mod scenarios;
pub mod verification;

pub use config::Config;
pub use diagnostics::Totals;
pub use distributed::DistributedDriver;
pub use driver::Simulation;
pub use scenario::Scenario;
