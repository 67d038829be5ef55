//! Run configuration.
//!
//! [`Config`], as carried by a [`Scenario`](crate::scenario::Scenario),
//! is the only input of a run: nothing reads the environment and the
//! driver builder overrides no field, so what a run computes is a
//! function of its scenario alone. [`Config::validate`] checks it once,
//! when the driver is built; values with a valid range wider than what a
//! consumer can use (the `fmm_agg_*` pair) are normalised where they are
//! consumed, in `gpusim::AggregationConfig::new`.

use hydro::eos::IdealGas;
use octree::halo::BoundaryCondition;
use util::{Error, Result};

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Equation of state.
    pub eos: IdealGas,
    /// CFL number (0, 1).
    pub cfl: f64,
    /// Grid rotation rate about z (0 = inertial frame).
    pub omega: f64,
    /// Whether self-gravity is solved.
    pub gravity: bool,
    /// FMM opening parameter θ.
    pub theta: f64,
    /// Ignored: the FMM's same-level pass runs one work item per
    /// sub-grid. It stays, with `FmmSolver::with_chunk_cells`, until the
    /// benchmark stops setting it.
    pub fmm_chunk_cells: usize,
    /// Same-kind kernel work items per fused GPU batch (1 = no
    /// batching). Inert until a run can attach a device: the driver's
    /// solver is CPU-only, so nothing reads it yet.
    pub fmm_agg_slots: usize,
    /// Total buffered kernel work items before a forced flush (raised to
    /// `fmm_agg_slots` when smaller). Inert like `fmm_agg_slots`.
    pub fmm_agg_window: usize,
    /// Physical boundary condition.
    pub bc: BoundaryCondition,
    /// Scheduler worker threads for the futurized update.
    pub threads: usize,
    /// Positivity floors after each stage (needed for under-resolved
    /// stellar edges; trades exact mass conservation for robustness, so
    /// the machine-precision verification scenarios leave it off).
    pub floors: bool,
    /// Density-threshold regrid policy and its cadence; `None` = static
    /// tree.
    pub regrid: Option<crate::regrid::RegridPolicy>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            eos: IdealGas::monatomic(),
            cfl: 0.4,
            omega: 0.0,
            gravity: false,
            theta: 0.5,
            fmm_chunk_cells: gravity::kernels::N_CELLS,
            fmm_agg_slots: gravity::gpu::DEFAULT_AGG_SLOTS,
            fmm_agg_window: gravity::gpu::DEFAULT_AGG_WINDOW,
            bc: BoundaryCondition::Outflow,
            threads: 4,
            floors: false,
            regrid: None,
        }
    }
}

impl Config {
    /// Pure hydro in an inertial frame (Sod / Sedov verification).
    pub fn hydro_only() -> Config {
        Config::default()
    }

    /// Self-gravitating, inertial frame (star tests).
    pub fn self_gravitating() -> Config {
        Config { gravity: true, ..Config::default() }
    }

    /// The V1309 configuration: self-gravity plus a rotating grid,
    /// with positivity floors for the steep stellar edges.
    pub fn binary(omega: f64) -> Config {
        Config { gravity: true, omega, floors: true, ..Config::default() }
    }

    /// Check every field against its valid range; the first violation
    /// comes back as [`Error::Driver`].
    pub fn validate(&self) -> Result<()> {
        let ensure =
            |ok: bool, why: &str| if ok { Ok(()) } else { Err(Error::Driver(why.into())) };
        ensure(self.cfl > 0.0 && self.cfl < 1.0, "CFL out of range")?;
        ensure(self.theta > 0.0 && self.theta <= 1.0, "theta out of range")?;
        ensure(self.fmm_agg_slots >= 1, "need at least one batch slot")?;
        ensure(self.fmm_agg_window >= 1, "need a positive flush window")?;
        ensure(self.threads >= 1, "need at least one thread")?;
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        require_avx2(host_has_avx2())?;
        if let Some(p) = &self.regrid {
            ensure(p.rho_ref > 0.0, "regrid rho_ref must be positive")?;
            ensure(p.ratio >= 1.0, "regrid ratio must be >= 1")?;
            ensure(
                p.coarsen_fraction > 0.0 && p.coarsen_fraction < 1.0,
                "regrid coarsen_fraction out of (0, 1)",
            )?;
            ensure(p.base_level <= p.max_level, "regrid base_level above max_level")?;
            ensure(p.cadence >= 1, "regrid cadence must be at least one step")?;
        }
        Ok(())
    }
}

/// Whether the host runs what `.cargo/config.toml` compiled this binary
/// for: leaf 7 of `cpuid` exists and has AVX2, and leaf 1 has AVX with
/// the OS saving the wide registers (OSXSAVE). Not
/// `is_x86_feature_detected!("avx2")`, which is the constant `true` in a
/// build with the feature on.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
fn host_has_avx2() -> bool {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    const OSXSAVE_AVX: u32 = 0b11 << 27;
    __cpuid(0).eax >= 7
        && __cpuid_count(7, 0).ebx & (1 << 5) != 0
        && __cpuid(1).ecx & OSXSAVE_AVX == OSXSAVE_AVX
}

/// A host without the compiled-in ISA gets an error from the first
/// [`Config::validate`] rather than a `SIGILL` from a kernel.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
fn require_avx2(host_has_it: bool) -> Result<()> {
    if host_has_it {
        return Ok(());
    }
    Err(Error::Driver(
        "built for AVX2, host has none: rebuild for a baseline host (README \"Build\")".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Config::hydro_only().validate().unwrap();
        Config::self_gravitating().validate().unwrap();
        Config::binary(0.5).validate().unwrap();
        assert!(Config::binary(0.5).gravity);
        assert_eq!(Config::binary(0.5).omega, 0.5);
        assert!(!Config::hydro_only().gravity);
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    #[test]
    fn a_host_without_the_compiled_in_isa_is_an_error() {
        assert!(host_has_avx2(), "this test binary is running AVX2 code");
        require_avx2(true).unwrap();
        let err = require_avx2(false).unwrap_err();
        assert!(matches!(&err, Error::Driver(why) if why.contains("built for AVX2")), "{err}");
    }

    #[test]
    fn bad_cfl_rejected() {
        let err = Config { cfl: 1.5, ..Config::default() }.validate().unwrap_err();
        assert!(matches!(&err, Error::Driver(why) if why.contains("CFL")), "{err}");
    }

    #[test]
    fn bad_regrid_policy_rejected() {
        let good = crate::regrid::RegridPolicy {
            rho_ref: 1.0,
            ratio: 4.0,
            base_level: 1,
            max_level: 3,
            coarsen_fraction: 0.5,
            cadence: 1,
        };
        Config { regrid: Some(good), ..Config::default() }.validate().unwrap();
        let bad = [
            (crate::regrid::RegridPolicy { coarsen_fraction: 1.5, ..good }, "coarsen_fraction"),
            (crate::regrid::RegridPolicy { cadence: 0, ..good }, "cadence"),
        ];
        for (p, what) in bad {
            let err = Config { regrid: Some(p), ..Config::default() }.validate().unwrap_err();
            assert!(matches!(&err, Error::Driver(why) if why.contains(what)), "{err}");
        }
    }
}
