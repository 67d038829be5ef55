//! Run configuration.

use hydro::eos::IdealGas;
use octree::halo::BoundaryCondition;

/// The tunable performance knobs and their one override chain.
///
/// Three channels can set a knob, and before this module each grew its
/// own ad-hoc plumbing. The precedence is now defined in exactly one
/// place — [`Knob::resolve`](crate::config::knobs::Knob::resolve) —
/// and is, from weakest to strongest:
///
/// 1. the built-in default,
/// 2. the environment variable (read once, when the [`Config`] is
///    built — [`Knob::from_env`](crate::config::knobs::Knob::from_env)),
/// 3. the scenario's explicit [`Config`] field,
/// 4. a `DistributedDriver::builder()` override (deployment beats
///    scenario; the regrid and rebalance knobs have one).
///
/// Every channel funnels through the same `normalize` function, so an
/// out-of-range value is clamped identically no matter where it came
/// from.
pub mod knobs {
    /// One tunable: its name, environment variable, default, and the
    /// normalization every override channel passes through.
    pub struct Knob {
        /// The `Config` field name (documentation only).
        pub name: &'static str,
        /// The environment variable that seeds the default.
        pub env: &'static str,
        /// Built-in default (pre-normalization input).
        pub default: usize,
        /// Clamp/round an arbitrary user value into the valid range.
        pub normalize: fn(usize) -> usize,
    }

    /// Target cells per FMM same-level chunk task (rounded to whole
    /// 8-cell rows, clamped to `[8, 512]` by the solver's rule).
    pub const FMM_CHUNK_CELLS: Knob = Knob {
        name: "fmm_chunk_cells",
        env: "FMM_CHUNK_CELLS",
        default: gravity::solver::DEFAULT_CHUNK_CELLS,
        normalize: gravity::solver::normalize_chunk_cells,
    };

    fn at_least_one(n: usize) -> usize {
        n.max(1)
    }

    /// Same-kind work items per fused GPU batch (≥ 1; the pairwise
    /// `window ≥ slots` constraint is enforced when the two knobs meet
    /// in `AggregationConfig::new`).
    pub const FMM_AGG_SLOTS: Knob = Knob {
        name: "fmm_agg_slots",
        env: "FMM_AGG_SLOTS",
        default: gravity::gpu::DEFAULT_AGG_SLOTS,
        normalize: at_least_one,
    };

    /// Total buffered work items (across kinds) before a forced flush.
    pub const FMM_AGG_WINDOW: Knob = Knob {
        name: "fmm_agg_window",
        env: "FMM_AGG_WINDOW",
        default: gravity::gpu::DEFAULT_AGG_WINDOW,
        normalize: at_least_one,
    };

    fn pass_through(n: usize) -> usize {
        n
    }

    /// Steps between distributed regrid collectives (0 = regrid off).
    /// Only meaningful when the run also carries a
    /// [`RegridPolicy`](crate::regrid::RegridPolicy).
    pub const REGRID_CADENCE: Knob = Knob {
        name: "regrid_cadence",
        env: "REGRID_CADENCE",
        default: 0,
        normalize: pass_through,
    };

    /// Owned-leaf imbalance (permille over perfectly balanced) above
    /// which the driver repartitions between regrids (0 = never).
    pub const IMBALANCE_THRESHOLD_PERMILLE: Knob = Knob {
        name: "imbalance_threshold_permille",
        env: "IMBALANCE_THRESHOLD_PERMILLE",
        default: 0,
        normalize: pass_through,
    };

    impl Knob {
        /// The environment channel: parse `self.env`, normalize, fall
        /// back to the (normalized) default when unset or unparsable.
        pub fn from_env(&self) -> usize {
            let parsed = std::env::var(self.env)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok());
            (self.normalize)(parsed.unwrap_or(self.default))
        }

        /// The full chain's last two links: a builder-level override
        /// beats the `Config` value; either way the result is
        /// normalized.
        pub fn resolve(&self, builder_override: Option<usize>, config_value: usize) -> usize {
            (self.normalize)(builder_override.unwrap_or(config_value))
        }
    }

    /// A floating-point tunable — the
    /// [`RegridPolicy`](crate::regrid::RegridPolicy) thresholds, which
    /// are ratios rather than counts. Its chain is [`Knob`]'s without
    /// the environment link: scenario policy, then builder override.
    pub struct KnobF64 {
        /// The policy field name (documentation only).
        pub name: &'static str,
        /// Clamp an arbitrary user value into the valid range.
        pub normalize: fn(f64) -> f64,
    }

    fn positive_or_unit(x: f64) -> f64 {
        if x.is_finite() && x > 0.0 {
            x
        } else {
            1.0
        }
    }

    fn ratio_at_least_one(x: f64) -> f64 {
        if x.is_finite() {
            x.max(1.0)
        } else {
            1.0
        }
    }

    fn open_unit_interval(x: f64) -> f64 {
        if x.is_finite() {
            x.clamp(0.01, 0.99)
        } else {
            0.5
        }
    }

    /// Refinement density floor at the policy's base level.
    pub const REGRID_RHO_REF: KnobF64 = KnobF64 {
        name: "rho_ref",
        normalize: positive_or_unit,
    };

    /// Per-level refinement-threshold growth (≥ 1).
    pub const REGRID_RATIO: KnobF64 = KnobF64 {
        name: "ratio",
        normalize: ratio_at_least_one,
    };

    /// Coarsening hysteresis as a fraction of the refine threshold,
    /// clamped into (0, 1).
    pub const REGRID_COARSEN_FRACTION: KnobF64 = KnobF64 {
        name: "coarsen_fraction",
        normalize: open_unit_interval,
    };

    impl KnobF64 {
        /// Builder override beats the `Config`/policy value; either way
        /// the result is normalized.
        pub fn resolve(&self, builder_override: Option<f64>, config_value: f64) -> f64 {
            (self.normalize)(builder_override.unwrap_or(config_value))
        }
    }
}

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
    /// Target cells per FMM same-level chunk task (normalized to whole
    /// 8-cell rows by the solver; 512 = one task per node). Override
    /// chain: [`knobs::FMM_CHUNK_CELLS`].
    pub fmm_chunk_cells: usize,
    /// Same-kind kernel work items per fused GPU batch
    /// ([`knobs::FMM_AGG_SLOTS`]; 1 = no batching).
    pub fmm_agg_slots: usize,
    /// Total buffered kernel work items before a forced flush
    /// ([`knobs::FMM_AGG_WINDOW`]).
    pub fmm_agg_window: usize,
    /// Physical boundary condition.
    pub bc: BoundaryCondition,
    /// Scheduler worker threads for the futurized update.
    pub threads: usize,
    /// Positivity floors after each stage (needed for under-resolved
    /// stellar edges; trades exact mass conservation for robustness, so
    /// the machine-precision verification scenarios leave it off).
    pub floors: bool,
    /// Density-threshold regrid policy; `None` = static tree. Seeded
    /// per-scenario; individual thresholds resolve through
    /// [`knobs::REGRID_RHO_REF`] / [`knobs::REGRID_RATIO`] /
    /// [`knobs::REGRID_COARSEN_FRACTION`].
    pub regrid: Option<crate::regrid::RegridPolicy>,
    /// Steps between regrid passes, 0 = off
    /// ([`knobs::REGRID_CADENCE`]).
    pub regrid_cadence: usize,
    /// Owned-leaf imbalance (permille over balanced) that triggers a
    /// between-regrid repartition, 0 = never
    /// ([`knobs::IMBALANCE_THRESHOLD_PERMILLE`]).
    pub imbalance_threshold_permille: usize,
    /// Whether the distributed driver may rebalance/migrate shards at
    /// all (regrid itself still repartitions when enabled).
    pub rebalance: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            eos: IdealGas::monatomic(),
            cfl: 0.4,
            omega: 0.0,
            gravity: false,
            theta: 0.5,
            fmm_chunk_cells: knobs::FMM_CHUNK_CELLS.from_env(),
            fmm_agg_slots: knobs::FMM_AGG_SLOTS.from_env(),
            fmm_agg_window: knobs::FMM_AGG_WINDOW.from_env(),
            bc: BoundaryCondition::Outflow,
            threads: 4,
            floors: false,
            regrid: None,
            regrid_cadence: knobs::REGRID_CADENCE.from_env(),
            imbalance_threshold_permille: knobs::IMBALANCE_THRESHOLD_PERMILLE.from_env(),
            rebalance: false,
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

    /// Validate invariants.
    pub fn validate(&self) {
        assert!(self.cfl > 0.0 && self.cfl < 1.0, "CFL out of range");
        assert!(self.theta > 0.0 && self.theta <= 1.0, "theta out of range");
        assert!(self.fmm_chunk_cells >= 1, "need a positive chunk size");
        assert!(self.fmm_agg_slots >= 1, "need at least one batch slot");
        assert!(self.fmm_agg_window >= 1, "need a positive flush window");
        assert!(self.threads >= 1, "need at least one thread");
        if let Some(p) = &self.regrid {
            assert!(p.rho_ref > 0.0, "regrid rho_ref must be positive");
            assert!(p.ratio >= 1.0, "regrid ratio must be >= 1");
            assert!(
                p.coarsen_fraction > 0.0 && p.coarsen_fraction < 1.0,
                "regrid coarsen_fraction out of (0, 1)"
            );
            assert!(p.base_level <= p.max_level, "regrid base_level above max_level");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Config::hydro_only().validate();
        Config::self_gravitating().validate();
        Config::binary(0.5).validate();
        assert!(Config::binary(0.5).gravity);
        assert_eq!(Config::binary(0.5).omega, 0.5);
        assert!(!Config::hydro_only().gravity);
    }

    #[test]
    #[should_panic(expected = "CFL")]
    fn bad_cfl_rejected() {
        Config { cfl: 1.5, ..Config::default() }.validate();
    }

    #[test]
    fn knob_resolve_prefers_builder_and_normalizes() {
        assert_eq!(knobs::FMM_CHUNK_CELLS.resolve(None, 40), 40);
        assert_eq!(knobs::FMM_CHUNK_CELLS.resolve(Some(20), 40), 24);
        assert_eq!(knobs::FMM_CHUNK_CELLS.resolve(None, 3), 8);
        assert_eq!(knobs::FMM_AGG_SLOTS.resolve(Some(0), 8), 1);
        assert_eq!(knobs::FMM_AGG_WINDOW.resolve(None, 0), 1);
    }

    #[test]
    fn regrid_knobs_resolve_and_normalize() {
        assert_eq!(knobs::REGRID_CADENCE.resolve(None, 5), 5);
        assert_eq!(knobs::REGRID_CADENCE.resolve(Some(3), 5), 3);
        assert_eq!(knobs::IMBALANCE_THRESHOLD_PERMILLE.resolve(Some(250), 0), 250);
        assert_eq!(knobs::REGRID_RHO_REF.resolve(Some(2.5), 1.0), 2.5);
        assert_eq!(knobs::REGRID_RHO_REF.resolve(Some(-3.0), 1.0), 1.0);
        assert_eq!(knobs::REGRID_RATIO.resolve(None, 0.25), 1.0);
        assert_eq!(knobs::REGRID_COARSEN_FRACTION.resolve(Some(7.0), 0.5), 0.99);
        assert_eq!(knobs::REGRID_COARSEN_FRACTION.resolve(None, 0.5), 0.5);
    }

    #[test]
    #[should_panic(expected = "coarsen_fraction")]
    fn bad_regrid_policy_rejected() {
        let p = crate::regrid::RegridPolicy {
            rho_ref: 1.0,
            ratio: 4.0,
            base_level: 1,
            max_level: 3,
            coarsen_fraction: 1.5,
        };
        Config { regrid: Some(p), ..Config::default() }.validate();
    }
}
