//! The golden-gated scenario verification registry.
//!
//! The AMR scaling follow-up to the paper stresses that an AMT code can
//! only be refactored aggressively when its physics scenarios are
//! regression-gated. This module is that gate: a registry mapping
//! scenario name → builder → pinned step count → expected invariants,
//! where each entry carries
//!
//! 1. **conserved-quantity gates** — per-step relative-drift bounds on
//!    mass, linear momentum, energy, and (the flagship) z-angular
//!    momentum in the rotating frame, whose budget the `hydro::angmom`
//!    spin ledger closes to machine precision;
//! 2. **a golden state digest** — the FNV-1a-64 hash of every leaf's
//!    full field state at the pinned step ([`state_digest`]), so *any*
//!    bit-level behaviour change anywhere in the stack is detected;
//! 3. **analytic tolerance gates** — the §4.2 references
//!    (`hydro::analytic` Sod/Sedov) and SCF structure checks (virial
//!    balance, Roche geometry) where the scenario has one.
//!
//! The same entry drives the single-locality [`Simulation`] and the
//! multi-locality [`crate::DistributedDriver`] ([`run_gate`] /
//! [`run_gate_distributed`]); the suite in `tests/` asserts their
//! digests agree bit-for-bit on both transports, and the `scenario_gate`
//! bench bin publishes per-scenario throughput and drift time series
//! (`scenario/angmom_drift`, `scenario/mass_transfer_rate`) through
//! [`amt::Metrics`].
//!
//! Golden digests are pinned against debug *and* release builds (the
//! arithmetic is identical; the registry test would catch a divergence).
//! Regenerate with `cargo run --release -p bench --bin scenario_gate --
//! --print-digests` after an *intentional* numerics change, and say so
//! in the commit message.

use crate::diagnostics::{binary_masses, moment_of_inertia_z, totals, Totals};
use crate::driver::Simulation;
use crate::scenario::Scenario;
use crate::verification;
use amt::Metrics;
use octree::subgrid::ALL_FIELDS;
use octree::tree::Octree;
use parcelport::cluster::Cluster;
use parcelport::netmodel::TransportKind;
use scf::binary::eggleton_roche_fraction;
use std::borrow::Cow;
use std::sync::Arc;
use util::digest::Fnv1a;
use util::Result;

/// Fixed-point scale for publishing relative drifts as `u64` counters:
/// counter value = drift × 1e15 (so one count = 1e-15 ≈ 5 ulp), which
/// keeps even a catastrophic drift of 1e3 inside `u64`.
pub const DRIFT_FIXED_POINT: f64 = 1.0e15;

/// Encode a non-negative float as a fixed-point counter value.
pub fn to_fixed(v: f64) -> u64 {
    let scaled = (v.abs() * DRIFT_FIXED_POINT).round();
    if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled as u64
    }
}

/// Per-quantity conservation gates: maximum allowed *per-step* relative
/// drift against the scenario's scales (`None` = the quantity is not
/// conserved in this scenario — e.g. linear momentum under outflow
/// boundaries — so it is monitored but not gated).
#[derive(Debug, Clone, Copy)]
pub struct Gates {
    /// Relative mass drift vs the initial mass.
    pub mass: Option<f64>,
    /// Linear-momentum drift vs (initial mass × unit speed).
    pub momentum: Option<f64>,
    /// z-angular-momentum drift vs max(|L_z(0)|, Ω·I_zz(0), M(0)).
    pub angular_z: Option<f64>,
    /// Total-energy drift vs the initial internal energy scale.
    pub energy: Option<f64>,
}

impl Gates {
    /// No gates (monitor only).
    pub const NONE: Gates =
        Gates { mass: None, momentum: None, angular_z: None, energy: None };
}

/// One registered scenario: how to build it, how long the gated run is,
/// and what must hold at the end of it.
pub struct ScenarioSpec {
    /// Registry key (matches `Scenario::name`).
    pub name: &'static str,
    /// Scenario builder (a fresh tree + config per call).
    pub build: fn() -> Scenario,
    /// Pinned step count of the gated run.
    pub steps: u64,
    /// Conservation gates apply to steps `1..=gate_steps` (`None` = all
    /// steps). Lets a scenario pin a longer digest/analytic horizon than
    /// its boundary-quiet conservation window — e.g. Sod's rarefaction
    /// reaches the outflow wall around step 6, while the L1 comparison
    /// against the exact Riemann solution wants the waves well
    /// developed, so the digest is pinned at step 20 with machine-level
    /// gates on the first 5 steps only. Drifts are still *monitored*
    /// (maxima, series) over the full run.
    pub gate_steps: Option<u64>,
    /// Golden [`state_digest`] at the pinned step; `None` while a new
    /// entry is being calibrated.
    pub golden_digest: Option<u64>,
    /// Conservation gates, applied per step.
    pub gates: Gates,
    /// Analytic/structural checks on the final state; returns failure
    /// descriptions (empty = pass).
    pub analytic: Option<fn(&Simulation) -> Vec<String>>,
    /// Locality counts the distributed bit-identity suite exercises.
    pub localities: &'static [usize],
}

/// The FNV-1a-64 digest of the full leaf-level state: for every leaf in
/// SFC order, the key (level byte + code) followed by the bit patterns
/// of all 14 fields over the interior — a leaf grid's cells, in order.
/// Restricted ancestor grids are derived data and excluded, so the
/// digest of a [`crate::DistributedDriver::assemble`]d tree is
/// comparable to the single-locality one.
pub fn state_digest(tree: &Octree) -> u64 {
    let mut h = Fnv1a::new();
    let mut leaves = tree.leaves();
    leaves.sort_by_key(|k| (k.level, k.code));
    for key in leaves {
        h.update(&[key.level]);
        h.update_u64(key.code);
        let grid = tree.node(key).expect("leaf").grid.as_ref().expect("grid");
        for v in ALL_FIELDS.into_iter().flat_map(|f| grid.field(f)) {
            h.update_u64(v.to_bits());
        }
    }
    h.finish()
}

/// The scales drifts are normalized by, captured before the first step.
#[derive(Debug, Clone, Copy)]
struct Scales {
    mass: f64,
    momentum: f64,
    angular_z: f64,
    energy: f64,
}

impl Scales {
    fn capture(t0: &Totals, izz0: f64, omega: f64) -> Scales {
        Scales {
            mass: t0.mass.max(1e-300),
            // Momentum drift reads as a centre-of-mass velocity change
            // in code units (unit speed ~ the sound/orbital speed).
            momentum: t0.mass.max(1e-300),
            // In the co-rotating frame the monitored L_z starts near
            // zero; the physically carried angular momentum is Ω·I_zz.
            angular_z: t0.angular.z.abs().max((omega * izz0).abs()).max(t0.mass.max(1e-300)),
            energy: t0.energy().abs().max(t0.internal).max(1e-300),
        }
    }
}

/// One completed gated run.
#[derive(Debug, Clone)]
pub struct GateRun {
    /// Registry key.
    pub name: &'static str,
    /// Steps actually taken.
    pub steps: u64,
    /// Simulated time at the end.
    pub time: f64,
    /// [`state_digest`] at the pinned step.
    pub digest: u64,
    /// Leaves in the tree (resolution witness).
    pub leaves: usize,
    /// Maximum per-step relative drifts observed.
    pub max_mass_drift: f64,
    pub max_momentum_drift: f64,
    pub max_angular_z_drift: f64,
    pub max_energy_drift: f64,
    /// Per-step z-angular-momentum drift series (for the bench bin).
    pub angmom_series: Vec<f64>,
    /// Relative donor-mass transfer rate per unit time (0 for
    /// non-binary scenarios).
    pub mass_transfer_rate: f64,
    /// Wall-clock steps per second of the gated run.
    pub steps_per_sec: f64,
    /// Gate violations (empty = pass).
    pub failures: Vec<String>,
}

impl GateRun {
    /// Did every gate hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Publish the run's headline numbers as fixed-point counters
    /// (`scenario/angmom_drift`, `scenario/mass_transfer_rate`, ...) —
    /// the time-series surface the job layer and bench bins read.
    pub fn publish(&self, metrics: &Metrics) {
        metrics.counter("scenario/steps").store(self.steps);
        metrics.counter("scenario/angmom_drift").store(to_fixed(self.max_angular_z_drift));
        metrics.counter("scenario/mass_drift").store(to_fixed(self.max_mass_drift));
        metrics
            .counter("scenario/mass_transfer_rate")
            .store(to_fixed(self.mass_transfer_rate));
    }
}

/// Drift bookkeeping of a gated run: compare `now` against the captured
/// scales, update maxima, and append gate failures.
struct DriftMonitor {
    scales: Scales,
    t0: Totals,
    gates: Gates,
    max_mass: f64,
    max_momentum: f64,
    max_angular_z: f64,
    max_energy: f64,
    series: Vec<f64>,
    failures: Vec<String>,
}

impl DriftMonitor {
    fn new(t0: Totals, izz0: f64, omega: f64, gates: Gates) -> DriftMonitor {
        DriftMonitor {
            scales: Scales::capture(&t0, izz0, omega),
            t0,
            gates,
            max_mass: 0.0,
            max_momentum: 0.0,
            max_angular_z: 0.0,
            max_energy: 0.0,
            series: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn observe(&mut self, step: u64, now: &Totals, gated: bool) {
        let mass = (now.mass - self.t0.mass).abs() / self.scales.mass;
        let momentum = (now.momentum - self.t0.momentum).norm() / self.scales.momentum;
        let angular_z = (now.angular.z - self.t0.angular.z).abs() / self.scales.angular_z;
        let energy = (now.energy() - self.t0.energy()).abs() / self.scales.energy;
        self.max_mass = self.max_mass.max(mass);
        self.max_momentum = self.max_momentum.max(momentum);
        self.max_angular_z = self.max_angular_z.max(angular_z);
        self.max_energy = self.max_energy.max(energy);
        self.series.push(angular_z);
        if !gated {
            return;
        }
        let mut check = |what: &str, value: f64, gate: Option<f64>| {
            if let Some(tol) = gate {
                if value > tol {
                    self.failures.push(format!(
                        "step {step}: {what} drift {value:.3e} exceeds gate {tol:.1e}"
                    ));
                }
            }
        };
        check("mass", mass, self.gates.mass);
        check("momentum", momentum, self.gates.momentum);
        check("angular_z", angular_z, self.gates.angular_z);
        check("energy", energy, self.gates.energy);
    }
}

/// The monitored loop behind both entry points: `spec.steps` steps of
/// `driver` (advanced by `step`, observed through `tree`), conservation
/// gates applied per step against the totals before the first one, and
/// the golden digest checked at the end. `what` prefixes the digest
/// failure so a distributed run names its cluster shape. Returns the
/// run and the per-step dts.
///
/// The monitored energy is the gas energy (kinetic + internal): every
/// registry entry with self-gravity leaves energy ungated, so the loop
/// does not pay a gravity solve per step for the potential term.
fn monitored_run<D>(
    spec: &ScenarioSpec,
    what: &str,
    omega: f64,
    driver: &mut D,
    step: fn(&mut D) -> Result<f64>,
    tree: for<'a> fn(&'a D) -> Cow<'a, Octree>,
) -> Result<(GateRun, Vec<f64>)> {
    let (t0, donor0, izz0) = {
        let tree = tree(driver);
        (totals(&tree, None), binary_masses(&tree).donor, moment_of_inertia_z(&tree))
    };
    let mut monitor = DriftMonitor::new(t0, izz0, omega, spec.gates);

    let gate_steps = spec.gate_steps.unwrap_or(spec.steps);
    let mut dts = Vec::with_capacity(spec.steps as usize);
    let wall = std::time::Instant::now();
    for n in 1..=spec.steps {
        dts.push(step(driver)?);
        monitor.observe(n, &totals(&tree(driver), None), n <= gate_steps);
    }
    let elapsed = wall.elapsed().as_secs_f64();

    let tree = tree(driver);
    let digest = state_digest(&tree);
    let mut failures = monitor.failures;
    if let Some(golden) = spec.golden_digest {
        if digest != golden {
            failures.push(format!(
                "{what}state digest {digest:#018x} != golden {golden:#018x} at step {}",
                spec.steps
            ));
        }
    }
    let time: f64 = dts.iter().sum();
    let donor1 = binary_masses(&tree).donor;
    let mass_transfer_rate =
        if donor0 > 0.0 && time > 0.0 { (donor0 - donor1) / (donor0 * time) } else { 0.0 };

    let run = GateRun {
        name: spec.name,
        steps: spec.steps,
        time,
        digest,
        leaves: tree.leaf_count(),
        max_mass_drift: monitor.max_mass,
        max_momentum_drift: monitor.max_momentum,
        max_angular_z_drift: monitor.max_angular_z,
        max_energy_drift: monitor.max_energy,
        angmom_series: monitor.series,
        mass_transfer_rate,
        steps_per_sec: if elapsed > 0.0 { spec.steps as f64 / elapsed } else { 0.0 },
        failures,
    };
    Ok((run, dts))
}

/// Run one registry entry on the single-process [`Simulation`],
/// asserting its conservation gates per step and the golden digest /
/// analytic gates at the end. Never panics on a violation — failures
/// are returned so callers (tests, the bench bin) decide how loudly to
/// fail.
pub fn run_gate(spec: &ScenarioSpec) -> GateRun {
    let scenario = (spec.build)();
    let omega = scenario.config.omega;
    let mut sim = Simulation::new(scenario);
    let (mut run, _) = monitored_run(
        spec,
        "",
        omega,
        &mut sim,
        |sim| Ok(sim.step()),
        |sim| Cow::Borrowed(sim.tree()),
    )
    .expect("Simulation::step is infallible");
    if let Some(analytic) = spec.analytic {
        run.failures.extend(analytic(&sim));
    }
    run
}

/// Run one registry entry on the distributed driver over `localities`
/// shards and the given transport, with the same per-step monitoring.
/// Returns the gate run (digest computed on the assembled tree — the
/// bit-identity comparison against [`run_gate`] is the caller's single
/// `assert_eq!` on the two digests) plus the per-step dts.
pub fn run_gate_distributed(
    spec: &ScenarioSpec,
    localities: usize,
    transport: TransportKind,
) -> Result<(GateRun, Vec<f64>)> {
    let scenario = (spec.build)();
    let omega = scenario.config.omega;
    let cluster = Arc::new(
        Cluster::builder().localities(localities).threads_per(2).transport(transport).build(),
    );
    let mut driver = crate::DistributedDriver::builder(scenario, cluster).build()?;
    monitored_run(
        spec,
        &format!("distributed x{localities} {transport:?}: "),
        omega,
        &mut driver,
        crate::DistributedDriver::step,
        |driver| Cow::Owned(driver.assemble()),
    )
}

// ---------------------------------------------------------------------
// Analytic / structural gates.

/// Sod: L1 density error against the exact Riemann solution.
fn sod_analytic(sim: &Simulation) -> Vec<String> {
    let res = verification::measure_sod(sim);
    let mut fails = Vec::new();
    if res.l1_density > 0.06 {
        fails.push(format!(
            "sod: L1 density error {:.4} vs exact Riemann solution exceeds 0.06",
            res.l1_density
        ));
    }
    fails
}

/// Sedov: shock radius against the similarity solution and bounded
/// compression.
fn sedov_analytic(sim: &Simulation) -> Vec<String> {
    let res = verification::measure_sedov(sim, 1.0);
    let mut fails = Vec::new();
    if res.r_shock_measured <= 0.0 {
        fails.push("sedov: no shock front found".into());
    } else {
        let rel = (res.r_shock_measured - res.r_shock_analytic).abs() / res.r_shock_analytic;
        if rel > 0.35 {
            fails.push(format!(
                "sedov: shock radius {:.4} vs analytic {:.4} (rel {rel:.2}) exceeds 0.35",
                res.r_shock_measured, res.r_shock_analytic
            ));
        }
    }
    // Strong-shock compression bounded by (γ+1)/(γ−1) = 4 for γ = 5/3.
    if res.max_density_ratio > 4.5 {
        fails.push(format!("sedov: compression {:.2} exceeds 4.5", res.max_density_ratio));
    }
    fails
}

/// Kinetic and thermal energy summed over *star material* only
/// (`rho > rho_cut`). The unmasked totals are useless for a structure
/// check: floor-density cells at the star–vacuum interface pick up
/// KT-diffused momentum at negligible mass, so `s²/2ρ` divides by
/// ~1e-15 and the "kinetic energy" of dynamically irrelevant dust
/// dwarfs the star's own. The potential needs no mask — it is
/// mass-weighted, so vacuum contributes nothing.
fn masked_energies(tree: &Octree, rho_cut: f64) -> (f64, f64) {
    use octree::subgrid::Field;
    let domain = tree.domain();
    let (mut kinetic, mut internal) = (0.0, 0.0);
    for key in tree.leaves() {
        let vol = domain.cell_volume(key.level);
        let grid = tree.node(key).expect("leaf").grid.as_ref().expect("grid");
        let n = octree::subgrid::N_SUB as isize;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let rho = grid.at(Field::Rho, i, j, k);
                    if rho <= rho_cut {
                        continue;
                    }
                    let s2 = grid.at(Field::Sx, i, j, k).powi(2)
                        + grid.at(Field::Sy, i, j, k).powi(2)
                        + grid.at(Field::Sz, i, j, k).powi(2);
                    let ke = 0.5 * s2 / rho;
                    kinetic += ke * vol;
                    internal += (grid.at(Field::Egas, i, j, k) - ke) * vol;
                }
            }
        }
    }
    (kinetic, internal)
}

/// Rotating star: the SCF-style virial balance `2K + W + 2U ≈ 0`
/// (γ = 5/3, with K measured in the co-rotating frame where the star is
/// near-static) over star material, and the centre of mass staying on
/// the rotation axis.
fn rotating_star_analytic(sim: &Simulation) -> Vec<String> {
    let grav = sim.solve_gravity();
    let t = totals(sim.tree(), grav.as_deref());
    let (kinetic, internal) = masked_energies(sim.tree(), 1e-6);
    let mut fails = Vec::new();
    let virial = 2.0 * kinetic + t.potential + 2.0 * internal;
    let rel = virial.abs() / t.potential.abs().max(1e-300);
    // Calibration at level 2: the painted polytrope relaxes to ~0.08
    // (W = −0.79 vs the analytic n = 3/2 value −6/7 ≈ −0.86).
    if rel > 0.15 {
        fails.push(format!(
            "rotating_star: virial residual |2K+W+2U|/|W| = {rel:.3} exceeds 0.15 \
             (K={kinetic:.3e} W={:.3e} U={internal:.3e})",
            t.potential
        ));
    }
    let (_, _, com) = verification::star_metrics(sim);
    if com.norm() > 0.2 {
        fails.push(format!("rotating_star: centre of mass drifted to {com:?}"));
    }
    fails
}

/// Model-level Roche-geometry checks shared by the binary scenarios.
/// The model is re-derived from the scenario builder so the gate also
/// catches construction drift (donor no longer lobe-filling, omega no
/// longer Keplerian).
fn binary_model_analytic(model: &scf::binary::BinaryModel) -> Vec<String> {
    let mut fails = Vec::new();
    // Construction: the donor (secondary) fills its Roche lobe, the
    // accretor sits inside its own — the §3 mass-transfer geometry.
    let a = (model.secondary_pos - model.primary_pos).norm();
    let q = model.secondary.mass / model.primary.mass;
    let donor_fill = model.secondary.radius / (eggleton_roche_fraction(q) * a);
    let accretor_fill =
        model.primary.radius / (eggleton_roche_fraction(1.0 / q) * a);
    if (donor_fill - 1.0).abs() > 1e-9 {
        fails.push(format!("binary: donor Roche fill factor {donor_fill} != 1"));
    }
    if donor_fill <= accretor_fill {
        fails.push(format!(
            "binary: donor fill {donor_fill:.3} not above accretor fill {accretor_fill:.3} — \
             mass transfer would run the wrong way"
        ));
    }
    // The frame rotates at the Keplerian orbital frequency.
    let kepler = util::units::kepler_omega(model.primary.mass + model.secondary.mass, a);
    if ((model.omega - kepler) / kepler).abs() > 1e-9 {
        fails.push(format!(
            "binary: omega {:.6e} is not Keplerian ({kepler:.6e}) for a = {a:.3}",
            model.omega
        ));
    }
    fails
}

/// Grid-level checks for a binary whose *both* components are resolved:
/// the passive scalars partition the painted density and the component
/// masses have the right ordering.
fn binary_grid_analytic(sim: &Simulation) -> Vec<String> {
    let mut fails = Vec::new();
    let t = totals(sim.tree(), None);
    let m = binary_masses(sim.tree());
    let partition = (t.scalars - t.mass).abs() / t.mass;
    if partition > 1e-3 {
        fails.push(format!(
            "binary: passive scalars sum to {:.6} vs mass {:.6} (rel {partition:.2e})",
            t.scalars, t.mass
        ));
    }
    if m.donor <= 0.0 || m.accretor <= 0.0 {
        fails.push(format!("binary: empty component (donor {}, accretor {})", m.donor, m.accretor));
    }
    if m.accretor <= m.donor {
        fails.push(format!(
            "binary: accretor mass {:.4} not above donor mass {:.4}",
            m.accretor, m.donor
        ));
    }
    fails
}

fn mini_binary_analytic(sim: &Simulation) -> Vec<String> {
    let mut fails = binary_model_analytic(&scf::binary::BinaryModel::scaled(1.0, 0.3, 3.0));
    fails.extend(binary_grid_analytic(sim));
    fails
}

/// V1309 at the registry's level 6: the 1.54 M☉ giant (accretor scalar
/// bucket) resolves onto the grid (r₁ ≈ 3.27 vs dx ≈ 2 in its core
/// region), but the 0.17 M☉, r₂ ≈ 1.36 donor stays sub-cell until the
/// donor-core region reaches level ≥ 7 — so this gate checks the model
/// geometry plus the *resolved* component only, and pins the donor at
/// exactly zero so the step where it first resolves is loud.
fn v1309_analytic(sim: &Simulation) -> Vec<String> {
    let model = scf::binary::BinaryModel::v1309();
    let mut fails = binary_model_analytic(&model);
    let m = binary_masses(sim.tree());
    if m.accretor < 0.2 {
        fails.push(format!(
            "v1309: painted accretor mass {:.4} below 0.2 — the giant fell off the grid",
            m.accretor
        ));
    }
    if m.donor != 0.0 {
        fails.push(format!(
            "v1309: donor mass {:.4e} — the sub-cell donor started resolving; recalibrate \
             the registry entry (gates, digest) for the new resolution",
            m.donor
        ));
    }
    fails
}

// ---------------------------------------------------------------------
// The registry.

fn build_sod() -> Scenario {
    Scenario::sod(1)
}

fn build_sedov() -> Scenario {
    Scenario::sedov(2, 1.0)
}

fn build_rotating_star() -> Scenario {
    // Level 2 (dx = 0.25, star radius = 4 cells) is the coarsest level
    // where the painted polytrope actually holds together: it relaxes
    // to virial residual ~0.08 and stays boundary-quiet beyond the
    // gated window. At level 1 the 2-cell star sheds fast ejecta that
    // reach the outflow wall by step 6.
    Scenario::rotating_star(2, 0.2)
}

fn build_mini_binary() -> Scenario {
    Scenario::mini_binary(2)
}

fn build_v1309() -> Scenario {
    // Level 6 is the first level where the giant resolves (its body
    // region sits at level 4, dx ≈ 8 on the 1020 R⊙ domain; its centre
    // still paints ~0.4 M⊙ onto the grid). Coarser trees paint *no*
    // star mass at all — every cell centre misses both stars — and the
    // resulting atmosphere-only "binary" is dynamically meaningless.
    Scenario::v1309(6)
}

/// Every registered scenario with its pinned gates and golden digests.
///
/// Tolerances are calibrated: each gate sits roughly 10× above the
/// drift measured at calibration time (so real regressions trip it, fp
/// jitter does not), except the flagship machine-precision gates which
/// are pinned at the issue's 1e-12 budget.
pub fn registry() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "sod",
            build: build_sod,
            steps: 20,
            // The wave system reaches the outflow walls around step 6;
            // from there mass/energy legitimately leave the box. Gate
            // the machine-clean window, pin the digest where the L1
            // comparison is meaningful.
            gate_steps: Some(5),
            golden_digest: Some(0x89c27cb2f4c30cf5),
            gates: Gates {
                // Momentum is *not* conserved even early: the outflow
                // walls feel the tube's pressure jump from step 1.
                mass: Some(1e-12),
                momentum: None,
                angular_z: Some(1e-12),
                energy: Some(1e-12),
            },
            analytic: Some(sod_analytic),
            localities: &[],
        },
        ScenarioSpec {
            name: "sedov",
            build: build_sedov,
            steps: 25,
            gate_steps: None,
            golden_digest: Some(0x556558e93b227b8a),
            gates: Gates {
                // Calibration: mass 1.4e-14, momentum 3.6e-17,
                // L_z 3.1e-20 over the full 25 steps — the blast never
                // touches the boundary and the interior flux sweep
                // telescopes bitwise.
                mass: Some(1e-12),
                momentum: Some(1e-12),
                angular_z: Some(1e-12),
                energy: Some(1e-12),
            },
            analytic: Some(sedov_analytic),
            localities: &[],
        },
        ScenarioSpec {
            name: "rotating_star",
            build: build_rotating_star,
            steps: 10,
            gate_steps: None,
            golden_digest: Some(0x57663238a4b16d5a),
            gates: Gates {
                // Calibration: mass 1.9e-14, momentum ~1e-16 (mirror
                // symmetry), L_z 3.3e-20 over the window.
                mass: Some(1e-12),
                momentum: Some(1e-12),
                // The flagship budget: frame + gravity torques close
                // through the spin ledger.
                angular_z: Some(1e-12),
                // Not conserved: the centrifugal force does work
                // (s·Ω²r each step).
                energy: None,
            },
            analytic: Some(rotating_star_analytic),
            localities: &[2],
        },
        ScenarioSpec {
            name: "mini_binary",
            build: build_mini_binary,
            steps: 10,
            gate_steps: None,
            golden_digest: Some(0x683e62c44295eb42),
            gates: Gates {
                // Floors inject mass at the stellar edges (calibration:
                // 3.9e-4 over 10 steps, a one-time adjustment as the
                // painted surfaces relax) but — since they deposit
                // removed r × s into the spin ledger — never torque
                // L_z (calibration: 1.2e-16).
                mass: Some(1e-3),
                // Linear momentum is not conserved in a rotating frame:
                // Coriolis and centrifugal forces have a non-zero net
                // over an asymmetric mass distribution.
                momentum: None,
                angular_z: Some(1e-12),
                energy: None,
            },
            analytic: Some(mini_binary_analytic),
            localities: &[2, 4],
        },
        ScenarioSpec {
            name: "v1309",
            build: build_v1309,
            // One step: the paper-rule tree is multi-level (L4 star
            // bodies / L5 accretor core / L6 donor core), and without
            // coarse–fine flux registers the KT diffusive flux at the
            // level interfaces crossing the giant's surface is not
            // telescoping — mass drifts ~9e-2/step (ROADMAP item). The
            // first step is still a strong gate: torques cancel to
            // machine precision by mirror symmetry, and the digest pins
            // the entire multi-level construction bit-for-bit.
            steps: 1,
            gate_steps: None,
            golden_digest: Some(0x0b1d5783f16318b4),
            gates: Gates {
                mass: Some(0.15),
                momentum: None,
                angular_z: Some(1e-12),
                energy: None,
            },
            analytic: Some(v1309_analytic),
            localities: &[2],
        },
    ]
}

/// Look up one entry by name.
pub fn spec(name: &str) -> Option<ScenarioSpec> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_builders_match() {
        let reg = registry();
        assert!(reg.len() >= 5, "at least five scenarios registered");
        let mut names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate registry names");
        for spec in &reg {
            let scenario = (spec.build)();
            assert_eq!(scenario.name, spec.name, "builder/name mismatch");
            assert!(spec.steps > 0);
        }
    }

    #[test]
    fn state_digest_is_leaf_order_independent_and_state_sensitive() {
        let a = (spec("sod").unwrap().build)();
        let b = (spec("sod").unwrap().build)();
        assert_eq!(state_digest(&a.tree), state_digest(&b.tree), "same state, same digest");
        let mut c = (spec("sod").unwrap().build)();
        let key = c.tree.leaves()[0];
        let grid = c.tree.node_mut(key).unwrap().grid.as_mut().unwrap();
        let v = grid.at(octree::subgrid::Field::Rho, 0, 0, 0);
        grid.set(octree::subgrid::Field::Rho, 0, 0, 0, v + 1e-15);
        assert_ne!(state_digest(&a.tree), state_digest(&c.tree), "1-ulp change must be seen");
    }

    #[test]
    fn fixed_point_encoding_round_trips_and_saturates() {
        assert_eq!(to_fixed(0.0), 0);
        assert_eq!(to_fixed(1e-15), 1);
        assert_eq!(to_fixed(2.5e-12), 2500);
        assert_eq!(to_fixed(f64::INFINITY), u64::MAX);
    }
}
