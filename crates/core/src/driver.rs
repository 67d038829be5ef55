//! The per-leaf kernels of a timestep, and the single-process entry
//! point.
//!
//! One step mirrors Octo-Tiger's structure (§4.2/§4.3): solve gravity
//! with the FMM → per leaf, gather the halo and take the hydro RHS with
//! gravity and rotating-frame sources → TVD-RK2 update, with the
//! per-sub-grid work futurized. That sequence is spelled out once, in
//! [`crate::distributed`]; this module holds the per-leaf kernels it
//! runs and [`Simulation`], the same driver on a private one-locality
//! loopback cluster — HPX's uniform local/remote semantics, where the
//! laptop run is the 1-node case of the cluster run, not a second code
//! path.

use crate::distributed::DistributedDriver;
use crate::scenario::Scenario;
use amt::trace::{self, TraceCategory};
use amt::Runtime;
use gravity::solver::GravityField;
use hydro::flux::StateVec;
use hydro::rotating::RotatingFrame;
use hydro::step::{cfl_dt, HydroStepper};
use octree::halo::{gather_ghosts, BoundaryCondition};
use octree::subgrid::{Field, SubGrid, N_SUB};
use octree::tree::Octree;
use parcelport::cluster::Cluster;
use std::cell::RefCell;
use std::sync::Arc;
use util::morton::MortonKey;
use util::vec3::Vec3;

// ---------------------------------------------------------------------
// Per-leaf kernels. Every leaf is advanced by exactly these functions
// whichever locality owns it, which is what makes the solve independent
// of the partition.

/// CFL-limited signal dt of one leaf.
pub(crate) fn leaf_signal_dt(
    tree: &Octree,
    key: MortonKey,
    stepper: HydroStepper,
    cfl: f64,
) -> f64 {
    let grid = tree.node(key).expect("leaf").grid.as_ref().expect("grid");
    let a = stepper.max_signal_speed(grid);
    cfl_dt(tree.domain().cell_dx(key.level), a, cfl)
}

/// Full RHS (hydro + gravity + rotating-frame sources) of one leaf,
/// written over `rhs` (one entry per interior cell). The flux sweep
/// runs on the leaf's grid with its ghosts gathered under `bc` from the
/// interiors of its halo sources, which must be current, into a
/// ghosted scratch grid of the calling thread — the only ghosted grid
/// a run makes. `grav`, when present, must cover `key`.
pub(crate) fn leaf_rhs(
    tree: &Octree,
    key: MortonKey,
    bc: BoundaryCondition,
    grav: Option<&GravityField>,
    stepper: HydroStepper,
    frame: RotatingFrame,
    rhs: &mut [StateVec],
) {
    // One per thread, never one per leaf: `gather_ghosts` overwrites
    // every cell, so the grid carries nothing from one leaf to the next.
    thread_local! {
        static GHOSTED: RefCell<SubGrid> = RefCell::new(SubGrid::ghosted());
    }
    let domain = tree.domain();
    let dx = domain.cell_dx(key.level);
    GHOSTED.with_borrow_mut(|ghosted| {
        {
            let _span = trace::span(TraceCategory::HaloFill);
            gather_ghosts(tree, key, bc, ghosted);
        }
        stepper.dudt_into(ghosted, dx, rhs);
    });
    // The sources read the interior only: the tree's grid serves.
    let grid = tree.node(key).expect("leaf").grid.as_ref().expect("grid");
    // Gravity sources: conservation-grade force density, energy power,
    // and the spin torque ledger. The ledger deposit is the *exact*
    // per-cell counter-torque `−r × f` of the force actually applied
    // ([`hydro::angmom::body_force_spin`]), not the solver's multipole-
    // distributed torque share: the share closes the global budget only
    // to the expansion's accuracy, and the residual — hidden by mirror
    // symmetry in inertial runs — leaks ~1e-8 of L_z per step once the
    // Coriolis force breaks that symmetry. With the exact deposit the
    // monitored `Σ (r × s + l) V` is invariant under gravity bitwise,
    // cell by cell, matching the frame-source and floor conventions.
    if let Some(g) = grav {
        if let Some(cells) = g.leaf(key) {
            let origin = domain.node_origin(key);
            let n = N_SUB as isize;
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let ci = ((i * n + j) * n + k) as usize;
                        let cg = &cells[ci];
                        let rho = grid.at(Field::Rho, i, j, k);
                        let s = Vec3::new(
                            grid.at(Field::Sx, i, j, k),
                            grid.at(Field::Sy, i, j, k),
                            grid.at(Field::Sz, i, j, k),
                        );
                        let u = if rho > 0.0 { s / rho } else { Vec3::ZERO };
                        rhs[ci][Field::Sx.idx()] += cg.force_density.x;
                        rhs[ci][Field::Sy.idx()] += cg.force_density.y;
                        rhs[ci][Field::Sz.idx()] += cg.force_density.z;
                        rhs[ci][Field::Egas.idx()] += cg.force_density.dot(u);
                        let r = Vec3::new(
                            origin.x + (i as f64 + 0.5) * dx,
                            origin.y + (j as f64 + 0.5) * dx,
                            origin.z + (k as f64 + 0.5) * dx,
                        );
                        let spin = hydro::angmom::body_force_spin(r, cg.force_density);
                        rhs[ci][Field::Lx.idx()] += spin.x;
                        rhs[ci][Field::Ly.idx()] += spin.y;
                        rhs[ci][Field::Lz.idx()] += spin.z;
                    }
                }
            }
        }
    }
    // Rotating-frame sources.
    frame.add_sources(grid, domain.node_origin(key), dx, rhs);
}

/// Stage-1 (forward Euler) update of one leaf; first copies the
/// pre-update grid the RK2 final stage needs over `prev`.
/// `origin`/`dx` locate the leaf so the floors can deposit removed
/// `r × s` into the spin ledger.
pub(crate) fn apply_stage1(
    stepper: HydroStepper,
    grid: &mut SubGrid,
    prev: &mut SubGrid,
    rhs: &[StateVec],
    dt: f64,
    floors: bool,
    origin: Vec3,
    dx: f64,
) {
    prev.clone_from(grid);
    stepper.apply(grid, rhs, dt);
    if floors {
        stepper.enforce_floors(grid, origin, dx);
    }
}

/// Stage-2 (TVD-RK2 average) update of one leaf with the grid
/// [`apply_stage1`] kept.
pub(crate) fn apply_stage2(
    stepper: HydroStepper,
    grid: &mut SubGrid,
    prev: &SubGrid,
    rhs: &[StateVec],
    dt: f64,
    floors: bool,
    origin: Vec3,
    dx: f64,
) {
    stepper.apply_rk2_final(grid, prev, rhs, dt);
    if floors {
        stepper.enforce_floors(grid, origin, dx);
    }
    stepper.resync_tau(grid);
}

/// A running single-process simulation: a [`DistributedDriver`] over a
/// private one-locality loopback cluster, with the infallible surface a
/// run without peers can offer.
///
/// Dereferences to the driver for everything read-only — `config`,
/// `time`, `steps`, `subgrids_processed`, … .
pub struct Simulation {
    driver: DistributedDriver,
}

impl std::ops::Deref for Simulation {
    type Target = DistributedDriver;

    fn deref(&self) -> &DistributedDriver {
        &self.driver
    }
}

/// A loopback cluster has no peer to lose, so what is left in a driver
/// error is a broken invariant, an invalid [`crate::Config`] or an
/// unusable state (a non-finite CFL dt) — the panics the single-process
/// API has always had.
fn infallible<T>(result: util::Result<T>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

impl Simulation {
    /// Build a simulation from a scenario, with `scenario.config.threads`
    /// workers. Panics when `scenario.config` fails
    /// [`Config::validate`](crate::Config::validate).
    pub fn new(scenario: Scenario) -> Simulation {
        let cluster = Cluster::builder().threads_per(scenario.config.threads).try_build();
        let driver = DistributedDriver::builder(scenario, Arc::new(infallible(cluster))).build();
        Simulation { driver: infallible(driver) }
    }

    /// The current tree, with a grid on every leaf and on no refined
    /// node: the state is stored once, on the leaves.
    pub fn tree(&self) -> &Octree {
        self.driver.mirror(0)
    }

    /// The runtime (for counter inspection).
    pub fn runtime(&self) -> &Arc<Runtime> {
        self.driver.cluster().locality(0).runtime()
    }

    /// Solve gravity for the current state; `None` when gravity is off.
    pub fn solve_gravity(&self) -> Option<Arc<GravityField>> {
        infallible(self.driver.solve_gravity()).pop().flatten()
    }

    /// Global CFL time step of the current state.
    pub fn compute_dt(&self) -> f64 {
        infallible(self.driver.compute_dt())
    }

    /// Advance one TVD-RK2 step; returns the dt taken.
    pub fn step(&mut self) -> f64 {
        infallible(self.driver.step())
    }

    /// Run `n` steps (or until `t_end`, whichever comes first); returns
    /// the simulated time advanced.
    pub fn run(&mut self, n: usize, t_end: f64) -> f64 {
        infallible(self.driver.run(n, t_end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{drift, totals};

    #[test]
    fn uniform_medium_stays_uniform() {
        // A constant state must be an exact fixed point of the full
        // driver (fluxes cancel, no gravity, no frame).
        let eos = hydro::eos::IdealGas::monatomic();
        let mut scenario = Scenario::sod(1);
        // Overwrite with a constant state.
        {
            for key in scenario.tree.leaves() {
                let node = scenario.tree.node_mut(key).unwrap();
                let grid = node.grid.as_mut().unwrap();
                for (i, j, k) in grid.indexer().interior() {
                    grid.set(Field::Rho, i, j, k, 1.0);
                    grid.set(Field::Sx, i, j, k, 0.0);
                    grid.set(Field::Sy, i, j, k, 0.0);
                    grid.set(Field::Sz, i, j, k, 0.0);
                    grid.set(Field::Egas, i, j, k, 1.5);
                    grid.set(Field::Tau, i, j, k, eos.tau_from_e(1.5));
                }
            }
        }
        let mut sim = Simulation::new(scenario);
        for _ in 0..3 {
            sim.step();
        }
        for key in sim.tree().leaves() {
            let grid = sim.tree().node(key).unwrap().grid.as_ref().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                assert!(
                    (grid.at(Field::Rho, i, j, k) - 1.0).abs() < 1e-12,
                    "uniform state drifted"
                );
            }
        }
        assert_eq!(sim.steps, 3);
        assert!(sim.time > 0.0);
        assert!(sim.subgrids_processed > 0);
    }

    #[test]
    fn centered_pulse_conserves_everything_to_machine_precision() {
        // A *compactly supported* pressure/density bump in a uniform
        // static ambient: until waves reach the boundary, the outflow
        // fluxes are exactly the constant ambient pressure on all six
        // faces, which cancels bit-exactly — so mass, momentum, angular
        // momentum (orbital + spin), and energy must be conserved to
        // machine precision. (A Gaussian pulse's infinite tails leak
        // ~1e-8 through the boundary; the Sod tube legitimately gains
        // momentum from its asymmetric boundary pressures.)
        let eos = hydro::eos::IdealGas::monatomic();
        let mut scenario = Scenario::sod(1);
        {
            let domain = scenario.tree.domain();
            for key in scenario.tree.leaves() {
                let node = scenario.tree.node_mut(key).unwrap();
                let grid = node.grid.as_mut().unwrap();
                for (i, j, k) in grid.indexer().interior() {
                    let c = domain.cell_center(key, i, j, k);
                    // An asymmetric (off-centre, tilted) pulse, so the
                    // cancellation is not helped by grid symmetry.
                    let r = (c - Vec3::new(0.03, -0.02, 0.01)).norm();
                    let support = 0.12;
                    let bump = if r < support {
                        let w = (std::f64::consts::PI * r / (2.0 * support)).cos();
                        w * w
                    } else {
                        0.0
                    };
                    let rho = 1.0 + 2.0 * bump;
                    let e_int = 1.0 + 5.0 * bump;
                    grid.set(Field::Rho, i, j, k, rho);
                    grid.set(Field::Sx, i, j, k, 0.0);
                    grid.set(Field::Sy, i, j, k, 0.0);
                    grid.set(Field::Sz, i, j, k, 0.0);
                    grid.set(Field::Egas, i, j, k, e_int);
                    grid.set(Field::Tau, i, j, k, eos.tau_from_e(e_int));
                }
            }
        }
        scenario.config.eos = eos;
        let mut sim = Simulation::new(scenario);
        let start = totals(sim.tree(), None);
        for _ in 0..4 {
            sim.step();
        }
        let end = totals(sim.tree(), None);
        let mom_scale = start.mass; // ~ M · c with c ~ 1
        let d = drift(&start, &end, mom_scale, mom_scale);
        // Interior transport is exactly conservative (fluxes telescope
        // bit-identically across sub-grid faces); what remains is the
        // truncation-tail of the stencil reaching the outflow boundary
        // on this deliberately tiny 16-cell domain — a few 1e-12.
        assert!(d.mass < 1e-11, "mass drift {}", d.mass);
        assert!(d.momentum < 1e-11, "momentum drift {}", d.momentum);
        assert!(d.angular < 1e-11, "angular momentum drift {}", d.angular);
        assert!(d.energy < 1e-11, "energy drift {}", d.energy);
    }

    /// `max_signal_speed` recovers each cell's primitive once, a row at
    /// a time; the CFL step it feeds must equal, bit for bit, the fold
    /// it replaced — three `physical_flux` evaluations per cell, cells
    /// in interior order, axes 0, 1, 2 — on a blast and on a binary,
    /// before and after a step.
    #[test]
    fn compute_dt_equals_the_three_flux_fold() {
        for scenario in [Scenario::sedov(2, 1.0), Scenario::mini_binary(2)] {
            let name = scenario.name;
            let (eos, cfl) = (scenario.config.eos, scenario.config.cfl);
            let mut sim = Simulation::new(scenario);
            for step in 0..2 {
                let tree = sim.tree();
                let mut want = f64::INFINITY;
                for key in tree.leaves() {
                    let grid = tree.node(key).unwrap().grid.as_ref().unwrap();
                    let mut max = 0.0f64;
                    for (i, j, k) in grid.indexer().interior() {
                        let u: StateVec =
                            octree::subgrid::ALL_FIELDS.map(|f| grid.at(f, i, j, k));
                        for axis in 0..3 {
                            max = max.max(hydro::flux::physical_flux(&eos, &u, axis).1);
                        }
                    }
                    want = want.min(cfl_dt(tree.domain().cell_dx(key.level), max, cfl));
                }
                assert_eq!(sim.compute_dt().to_bits(), want.to_bits(), "{name} at step {step}");
                assert_eq!(sim.step().to_bits(), want.to_bits(), "{name}: step {step}'s dt");
            }
            assert_eq!(sim.dt_history.len(), 2);
        }
    }

    #[test]
    fn sod_develops_the_wave_structure() {
        let mut sim = Simulation::new(Scenario::sod(2));
        // Run to t ~ 0.1 (domain edge 1.0).
        while sim.time < 0.1 && sim.steps < 200 {
            sim.step();
        }
        assert!(sim.time >= 0.1, "too many steps: {}", sim.steps);
        // Density between the initial states must appear (rarefaction/
        // contact/shock fan).
        let mut intermediate = false;
        for key in sim.tree().leaves() {
            let grid = sim.tree().node(key).unwrap().grid.as_ref().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                let rho = grid.at(Field::Rho, i, j, k);
                if rho > 0.2 && rho < 0.9 {
                    intermediate = true;
                }
            }
        }
        assert!(intermediate, "no wave structure formed");
    }

    #[test]
    fn self_gravitating_step_runs() {
        let mut sim = Simulation::new(Scenario::single_star(1));
        let g = sim.solve_gravity().expect("gravity enabled");
        // The star's own field points inward: at the centre |g| ~ 0.
        let dt = sim.step();
        assert!(dt > 0.0);
        drop(g);
        let t = totals(sim.tree(), None);
        assert!(t.mass > 0.9, "star mass present: {}", t.mass);
    }
}
