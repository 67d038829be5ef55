//! Full-pipeline integration: scenarios through the complete driver
//! (AMR + halo + FMM + hydro + rotating frame), checking invariants the
//! paper claims.

use octotiger::diagnostics::{drift, totals};
use octotiger::{Scenario, Simulation};
use octree::subgrid::{Field, PASSIVE_SCALARS};
use util::vec3::Vec3;

#[test]
fn mini_binary_runs_with_all_physics_enabled() {
    let scenario = Scenario::mini_binary(2);
    assert!(scenario.config.gravity);
    assert!(scenario.config.omega > 0.0);
    let mut sim = Simulation::new(scenario);
    let start = totals(sim.tree(), None);
    for _ in 0..2 {
        let dt = sim.step();
        assert!(dt.is_finite() && dt > 0.0);
    }
    let end = totals(sim.tree(), None);
    // Mass conserved up to positivity-floor injections at the
    // under-resolved stellar edges (PPM undershoots on 8-decade density
    // contrasts get floored; see HydroStepper::enforce_floors).
    let d = drift(&start, &end, start.mass, start.mass);
    assert!(d.mass < 1e-3, "mass drift {}", d.mass);
    // Everything stays finite and the tree stays valid.
    sim.tree().check_invariants();
    for key in sim.tree().leaves() {
        let grid = sim.tree().node(key).unwrap().grid.as_ref().unwrap();
        for (i, j, k) in grid.indexer().interior() {
            assert!(grid.at(Field::Rho, i, j, k).is_finite());
            assert!(grid.at(Field::Rho, i, j, k) > 0.0, "density must stay positive (floor)");
            assert!(grid.at(Field::Egas, i, j, k).is_finite());
        }
    }
}

#[test]
fn passive_scalars_keep_partitioning_the_mass() {
    // §4.2: the five passive scalars evolve with the same continuity
    // equation as density, so their sum tracks rho. The PPM limiter is
    // nonlinear (the reconstruction of a sum is not the sum of
    // reconstructions), so the partition holds to truncation order, not
    // round-off — a few percent at this very coarse resolution.
    let mut sim = Simulation::new(Scenario::mini_binary(2));
    for _ in 0..2 {
        sim.step();
    }
    // Near-vacuum atmosphere cells have no meaningful relative scale;
    // check the partition where there is actual matter.
    let mut rho_peak: f64 = 0.0;
    for key in sim.tree().leaves() {
        let grid = sim.tree().node(key).unwrap().grid.as_ref().unwrap();
        for (i, j, k) in grid.indexer().interior() {
            rho_peak = rho_peak.max(grid.at(Field::Rho, i, j, k));
        }
    }
    let mut worst: f64 = 0.0;
    for key in sim.tree().leaves() {
        let grid = sim.tree().node(key).unwrap().grid.as_ref().unwrap();
        for (i, j, k) in grid.indexer().interior() {
            let rho = grid.at(Field::Rho, i, j, k);
            if rho < 1e-6 * rho_peak {
                continue;
            }
            let sum: f64 = PASSIVE_SCALARS
                .iter()
                .map(|f| grid.at(*f, i, j, k))
                .sum();
            worst = worst.max((sum - rho).abs() / rho);
        }
    }
    // At this deliberately coarse resolution the nonlinear limiter
    // mismatch between sum-of-scalars and density reconstructions is
    // large near the stellar edges; the guard is against gross
    // machinery errors (lost/duplicated scalar fluxes), not truncation.
    assert!(
        worst < 0.25,
        "passive scalars diverged from the density by {worst}"
    );
}

#[test]
fn moving_star_advects_at_the_right_speed() {
    let v = Vec3::new(0.3, 0.0, 0.0);
    let res = octotiger::verification::run_star(1, v, 5);
    // CoM displacement error small relative to the star radius (1.0).
    assert!(
        res.com_drift < 0.05,
        "moving star com error {}",
        res.com_drift
    );
    assert!(res.mass_drift < 1e-8, "mass drift {}", res.mass_drift);
}

#[test]
fn deeper_amr_keeps_the_binary_resolved() {
    let s3 = Scenario::mini_binary(2);
    let s4 = Scenario::mini_binary(3);
    assert!(s4.tree.leaf_count() > s3.tree.leaf_count());
    // The refined tree resolves a higher central density (less
    // smearing of the polytropic peak).
    let peak = |scenario: &Scenario| -> f64 {
        let mut p = 0.0f64;
        for key in scenario.tree.leaves() {
            let grid = scenario.tree.node(key).unwrap().grid.as_ref().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                p = p.max(grid.at(Field::Rho, i, j, k));
            }
        }
        p
    };
    assert!(peak(&s4) > peak(&s3));
}

#[test]
fn scheduler_counters_reflect_futurized_work() {
    let mut sim = Simulation::new(Scenario::sod(1));
    sim.step();
    let executed = sim.runtime().metrics().get("tasks/executed");
    // At least one task per leaf per RK stage.
    assert!(
        executed >= 2 * sim.tree().leaf_count() as u64,
        "only {executed} tasks executed"
    );
}
