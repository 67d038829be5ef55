//! Quickstart: evolve a self-gravitating polytropic star for a few
//! steps and watch the conserved quantities.
//!
//! ```sh
//! cargo run --release -p examples --bin quickstart
//! ```

use octotiger::diagnostics::{drift, totals};
use octotiger::{Scenario, Simulation};

fn main() {
    println!("octotiger-rs quickstart: a 1 Msun polytrope in equilibrium");
    println!("(the §4.2 'single star at rest' verification scenario)\n");

    let scenario = Scenario::single_star(1);
    let mut sim = Simulation::new(scenario);
    println!(
        "tree: {} sub-grids ({} cells), gravity {}",
        sim.tree().leaf_count(),
        sim.tree().leaf_count() * 512,
        if sim.config.gravity { "on" } else { "off" }
    );

    let start = totals(sim.tree(), None);
    println!(
        "t = 0.000: mass {:.6}, |P| {:.3e}, |L| {:.3e}, E {:.6}",
        start.mass,
        start.momentum.norm(),
        start.angular.norm(),
        start.energy()
    );

    for step in 1..=10 {
        let dt = sim.step();
        if step % 2 == 0 {
            let now = totals(sim.tree(), None);
            let d = drift(&start, &now, start.mass, start.mass);
            println!(
                "t = {:.3}: dt {:.2e}  mass drift {:.2e}  |dP|/Mc {:.2e}  |dL| {:.2e}",
                sim.time, dt, d.mass, d.momentum, d.angular
            );
        }
    }

    let end = totals(sim.tree(), None);
    let d = drift(&start, &end, start.mass, start.mass);
    println!("\nafter {} steps (t = {:.4}):", sim.steps, sim.time);
    println!("  mass drift:             {:.3e}", d.mass);
    println!("  momentum drift:         {:.3e}", d.momentum);
    println!("  angular momentum drift: {:.3e}", d.angular);
    println!("  sub-grids processed:    {}", sim.subgrids_processed);
    println!(
        "  scheduler tasks:        {}",
        sim.runtime().metrics().get("tasks/executed")
    );
    println!("\nThe star retains its structure; conservation holds to");
    println!("round-off (the paper's §4.2 test 3).");
}
