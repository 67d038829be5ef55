//! Release-mode run of the scenario verification registry.
//!
//! Runs every entry of the `octotiger::scenarios` registry through its
//! gated run (conservation drifts per step, analytic tolerances, golden
//! state digest) and records per-scenario steps/s plus the headline
//! drifts. This is the long-horizon companion of the tier-1
//! `scenario_gate` test suite: the tests pin small step counts so they
//! stay debug-affordable; this bin runs the same gates in release and
//! additionally drives the binary-merger scenarios for an extended
//! window (`--long`) to chart angular-momentum drift and the
//! mass-transfer rate over O(100) steps.
//!
//! For every scenario with self-gravity it also prints, on stderr, what
//! the first FMM solve did with its pairs — counted : evaluated : full
//! body : lattice (`gravity::kernels::PairCounts`) — the numbers the
//! `scenario_gate` tests pin for `mini_binary` and `v1309`.
//!
//! Progress and gate failures go to stderr; stdout carries one JSON
//! object keyed by scenario name (plus `long_merger` under `--long`).
//! Exits non-zero if any registry gate fails.
//!
//! ```sh
//! cargo run --release -p bench --bin scenario_gate > scenarios.json
//! cargo run --release -p bench --bin scenario_gate -- --long  # extended merger run
//! cargo run --release -p bench --bin scenario_gate -- --print-digests
//! ```
//!
//! `--print-digests` also prints (on stderr) the `state_digest` of each
//! scenario at its pinned step in the form the registry pins as
//! `golden_digest`. Regenerate them only after an *intentional*
//! numerics change.

use amt::Metrics;
use octotiger::diagnostics::{binary_masses, totals};
use octotiger::scenarios::{registry, run_gate, to_fixed, GateRun};
use octotiger::Simulation;
use std::fmt::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let long = args.iter().any(|a| a == "--long");
    let print_digests = args.iter().any(|a| a == "--print-digests");

    let metrics = Metrics::new();
    let mut runs: Vec<GateRun> = Vec::new();
    let mut failed = false;
    for spec in registry() {
        let run = run_gate(&spec);
        eprintln!(
            "{:>14}: {} leaves, {} steps @ {:.1} steps/s | drift mass {:.2e} \
             momentum {:.2e} Lz {:.2e} | digest {:#018x}{}",
            run.name,
            run.leaves,
            run.steps,
            run.steps_per_sec,
            run.max_mass_drift,
            run.max_momentum_drift,
            run.max_angular_z_drift,
            run.digest,
            if run.passed() { "" } else { "  FAILED" },
        );
        for f in &run.failures {
            eprintln!("    gate: {f}");
        }
        if let Some(field) = Simulation::new((spec.build)()).solve_gravity() {
            eprintln!(
                "{:>14}  first solve, pairs counted : evaluated : full body : lattice = \
                 {} : {} : {} : {}",
                "",
                field.interactions,
                field.pairs_evaluated,
                field.pairs_full_body,
                field.pairs_lattice
            );
        }
        failed |= !run.passed();
        run.publish(&metrics);
        runs.push(run);
    }

    if print_digests {
        eprintln!("// pinned golden digests (registry order)");
        for run in &runs {
            eprintln!("    {:>14}: golden_digest: Some({:#018x}),", run.name, run.digest);
        }
    }

    // Extended merger window: the flagship claim is that z-angular
    // momentum stays machine-conserved over a long rotating-frame run,
    // while the donor actually loses mass through L1. O(100) steps of
    // mini_binary(2) in release.
    let mut long_section = String::new();
    if long {
        let steps = 100u64;
        let spec = registry().into_iter().find(|s| s.name == "mini_binary").unwrap();
        let mut sim = Simulation::new((spec.build)());
        let t0 = totals(sim.tree(), sim.solve_gravity().as_deref());
        let donor0 = binary_masses(sim.tree()).donor;
        let scale = t0.mass.max(1e-300);
        let wall = std::time::Instant::now();
        let mut max_lz = 0.0f64;
        for step in 1..=steps {
            sim.step();
            let now = totals(sim.tree(), sim.solve_gravity().as_deref());
            let lz = (now.angular.z - t0.angular.z).abs() / scale;
            max_lz = max_lz.max(lz);
            if step % 20 == 0 {
                eprintln!("  long[{step:>3}]: Lz drift {lz:.3e}");
            }
        }
        let elapsed = wall.elapsed().as_secs_f64();
        let donor1 = binary_masses(sim.tree()).donor;
        let rate = (donor0 - donor1) / (donor0 * sim.time);
        metrics.counter("scenario/angmom_drift").store(to_fixed(max_lz));
        metrics.counter("scenario/mass_transfer_rate").store(to_fixed(rate));
        eprintln!(
            "  long merger: {steps} steps in {elapsed:.1}s, max Lz drift {max_lz:.3e}, \
             mass transfer rate {rate:.3e}/t"
        );
        write!(
            long_section,
            ",\n  \"long_merger\": {{ \"steps\": {steps}, \"max_angmom_drift\": {max_lz:e}, \
             \"mass_transfer_rate\": {rate:e}, \"steps_per_sec\": {:.3} }}",
            steps as f64 / elapsed
        )
        .unwrap();
    }

    let mut section = String::from("{\n");
    for (i, run) in runs.iter().enumerate() {
        write!(
            section,
            "  \"{}\": {{ \"steps\": {}, \"leaves\": {}, \"steps_per_sec\": {:.3}, \
             \"max_mass_drift\": {:e}, \"max_angmom_drift\": {:e}, \
             \"mass_transfer_rate\": {:e}, \"digest\": \"{:#018x}\", \
             \"passed\": {} }}",
            run.name,
            run.steps,
            run.leaves,
            run.steps_per_sec,
            run.max_mass_drift,
            run.max_angular_z_drift,
            run.mass_transfer_rate,
            run.digest,
            run.passed(),
        )
        .unwrap();
        if i + 1 < runs.len() {
            section.push_str(",\n");
        }
    }
    section.push_str(&long_section);
    println!("{section}\n}}");

    if failed {
        eprintln!("scenario gates FAILED");
        std::process::exit(1);
    }
}
