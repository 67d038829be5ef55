//! Hydro solver micro-benchmarks: the per-sub-grid PPM + KT flux sweep
//! (the non-FMM part of the Table 2 runtimes) and a full driver step on
//! a small tree.

use criterion::{criterion_group, criterion_main, Criterion};
use hydro::eos::IdealGas;
use hydro::step::HydroStepper;
use octotiger::{Scenario, Simulation};
use octree::subgrid::{Field, SubGrid};
use std::hint::black_box;
use util::vec3::Vec3;

fn filled_grid() -> SubGrid {
    let eos = IdealGas::monatomic();
    let mut g = SubGrid::new();
    let indexer = g.indexer();
    for (i, j, k) in indexer.all() {
        let rho = 1.0 + 0.1 * ((i + 2 * j + 3 * k).rem_euclid(7)) as f64;
        let v = Vec3::new(0.1 * i as f64, -0.05 * j as f64, 0.02 * k as f64);
        let e = 1.0 + 0.2 * ((i * j).rem_euclid(5)) as f64;
        g.set(Field::Rho, i, j, k, rho);
        g.set(Field::Sx, i, j, k, rho * v.x);
        g.set(Field::Sy, i, j, k, rho * v.y);
        g.set(Field::Sz, i, j, k, rho * v.z);
        g.set(Field::Egas, i, j, k, e + 0.5 * rho * v.norm2());
        g.set(Field::Tau, i, j, k, eos.tau_from_e(e));
    }
    g
}

fn bench_hydro(c: &mut Criterion) {
    let stepper = HydroStepper::new(IdealGas::monatomic());
    let grid = filled_grid();

    let mut group = c.benchmark_group("hydro");
    group.sample_size(20);
    group.bench_function("subgrid_rhs_ppm_kt", |b| {
        b.iter(|| black_box(stepper.dudt(&grid, 0.1)))
    });
    // The same sweep into a standing buffer, as the driver runs it: the
    // gap to the case above is what allocating the result costs.
    group.bench_function("subgrid_rhs_ppm_kt_into", |b| {
        let mut rhs = stepper.dudt(&grid, 0.1);
        b.iter(|| {
            stepper.dudt_into(black_box(&grid), 0.1, &mut rhs);
            black_box(&mut rhs);
        })
    });
    group.bench_function("max_signal_speed", |b| {
        b.iter(|| black_box(stepper.max_signal_speed(&grid)))
    });
    group.finish();

    let mut group = c.benchmark_group("driver");
    group.sample_size(10);
    group.bench_function("sod_step_level1", |b| {
        let mut sim = Simulation::new(Scenario::sod(1));
        b.iter(|| black_box(sim.step()))
    });
    group.finish();
}

criterion_group!(benches, bench_hydro);
criterion_main!(benches);
