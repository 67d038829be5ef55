//! The traced run: an outside-in replay of each layer on the
//! workload's own state.
//!
//! The workload is built and stepped as in the timed run; then the
//! harness takes the global leaf state and calls each layer's *public*
//! functions on it under its own spans. Timings are the median of up
//! to five calls after a warm-up (`Recorder::sample`); counts are exact
//! and checked to repeat. A layer the workload bypasses reports zero:
//! zero solves on `hydro_blast`, zero parcels on one locality.

use crate::metrics::{Workload, PER_LAYER};
use crate::spans::Recorder;
use crate::workloads::{cluster, scenario, spec_of, timed_build, Driver, THREADS};
use crate::{ladder, stats};
use amt::Runtime;
use gravity::solver::FmmSolver;
use hydro::flux::StateVec;
use hydro::step::HydroStepper;
use octotiger::scenarios::ScenarioSpec;
use octotiger::{Config, DistributedDriver, Scenario, Simulation};
use octree::halo::fill_all_halos_parallel;
use octree::shard::ShardMap;
use octree::subgrid::N_SUB;
use octree::tree::Octree;
use scf::binary::BinaryModel;
use std::sync::Arc;
use std::time::Instant;

/// First-shard share of the deliberately skewed partition the rebalance
/// timing starts from (the `rebalance_bench` value).
const SKEW_PERMILLE: u32 = 850;

pub fn run_traced(w: &Workload, seed: u64, seconds: f64, quick: bool) -> Result<Recorder, String> {
    let spec = spec_of(w);
    let mut rec = Recorder::new(if quick { 0.0 } else { seconds / 25.0 });
    for m in &PER_LAYER {
        rec.set(m.name, 0.0);
    }

    scf_layer(&mut rec, &spec);
    let (mut driver, _) = timed_build(w, &spec, seed)?;
    let config = driver.config();
    steps(&mut rec, &mut driver, seconds, quick)?;
    if let Driver::Dist(d) = &driver {
        distributed_layers(&mut rec, w, &spec, seed, d)?;
    }
    let state = driver.with_tree(Octree::clone);
    // The replay runs on its own runtime; the driver's threads go first.
    drop(driver);
    let replay = rec.open("replay");
    rec.parent = Some(replay);
    local_layers(&mut rec, state, config);
    ladder::run(&mut rec, seed);
    rec.parent = None;
    rec.close(replay);
    Ok(rec)
}

/// `scf`: the stellar model and its painting, the part of set-up that
/// belongs to this layer.
fn scf_layer(rec: &mut Recorder, spec: &ScenarioSpec) {
    let model: fn() -> BinaryModel = match spec.name {
        "mini_binary" => || BinaryModel::scaled(1.0, 0.3, 3.0),
        "v1309" => BinaryModel::v1309,
        _ => return,
    };
    rec.sample_ms("scf.model_build_ms", || {
        std::hint::black_box(model());
    });
    let Scenario {
        mut tree, config, ..
    } = (spec.build)();
    let model = model();
    rec.sample_ms("scf.paint_ms", || model.paint(&mut tree, &config.eos));
}

/// The per-step metrics that are counter deltas over one step, in the
/// order [`read_counters`] reads them.
const PER_STEP: [&str; 8] = [
    "amt.tasks_per_step",
    "amt.steals_per_step",
    "core.halo_parcels_per_step",
    "core.halo_bytes_per_step",
    "core.moment_parcels_per_step",
    "core.moment_bytes_per_step",
    "parcelport.parcels_per_step",
    "parcelport.bytes_per_step",
];
/// Steals depend on scheduling; every other per-step count is exact.
const STEALS: usize = 1;
const WIRE_PARCELS: usize = 6;
const WIRE_BYTES: usize = 7;

/// Task and traffic counters of the running driver, as [`PER_STEP`]
/// orders them. One locality sends nothing.
fn read_counters(driver: &Driver) -> [u64; 8] {
    match driver {
        Driver::Single(sim) => {
            let m = sim.runtime().metrics();
            [
                m.get("tasks/executed"),
                m.get("tasks/stolen"),
                0,
                0,
                0,
                0,
                0,
                0,
            ]
        }
        Driver::Dist(d) => {
            let m = d.cluster().metrics();
            let per_locality = |name: &str| -> u64 {
                (0..d.cluster().len())
                    .map(|i| m.get(&format!("locality/{i}/{name}")))
                    .sum()
            };
            [
                per_locality("tasks/executed"),
                per_locality("tasks/stolen"),
                m.get("driver/halo/parcels_tx"),
                m.get("driver/halo/bytes_tx"),
                m.get("driver/moments/parcels_tx"),
                m.get("driver/moments/bytes_tx"),
                m.get("parcelport/libfabric/parcels_tx"),
                m.get("parcelport/libfabric/bytes_tx"),
            ]
        }
    }
}

/// `core`: the step itself, untraced and spanned. The first step warms
/// up; then spanned and untraced steps alternate while a third of the
/// run's time allows, and the difference of their medians is the
/// tracing overhead (near zero by construction: the spans live out
/// here, not in the program).
fn steps(rec: &mut Recorder, driver: &mut Driver, seconds: f64, quick: bool) -> Result<(), String> {
    let t0 = Instant::now();
    rec.attempted += 1;
    driver.step()?;
    let warm = t0.elapsed().as_secs_f64();
    let pairs = if quick {
        0
    } else {
        ((seconds / 3.0 / (2.0 * warm)) as usize).min(3)
    };

    let mut spanned = Vec::new();
    // Too slow to afford an untraced step of its own: the warm-up is
    // the untraced sample.
    let mut untraced = if pairs == 0 { vec![warm] } else { Vec::new() };
    let mut per_step: Option<[u64; 8]> = None;
    for pair in 0..pairs.max(1) {
        rec.step_id = pair as u64 + 1;
        let base = read_counters(driver);
        let (result, s) = rec.call("core.step_ms", || driver.step());
        result?;
        spanned.push(s);
        let now = read_counters(driver);
        let delta: [u64; 8] = std::array::from_fn(|i| now[i] - base[i]);
        let first = *per_step.get_or_insert(delta);
        for i in (0..PER_STEP.len()).filter(|&i| i != STEALS) {
            rec.expect_equal(PER_STEP[i], first[i], delta[i]);
        }
        if pairs > 0 {
            let t0 = Instant::now();
            rec.attempted += 1;
            driver.step()?;
            untraced.push(t0.elapsed().as_secs_f64());
        }
    }
    rec.step_id = 0;

    let step_ms = rec.set(
        "core.step_ms",
        stats::median(&spanned).expect("one spanned step") * 1e3,
    );
    let untraced_ms = rec.set(
        "core.untraced_step_ms",
        stats::median(&untraced).expect("one untraced step") * 1e3,
    );
    rec.set("core.trace_overhead_ms", step_ms - untraced_ms);

    let c = per_step.expect("one spanned step");
    for (metric, count) in PER_STEP.into_iter().zip(c) {
        rec.set(metric, count as f64);
    }
    if let Driver::Dist(d) = driver {
        // Wire time of that traffic under the Aries cost model, every
        // parcel charged the transfer time of the mean parcel size. The
        // in-process transport moves bytes at memcpy speed, so this is
        // simulated time, not something the host clock saw.
        let mean = c[WIRE_BYTES].checked_div(c[WIRE_PARCELS]).unwrap_or(0) as usize;
        let wire_us = d.cluster().net_params().transfer_time_us(mean) * c[WIRE_PARCELS] as f64;
        rec.set("parcelport.modeled_wire_ms_per_step", wire_us / 1e3);
    }
    Ok(())
}

/// What only the distributed driver has: the partition and its halo
/// plan, the traffic amplification over that plan, and the write side
/// of the distributed state (assemble, checkpoint, restore, rebalance).
fn distributed_layers(
    rec: &mut Recorder,
    w: &Workload,
    spec: &ScenarioSpec,
    seed: u64,
    d: &DistributedDriver,
) -> Result<(), String> {
    let n = w.localities;
    let tree = d.assemble();

    let mut planned = Vec::new();
    let mut errors = Vec::new();
    rec.sample_ms("octree.partition_ms", || {
        match ShardMap::partition(&tree, n) {
            Ok(map) => {
                let plan = map.halo_push_plan(&tree);
                planned.push(
                    plan.iter()
                        .flat_map(|by_dst| by_dst.values())
                        .map(Vec::len)
                        .sum::<usize>(),
                );
            }
            Err(e) => errors.push(e.to_string()),
        }
    });
    if let Some(e) = errors.pop() {
        return Err(format!("partition: {e}"));
    }
    let plan_parcels = planned[0] as u64;
    for &p in &planned {
        rec.expect_equal("octree.halo_plan_parcels", plan_parcels, p as u64);
    }
    rec.set("octree.halo_plan_parcels", plan_parcels as f64);
    let per_step = rec.metrics["parcelport.parcels_per_step"];
    rec.set(
        "core.parcel_amplification",
        per_step / (plan_parcels as f64).max(1.0),
    );
    rec.set("core.imbalance_permille", d.imbalance_permille() as f64);

    rec.sample_ms("core.assemble_ms", || {
        std::hint::black_box(d.assemble());
    });

    let mut blobs = Vec::new();
    rec.sample_ms("core.checkpoint_encode_ms", || blobs.push(d.checkpoint()));
    let blob = match blobs.pop().expect("sampled at least once") {
        Ok(blob) => blob,
        Err(e) => return Err(format!("checkpoint: {e}")),
    };
    rec.set("core.checkpoint_bytes", blob.len() as f64);

    let mut restored_steps = Vec::new();
    let (restore_s, _) = rec.sample_prepared(
        "core.restore_ms",
        || (scenario(spec, seed), cluster(n)),
        |(sc, cl)| {
            restored_steps.push(
                cl.and_then(|cl| {
                    DistributedDriver::restore(sc, cl, &blob).map_err(|e| e.to_string())
                })
                .map(|r| r.steps),
            );
        },
    );
    rec.set("core.restore_ms", restore_s * 1e3);
    for r in restored_steps {
        match r {
            Ok(steps) => rec.expect_equal("restored step count", d.steps, steps),
            Err(e) => rec.fail(format!("restore: {e}")),
        }
    }

    // A second driver on a skewed partition: one forced rebalance. It
    // changes the partition, so it is a single call, not a median.
    let mut skewed = DistributedDriver::builder(scenario(spec, seed), cluster(n)?)
        .skewed_partition(SKEW_PERMILLE)
        .build()
        .map_err(|e| format!("skewed driver: {e}"))?;
    let (moved, s) = rec.call("core.rebalance_ms", || skewed.rebalance());
    match moved {
        Ok(0) => rec.fail("rebalance of a skewed partition moved no leaf".into()),
        Ok(_) => {}
        Err(e) => rec.fail(format!("rebalance: {e}")),
    }
    rec.set("core.rebalance_ms", s * 1e3);
    rec.set(
        "core.migrated_bytes",
        skewed.cluster().metrics().get("driver/migrated_bytes") as f64,
    );
    Ok(())
}

/// `octree`, `hydro`, `gravity` and the rest of `core` on the global
/// leaf state, one worker as in the drivers.
fn local_layers(rec: &mut Recorder, state: Octree, config: Config) {
    let rt = Runtime::new(THREADS);
    let leaves = state.leaves();
    let n_leaves = leaves.len() as f64;
    let domain = state.domain();
    let mut tree = Arc::new(state);

    let halo_ms = rec.sample_ms("octree.halo_fill_ms", || {
        fill_all_halos_parallel(&mut tree, config.bc, &rt)
    });
    rec.set("octree.halo_fill_us_per_leaf", halo_ms * 1e3 / n_leaves);
    let restrict_ms = rec.sample_ms("octree.restrict_all_ms", || {
        Arc::get_mut(&mut tree)
            .expect("the runtime is quiescent between calls")
            .restrict_all()
    });

    // `compute_dt` is a method of the driver: a simulation over the
    // same state provides it.
    let sim = Simulation::new(Scenario {
        name: "replay",
        tree: Octree::clone(&tree),
        config,
        binary: None,
    });
    let mut dt = 0.0;
    let dt_ms = rec.sample_ms("core.compute_dt_ms", || dt = sim.compute_dt());
    drop(sim);

    // hydro: plain serial sweeps over every leaf, ghosts filled above.
    let stepper = HydroStepper::new(config.eos);
    rec.sample_ms("hydro.signal_speed_ms", || {
        for &key in &leaves {
            let grid = tree.node(key).expect("leaf").grid.as_ref().expect("grid");
            std::hint::black_box(stepper.max_signal_speed(grid));
        }
    });
    let mut rhs: Vec<Vec<StateVec>> = Vec::new();
    let rhs_ms = rec.sample_ms("hydro.rhs_ms", || {
        rhs = leaves
            .iter()
            .map(|&key| {
                let grid = tree.node(key).expect("leaf").grid.as_ref().expect("grid");
                stepper.dudt(grid, domain.cell_dx(key.level))
            })
            .collect();
    });
    rec.set(
        "hydro.rhs_ns_per_cell",
        rhs_ms * 1e6 / (n_leaves * (N_SUB * N_SUB * N_SUB) as f64),
    );
    // Both RK stages' updates of every leaf, each on a fresh copy of
    // the grids (the copy is made outside the span).
    let (apply_s, _) = rec.sample_prepared(
        "hydro.apply_ms",
        || {
            leaves
                .iter()
                .map(|&key| tree.node(key).expect("leaf").grid.clone().expect("grid"))
                .collect::<Vec<_>>()
        },
        |mut grids| {
            for ((grid, &key), rhs) in grids.iter_mut().zip(&leaves).zip(&rhs) {
                let origin = domain.node_origin(key);
                let dx = domain.cell_dx(key.level);
                let old = grid.clone();
                stepper.apply(grid, rhs, dt);
                if config.floors {
                    stepper.enforce_floors(grid, origin, dx);
                }
                stepper.apply_rk2_final(grid, &old, rhs, dt);
                if config.floors {
                    stepper.enforce_floors(grid, origin, dx);
                }
                stepper.resync_tau(grid);
            }
            std::hint::black_box(grids);
        },
    );
    let apply_ms = rec.set("hydro.apply_ms", apply_s * 1e3);

    let solve_ms = if config.gravity {
        gravity_layer(rec, &tree, &rt, config)
    } else {
        0.0
    };

    // One step is two halo fills, one dt reduce, two gravity solves,
    // two RHS sweeps, the updates and one restriction.
    let sum = 2.0 * halo_ms + dt_ms + 2.0 * solve_ms + 2.0 * rhs_ms + apply_ms + restrict_ms;
    let step_ms = rec.metrics["core.step_ms"];
    rec.set("core.replay_sum_ms", sum);
    rec.set("core.step_coverage", sum / step_ms);
    rec.set("core.unattributed_ms", step_ms - sum);
}

/// `gravity`: the futurized solve as the drivers run it, the plain
/// single-thread solve as the baseline, and the moment pass alone.
/// Returns `gravity.solve_ms`.
fn gravity_layer(rec: &mut Recorder, tree: &Arc<Octree>, rt: &Arc<Runtime>, config: Config) -> f64 {
    // Built exactly as `Simulation::new` builds its solver.
    let solver = Arc::new(
        FmmSolver::new(config.theta)
            .with_chunk_cells(config.fmm_chunk_cells)
            .with_aggregation(config.fmm_agg_slots, config.fmm_agg_window),
    );
    let chunks = rt.metrics().counter("fmm/chunks");
    // (interactions, chunk tasks) of every futurized solve, and the
    // scratch pool's (hits, misses) before the last one.
    let mut counts: Vec<(u64, u64)> = Vec::new();
    let mut scratch_before = (0, 0);
    let solve_ms = rec.sample_ms("gravity.solve_ms", || {
        let before = chunks.get();
        scratch_before = (solver.scratch().hits(), solver.scratch().misses());
        let field = solver.solve_parallel(tree, rt);
        counts.push((field.interactions, chunks.get() - before));
    });
    let (interactions, chunk_tasks) = counts[0];
    for &(i, c) in &counts {
        rec.expect_equal("gravity.interactions_per_solve", interactions, i);
        rec.expect_equal("gravity.chunks_per_solve", chunk_tasks, c);
    }
    // Of the last solve alone: with a single sample that is a cold
    // pool, otherwise a warm one.
    let hits = solver.scratch().hits() - scratch_before.0;
    let misses = solver.scratch().misses() - scratch_before.1;
    rec.set(
        "gravity.scratch_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    rec.set("gravity.interactions_per_solve", interactions as f64);
    rec.set("gravity.chunks_per_solve", chunk_tasks as f64);
    rec.set(
        "gravity.ns_per_interaction",
        solve_ms * 1e6 / (interactions as f64).max(1.0),
    );

    let mut serial_interactions = Vec::new();
    rec.sample_ms("gravity.solve_serial_ms", || {
        serial_interactions.push(solver.solve(tree).interactions)
    });
    for i in serial_interactions {
        rec.expect_equal("serial vs futurized interactions", interactions, i);
    }
    rec.sample_ms("gravity.moments_ms", || {
        std::hint::black_box(solver.compute_moments_parallel(tree, rt));
    });
    solve_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::workload;

    /// The full replay of the smallest workload reports every per-layer
    /// metric, zero where the workload bypasses the layer.
    #[test]
    fn quick_replay_reports_every_metric() {
        let rec = run_traced(workload("hydro_blast").unwrap(), 1, 0.0, true).unwrap();
        assert_eq!(rec.failures, Vec::<String>::new());
        let names: Vec<&str> = rec.metrics.keys().copied().collect();
        let mut want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        for (name, v) in &rec.metrics {
            assert!(v.is_finite(), "{name} = {v}");
        }
        // Gravity is off and there is one locality.
        for bypassed in [
            "gravity.solve_ms",
            "gravity.interactions_per_solve",
            "parcelport.parcels_per_step",
        ] {
            assert_eq!(rec.metrics[bypassed], 0.0, "{bypassed}");
        }
        for worked in [
            "octree.halo_fill_ms",
            "hydro.rhs_ms",
            "core.step_ms",
            "amt.tasks_per_step",
        ] {
            assert!(rec.metrics[worked] > 0.0, "{worked}");
        }
        // The ladder is independent of the workload.
        for m in PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("perfmodel."))
        {
            assert!(rec.metrics[m.name] > 0.0, "{}", m.name);
        }
        assert!(rec
            .spans
            .iter()
            .any(|s| s.name == "core.step_ms" && s.step_id == 1));
    }
}
