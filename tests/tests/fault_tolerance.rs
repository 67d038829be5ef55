//! Fault-tolerance suite for the distributed stepper.
//!
//! Two claims from the fault-tolerant parcelport work are proven here:
//!
//! 1. **Reliable delivery is exact**: under any seeded fault plan
//!    *without* a crash (drops, duplicates, delays, reorders), the
//!    distributed driver's results are bit-identical to the fault-free
//!    run — effectively-once action semantics end to end (property
//!    test over seeds, 2 and 4 localities, both transports).
//! 2. **Checkpoint/restart is exact**: a 2-locality run killed
//!    mid-step by an injected locality crash, restored from its latest
//!    checkpoint onto a fresh cluster, reproduces the uninterrupted
//!    run's per-step dts and final grids bit-for-bit (`f64::to_bits`,
//!    no tolerances) — on both transports, including a restore onto a
//!    *different* locality count (crashed shards re-adopted by the
//!    survivors).

use integration_tests::assert_trees_bit_identical;
use octotiger::{DistributedDriver, Scenario, Simulation};
use octree::tree::Octree;
use parcelport::cluster::Cluster;
use parcelport::fault::FaultPlan;
use parcelport::netmodel::TransportKind;
use parcelport::reliable::ReliablePolicy;
use proptest::prelude::*;
use std::sync::Arc;
use util::Error;

/// A retransmit ladder short enough for debug-build tests while still
/// surviving repeated drops of the same frame.
fn test_policy() -> ReliablePolicy {
    ReliablePolicy { initial_backoff_ticks: 64, max_backoff_ticks: 1024, max_retries: 32 }
}

/// The headline acceptance test: kill a 2-locality run mid-step via an
/// injected crash of locality 1, restore from the latest checkpoint,
/// and demand the continued run be bitwise indistinguishable from an
/// uninterrupted one — per-step dts and every grid value.
#[test]
fn killed_run_restored_from_checkpoint_matches_uninterrupted_run() {
    const STEPS: usize = 4;
    // Uninterrupted reference: the shared-memory driver, which the
    // distributed determinism suite already proves bit-identical to
    // the fault-free distributed run at any locality count.
    let mut reference = Simulation::new(Scenario::sod_amr());
    let ref_dts: Vec<f64> = (0..STEPS).map(|_| reference.step()).collect();

    for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
        // Probe run: an *eventless* fault plan on an otherwise
        // identical cluster counts locality 1's transport-level sends
        // per step, so the real run can be crashed mid-step 2
        // deterministically (fault injection is seeded and counts the
        // same sends).
        let probe_cluster = Arc::new(
            Cluster::builder()
                .localities(2)
                .threads_per(2)
                .transport(kind)
                .fault_plan(FaultPlan::seeded(0xFA17))
                .reliable(test_policy())
                .build(),
        );
        let mut probe =
            DistributedDriver::builder(Scenario::sod_amr(), Arc::clone(&probe_cluster))
                .build()
                .expect("probe driver");
        probe.step().expect("probe step 1");
        let s1 = probe_cluster.fault_layer().expect("fault layer").sends_from(1);
        probe.step().expect("probe step 2");
        let s2 = probe_cluster.fault_layer().expect("fault layer").sends_from(1);
        assert!(s2 > s1, "{kind}: locality 1 must send during step 2");
        let crash_at = s1 + (s2 - s1) / 2;

        // The doomed run: same seed, same fabric, plus the crash.
        let cluster = Arc::new(
            Cluster::builder()
                .localities(2)
                .threads_per(2)
                .transport(kind)
                .fault_plan(FaultPlan::seeded(0xFA17).crash(1, crash_at))
                .reliable(test_policy())
                .build(),
        );
        let mut doomed = DistributedDriver::builder(Scenario::sod_amr(), Arc::clone(&cluster))
            .build()
            .expect("driver");
        let mut latest: Option<bytes::Bytes> = None;
        let mut survived = 0usize;
        for (s, &dt_ref) in ref_dts.iter().enumerate() {
            match doomed.step() {
                Ok(dt) => {
                    assert_eq!(dt.to_bits(), dt_ref.to_bits(), "{kind}: pre-crash dt {s}");
                    latest = Some(doomed.checkpoint().expect("checkpoint"));
                    survived += 1;
                }
                Err(Error::LocalityCrashed(loc)) => {
                    assert_eq!(loc, 1, "{kind}: the injected crash is locality 1");
                    break;
                }
                Err(e) => panic!("{kind}: unexpected error: {e}"),
            }
        }
        assert!(survived >= 1, "{kind}: step 1 must complete before the crash");
        assert!(survived < STEPS, "{kind}: the crash must interrupt the run");
        assert_eq!(cluster.failed_localities(), vec![1], "{kind}: crash must be detected");
        let blob = latest.expect("at least one checkpoint was cut");

        // Restore onto a fresh, fault-free cluster and finish the run.
        let fresh = Arc::new(
            Cluster::builder().localities(2).threads_per(2).transport(kind).build(),
        );
        let mut restored =
            DistributedDriver::restore(Scenario::sod_amr(), fresh, &blob).expect("restore");
        assert_eq!(restored.steps as usize, survived, "{kind}: restored step index");
        assert_eq!(restored.dt_history.len(), survived, "{kind}: restored dt history");
        for (s, &dt_ref) in ref_dts.iter().enumerate().take(survived) {
            assert_eq!(
                restored.dt_history[s].to_bits(),
                dt_ref.to_bits(),
                "{kind}: restored dt history entry {s}"
            );
        }
        for (s, &dt_ref) in ref_dts.iter().enumerate().skip(survived) {
            let dt = restored.step().expect("post-restore step");
            assert_eq!(dt.to_bits(), dt_ref.to_bits(), "{kind}: post-restore dt {s}");
        }
        assert_trees_bit_identical(
            &restored.assemble(),
            reference.tree(),
            &format!("{kind}: restored final state"),
        );
    }
}

/// Shard re-adoption: the checkpoint stores leaves, not shards, so a
/// blob cut on a 2-locality cluster restores onto a *different*
/// locality count — the survivors adopt the dead locality's leaves —
/// and the continuation stays bit-identical.
#[test]
fn checkpoint_restores_onto_a_different_locality_count() {
    const STEPS: usize = 3;
    let mut reference = Simulation::new(Scenario::sod_amr());
    let ref_dts: Vec<f64> = (0..STEPS).map(|_| reference.step()).collect();

    let writer_cluster = Arc::new(Cluster::builder().localities(2).threads_per(2).build());
    let mut writer =
        DistributedDriver::builder(Scenario::sod_amr(), writer_cluster).build().expect("driver");
    let dt = writer.step().expect("step 1");
    assert_eq!(dt.to_bits(), ref_dts[0].to_bits());
    let blob = writer.checkpoint().expect("checkpoint");

    // One survivor and three localities both re-partition the same
    // leaf set and continue exactly.
    for n in [1usize, 3] {
        let cluster = Arc::new(Cluster::builder().localities(n).threads_per(2).build());
        let mut restored =
            DistributedDriver::restore(Scenario::sod_amr(), cluster, &blob).expect("restore");
        for (s, &dt_ref) in ref_dts.iter().enumerate().skip(1) {
            let dt = restored.step().expect("step");
            assert_eq!(dt.to_bits(), dt_ref.to_bits(), "x{n}: dt of step {s}");
        }
        assert_trees_bit_identical(
            &restored.assemble(),
            reference.tree(),
            &format!("x{n}: re-adopted final state"),
        );
    }
}

/// A checkpoint from the wrong scenario topology must be rejected, not
/// silently applied.
#[test]
fn restore_rejects_a_mismatched_scenario() {
    let cluster = Arc::new(Cluster::builder().localities(2).build());
    let driver = DistributedDriver::builder(Scenario::sod_amr(), cluster).build().expect("driver");
    let blob = driver.checkpoint().expect("checkpoint");
    let other = Arc::new(Cluster::builder().localities(2).build());
    match DistributedDriver::restore(Scenario::sod(1), other, &blob) {
        Err(Error::Checkpoint(_)) => {}
        Err(e) => panic!("wrong error kind: {e}"),
        Ok(_) => panic!("mismatched topology must not restore"),
    }
}

/// Fault-free reference for the property test, computed once: one
/// step of the self-gravitating scenario on the shared-memory driver.
fn star_reference() -> &'static (u64, Octree) {
    use std::sync::OnceLock;
    static REF: OnceLock<(u64, Octree)> = OnceLock::new();
    REF.get_or_init(|| {
        let mut sim = Simulation::new(Scenario::star_amr());
        let dt = sim.step();
        (dt.to_bits(), sim.tree().clone())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// **Effectively-once under chaos**: any seeded fault plan without
    /// a crash — random drop/duplicate/delay/reorder rates — yields
    /// results bit-identical to the fault-free run on the level-2
    /// self-gravitating scenario, at 2 and 4 localities over both
    /// transports. The reliability layer retransmits what the fabric
    /// eats and suppresses what it duplicates; the action layer never
    /// observes the difference.
    #[test]
    fn any_crashless_fault_plan_is_bit_transparent(seed in any::<u64>()) {
        let (dt_ref, tree_ref) = star_reference();
        // Derive modest per-hazard rates from the seed so every case
        // explores a different mix (0..~12% each; delays up to 96
        // ticks also force reordering across the backoff ladder).
        let pct = |shift: u32| ((seed >> shift) & 0x7) as f64 / 64.0;
        let plan = FaultPlan::seeded(seed)
            .drop(pct(0))
            .duplicate(pct(3))
            .delay(pct(6), 16 + (seed >> 9) % 81)
            .reorder(pct(16));
        for n in [2usize, 4] {
            for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
                let cluster = Arc::new(
                    Cluster::builder()
                        .localities(n)
                        .threads_per(2)
                        .transport(kind)
                        .fault_plan(plan.clone())
                        .reliable(test_policy())
                        .build(),
                );
                let mut driver =
                    DistributedDriver::builder(Scenario::star_amr(), Arc::clone(&cluster))
                        .build()
                        .expect("driver");
                let dt = driver.step().expect("step under faults");
                prop_assert_eq!(dt.to_bits(), *dt_ref, "seed {} x{} {}", seed, n, kind);
                assert_trees_bit_identical(
                    &driver.assemble(),
                    tree_ref,
                    &format!("seed {seed} x{n} {kind}"),
                );
                prop_assert_eq!(
                    cluster.transport().in_flight(),
                    0,
                    "seed {} x{} {}: fabric must drain",
                    seed, n, kind
                );
            }
        }
    }
}
