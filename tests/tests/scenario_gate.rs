//! The scenario verification registry, end to end.
//!
//! Every entry of `octotiger::scenarios::registry()` is driven through
//! its gated run: per-step conservation gates (flagship: z-angular
//! momentum in the rotating frame closing through the `hydro::angmom`
//! spin ledger to ≤1e-12 relative), the pinned golden state digest, and
//! the analytic tolerance gates (Sod L1, Sedov shock radius, virial
//! balance, Roche geometry).
//!
//! Distributed identity: the same registry entries run on the simulated
//! cluster at every registered locality count and on both transports,
//! and must reproduce the single-locality digest **bit for bit** — the
//! single `assert_eq!` on two FNV-1a-64 digests stands in for a
//! field-by-field comparison of every cell in the tree.
//!
//! The heavyweight runs are `#[cfg(not(debug_assertions))]`: tier-1
//! runs them through the *release* test pass (`scripts/tier1.sh`), while
//! the debug pass still executes the sod gate — whose golden digest was
//! pinned from a release run, making it the debug==release
//! arithmetic-identity witness.

use octotiger::scenarios::{registry, run_gate, spec};

#[cfg(not(debug_assertions))]
use octotiger::{
    scenarios::{run_gate_distributed, state_digest},
    DistributedDriver,
};
#[cfg(not(debug_assertions))]
use parcelport::{cluster::Cluster, netmodel::TransportKind};
#[cfg(not(debug_assertions))]
use std::sync::Arc;

/// Every registry entry is fully armed: a pinned golden digest and the
/// flagship z-angular-momentum gate. A new scenario can be calibrated
/// with `golden_digest: None`, but must not ship that way.
#[test]
fn every_scenario_is_fully_gated() {
    let reg = registry();
    assert!(reg.len() >= 5, "registry shrank below five scenarios");
    for s in &reg {
        assert!(s.golden_digest.is_some(), "{}: no golden digest pinned", s.name);
        assert!(s.gates.angular_z.is_some(), "{}: flagship L_z gate missing", s.name);
        assert!(s.steps > 0, "{}: empty gated run", s.name);
        if let Some(gate_steps) = s.gate_steps {
            assert!(
                (1..=s.steps).contains(&gate_steps),
                "{}: gate window outside the run",
                s.name
            );
        }
    }
}

/// The sod gate end to end in *any* build profile: conservation window,
/// L1 against the exact Riemann solution, and the golden digest. The
/// digest was pinned from a release run, so passing under debug proves
/// the arithmetic is identical across build profiles.
#[test]
fn sod_gate_passes_with_golden_digest() {
    let run = run_gate(&spec("sod").expect("sod registered"));
    assert!(run.passed(), "sod gate failures: {:?}", run.failures);
}

/// The full registry, single locality. Release-only: the binary-merger
/// scenarios cost minutes per step under debug.
#[cfg(not(debug_assertions))]
#[test]
fn all_scenario_gates_pass() {
    for s in registry() {
        let run = run_gate(&s);
        assert!(run.passed(), "{}: gate failures: {:?}", s.name, run.failures);
        assert!(
            run.max_angular_z_drift <= 1e-12,
            "{}: flagship L_z drift {:.3e} above 1e-12",
            s.name,
            run.max_angular_z_drift
        );
    }
}

/// What the first FMM solve of the two binary scenarios does with its
/// pairs, pinned exactly: (counted, evaluated, through the 455-flop
/// body) — `gravity::kernels::PairCounts` summed over the solve. These
/// are counts, so they do not drift with the host as a timing does: a
/// change that sends leaf lane groups back to the full body (`v1309`
/// evaluated 94 327 808 of 112 587 776 pairs that way before the
/// per-lane-group selection), or stops skipping the absent groups
/// behind the domain wall (5 030 624 pairs on either tree), fails here.
/// The rest of `evaluated` is 71 132 160 pairs through the `QUAD = false`
/// form plus 18 259 968 through the monopole kernels on `v1309`, and
/// 21 352 448 through the monopole kernels on `mini_binary`.
#[cfg(not(debug_assertions))]
#[test]
fn first_solve_pair_counts_are_pinned() {
    for (name, pinned) in [
        ("mini_binary", (21_916_496, 23_662_880, 2_310_432)),
        ("v1309", (105_810_768, 107_557_152, 18_165_024)),
    ] {
        let s = spec(name).expect("registered");
        let field = octotiger::Simulation::new((s.build)())
            .solve_gravity()
            .expect("self-gravity is on");
        assert_eq!(
            (field.interactions, field.pairs_evaluated, field.pairs_full_body),
            pinned,
            "{name}: (counted, evaluated, full body) of the first solve"
        );
    }
}

/// A gravity step's tasks, counted exactly: on a one-locality
/// `mini_binary` step (a level-2 tree, 64 leaves under 9 refined nodes)
/// each of the two solves runs a task per leaf for P2M and for its item,
/// and per refined node for M2M, for its item and for its downward step;
/// the three hydro phases — the dt and the two stages, whose task takes
/// the leaf's RHS and writes its update — run one per leaf. A join runs
/// no task.
#[cfg(not(debug_assertions))]
#[test]
fn a_gravity_step_runs_one_task_per_leaf_item_and_none_for_assembly() {
    let mut sim = octotiger::Simulation::new((spec("mini_binary").expect("registered").build)());
    let tree = sim.tree();
    let (leaves, nodes) = (tree.leaves().len() as u64, tree.len() as u64);
    assert_eq!((leaves, nodes - leaves), (64, 9), "a uniform level-2 tree");
    let executed = |sim: &octotiger::Simulation| sim.runtime().metrics().get("tasks/executed");
    let before = executed(&sim);
    sim.step();
    assert_eq!(executed(&sim) - before, 2 * (64 + 9 + 9 + 9 + 64) + 3 * 64);
}

/// How many of the first solve's evaluated pairs took `B0` / `B1` from
/// a level's lattice table (`gravity::kernels::PairCounts::lattice`),
/// pinned exactly beside the triples above. On `mini_binary` every leaf
/// group is a lattice group, so it is `evaluated − full body`; on
/// `v1309` it is that (89 392 128: every reduced-form leaf group there
/// is a lattice group too) plus the 2 766 848 lattice–lattice lanes of
/// flagged leaves' full-body groups, which take the table by lane. A
/// change that sends lattice groups back through the divide and the
/// square root fails here.
#[cfg(not(debug_assertions))]
#[test]
fn first_solve_lattice_pair_counts_are_pinned() {
    for (name, pinned) in [("mini_binary", 21_352_448), ("v1309", 92_158_976)] {
        let s = spec(name).expect("registered");
        let field = octotiger::Simulation::new((s.build)())
            .solve_gravity()
            .expect("self-gravity is on");
        assert_eq!(field.pairs_lattice, pinned, "{name}: lattice pairs of the first solve");
    }
}

/// Distributed bit-identity: every registered locality count × both
/// transports reproduces the single-locality golden digest, and the
/// per-step dt sequence is bitwise identical across every cluster
/// shape (dt is a global reduction — one bit of drift there means the
/// dt exchange round is broken).
#[cfg(not(debug_assertions))]
#[test]
fn distributed_gate_runs_are_bit_identical_on_both_transports() {
    for s in registry() {
        if s.localities.is_empty() {
            continue;
        }
        let golden = s.golden_digest.expect("pinned");
        let mut reference_dts: Option<Vec<f64>> = None;
        for &localities in s.localities {
            for transport in [TransportKind::Mpi, TransportKind::Libfabric] {
                let (run, dts) = run_gate_distributed(&s, localities, transport)
                    .unwrap_or_else(|e| panic!("{} x{localities} {transport:?}: {e}", s.name));
                assert!(
                    run.passed(),
                    "{} x{localities} {transport:?}: {:?}",
                    s.name,
                    run.failures
                );
                assert_eq!(
                    run.digest, golden,
                    "{} x{localities} {transport:?}: digest diverged from single-locality",
                    s.name
                );
                match &reference_dts {
                    None => reference_dts = Some(dts),
                    Some(reference) => {
                        assert_eq!(reference.len(), dts.len());
                        for (step, (a, b)) in reference.iter().zip(&dts).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{} x{localities} {transport:?}: dt[{step}]",
                                s.name
                            );
                        }
                    }
                }
            }
        }
    }
}

/// ISSUE 10: elastic rebalancing mid-run must be invisible to the
/// physics. Start the mini_binary gated run from a deliberately skewed
/// partition on 2 localities, force a rebalance at the halfway point
/// (≥ 1 owner change, successor epoch), then grow the live run onto a
/// 3-locality cluster over the other transport and finish there — the
/// final state must still match the pinned single-locality golden
/// digest bit for bit.
#[cfg(not(debug_assertions))]
#[test]
fn mid_run_rebalance_and_elastic_rescale_reproduce_the_golden_digest() {
    let s = spec("mini_binary").expect("registered");
    let golden = s.golden_digest.expect("pinned");
    let cut = s.steps / 2;

    let cluster = Arc::new(
        Cluster::builder().localities(2).threads_per(2).transport(TransportKind::Mpi).build(),
    );
    let mut driver = DistributedDriver::builder((s.build)(), cluster)
        .skewed_partition(850)
        .build()
        .expect("driver");
    assert!(driver.imbalance_permille() > 300, "skew must register");
    for _ in 0..cut {
        driver.step().expect("pre-rebalance step");
    }
    let moved = driver.rebalance().expect("rebalance");
    assert!(moved >= 1, "rebalancing the skew must move leaves");
    assert_eq!(driver.epoch(), 1, "rebalance installs the successor epoch");
    assert!(driver.imbalance_permille() < 300, "partition must rebalance");
    driver.step().expect("post-rebalance step");

    // Elastic grow: continue the same run on 3 localities.
    let bigger = Arc::new(
        Cluster::builder()
            .localities(3)
            .threads_per(2)
            .transport(TransportKind::Libfabric)
            .build(),
    );
    let mut grown = driver.rescale_onto(bigger).expect("rescale");
    assert_eq!(grown.steps, cut + 1, "rescale continues, not restarts");
    for _ in (cut + 1)..s.steps {
        grown.step().expect("post-rescale step");
    }
    assert_eq!(
        state_digest(&grown.assemble()),
        golden,
        "rebalanced + rescaled run diverged from the pinned digest"
    );
}

/// Checkpoint/restore mid-merger: cut a checkpoint partway through the
/// mini_binary gated run on a 2-locality cluster, restore it onto 1 and
/// onto 3 localities (the shard re-adoption path — 3 does not divide
/// the original shard layout), finish the run on each, and require the
/// pinned golden digest bit for bit.
#[cfg(not(debug_assertions))]
#[test]
fn mid_merger_checkpoint_restores_onto_any_cluster_shape() {
    let s = spec("mini_binary").expect("registered");
    let golden = s.golden_digest.expect("pinned");
    let cut = s.steps / 2;

    let cluster = Arc::new(
        Cluster::builder().localities(2).threads_per(2).transport(TransportKind::Mpi).build(),
    );
    let mut reference = DistributedDriver::builder((s.build)(), cluster).build().expect("driver");
    let mut blob = None;
    for step in 1..=s.steps {
        reference.step().expect("reference step");
        if step == cut {
            blob = Some(reference.checkpoint().expect("checkpoint"));
        }
    }
    assert_eq!(state_digest(&reference.assemble()), golden, "reference run digest");
    let blob = blob.expect("checkpoint cut");

    for survivors in [1usize, 3] {
        let fresh = Arc::new(
            Cluster::builder()
                .localities(survivors)
                .threads_per(2)
                .transport(TransportKind::Libfabric)
                .build(),
        );
        let mut restored =
            DistributedDriver::restore((s.build)(), fresh, &blob).expect("restore");
        assert_eq!(restored.steps, cut, "restored onto {survivors}: step index");
        for _ in cut..s.steps {
            restored.step().expect("post-restore step");
        }
        assert_eq!(
            state_digest(&restored.assemble()),
            golden,
            "restored onto {survivors} localities: final digest"
        );
    }
}
